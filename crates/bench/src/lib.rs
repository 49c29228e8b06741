//! Benchmark harness for the ISRL reproduction.
//!
//! * [`sweep`] — dataset specs, algorithm factories, parallel evaluation;
//! * [`report`] — result tables (terminal, CSV and JSON) and the
//!   `BENCH_*.json` artifact shape;
//! * [`kernels`] — every timed workload and the one timer, shared by the
//!   `perf_check` and `bench_all` binaries;
//! * [`history`] — bench-history records and the noise-aware
//!   perf-regression gate behind the `perf_check` binary;
//! * the `figures` binary regenerates every figure of the paper's §V
//!   (`cargo run -p isrl-bench --release --bin figures -- all`), and the
//!   `bench_all` binary every `BENCH_*.json` artifact.

pub mod history;
pub mod kernels;
pub mod report;
pub mod sweep;
