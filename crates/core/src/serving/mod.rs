//! Multi-session serving: thousands of live interactions behind one
//! shared dataset and checkpoint.
//!
//! The paper evaluates the interactive loop one simulated user at a time;
//! the ROADMAP's north star is heavy concurrent traffic. This module is
//! the serving core that bridges the two (DESIGN.md §14):
//!
//! * [`ServePolicy`] — a loaded EA/AA checkpoint evaluated immutably
//!   (`Dqn::best_action_ref`), so any number of sessions share one
//!   `Arc<ServePolicy>` + `Arc<Dataset>`;
//! * [`ServeSession`] — the one EA/AA round state machine (the same one
//!   the agents' `run` and `train` step) plus the shared policy and
//!   dataset; each round splits into a scan-free plan phase and a finish
//!   phase consuming externally computed top-1 results;
//! * [`SessionRegistry`] — holds the live sessions and runs the
//!   **cross-user batcher**: every pump coalesces all pending per-session
//!   scans into a single `top1_batch` call. Exactness of the scan makes
//!   this behavior-preserving, which the session-isolation differential
//!   test pins;
//! * [`protocol`] — the line-delimited JSON frames
//!   (`hello`/`question`/`answer`/`done`/`error`/`shutdown`);
//! * [`server`] — a small hand-rolled blocking TCP reactor (no async
//!   runtime; the workspace builds offline) with a micro-batching window;
//! * [`loadgen`] — replays N simulated users over the protocol and
//!   reports sessions/sec plus p50/p99 round latency.

mod answer;
mod loadgen;
mod policy;
pub mod protocol;
mod registry;
mod server;
mod session;

pub use answer::{choice_from_number, parse_choice};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use policy::{AlgoKind, ServePolicy};
pub use registry::{BatchStats, SessionRegistry};
pub use server::{spawn_server, ServerConfig, ServerHandle, ServerStats};
pub use session::{ServeError, ServeSession};
