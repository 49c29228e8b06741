//! `isrl` — command-line tooling for Interactive Search with Reinforcement
//! Learning.
//!
//! ```text
//! isrl generate --builtin anti:10000x4 --out data.csv
//! isrl train    --builtin car --algo ea --eps 0.1 --episodes 300 --out ea.ckpt
//! isrl eval     --builtin car --model ea.ckpt --users 50
//! isrl eval     --builtin car --baseline single-pass --eps 0.1
//! isrl serve    --builtin car --model ea.ckpt
//! isrl inspect  --model ea.ckpt
//! ```

mod args;
mod commands;
mod data_io;
mod trace;

use args::Args;

const USAGE: &str = "\
isrl — Interactive Search with Reinforcement Learning (ICDE 2025)

USAGE: isrl <command> [flags]

COMMANDS:
  generate   write a dataset as CSV
             --builtin car|player|anti:<n>x<d>|corr:<n>x<d>|indep:<n>x<d>
             (or --data file.csv [--smaller col1,col2]) [--no-skyline]
             [--seed N] --out file.csv
  train      train an RL agent and save a checkpoint
             <dataset flags> --algo ea|aa [--eps 0.1] [--episodes 200]
             [--seed N] [--geometry exact|sampled|auto]
             [--trace-out t.jsonl] [--metrics] --out model.ckpt
  eval       evaluate a checkpoint or baseline over simulated users
             <dataset flags> (--model model.ckpt | --baseline
             uh-random|uh-simplex|single-pass|utility-approx)
             [--eps 0.1] [--users 30] [--noise 0.0]
             [--geometry exact|sampled|auto]
             [--trace-out t.jsonl] [--metrics]
  serve      interview a human on stdin, or serve many sessions over TCP
             <dataset flags> --model model.ckpt [--eps 0.1]
             [--listen host:port [--port-file f] [--trace-out t.jsonl]
              [--flight-depth 32] [--slow-factor 4] [--slow-warmup 64]]
  loadgen    replay simulated users against a live `serve --listen` server
             --connect host:port [--users 32] [--concurrency 8] [--seed 7]
             [--eps 0.1] [--algo ea|aa] [--noise 0.0] [--shutdown]
             [--out report.json] [--trace-out t.jsonl]
  stats      query a live server's RED-metrics snapshot over the wire
             --connect host:port [--detail] [--json]
  inspect    summarize a checkpoint
             --model model.ckpt
  trace-validate  check a --trace-out file against the event schema
             (exits nonzero on malformed lines or warning counters)
  trace-report    aggregate a trace into paper-style tables
             <file.jsonl> [--json <dir>] [--only <id>[,<id>…]]
  trace-diff      attribute the latency delta between two traces to
             span subtrees   <a.jsonl> <b.jsonl> [--top <k>] [--json <dir>]

TELEMETRY:
  --trace-out <file>      stream per-round / per-episode events as JSONL
                          (one event per line, trailing summary line)
  --metrics               print counter/span/sketch aggregates to stderr
  --metrics-interval <s>  sample aggregate deltas every <s> seconds as
                          timeseries events (live progress on stderr)
";

/// Shared dataset-selection flags, accepted by every command that loads data.
const DATASET_FLAGS: &str = "\
  --builtin <name>       car | player | anti:<n>x<d> | corr:<n>x<d> | indep:<n>x<d>
  --data <file.csv>      load a CSV instead of a builtin
  --smaller <c1,c2>      CSV columns where smaller is better
  --no-skyline           keep dominated tuples
  --seed <N>             dataset / simulation seed
";

/// Shared telemetry flags (`train` and `eval`).
const TELEMETRY_FLAGS: &str = "\
  --trace-out <file>     stream per-round / per-episode events as JSONL
                         (one event per line, trailing summary line)
  --metrics              print counter/span/sketch aggregates to stderr
  --metrics-interval <s> sample aggregate deltas every <s> seconds as
                         timeseries events (live progress on stderr)
";

/// Per-subcommand usage text for `isrl <command> --help`.
fn command_help(command: &str) -> Option<String> {
    let (summary, flags) = match command {
        "generate" => (
            "write a dataset as CSV",
            format!("{DATASET_FLAGS}  --out <file.csv>       output path (required)\n"),
        ),
        "train" => (
            "train an RL agent and save a checkpoint",
            format!(
                "{DATASET_FLAGS}\
  --algo ea|aa           algorithm to train (default ea)
  --eps <x>              stop-condition threshold (default 0.1)
  --episodes <N>         training episodes (default 200)
  --lr <x>               DQN learning-rate override (any float; \"nan\"
                         is the training-health watchdog drill)
  --geometry <mode>      EA utility-region backend: exact | sampled | auto
                         (default auto: exact up to d=7, sampled above)
  --out <model.ckpt>     checkpoint output path (required)
{TELEMETRY_FLAGS}"
            ),
        ),
        "eval" => (
            "evaluate a checkpoint or baseline over simulated users",
            format!(
                "{DATASET_FLAGS}\
  --model <model.ckpt>   trained agent to evaluate, or:
  --baseline <name>      uh-random | uh-simplex | single-pass | utility-approx
  --eps <x>              stop-condition threshold (default 0.1)
  --users <N>            simulated users (default 30)
  --noise <x>            answer-flip probability (default 0.0)
  --geometry <mode>      EA utility-region backend: exact | sampled | auto
                         (default auto: exact up to d=7, sampled above)
{TELEMETRY_FLAGS}"
            ),
        ),
        "serve" => (
            "interview a human on stdin, or serve many sessions over TCP",
            format!(
                "{DATASET_FLAGS}\
  --model <model.ckpt>   trained agent to serve (required)
  --eps <x>              stop-condition threshold (default 0.1; stdin mode —
                         TCP clients pick ε per session in their hello frame)
  --geometry <mode>      EA utility-region backend: exact | sampled | auto
                         (default auto: exact up to d=7, sampled above)
  --listen <host:port>   serve the line-JSON protocol over TCP instead of
                         interviewing on stdin (port 0 picks a free port);
                         runs until a client sends a shutdown frame
  --port-file <file>     write the bound port once listening (with --listen)
  --rolling-window <s>   horizon of the rolling round-latency sketch behind
                         the stats frame and slow-round threshold (default 30)
  --flight-depth <N>     rounds kept in the flight-recorder ring (default 32)
  --slow-factor <x>      a round slower than x × rolling p99 dumps a
                         slow_round event (default 4; must be > 1)
  --slow-warmup <N>      rolling samples required before the slow-round
                         trigger arms (default 64)
  --slow-cooldown <N>    requests to suppress further dumps after one fires
                         (default 64)
{TELEMETRY_FLAGS}"
            ),
        ),
        "loadgen" => (
            "replay simulated users against a live `serve --listen` server",
            format!(
                "\
  --connect <host:port>  server address (required)
  --users <N>            simulated users to replay (default 32)
  --concurrency <N>      client connections; users dealt round-robin (default 8)
  --seed <N>             base seed; user u plays utility mix(seed, u) (default 7)
  --eps <x>              per-session regret threshold (default 0.1)
  --algo ea|aa           which registered policy to request (default ea)
  --noise <x>            answer-flip probability (default 0.0)
  --shutdown             send a shutdown frame after all users finish
  --out <report.json>    save the aggregate report as JSON
{TELEMETRY_FLAGS}"
            ),
        ),
        "stats" => (
            "query a live server's RED-metrics snapshot over the wire",
            "  --connect <host:port>  server address (required)
  --detail               include the per-connection session breakdown
  --json                 print the raw stats frame body as one JSON line\n"
                .to_string(),
        ),
        "inspect" => (
            "summarize a checkpoint",
            "  --model <model.ckpt>   checkpoint to describe (required)\n".to_string(),
        ),
        "trace-validate" => (
            "check a --trace-out file against the event schema",
            "  <file.jsonl>           trace to validate (positional); exits
                         nonzero on malformed lines or warning counters\n"
                .to_string(),
        ),
        "trace-report" => (
            "aggregate a trace into paper-style tables",
            "  <file.jsonl>           trace to report on (positional)
  --json <dir>           also save each table as <dir>/trace_<id>.json
  --only <id>[,<id>…]    print only the listed tables (questions |
                         episodes | phases | rounds | lp | latency |
                         serve | serve_errors | slow | timeseries |
                         census); unknown ids fail upfront\n"
                .to_string(),
        ),
        "trace-diff" => (
            "attribute the latency delta between two traces to span subtrees",
            "  <a.jsonl> <b.jsonl>    baseline and candidate traces (positional);
                         both must contain profile events (--trace-out)
  --top <k>              rows to keep, ranked by |Δself| (default 10)
  --json <dir>           also save the table as <dir>/trace_diff.json\n"
                .to_string(),
        ),
        _ => return None,
    };
    Some(format!(
        "isrl {command} — {summary}\n\nUSAGE: isrl {command} [flags]\n\nFLAGS:\n{flags}"
    ))
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        eprint!("{USAGE}");
        std::process::exit(if raw.is_empty() { 2 } else { 0 });
    }
    let command = raw.remove(0);
    let args = Args::parse(raw);
    if args.wants_help() {
        match command_help(&command) {
            Some(text) => {
                print!("{text}");
                std::process::exit(0);
            }
            None => {
                eprintln!("unknown command {command:?}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let result = match command.as_str() {
        "generate" => commands::generate(&args),
        "train" => commands::train(&args),
        "eval" => commands::eval(&args),
        "serve" => commands::serve(&args),
        "loadgen" => commands::loadgen(&args),
        "stats" => commands::stats(&args),
        "inspect" => commands::inspect(&args),
        "trace-validate" => trace::validate(&args),
        "trace-report" => trace::report(&args),
        "trace-diff" => trace::diff(&args),
        other => {
            eprintln!("unknown command {other:?}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
