//! The in-process replay: the same users, seeds and checkpoint played
//! through the public `ServeSession` / `Dataset::top1_batch` API, with each
//! compute layer timed. It is both the correctness oracle for the wire run
//! and the source of the compute-layer breakdown.

use std::sync::Arc;
use std::time::Instant;

use crate::workload::UserSpec;
use isrl_core::serving::{ServePolicy, ServeSession};
use isrl_core::user::{SimulatedUser, User};
use isrl_data::Dataset;

/// Compute spent serving one request (the `hello` or one `answer`), ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestCost {
    /// `ServeSession::new` (`hello` only): region set-up and the first
    /// round's plan.
    pub open_ns: f64,
    /// `ServeSession::answer` (answers only): the geometry cut and the LP
    /// of the next round's plan.
    pub cut_ns: f64,
    /// `Dataset::top1_batch` over the round's utility vectors.
    pub scan_ns: f64,
    /// `ServeSession::provide_scan`: the terminal check, the action
    /// candidates and the policy forward pass.
    pub finish_ns: f64,
    /// Utility vectors scanned for this request.
    pub utilities: usize,
}

/// One user's in-process session.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub user: usize,
    /// Dataset indices of each question's two options.
    pub questions: Vec<(usize, usize)>,
    pub recommendation: usize,
    pub truncated: bool,
    /// `false` when stopped at a question limit: no outcome.
    pub complete: bool,
    /// Per request: index 0 is the `hello`, k the answer to question k.
    pub costs: Vec<RequestCost>,
}

impl Replayed {
    pub fn rounds(&self) -> usize {
        self.questions.len()
    }
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Plays one user to the end of its session, or only through its first
/// `limit` questions (a session the wire run abandoned; its outcome is then
/// not meaningful).
pub fn replay_user(
    policy: &Arc<ServePolicy>,
    data: &Arc<Dataset>,
    eps: f64,
    workload_seed: u64,
    user: usize,
    limit: Option<usize>,
) -> Result<Replayed, String> {
    let spec = UserSpec::new(workload_seed, user, data.dim());
    let mut oracle = SimulatedUser::new(spec.utility);
    let t = Instant::now();
    let mut session = ServeSession::new(Arc::clone(policy), Arc::clone(data), eps, spec.seed)
        .map_err(|e| format!("user {user}: open: {e}"))?;
    let mut cost = RequestCost {
        open_ns: ns_since(t),
        ..RequestCost::default()
    };
    let mut out = Replayed {
        user,
        questions: Vec::new(),
        recommendation: 0,
        truncated: false,
        complete: false,
        costs: Vec::new(),
    };
    if limit == Some(0) {
        return Ok(out);
    }
    loop {
        while let Some(utilities) = session.take_scan_utilities() {
            let t = Instant::now();
            let top1 = data.top1_batch(&utilities);
            cost.scan_ns += ns_since(t);
            let t = Instant::now();
            session.provide_scan(&utilities, &top1);
            cost.finish_ns += ns_since(t);
            cost.utilities += utilities.len();
        }
        out.costs.push(cost);
        if session.is_finished() {
            break;
        }
        let q = session
            .current_question()
            .ok_or_else(|| format!("user {user}: unfinished session without a question"))?;
        out.questions.push((q.i, q.j));
        if limit == Some(out.questions.len()) {
            return Ok(out);
        }
        let choice = oracle.prefers(data.point(q.i), data.point(q.j));
        let t = Instant::now();
        session
            .answer(choice)
            .map_err(|e| format!("user {user}: answer: {e}"))?;
        cost = RequestCost {
            cut_ns: ns_since(t),
            ..RequestCost::default()
        };
    }
    out.recommendation = session
        .recommendation()
        .ok_or_else(|| format!("user {user}: finished without a recommendation"))?;
    out.truncated = session.truncated();
    out.complete = true;
    Ok(out)
}

/// Replays `(user, limit)` pairs on `threads` threads (this one included);
/// results come back sorted by user.
pub fn replay(
    policy: &Arc<ServePolicy>,
    data: &Arc<Dataset>,
    eps: f64,
    workload_seed: u64,
    users: &[(usize, Option<usize>)],
    threads: usize,
) -> Result<Vec<Replayed>, String> {
    let threads = threads.clamp(1, users.len().max(1));
    let work = |t: usize| -> Result<Vec<Replayed>, String> {
        users
            .iter()
            .skip(t)
            .step_by(threads)
            .map(|&(u, limit)| replay_user(policy, data, eps, workload_seed, u, limit))
            .collect()
    };
    let parts: Vec<Result<Vec<Replayed>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|t| s.spawn(move || work(t))).collect();
        let mut parts = vec![work(0)];
        parts.extend(handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("replay thread panicked".into()))
        }));
        parts
    });
    let mut out = Vec::with_capacity(users.len());
    for p in parts {
        out.extend(p?);
    }
    out.sort_by_key(|r| r.user);
    Ok(out)
}
