//! Checkpointing for trained agents.
//!
//! Training is the expensive offline step (the paper uses 10,000 simulated
//! users); serving interactions is cheap. This module serializes a trained
//! [`EaAgent`]/[`AaAgent`] — configuration plus Q-network parameters — into
//! a compact, versioned binary blob so policies can be trained once and
//! shipped.
//!
//! Format (little-endian): magic `ISRL`, format version `u16`, agent tag
//! `u8`, config fields, then the flat `f64` parameter vector of the main
//! network. The target network is reconstructed as a copy (they are synced
//! at the end of training).
//!
//! Loading validates before it builds: the decoded shape must be one the
//! agent constructors accept, the stored parameter count must equal the
//! count that shape implies, and every parameter must be finite. A
//! corrupt blob is an `Err`, never a panic or a network sized by a
//! flipped bit.

use crate::aa::{AaAgent, AaConfig, AaSummary, PairGenConfig};
use crate::ea::{EaAgent, EaConfig, EaStateEncoder, StateVariant};
use isrl_rl::{DqnConfig, EpsilonSchedule};

const MAGIC: &[u8; 4] = b"ISRL";
const VERSION: u16 = 1;
const TAG_EA: u8 = 1;
const TAG_AA: u8 = 2;

/// Errors from [`load_ea`]/[`load_aa`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Missing/incorrect magic bytes.
    BadMagic,
    /// A newer (or corrupt) format version.
    BadVersion(u16),
    /// The blob holds the other agent kind.
    WrongAgent {
        /// Tag found in the blob.
        found: u8,
        /// Tag the caller asked for.
        expected: u8,
    },
    /// Truncated or internally inconsistent payload.
    Truncated,
    /// A network parameter is NaN or infinite.
    NonFinite,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not an ISRL checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::WrongAgent { found, expected } => {
                write!(f, "checkpoint holds agent tag {found}, expected {expected}")
            }
            CheckpointError::Truncated => write!(f, "truncated checkpoint"),
            CheckpointError::NonFinite => write!(f, "checkpoint holds non-finite weights"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Bounds-checked little-endian reads over the rest of a blob: running
/// out of bytes is `Err(Truncated)`, never a panic.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        if self.0.len() < N {
            return Err(CheckpointError::Truncated);
        }
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        Ok(head.try_into().expect("length checked above"))
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take::<1>()?[0])
    }

    /// A `u32` field, widened to `usize`.
    fn u32(&mut self) -> Result<usize, CheckpointError> {
        Ok(u32::from_le_bytes(self.take()?) as usize)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take()?))
    }
}

fn put_schedule(buf: &mut Vec<u8>, s: &EpsilonSchedule) {
    match *s {
        EpsilonSchedule::Constant(e) => {
            buf.push(0);
            buf.extend(e.to_le_bytes());
        }
        EpsilonSchedule::Linear { start, end, steps } => {
            buf.push(1);
            buf.extend(start.to_le_bytes());
            buf.extend(end.to_le_bytes());
            buf.extend(steps.to_le_bytes());
        }
    }
}

fn get_schedule(r: &mut Reader) -> Result<EpsilonSchedule, CheckpointError> {
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    match r.u8()? {
        0 => {
            let eps = r.f64()?;
            if !unit(eps) {
                return Err(CheckpointError::Truncated);
            }
            Ok(EpsilonSchedule::constant(eps))
        }
        1 => {
            let (start, end, steps) = (r.f64()?, r.f64()?, r.u64()?);
            if !unit(start) || !unit(end) || steps == 0 {
                return Err(CheckpointError::Truncated);
            }
            Ok(EpsilonSchedule::linear(start, end, steps))
        }
        _ => Err(CheckpointError::Truncated),
    }
}

fn put_params(buf: &mut Vec<u8>, params: &[f64]) {
    buf.extend((params.len() as u32).to_le_bytes());
    for &p in params {
        buf.extend(p.to_le_bytes());
    }
}

/// Reads the parameter vector, which must hold exactly the `expected`
/// count implied by the decoded shape (`None`: the shape overflows) and
/// only finite values.
fn get_params(r: &mut Reader, expected: Option<usize>) -> Result<Vec<f64>, CheckpointError> {
    let len = r.u32()?;
    if Some(len) != expected || r.0.len() < len * 8 {
        return Err(CheckpointError::Truncated);
    }
    let params = (0..len).map(|_| r.f64()).collect::<Result<Vec<_>, _>>()?;
    if params.iter().any(|p| !p.is_finite()) {
        return Err(CheckpointError::NonFinite);
    }
    Ok(params)
}

/// Q-network parameter count of an agent over `dim` attributes with a
/// `state_dim`-wide state: the network both agent constructors build
/// (`DqnConfig::paper_default(state_dim, 2 * dim)`). `None` on overflow.
fn agent_params(state_dim: usize, dim: usize) -> Option<usize> {
    DqnConfig::paper_default(state_dim, dim.checked_mul(2)?).n_params()
}

fn header(tag: u8) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(MAGIC);
    buf.extend(VERSION.to_le_bytes());
    buf.push(tag);
    buf
}

fn check_header(r: &mut Reader, expected_tag: u8) -> Result<(), CheckpointError> {
    if r.0.len() < 7 {
        return Err(CheckpointError::Truncated);
    }
    if &r.take::<4>()? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u16::from_le_bytes(r.take()?);
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let tag = r.u8()?;
    if tag != expected_tag {
        return Err(CheckpointError::WrongAgent {
            found: tag,
            expected: expected_tag,
        });
    }
    Ok(())
}

/// Serializes a (typically trained) EA agent.
pub fn save_ea(agent: &EaAgent) -> Vec<u8> {
    let cfg = agent.config();
    let mut buf = header(TAG_EA);
    buf.extend((agent.dim() as u32).to_le_bytes());
    buf.extend((cfg.m_e as u32).to_le_bytes());
    buf.extend(cfg.d_eps.to_le_bytes());
    buf.push(match cfg.state_variant {
        StateVariant::Full => 0,
        StateVariant::RepsOnly => 1,
        StateVariant::SphereOnly => 2,
        StateVariant::StridedReps => 3,
    });
    buf.extend((cfg.m_h as u32).to_le_bytes());
    buf.extend((cfg.n_samples as u32).to_le_bytes());
    buf.extend(cfg.reward_c.to_le_bytes());
    buf.extend((cfg.max_rounds as u32).to_le_bytes());
    buf.extend(cfg.gamma.to_le_bytes());
    buf.extend(cfg.lr.to_le_bytes());
    buf.extend((cfg.replay_capacity as u32).to_le_bytes());
    buf.extend((cfg.batch_size as u32).to_le_bytes());
    buf.extend(cfg.target_sync_every.to_le_bytes());
    buf.extend((cfg.train_steps_per_round as u32).to_le_bytes());
    buf.push(u8::from(cfg.use_adam));
    put_schedule(&mut buf, &cfg.epsilon);
    buf.extend(cfg.seed.to_le_bytes());
    buf.extend(agent.episodes_trained().to_le_bytes());
    put_params(&mut buf, &agent.dqn().network().to_flat());
    buf
}

/// Restores an EA agent from [`save_ea`] output.
pub fn load_ea(bytes: &[u8]) -> Result<EaAgent, CheckpointError> {
    let r = &mut Reader(bytes);
    check_header(r, TAG_EA)?;
    let dim = r.u32()?;
    let cfg = EaConfig {
        m_e: r.u32()?,
        d_eps: r.f64()?,
        state_variant: match r.u8()? {
            0 => StateVariant::Full,
            1 => StateVariant::RepsOnly,
            2 => StateVariant::SphereOnly,
            3 => StateVariant::StridedReps,
            _ => return Err(CheckpointError::Truncated),
        },
        m_h: r.u32()?,
        n_samples: r.u32()?,
        reward_c: r.f64()?,
        max_rounds: r.u32()?,
        gamma: r.f64()?,
        lr: r.f64()?,
        replay_capacity: r.u32()?,
        batch_size: r.u32()?,
        target_sync_every: r.u64()?,
        train_steps_per_round: r.u32()?,
        use_adam: r.u8()? != 0,
        epsilon: get_schedule(r)?,
        seed: r.u64()?,
        // Not persisted: the geometry backend is a serving-time
        // speed/fidelity choice, not learned state (the state encoder's
        // shape is identical either way), so restored agents get the
        // default auto-by-dimension resolution. Override with
        // `EaAgent::set_geometry` (the CLI's `--geometry` flag does).
        geometry: isrl_geometry::GeometryBackend::default(),
        walk: isrl_geometry::WalkConfig::default(),
    };
    let episodes = r.u64()?;
    // Shapes `EaAgent::new` would reject by panicking.
    if dim < 2 || cfg.m_e == 0 || cfg.d_eps.is_nan() || cfg.d_eps <= 0.0 || cfg.replay_capacity == 0
    {
        return Err(CheckpointError::Truncated);
    }
    let state_dim =
        EaStateEncoder::with_variant(dim, cfg.m_e, cfg.d_eps, cfg.state_variant).state_dim();
    let params = get_params(r, agent_params(state_dim, dim))?;
    let mut agent = EaAgent::new(dim, cfg);
    agent.restore(&params, episodes);
    Ok(agent)
}

/// Serializes a (typically trained) AA agent.
pub fn save_aa(agent: &AaAgent) -> Vec<u8> {
    let cfg = agent.config();
    let mut buf = header(TAG_AA);
    buf.extend((agent.dim() as u32).to_le_bytes());
    buf.extend((cfg.m_h as u32).to_le_bytes());
    buf.extend((cfg.pair_gen.top_k as u32).to_le_bytes());
    buf.extend((cfg.pair_gen.random_pairs as u32).to_le_bytes());
    buf.extend((cfg.pair_gen.max_lp_checks as u32).to_le_bytes());
    buf.push(u8::from(cfg.pair_gen.rank_by_distance));
    buf.extend(cfg.reward_c.to_le_bytes());
    buf.extend((cfg.max_rounds as u32).to_le_bytes());
    buf.extend(cfg.gamma.to_le_bytes());
    buf.extend(cfg.lr.to_le_bytes());
    buf.extend((cfg.replay_capacity as u32).to_le_bytes());
    buf.extend((cfg.batch_size as u32).to_le_bytes());
    buf.extend(cfg.target_sync_every.to_le_bytes());
    buf.extend((cfg.train_steps_per_round as u32).to_le_bytes());
    buf.push(u8::from(cfg.use_adam));
    put_schedule(&mut buf, &cfg.epsilon);
    buf.extend(cfg.seed.to_le_bytes());
    buf.extend(agent.episodes_trained().to_le_bytes());
    put_params(&mut buf, &agent.dqn().network().to_flat());
    buf
}

/// Restores an AA agent from [`save_aa`] output.
pub fn load_aa(bytes: &[u8]) -> Result<AaAgent, CheckpointError> {
    let r = &mut Reader(bytes);
    check_header(r, TAG_AA)?;
    let dim = r.u32()?;
    let cfg = AaConfig {
        m_h: r.u32()?,
        pair_gen: PairGenConfig {
            top_k: r.u32()?,
            random_pairs: r.u32()?,
            max_lp_checks: r.u32()?,
            rank_by_distance: r.u8()? != 0,
        },
        reward_c: r.f64()?,
        max_rounds: r.u32()?,
        gamma: r.f64()?,
        lr: r.f64()?,
        replay_capacity: r.u32()?,
        batch_size: r.u32()?,
        target_sync_every: r.u64()?,
        train_steps_per_round: r.u32()?,
        use_adam: r.u8()? != 0,
        epsilon: get_schedule(r)?,
        seed: r.u64()?,
        // Not persisted: a pure speed knob with no effect on outcomes, so
        // restored agents always get the (default) warm path.
        warm_lp: true,
    };
    let episodes = r.u64()?;
    // Shapes `AaAgent::new` would reject by panicking.
    if dim == 0 || cfg.replay_capacity == 0 {
        return Err(CheckpointError::Truncated);
    }
    let params = get_params(r, agent_params(AaSummary::state_dim(dim), dim))?;
    let mut agent = AaAgent::new(dim, cfg);
    agent.restore(&params, episodes);
    Ok(agent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::{InteractiveAlgorithm, TraceMode};
    use crate::runner::sample_users;
    use crate::user::SimulatedUser;
    use isrl_data::Dataset;

    fn data() -> Dataset {
        Dataset::from_points(
            vec![
                vec![1.0, 0.05],
                vec![0.85, 0.4],
                vec![0.6, 0.65],
                vec![0.4, 0.85],
                vec![0.05, 1.0],
            ],
            2,
        )
    }

    #[test]
    fn ea_round_trip_preserves_behavior() {
        let d = data();
        let mut agent = EaAgent::new(2, EaConfig::paper_default().with_seed(1));
        agent.train(&d, &sample_users(2, 8, 2), 0.1);
        let blob = save_ea(&agent);
        let mut restored = load_ea(&blob).unwrap();
        assert_eq!(restored.episodes_trained(), agent.episodes_trained());
        assert_eq!(
            restored.dqn().network().to_flat(),
            agent.dqn().network().to_flat(),
            "weights must round-trip bit-exactly"
        );
        // Same user, same questions, same answer (the internal RNG was
        // reconstructed from the same seed).
        let mut u1 = SimulatedUser::new(vec![0.4, 0.6]);
        let mut u2 = SimulatedUser::new(vec![0.4, 0.6]);
        let o1 = agent.run(&d, &mut u1, 0.1, TraceMode::Off);
        let o2 = restored.run(&d, &mut u2, 0.1, TraceMode::Off);
        assert_eq!(o1.point_index, o2.point_index);
    }

    #[test]
    fn aa_round_trip_preserves_weights_and_config() {
        let d = data();
        let mut cfg = AaConfig::paper_default().with_seed(3);
        cfg.pair_gen.rank_by_distance = false;
        let mut agent = AaAgent::new(2, cfg);
        agent.train(&d, &sample_users(2, 5, 4), 0.1);
        let blob = save_aa(&agent);
        let restored = load_aa(&blob).unwrap();
        assert!(!restored.config().pair_gen.rank_by_distance);
        assert_eq!(
            restored.dqn().network().to_flat(),
            agent.dqn().network().to_flat()
        );
    }

    /// Every truncation of `blob` is rejected; every single-bit flip of
    /// its header and config bytes (everything before the parameter
    /// values, the count included) and a seeded sample of parameter-bit
    /// flips either is rejected or loads an agent with all-finite weights.
    /// A panic or an oversized allocation fails the test run.
    fn assert_corruption_is_contained(
        blob: &[u8],
        n_params: usize,
        load: impl Fn(&[u8]) -> Result<Vec<f64>, CheckpointError>,
    ) {
        for cut in 0..blob.len() {
            assert!(load(&blob[..cut]).is_err(), "cut {cut} accepted");
        }
        let params_at = blob.len() - 8 * n_params;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let sampled = (0..512).map(|_| {
            // SplitMix64 over the parameter bytes' bit positions.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            params_at * 8 + ((z ^ (z >> 31)) % (8 * 8 * n_params as u64)) as usize
        });
        let mut corrupt = blob.to_vec();
        for bit in (0..params_at * 8).chain(sampled) {
            corrupt[bit / 8] ^= 1 << (bit % 8);
            if let Ok(weights) = load(&corrupt) {
                assert!(
                    weights.iter().all(|w| w.is_finite()),
                    "bit {bit}: non-finite weights loaded"
                );
            }
            corrupt[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn wrong_magic_and_truncation_are_rejected() {
        assert!(matches!(load_ea(b"nope"), Err(CheckpointError::Truncated)));
        assert!(matches!(
            load_ea(b"XXXX\x01\x00\x01rest"),
            Err(CheckpointError::BadMagic)
        ));

        let mut cfg = EaConfig::paper_default();
        cfg.epsilon = EpsilonSchedule::linear(0.9, 0.1, 500);
        let ea = EaAgent::new(3, cfg);
        assert_corruption_is_contained(&save_ea(&ea), ea.dqn().network().n_params(), |b| {
            load_ea(b).map(|a| a.dqn().network().to_flat())
        });
        let aa = AaAgent::new(3, AaConfig::paper_default());
        assert_corruption_is_contained(&save_aa(&aa), aa.dqn().network().n_params(), |b| {
            load_aa(b).map(|a| a.dqn().network().to_flat())
        });

        // A weight overwritten with a non-finite value is rejected.
        let mut blob = save_aa(&aa);
        let at = blob.len() - 8;
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            blob[at..].copy_from_slice(&bad.to_le_bytes());
            assert_eq!(load_aa(&blob).unwrap_err(), CheckpointError::NonFinite);
        }
    }

    #[test]
    fn agent_kinds_do_not_cross_load() {
        let ea = EaAgent::new(2, EaConfig::paper_default());
        let err = load_aa(&save_ea(&ea)).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::WrongAgent {
                found: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn linear_schedule_round_trips() {
        let mut cfg = EaConfig::paper_default();
        cfg.epsilon = EpsilonSchedule::linear(0.9, 0.1, 500);
        let agent = EaAgent::new(3, cfg);
        let restored = load_ea(&save_ea(&agent)).unwrap();
        assert_eq!(
            restored.config().epsilon,
            EpsilonSchedule::linear(0.9, 0.1, 500)
        );
    }
}
