//! The shared, immutable policy behind every serving session.

use crate::aa::AaAgent;
use crate::checkpoint::{self, CheckpointError};
use crate::ea::EaAgent;
use crate::round::Algo;
use isrl_geometry::GeometryBackend;
use isrl_rl::Dqn;

/// Which interactive algorithm a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// Algorithm EA — exact region maintenance, exact return.
    Ea,
    /// Algorithm AA — LP-summarized region, approximate return.
    Aa,
}

impl AlgoKind {
    /// Parses the protocol spelling (`"ea"`/`"aa"`, case-insensitive).
    pub fn parse(text: &str) -> Option<Self> {
        match text.trim().to_ascii_lowercase().as_str() {
            "ea" => Some(AlgoKind::Ea),
            "aa" => Some(AlgoKind::Aa),
            _ => None,
        }
    }

    /// The protocol spelling (lowercase).
    pub fn as_str(self) -> &'static str {
        match self {
            AlgoKind::Ea => "ea",
            AlgoKind::Aa => "aa",
        }
    }

    /// The telemetry spelling, matching the `round`/`episode` event streams.
    pub fn label(self) -> &'static str {
        match self {
            AlgoKind::Ea => "EA",
            AlgoKind::Aa => "AA",
        }
    }
}

/// A loaded agent served read-only.
///
/// [`ServeSession`](crate::serving::ServeSession) evaluates the Q-network
/// through [`Dqn::best_action_ref`] with a session-owned scratch buffer, so
/// one `Arc<ServePolicy>` backs any number of concurrent sessions without
/// locking or copying the network.
#[derive(Debug)]
pub enum ServePolicy {
    /// An EA checkpoint.
    Ea(EaAgent),
    /// An AA checkpoint.
    Aa(AaAgent),
}

impl ServePolicy {
    /// Deserializes either agent kind from a checkpoint blob (the blob's
    /// agent tag decides which).
    pub fn from_checkpoint(bytes: &[u8]) -> Result<Self, CheckpointError> {
        match checkpoint::load_ea(bytes) {
            Ok(agent) => Ok(ServePolicy::Ea(agent)),
            Err(CheckpointError::WrongAgent { .. }) => {
                checkpoint::load_aa(bytes).map(ServePolicy::Aa)
            }
            Err(e) => Err(e),
        }
    }

    /// The algorithm this policy runs.
    pub fn algo(&self) -> AlgoKind {
        match self {
            ServePolicy::Ea(_) => AlgoKind::Ea,
            ServePolicy::Aa(_) => AlgoKind::Aa,
        }
    }

    /// Dimensionality the policy was trained for.
    pub fn dim(&self) -> usize {
        match self {
            ServePolicy::Ea(a) => a.dim(),
            ServePolicy::Aa(a) => a.dim(),
        }
    }

    /// Overrides the EA region-geometry backend (a serving-time choice, not
    /// persisted in checkpoints). Returns `false` — and changes nothing —
    /// for an AA policy, which has no region geometry to configure.
    pub fn set_geometry(&mut self, backend: GeometryBackend) -> bool {
        match self {
            ServePolicy::Ea(a) => {
                a.set_geometry(backend);
                true
            }
            ServePolicy::Aa(_) => false,
        }
    }

    /// The read-only half of the agent that the round steps consult.
    pub(crate) fn algo_view(&self) -> Algo<'_> {
        match self {
            ServePolicy::Ea(a) => a.algo(),
            ServePolicy::Aa(a) => a.algo(),
        }
    }

    pub(crate) fn dqn(&self) -> &Dqn {
        match self {
            ServePolicy::Ea(a) => a.dqn(),
            ServePolicy::Aa(a) => a.dqn(),
        }
    }
}

impl From<EaAgent> for ServePolicy {
    fn from(agent: EaAgent) -> Self {
        ServePolicy::Ea(agent)
    }
}

impl From<AaAgent> for ServePolicy {
    fn from(agent: AaAgent) -> Self {
        ServePolicy::Aa(agent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aa::AaConfig;
    use crate::ea::EaConfig;

    #[test]
    fn algo_kind_round_trips() {
        assert_eq!(AlgoKind::parse("ea"), Some(AlgoKind::Ea));
        assert_eq!(AlgoKind::parse(" AA\n"), Some(AlgoKind::Aa));
        assert_eq!(AlgoKind::parse("eaa"), None);
        assert_eq!(AlgoKind::parse(""), None);
        for kind in [AlgoKind::Ea, AlgoKind::Aa] {
            assert_eq!(AlgoKind::parse(kind.as_str()), Some(kind));
        }
    }

    #[test]
    fn from_checkpoint_dispatches_on_tag() {
        let ea = EaAgent::new(2, EaConfig::paper_default());
        let blob = crate::checkpoint::save_ea(&ea);
        assert_eq!(
            ServePolicy::from_checkpoint(&blob).unwrap().algo(),
            AlgoKind::Ea
        );

        let aa = AaAgent::new(3, AaConfig::paper_default());
        let blob = crate::checkpoint::save_aa(&aa);
        let policy = ServePolicy::from_checkpoint(&blob).unwrap();
        assert_eq!(policy.algo(), AlgoKind::Aa);
        assert_eq!(policy.dim(), 3);

        assert!(ServePolicy::from_checkpoint(b"not a checkpoint").is_err());
    }
}
