//! Experience replay memory.
//!
//! The paper trains both agents with DQN + experience replay (§IV-B2):
//! transitions `(s, a, r, s')` land in a bounded ring buffer (capacity 5,000
//! in the paper's setup) and gradient steps sample uniformly from it. One
//! wrinkle of this problem's MDP: the action set is *per-state* (the m_h
//! candidate pairs), so a stored transition must carry the successor state's
//! candidate actions too — otherwise `max_a' Q(s', a')` cannot be evaluated
//! at replay time.

use rand::Rng;
use std::collections::VecDeque;

/// One stored transition of the interaction MDP.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State features at decision time.
    pub state: Vec<f64>,
    /// Features of the action taken (the question's point pair, `2d` numbers).
    pub action: Vec<f64>,
    /// Immediate reward (the paper: `c` on reaching a terminal state, else 0).
    pub reward: f64,
    /// Successor: `None` when terminal, else the next state's features and
    /// the candidate-action features available there.
    pub next: Option<NextState>,
}

/// The successor side of a [`Transition`].
#[derive(Debug, Clone, PartialEq)]
pub struct NextState {
    /// Next state features.
    pub state: Vec<f64>,
    /// Candidate action features at the next state (non-empty).
    pub actions: Vec<Vec<f64>>,
}

/// Bounded uniform-sampling replay buffer.
#[derive(Debug, Clone)]
pub struct ReplayMemory {
    capacity: usize,
    buffer: VecDeque<Transition>,
}

impl ReplayMemory {
    /// Creates a memory holding at most `capacity` transitions.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        Self {
            capacity,
            buffer: VecDeque::with_capacity(capacity.min(8_192)),
        }
    }

    /// Stores a transition, evicting the oldest when full.
    pub fn push(&mut self, t: Transition) {
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
        }
        self.buffer.push_back(t);
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// `true` iff nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Maximum number of stored transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples `batch` transitions uniformly with replacement. Returns an
    /// empty vector when the memory is empty.
    pub fn sample<R: Rng + ?Sized>(&self, batch: usize, rng: &mut R) -> Vec<&Transition> {
        if self.buffer.is_empty() {
            return Vec::new();
        }
        (0..batch)
            .map(|_| &self.buffer[rng.gen_range(0..self.buffer.len())])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(r: f64) -> Transition {
        Transition {
            state: vec![0.1, 0.2],
            action: vec![0.3, 0.4, 0.5, 0.6],
            reward: r,
            next: Some(NextState {
                state: vec![0.7, 0.8],
                actions: vec![vec![1.0; 4], vec![2.0; 4]],
            }),
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut m = ReplayMemory::new(3);
        for i in 0..5 {
            m.push(t(i as f64));
        }
        assert_eq!(m.len(), 3);
        let mut rng = StdRng::seed_from_u64(1);
        let rewards: Vec<f64> = m.sample(100, &mut rng).iter().map(|t| t.reward).collect();
        assert!(
            rewards.iter().all(|&r| r >= 2.0),
            "old transitions must be gone"
        );
    }

    #[test]
    fn sample_is_empty_when_memory_is_empty() {
        let m = ReplayMemory::new(5);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(m.sample(10, &mut rng).is_empty());
    }

    #[test]
    fn sample_covers_contents() {
        let mut m = ReplayMemory::new(10);
        for i in 0..10 {
            m.push(t(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let seen: std::collections::HashSet<u64> = m
            .sample(500, &mut rng)
            .iter()
            .map(|t| t.reward as u64)
            .collect();
        assert!(
            seen.len() >= 9,
            "uniform sampling should hit nearly all slots"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        ReplayMemory::new(0);
    }
}
