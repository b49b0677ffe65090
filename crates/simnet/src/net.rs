//! Network configuration: latency model, loss, and partitions.

use std::collections::{BTreeMap, BTreeSet};

use xrand::Rng;

use crate::node::NodeId;
use crate::time::SimDuration;

/// Latency model for a link: a fixed base plus uniform jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latency {
    /// Minimum one-way delay.
    pub base: SimDuration,
    /// Additional uniformly distributed delay in `[0, jitter]`.
    pub jitter: SimDuration,
}

impl Latency {
    /// A constant-delay link with no jitter.
    pub fn fixed(delay: SimDuration) -> Self {
        Latency {
            base: delay,
            jitter: SimDuration::ZERO,
        }
    }

    /// Samples a concrete delay using `rng`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let j = self.jitter.as_micros();
        let extra = if j == 0 { 0 } else { rng.gen_range(0..=j) };
        self.base + SimDuration::from_micros(extra)
    }
}

impl Default for Latency {
    /// LAN-like defaults: 100µs base, 20µs jitter (the paper's testbed was a
    /// local network of Solaris/Linux hosts).
    fn default() -> Self {
        Latency {
            base: SimDuration::from_micros(100),
            jitter: SimDuration::from_micros(20),
        }
    }
}

/// Global and per-link network behaviour.
///
/// # Examples
///
/// ```
/// use simnet::net::{Latency, NetConfig};
/// use simnet::node::NodeId;
/// use simnet::time::SimDuration;
///
/// let mut cfg = NetConfig::default();
/// cfg.default_latency = Latency::fixed(SimDuration::from_millis(1));
/// cfg.isolate(NodeId::from_raw(3));
/// assert!(cfg.is_blocked(NodeId::from_raw(3), NodeId::from_raw(0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetConfig {
    /// Latency used for links without an override.
    pub default_latency: Latency,
    /// Per-link latency overrides.
    pub link_latency: BTreeMap<(NodeId, NodeId), Latency>,
    /// Probability in `[0.0, 1.0]` that any message copy is silently lost.
    pub loss_probability: f64,
    /// Nodes currently cut off from everyone (crashed or partitioned away).
    isolated: BTreeSet<NodeId>,
    /// Directed links explicitly blocked.
    blocked_links: BTreeSet<(NodeId, NodeId)>,
}

impl NetConfig {
    /// Returns the latency model for the `from -> to` link.
    pub fn latency(&self, from: NodeId, to: NodeId) -> Latency {
        self.link_latency
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_latency)
    }

    /// Cuts `node` off from the rest of the network (both directions).
    pub fn isolate(&mut self, node: NodeId) {
        self.isolated.insert(node);
    }

    /// Reconnects a previously isolated node.
    pub fn reconnect(&mut self, node: NodeId) {
        self.isolated.remove(&node);
    }

    /// Blocks the directed link `from -> to`.
    fn block_link(&mut self, from: NodeId, to: NodeId) {
        self.blocked_links.insert((from, to));
    }

    /// Partitions the network into two sides: every link crossing the
    /// boundary (either direction) is blocked.
    pub fn partition(&mut self, side_a: &[NodeId], side_b: &[NodeId]) {
        for &a in side_a {
            for &b in side_b {
                self.block_link(a, b);
                self.block_link(b, a);
            }
        }
    }

    /// Removes every blocked link and reconnects every isolated node.
    pub fn heal(&mut self) {
        self.blocked_links.clear();
        self.isolated.clear();
    }

    /// Returns true if messages from `from` to `to` cannot currently pass.
    pub fn is_blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.isolated.contains(&from)
            || self.isolated.contains(&to)
            || self.blocked_links.contains(&(from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::rngs::SmallRng;
    use xrand::SeedableRng;

    fn n(i: u32) -> NodeId {
        NodeId::from_raw(i)
    }

    #[test]
    fn fixed_latency_has_no_jitter() {
        let mut rng = SmallRng::seed_from_u64(1);
        let l = Latency::fixed(SimDuration::from_micros(42));
        for _ in 0..10 {
            assert_eq!(l.sample(&mut rng), SimDuration::from_micros(42));
        }
    }

    #[test]
    fn jitter_stays_in_range() {
        let mut rng = SmallRng::seed_from_u64(2);
        let l = Latency {
            base: SimDuration::from_micros(100),
            jitter: SimDuration::from_micros(50),
        };
        for _ in 0..100 {
            let d = l.sample(&mut rng).as_micros();
            assert!((100..=150).contains(&d), "delay {d} out of range");
        }
    }

    #[test]
    fn per_link_override_wins() {
        let mut cfg = NetConfig::default();
        let special = Latency::fixed(SimDuration::from_millis(9));
        cfg.link_latency.insert((n(0), n(1)), special);
        assert_eq!(cfg.latency(n(0), n(1)), special);
        assert_eq!(cfg.latency(n(1), n(0)), Latency::default());
    }

    #[test]
    fn isolation_blocks_both_directions() {
        let mut cfg = NetConfig::default();
        cfg.isolate(n(2));
        assert!(cfg.is_blocked(n(2), n(0)));
        assert!(cfg.is_blocked(n(0), n(2)));
        assert!(!cfg.is_blocked(n(0), n(1)));
        cfg.reconnect(n(2));
        assert!(!cfg.is_blocked(n(2), n(0)));
    }

    #[test]
    fn partition_blocks_crossing_links_only() {
        let mut cfg = NetConfig::default();
        cfg.partition(&[n(0), n(1)], &[n(2), n(3)]);
        assert!(cfg.is_blocked(n(0), n(2)));
        assert!(cfg.is_blocked(n(3), n(1)));
        assert!(!cfg.is_blocked(n(0), n(1)));
        assert!(!cfg.is_blocked(n(2), n(3)));
        cfg.heal();
        assert!(!cfg.is_blocked(n(0), n(2)));
    }

    #[test]
    fn directed_block_is_one_way() {
        let mut cfg = NetConfig::default();
        cfg.block_link(n(0), n(1));
        assert!(cfg.is_blocked(n(0), n(1)));
        assert!(!cfg.is_blocked(n(1), n(0)));
        cfg.blocked_links.remove(&(n(0), n(1)));
        assert!(!cfg.is_blocked(n(0), n(1)));
    }
}
