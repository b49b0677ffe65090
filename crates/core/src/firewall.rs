//! The IT-CORBA firewall proxy.
//!
//! Figure 1 places an "IT-CORBA Proxy" at each enclave boundary that "can
//! monitor BFTM messages at the enclave boundary" (§1; the paper defers
//! details for brevity). We implement the stated function: a relay that
//! admits only well-formed ITDOS traffic, filters by destination policy,
//! and rate-limits — dropping everything else before it reaches the
//! protected enclave.

use std::collections::BTreeSet;

use simnet::{Context, NodeId, Process, SimTime};
use xbytes::Bytes;

use crate::wire::CoreMsg;

/// Filtering policy for one firewall.
#[derive(Debug, Clone)]
pub struct FirewallPolicy {
    /// Nodes inside the enclave this proxy protects.
    pub protected: BTreeSet<NodeId>,
    /// Maximum admitted messages per simulated millisecond (0 = no limit).
    pub rate_limit_per_ms: u32,
}

/// Per-firewall counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirewallStats {
    /// Messages relayed into the enclave.
    pub admitted: u64,
    /// Malformed frames dropped.
    pub dropped_malformed: u64,
    /// Frames dropped by rate limiting.
    pub dropped_rate: u64,
    /// Frames addressed to nodes outside the policy.
    pub dropped_policy: u64,
}

/// An enclave-boundary relay: senders outside the enclave address the
/// firewall with `[8-byte destination node][CoreMsg bytes]`; the firewall
/// validates and forwards.
#[derive(Debug)]
pub struct Firewall {
    policy: FirewallPolicy,
    window_start: SimTime,
    window_count: u32,
    /// Counters (inspect after a run).
    pub stats: FirewallStats,
}

impl Firewall {
    /// Creates a firewall with the given policy.
    pub fn new(policy: FirewallPolicy) -> Firewall {
        Firewall {
            policy,
            window_start: SimTime::ZERO,
            window_count: 0,
            stats: FirewallStats::default(),
        }
    }

    /// Frames a message for transit through a firewall.
    pub fn frame(destination: NodeId, msg: &CoreMsg) -> Bytes {
        let inner = msg.encode();
        let mut out = Vec::with_capacity(8 + inner.len());
        out.extend_from_slice(&(destination.as_raw() as u64).to_le_bytes());
        out.extend_from_slice(&inner);
        Bytes::from(out)
    }
}

impl Process for Firewall {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        if payload.len() < 9 {
            self.stats.dropped_malformed += 1;
            return;
        }
        let dest_raw = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let destination = NodeId::from_raw(dest_raw as u32);
        // only well-formed ITDOS traffic passes the boundary
        if CoreMsg::decode(&payload[8..]).is_err() {
            self.stats.dropped_malformed += 1;
            return;
        }
        if !self.policy.protected.contains(&destination) {
            self.stats.dropped_policy += 1;
            return;
        }
        if self.policy.rate_limit_per_ms > 0 {
            let now = ctx.now();
            if now.since(self.window_start).as_micros() >= 1_000 {
                self.window_start = now;
                self.window_count = 0;
            }
            if self.window_count >= self.policy.rate_limit_per_ms {
                self.stats.dropped_rate += 1;
                return;
            }
            self.window_count += 1;
        }
        self.stats.admitted += 1;
        ctx.send_labeled(destination, payload.slice(8..), "firewall-relay");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdos_groupmgr::membership::DomainId;
    use simnet::Simulator;

    struct Sink {
        got: u32,
    }

    impl Process for Sink {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {
            self.got += 1;
        }
    }

    fn valid_msg() -> CoreMsg {
        CoreMsg::Bft {
            domain: DomainId(1),
            envelope: vec![1, 2, 3].into(),
        }
    }

    fn setup(rate: u32) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let inside = sim.add_process(Box::new(Sink { got: 0 }));
        let mut protected = BTreeSet::new();
        protected.insert(inside);
        let fw = sim.add_process(Box::new(Firewall::new(FirewallPolicy {
            protected,
            rate_limit_per_ms: rate,
        })));
        (sim, inside, fw)
    }

    #[test]
    fn valid_traffic_is_relayed() {
        let (mut sim, inside, fw) = setup(0);
        sim.inject(fw, Firewall::frame(inside, &valid_msg()));
        sim.run();
        assert_eq!(sim.process_ref::<Sink>(inside).got, 1);
        assert_eq!(sim.process_ref::<Firewall>(fw).stats.admitted, 1);
    }

    #[test]
    fn malformed_traffic_is_dropped() {
        let (mut sim, inside, fw) = setup(0);
        sim.inject(fw, Bytes::from_static(&[0u8; 20]));
        sim.inject(fw, Bytes::from_static(&[1, 2]));
        sim.run();
        assert_eq!(sim.process_ref::<Sink>(inside).got, 0);
        assert_eq!(sim.process_ref::<Firewall>(fw).stats.dropped_malformed, 2);
    }

    #[test]
    fn policy_blocks_unprotected_destinations() {
        let (mut sim, inside, fw) = setup(0);
        let outsider = NodeId::from_raw(99);
        sim.inject(fw, Firewall::frame(outsider, &valid_msg()));
        sim.run();
        assert_eq!(sim.process_ref::<Sink>(inside).got, 0);
        assert_eq!(sim.process_ref::<Firewall>(fw).stats.dropped_policy, 1);
    }

    #[test]
    fn rate_limit_caps_flood() {
        let (mut sim, inside, fw) = setup(3);
        for _ in 0..10 {
            sim.inject(fw, Firewall::frame(inside, &valid_msg()));
        }
        sim.run();
        assert_eq!(sim.process_ref::<Sink>(inside).got, 3);
        assert_eq!(sim.process_ref::<Firewall>(fw).stats.dropped_rate, 7);
    }
}
