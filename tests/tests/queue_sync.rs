//! E8: message-queue state synchronization — a lagging element catches up
//! by state transfer over the replicated queue, and queue GC keeps the
//! bounded memory usable.

mod common;

use common::{bank_system, BANK, CLIENT};
use itdos_bft::state::StateMachine;

fn deposit(system: &mut itdos::System, amount: i64) -> itdos::Completed {
    system.invoke(CLIENT, common::deposit(amount))
}

/// A crashed element misses a checkpoint interval's worth of traffic,
/// reconnects, and synchronizes its queue state via BFT state transfer —
/// its queue digest converges with the rest of the domain.
#[test]
fn crashed_element_catches_up_via_state_transfer() {
    let mut system = bank_system(51).build();
    let crashed = system.fabric.domain(BANK).nodes[3];
    // one warm-up invocation so all connections exist before the crash
    deposit(&mut system, 1);
    system.sim.config_mut().isolate(crashed);
    // more than one checkpoint interval (16) of ordered queue operations:
    // each invocation orders a Deliver plus periodic Acks
    for _ in 0..20 {
        let done = deposit(&mut system, 1);
        assert!(done.result.is_ok());
    }
    let reference = system.element(BANK, 0).replica().last_executed();
    assert!(
        system.element(BANK, 3).replica().last_executed() < reference,
        "crashed element is behind"
    );
    // reconnect: checkpoint traffic triggers a state fetch
    system.sim.config_mut().reconnect(crashed);
    for _ in 0..20 {
        deposit(&mut system, 1);
    }
    system.settle();
    let healthy_digest = system.element(BANK, 0).replica().app().digest();
    let caught_up = system.element(BANK, 3).replica();
    assert!(
        caught_up.last_executed() >= reference,
        "element 3 moved past its crash point"
    );
    assert_eq!(
        caught_up.app().digest(),
        healthy_digest,
        "queue state digests converge after transfer"
    );
}

/// Queue GC reclaims memory as elements acknowledge consumption: the
/// queue's live bytes stay bounded far below the total traffic volume.
#[test]
fn queue_gc_bounds_memory() {
    let mut builder = bank_system(52);
    builder.ack_interval(4);
    let mut system = builder.build();
    for _ in 0..40 {
        deposit(&mut system, 1);
    }
    system.settle();
    let queue = system.element(BANK, 0).replica().app();
    let delivered = queue.next_index();
    assert!(delivered >= 40, "all invocations ordered");
    // with interval-4 acks, at most a few messages remain un-collected
    let live: usize = queue.entries().map(|e| e.payload.len()).sum();
    let total_ever = delivered as usize * 200; // frames are a few hundred bytes
    assert!(
        live < total_ever / 4,
        "GC reclaimed most of the queue: {live} bytes live"
    );
}

/// Without acknowledgements the queue would only grow; the ack/GC ops are
/// what keep `bytes_used` from tracking total traffic (ablation guard).
#[test]
fn acks_flow_through_the_total_order() {
    let mut builder = bank_system(53);
    builder.ack_interval(2);
    let mut system = builder.build();
    for _ in 0..10 {
        deposit(&mut system, 1);
    }
    system.settle();
    // every element applied the same queue ops in the same order: digests
    // are identical across the domain
    let d0 = system.element(BANK, 0).replica().app().digest();
    for index in 1..4 {
        assert_eq!(
            system.element(BANK, index).replica().app().digest(),
            d0,
            "element {index} queue state diverged"
        );
    }
}

/// Records element 0's ack requests (by BFT timestamp) as they cross the
/// wire and holds the copies of its first one in flight.
struct AckTap {
    element_node: simnet::NodeId,
    hold: simnet::SimDuration,
    acks: std::rc::Rc<std::cell::RefCell<std::collections::BTreeMap<u64, u64>>>,
}

impl simnet::adversary::Adversary for AckTap {
    fn intercept(
        &mut self,
        _now: simnet::SimTime,
        from: simnet::NodeId,
        _to: simnet::NodeId,
        payload: &xbytes::Bytes,
        _rng: &mut xrand::rngs::SmallRng,
    ) -> simnet::adversary::Verdict {
        use itdos_bft::message::Message;
        use itdos_bft::queue::QueueOp;
        use simnet::adversary::Verdict;
        if from != self.element_node {
            return Verdict::Pass;
        }
        let Ok(itdos::wire::CoreMsg::Bft { envelope, .. }) = itdos::wire::CoreMsg::decode(payload)
        else {
            return Verdict::Pass;
        };
        let Ok(envelope) = itdos_bft::auth::Envelope::decode(&envelope) else {
            return Verdict::Pass;
        };
        let Ok(Message::Request(request)) = Message::decode(&envelope.payload) else {
            return Verdict::Pass;
        };
        let Ok(QueueOp::Ack { up_to, .. }) = QueueOp::decode(request.operation()) else {
            return Verdict::Pass;
        };
        let mut acks = self.acks.borrow_mut();
        acks.insert(request.timestamp(), up_to);
        if acks.len() == 1 {
            Verdict::Delay(self.hold)
        } else {
            Verdict::Pass
        }
    }
}

/// Acks are cumulative, so an element keeps at most one queued or in
/// flight: 64 deliveries arriving while its first ack is still being
/// ordered produce exactly one further ack, cut with the head at the time
/// the first was accepted — not eight stale ones queued behind it.
#[test]
fn one_cumulative_ack_in_flight_per_element() {
    let mut system = bank_system(54).build();
    let acks = std::rc::Rc::new(std::cell::RefCell::new(std::collections::BTreeMap::new()));
    let hold = simnet::SimDuration::from_millis(80);
    system.sim.set_adversary(Box::new(AckTap {
        element_node: system.fabric.domain(BANK).nodes[0],
        hold,
        acks: acks.clone(),
    }));
    let mut first_ack_cut_at = None;
    for _ in 0..72 {
        let ticket = system.invoke_async(CLIENT, common::deposit(1));
        // closed loop without quiescing: nothing waits out a timer
        while system.result(ticket).is_none() {
            assert!(system.sim.step(), "invocation never completed");
        }
        if first_ack_cut_at.is_none() && !acks.borrow().is_empty() {
            first_ack_cut_at = Some(system.sim.now());
        }
    }
    let first_ack_cut_at = first_ack_cut_at.expect("the first ack was cut");
    assert_eq!(
        acks.borrow().values().copied().collect::<Vec<_>>(),
        vec![8],
        "one ack in flight"
    );
    assert!(
        system.sim.now() < first_ack_cut_at + hold,
        "all 64 further deliveries landed while the first ack was in flight"
    );
    system.settle();
    assert_eq!(
        acks.borrow().values().copied().collect::<Vec<_>>(),
        vec![8, 72],
        "exactly one further ack, up_to = the head when it was cut"
    );
}
