//! E9: virtual-synchrony expulsion — a non-participating element blocks
//! queue GC, is reported as a laggard, voted out through the Group
//! Manager, and keyed out so the queue makes progress again (§3.1, §3.2).

mod common;

use common::{bank_system, BANK, CLIENT};
use itdos_giop::types::Value;

fn deposit(system: &mut itdos::System, amount: i64) -> itdos::Completed {
    system.invoke(CLIENT, common::deposit(amount))
}

/// The full virtual-synchrony loop: crash an element, fill the queue past
/// the laggard threshold, watch the healthy elements vote it out via the
/// GM, and confirm GC resumes (bytes drop) and service continues.
#[test]
fn laggard_is_expelled_and_gc_resumes() {
    let mut builder = bank_system(81);
    builder.ack_interval(2);
    builder.queue_capacity(8192);
    let mut system = builder.build();
    // warm-up so connections exist, then crash element 3
    deposit(&mut system, 1);
    let crashed_node = system.fabric.domain(BANK).nodes[3];
    let crashed_element = system.fabric.domain(BANK).elements[3];
    system.sim.config_mut().isolate(crashed_node);
    // push enough traffic that the bounded queue passes half capacity
    // while the crashed element's missing acks block GC
    for i in 0..25 {
        let done = deposit(&mut system, 1);
        assert!(done.result.is_ok(), "deposit {i} must succeed");
    }
    system.settle();
    // the GM expelled the laggard (votes from >= f+1 healthy elements)
    for gm_index in 0..4 {
        let membership = system
            .gm_element(gm_index)
            .replica()
            .app()
            .manager()
            .membership();
        assert!(
            !membership.domain(BANK).unwrap().is_active(crashed_element),
            "gm {gm_index}: laggard expelled"
        );
    }
    // the healthy elements applied the queue Expel op, so GC resumed
    let queue = system.element(BANK, 0).replica().app();
    assert!(
        !queue.members().any(|m| m.0 == crashed_element.0),
        "expelled from the queue GC membership"
    );
    assert!(
        queue.bytes_used() * 2 < queue.capacity(),
        "GC drained the queue below the laggard threshold: {} of {}",
        queue.bytes_used(),
        queue.capacity()
    );
    // and the service still answers
    let done = deposit(&mut system, 5);
    assert_eq!(done.result, Ok(Value::LongLong(31)));
}

/// Domain-originated change requests need f+1 concurring elements: with
/// all elements healthy, no expulsion ever happens even under heavy load.
#[test]
fn healthy_domain_never_expels() {
    let mut builder = bank_system(82);
    builder.ack_interval(2);
    builder.queue_capacity(8192);
    let mut system = builder.build();
    for _ in 0..20 {
        deposit(&mut system, 1);
    }
    system.settle();
    for gm_index in 0..4 {
        let membership = system
            .gm_element(gm_index)
            .replica()
            .app()
            .manager()
            .membership();
        assert_eq!(membership.domain(BANK).unwrap().active_count(), 4);
    }
}

/// Expulsion bumps the connection epoch on every element (rekey) — the
/// paper's "keyed out of all communication groups" made observable.
#[test]
fn expulsion_rekeys_connections() {
    let mut builder = bank_system(83);
    builder.behavior(BANK, 2, itdos::fault::Behavior::CorruptValue);
    let mut system = builder.build();
    deposit(&mut system, 9);
    system.settle();
    // the GM's connection record moved to epoch 1
    let gm = system.gm_element(0);
    let (_, record) = gm
        .replica()
        .app()
        .manager()
        .connections()
        .next()
        .expect("one connection");
    assert_eq!(record.epoch, 1, "rekeyed once after the expulsion");
}
