//! Proactive recovery and Byzantine Group Manager elements.
//!
//! §3.2: "one of the main features of Castro–Liskov is to keep faulty
//! replicas in the system until they are proactively recovered" — here a
//! silently corrupted element restores clean state from its peers.
//! §3.5: a corrupt GM element "cannot tamper with or obtain the
//! communication key" — its corrupt shares are rejected by the per-share
//! verification information.

mod common;

use common::{bank_system, BANK, CLIENT};
use itdos::ServerElement;
use itdos_bft::state::StateMachine;
use itdos_giop::types::Value;

fn deposit(system: &mut itdos::System, amount: i64) -> itdos::Completed {
    system.invoke(CLIENT, common::deposit(amount))
}

/// An undetected intrusion silently corrupts one element's replicated
/// queue state; proactive recovery restores it from peers at the next
/// checkpoint and the domain reconverges.
#[test]
fn proactive_recovery_restores_corrupted_state() {
    let mut system = bank_system(91).build();
    for _ in 0..5 {
        deposit(&mut system, 2);
    }
    let node = system.fabric.domain(BANK).nodes[1];
    // silent corruption: the attacker rewrites the replicated state
    // without producing any observable faulty message
    {
        let element = system.sim.process_mut::<ServerElement>(node);
        let garbage = itdos_bft::queue::QueueMachine::new(64, std::iter::empty()).snapshot();
        element.replica_mut().app_mut().restore(&garbage);
        element.replica_mut().start_recovery();
    }
    // traffic past the next checkpoint (interval 16) completes recovery
    for _ in 0..20 {
        deposit(&mut system, 2);
    }
    system.settle();
    let healthy = system.element(BANK, 0).replica().app().digest();
    let recovered = system.element(BANK, 1).replica();
    assert!(!recovered.is_recovering(), "recovery completed");
    assert_eq!(
        recovered.app().digest(),
        healthy,
        "recovered element reconverged with the domain"
    );
    // and the service was never interrupted
    let done = deposit(&mut system, 0);
    assert_eq!(done.result, Ok(Value::LongLong(50)));
}

/// A Byzantine GM element distributes corrupt key shares (wrong input,
/// claimed as real). Every endpoint's DLEQ verification rejects them, the
/// honest f+1 shares still assemble the key, and service is unaffected.
#[test]
fn corrupt_gm_shares_are_rejected_and_masked() {
    let mut builder = bank_system(92);
    let mut system = builder_build_with_corrupt_gm(&mut builder);
    let done = deposit(&mut system, 7);
    assert_eq!(
        done.result,
        Ok(Value::LongLong(7)),
        "keying survived the corrupt GM element"
    );
    assert!(done.suspects.is_empty());
    // connections assembled on every element despite one bad share stream
    for index in 0..4 {
        assert_eq!(system.element(BANK, index).connection_count(), 1);
    }
}

fn builder_build_with_corrupt_gm(builder: &mut itdos::SystemBuilder) -> itdos::System {
    let fresh = std::mem::replace(builder, itdos::SystemBuilder::new(0));
    let mut system = fresh.build();
    system.gm_element_mut(0).corrupt_shares = true;
    system
}

/// Two corrupt GM elements exceed f_gm = 1: key assembly must *still*
/// succeed because 2 honest shares remain (threshold f_gm+1 = 2) — the
/// corrupt ones simply never contribute.
#[test]
fn two_corrupt_gm_elements_still_leave_enough_honest_shares() {
    let mut builder = bank_system(93);
    let fresh = std::mem::replace(&mut builder, itdos::SystemBuilder::new(0));
    let mut system = fresh.build();
    system.gm_element_mut(0).corrupt_shares = true;
    system.gm_element_mut(1).corrupt_shares = true;
    let done = deposit(&mut system, 3);
    assert_eq!(done.result, Ok(Value::LongLong(3)));
}

/// Recovery while the rest of the domain is idle: the element stays in
/// recovering state until the next checkpoint provides a fresh-enough
/// snapshot — pinning the checkpoint-granularity semantics.
#[test]
fn recovery_waits_for_a_fresh_checkpoint() {
    let mut system = bank_system(94).build();
    for _ in 0..3 {
        deposit(&mut system, 1);
    }
    let node = system.fabric.domain(BANK).nodes[2];
    {
        let element = system.sim.process_mut::<ServerElement>(node);
        element.replica_mut().start_recovery();
    }
    // a couple of deposits — not enough to cross the checkpoint interval
    for _ in 0..2 {
        deposit(&mut system, 1);
    }
    system.settle();
    // (peers had no checkpoint ≥ the element's execution point yet; the
    // element must not have restored a stale snapshot)
    let e2 = system.element(BANK, 2).replica();
    let healthy = system.element(BANK, 0).replica().last_executed();
    assert!(
        e2.is_recovering() || e2.last_executed() == healthy,
        "no stale restore: recovering={} exec={:?} healthy={:?}",
        e2.is_recovering(),
        e2.last_executed(),
        healthy
    );
    // push past the checkpoint: recovery completes
    for _ in 0..20 {
        deposit(&mut system, 1);
    }
    system.settle();
    assert!(!system.element(BANK, 2).replica().is_recovering());
    assert_eq!(
        system.element(BANK, 2).replica().app().digest(),
        system.element(BANK, 0).replica().app().digest()
    );
}
