//! Network-level adversary scenarios (§2.1): duplication/replay,
//! in-flight tampering, selective delay — all below the authentication
//! layer, all absorbed by the stack.

use itdos_tests::common;

use common::{bank_system, BANK, CLIENT};
use itdos_giop::types::Value;
use simnet::adversary::{Scripted, Verdict};
use simnet::SimDuration;

fn deposit(system: &mut itdos::System, amount: i64) -> itdos::Completed {
    system.invoke(CLIENT, common::deposit(amount))
}

/// The network duplicates every message three times (replay attack at the
/// transport): BFT sequence numbers, client tables, voter sender-dedup,
/// and request-id matching must absorb it without double execution.
#[test]
fn message_duplication_does_not_double_execute() {
    let mut system = bank_system(301).build();
    let mut adversary = Scripted::new();
    adversary.rule(None, None, |_, _| {
        Verdict::Duplicate(vec![
            SimDuration::from_micros(40),
            SimDuration::from_micros(90),
        ])
    });
    system.sim.set_adversary(Box::new(adversary));
    for expected in [10i64, 20, 30] {
        let done = deposit(&mut system, 10);
        assert_eq!(done.result, Ok(Value::LongLong(expected)), "exactly-once");
    }
    // every element executed each request exactly once
    for index in 0..4 {
        assert_eq!(system.element(BANK, index).requests_handled, 3);
    }
}

/// The network corrupts everything one element sends: its MACs and seals
/// fail everywhere, turning it into a crash-faulty member the quorum
/// masks.
#[test]
fn tampered_element_traffic_is_equivalent_to_a_crash() {
    let mut system = bank_system(302).build();
    let victim = system.fabric.domain(BANK).nodes[2];
    let mut adversary = Scripted::new();
    adversary.tamper_from(victim);
    system.sim.set_adversary(Box::new(adversary));
    let done = deposit(&mut system, 5);
    assert_eq!(done.result, Ok(Value::LongLong(5)));
    assert!(
        done.suspects.is_empty(),
        "tampering is dropped at authentication, not misattributed as a value fault"
    );
}

/// The adversary delays all Group Manager key-share deliveries so the
/// invocation frames are ordered *before* the server elements hold the
/// connection key: the stall-and-retry path must recover.
#[test]
fn delayed_key_shares_are_survivable() {
    let mut system = bank_system(303).build();
    let gm_nodes: Vec<simnet::NodeId> = system.fabric.domain(itdos::GM_DOMAIN).nodes.to_vec();
    let mut adversary = Scripted::new();
    for node in gm_nodes {
        adversary.delay_from(node, SimDuration::from_millis(40));
    }
    system.sim.set_adversary(Box::new(adversary));
    let done = deposit(&mut system, 9);
    assert_eq!(
        done.result,
        Ok(Value::LongLong(9)),
        "stalled frames replayed after keying"
    );
}

/// Loss on every link (5%) with duplication of the remainder: the
/// retransmission machinery still completes a batch of invocations.
#[test]
fn lossy_duplicating_network_still_progresses() {
    let mut system = bank_system(305).build();
    system.sim.config_mut().loss_probability = 0.05;
    let mut adversary = Scripted::new();
    adversary.rule(None, None, |_, _| {
        Verdict::Duplicate(vec![SimDuration::from_micros(70)])
    });
    system.sim.set_adversary(Box::new(adversary));
    for round in 1..=3i64 {
        let done = deposit(&mut system, 4);
        assert_eq!(done.result, Ok(Value::LongLong(4 * round)));
    }
}

/// A client whose traffic is tampered with cannot be impersonated: the
/// deposit never executes, and after the adversary is removed the same
/// client works again (no corrupted state was left behind).
#[test]
fn client_tampering_fails_closed() {
    let mut system = bank_system(305).build();
    let client_node = system.fabric.node_of(CLIENT).expect("client wired");
    let mut adversary = Scripted::new();
    adversary.tamper_from(client_node);
    system.sim.set_adversary(Box::new(adversary));
    system.invoke_async(
        CLIENT,
        itdos::Invocation::of(BANK)
            .object(b"acct")
            .interface("Bank::Account")
            .operation("deposit")
            .arg(Value::LongLong(1_000_000)),
    );
    system
        .sim
        .run_until(system.sim.now() + SimDuration::from_millis(300));
    assert!(
        system.client(CLIENT).completed.is_empty(),
        "tampered client traffic is rejected, not executed"
    );
    for index in 0..4 {
        assert_eq!(
            system.element(BANK, index).requests_handled,
            0,
            "nothing reached the servants"
        );
    }
    // heal the network: the client's BFT retransmission finishes the job
    system
        .sim
        .set_adversary(Box::new(simnet::adversary::PassThrough));
    system.settle();
    assert_eq!(
        system.client(CLIENT).completed.len(),
        1,
        "retransmission completed the original request"
    );
}
