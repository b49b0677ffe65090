//! E1–E3: executable reproductions of the paper's three figures.

mod common;

use common::{bank_system, deposit, BANK, CLIENT};
use itdos::Invocation;
use itdos_giop::types::Value;

/// Figure 1: a singleton client invokes on a 3f+1 replicated server
/// through the full stack; all correct replicas converge.
#[test]
fn figure1_singleton_client_replicated_server() {
    let mut system = bank_system(11).build();
    let done = system.invoke(CLIENT, deposit(250));
    assert_eq!(done.result, Ok(Value::LongLong(250)));
    assert!(done.suspects.is_empty());
    // every element executed the request and replied
    for index in 0..4 {
        let element = system.element(BANK, index);
        assert_eq!(element.requests_handled, 1, "element {index}");
        assert_eq!(element.replies_sent, 1, "element {index}");
    }
}

/// Figure 1 continued: state accumulates identically across invocations.
#[test]
fn figure1_sequential_invocations_accumulate() {
    let mut system = bank_system(12).build();
    for (i, amount) in [100i64, 50, -30].iter().enumerate() {
        let done = system.invoke(CLIENT, deposit(*amount));
        let expected = [100i64, 150, 120][i];
        assert_eq!(done.result, Ok(Value::LongLong(expected)));
    }
    let done = system.invoke(
        CLIENT,
        Invocation::of(BANK)
            .object(b"acct")
            .interface("Bank::Account")
            .operation("balance"),
    );
    assert_eq!(done.result, Ok(Value::LongLong(120)));
}

/// Figure 2: one request traverses every stack layer; the message ledger
/// shows each layer's traffic class.
#[test]
fn figure2_stack_layers_all_exercised() {
    let mut system = bank_system(13).build();
    system.sim.stats_mut().enable_ledger();
    system.invoke(CLIENT, deposit(1));
    let stats = system.sim.stats();
    // SMIOP layer: GIOP-in-BFT submission and the direct voted reply path
    assert!(
        stats.label("smiop-submit").messages > 0,
        "SMIOP submissions"
    );
    assert!(
        stats.label("smiop-reply").messages >= 3,
        "2f+1 direct replies"
    );
    // Secure Reliable Multicast layer: the three-phase ordering protocol
    assert!(stats.label("bft-pre-prepare").messages > 0);
    assert!(stats.label("bft-prepare").messages > 0);
    assert!(stats.label("bft-commit").messages > 0);
    assert!(stats.label("bft-reply").messages > 0);
    // Group Manager layer: threshold key distribution
    assert!(stats.label("gm-keyshare").messages > 0, "key shares flowed");
}

/// Figure 3: connection establishment — open_request to the GM, key
/// shares to server elements and client, then the invocation; a second
/// invocation on the same association reuses the connection (§3.4).
#[test]
fn figure3_connection_establishment_and_reuse() {
    let mut system = bank_system(14).build();
    system.invoke(CLIENT, deposit(5));
    let shares_after_first = system.sim.stats().label("gm-keyshare").messages;
    // 4 GM elements × (4 server elements + 1 client) = 20 share messages
    assert_eq!(shares_after_first, 20, "one full key distribution");
    system.invoke(CLIENT, deposit(5));
    let shares_after_second = system.sim.stats().label("gm-keyshare").messages;
    assert_eq!(
        shares_after_second, shares_after_first,
        "connection reuse: no new key distribution"
    );
    // the connection table on the elements holds exactly one connection
    assert_eq!(system.element(BANK, 0).connection_count(), 1);
}

/// Runs are reproducible: identical seeds give identical traffic.
#[test]
fn deterministic_replay() {
    let run = |seed| {
        let mut system = bank_system(seed).build();
        system.invoke(CLIENT, deposit(9));
        (
            system.sim.now(),
            system.sim.stats().total.messages,
            system.sim.stats().total.bytes,
        )
    };
    assert_eq!(run(99), run(99));
}
