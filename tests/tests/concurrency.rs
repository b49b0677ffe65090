//! Multiple clients and multiple domains sharing the fabric: the total
//! order serializes everyone's requests, per-connection voters keep the
//! streams separate, and state converges.

mod common;

use common::{bank_servant, deposit, repo, BANK, PRICER};
use itdos::{Invocation, ObsConfig, SystemBuilder};
use itdos_giop::types::Value;
use itdos_orb::object::ObjectKey;

fn balance() -> Invocation {
    Invocation::of(BANK)
        .object(b"acct")
        .interface("Bank::Account")
        .operation("balance")
}

/// Three clients hammer the same account concurrently; the BFT order
/// serializes them, every client sees a consistent (monotone) balance,
/// and the final total is exact.
#[test]
fn multiple_clients_serialize_on_one_domain() {
    let mut builder = SystemBuilder::new(201);
    builder.repository(repo());
    builder.add_domain(
        BANK,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
    );
    builder.add_client(1);
    builder.add_client(2);
    builder.add_client(3);
    let mut system = builder.build();

    // interleave submissions without settling in between
    for round in 0..4 {
        for client in 1..=3u64 {
            system.invoke_async(client, deposit(10 + round));
        }
    }
    system.settle();

    // 3 clients × 4 rounds of (10..13) = 3 × 46 = 138
    let expected_total: i64 = 3 * (10 + 11 + 12 + 13);
    for client in 1..=3u64 {
        let completed = &system.client(client).completed;
        assert_eq!(completed.len(), 4, "client {client} finished all rounds");
        // balances seen by one client are strictly increasing (total order)
        let balances: Vec<i64> = completed
            .iter()
            .map(|c| match &c.result {
                Ok(Value::LongLong(v)) => *v,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(
            balances.windows(2).all(|w| w[0] < w[1]),
            "client {client} balances monotone: {balances:?}"
        );
    }
    // the servants on every element agree on the final balance
    let mut check = SystemBuilderProbe(&mut system);
    check.assert_final_balance(expected_total);
}

struct SystemBuilderProbe<'a>(&'a mut itdos::System);

impl SystemBuilderProbe<'_> {
    fn assert_final_balance(&mut self, expected: i64) {
        let done = self.0.invoke(1, balance());
        assert_eq!(done.result, Ok(Value::LongLong(expected)));
    }
}

/// One client talks to two domains over two independent connections; the
/// per-connection request-id spaces and keys do not interfere.
#[test]
fn one_client_two_domains() {
    let mut builder = SystemBuilder::new(202);
    builder.repository(repo());
    builder.add_domain(
        BANK,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
    );
    builder.add_domain(
        PRICER,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
    );
    builder.add_client(1);
    let mut system = builder.build();

    let a = system.invoke(1, deposit(100));
    let b = system.invoke(
        1,
        Invocation::of(PRICER)
            .object(b"acct")
            .interface("Bank::Account")
            .operation("deposit")
            .arg(Value::LongLong(7)),
    );
    assert_eq!(a.result, Ok(Value::LongLong(100)));
    assert_eq!(
        b.result,
        Ok(Value::LongLong(7)),
        "independent state per domain"
    );
    let a2 = system.invoke(1, balance());
    assert_eq!(a2.result, Ok(Value::LongLong(100)));
}

/// Clients on different platforms (endianness) interoperate with the same
/// heterogeneous server domain.
#[test]
fn clients_on_different_platforms_interoperate() {
    use itdos_giop::platform::PlatformProfile;
    let mut builder = SystemBuilder::new(203);
    builder.repository(repo());
    builder.add_domain(
        BANK,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
    );
    builder.platforms(BANK, PlatformProfile::ALL.to_vec());
    builder.add_client_with(1, PlatformProfile::SPARC_SOLARIS, true); // big-endian client
    builder.add_client_with(2, PlatformProfile::X86_LINUX, true); // little-endian client
    let mut system = builder.build();
    let a = system.invoke(1, deposit(1));
    let b = system.invoke(2, deposit(2));
    assert_eq!(a.result, Ok(Value::LongLong(1)));
    assert_eq!(b.result, Ok(Value::LongLong(3)));
}

/// A pipelined client keeps several invocations outstanding at once;
/// replies still come back in submission order and every ticket resolves
/// to the right result.
#[test]
fn pipelined_client_preserves_submission_order() {
    let mut builder = SystemBuilder::new(204);
    builder.repository(repo());
    builder.add_domain(
        BANK,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
    );
    builder.add_client(1);
    builder.client_pipeline(4);
    let mut system = builder.build();

    let tickets: Vec<_> = (1..=8i64)
        .map(|i| system.invoke_async(1, deposit(i)))
        .collect();
    let done = system.await_all(&tickets);

    // each deposit sees the running total: 1, 3, 6, 10, ...
    let mut running = 0i64;
    for (i, completed) in done.iter().enumerate() {
        running += (i + 1) as i64;
        assert_eq!(
            completed.result,
            Ok(Value::LongLong(running)),
            "ticket {i} resolves in submission order"
        );
    }
    // the completion stream the client saw is the same FIFO order
    let seen: Vec<i64> = system
        .client(1)
        .completed
        .iter()
        .map(|c| match &c.result {
            Ok(Value::LongLong(v)) => *v,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "pipelined balances monotone: {seen:?}"
    );
}

/// Batching at the BFT layer with pipelined clients is invisible to
/// correctness: a batched system and an unbatched system reach the same
/// final state for the same workload.
#[test]
fn batched_and_unbatched_agree_on_final_state() {
    let run = |batched: bool| -> i64 {
        let mut builder = SystemBuilder::new(205);
        builder.repository(repo());
        builder.add_domain(
            BANK,
            1,
            Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
        );
        builder.add_client(1);
        builder.add_client(2);
        builder.client_pipeline(4);
        if batched {
            builder.batching(8, 16);
        } else {
            builder.unbatched();
        }
        let mut system = builder.build();
        for i in 1..=6i64 {
            system.invoke_async(1, deposit(i));
            system.invoke_async(2, deposit(100 * i));
        }
        system.settle();
        match system.invoke(1, balance()).result {
            Ok(Value::LongLong(v)) => v,
            other => panic!("unexpected {other:?}"),
        }
    };
    let expected = (1..=6i64).map(|i| i + 100 * i).sum::<i64>();
    assert_eq!(run(true), expected);
    assert_eq!(run(false), expected);
}

/// Batching pays (DESIGN.md §13): 8 clients × 32 requests each complete
/// at least twice as many requests per simulated second with
/// `batching(8, 16)` and an 8-deep pipeline as with one request per
/// sequence number and no pipeline, and the batched run's metrics dump
/// replays byte-identically.
#[test]
fn batching_at_least_doubles_throughput_and_replays_identically() {
    const CLIENTS: u64 = 8;
    const PER_CLIENT: u64 = 32;
    // (requests per simulated second, metrics dump)
    let run = |batched: bool| -> (f64, String) {
        let mut builder = SystemBuilder::new(9001);
        builder.obs(ObsConfig::standard());
        builder.repository(repo());
        if batched {
            builder.batching(8, 16);
            builder.client_pipeline(8);
        } else {
            builder.unbatched();
            builder.client_pipeline(1);
        }
        builder.add_domain(
            BANK,
            1,
            Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
        );
        for client in 1..=CLIENTS {
            builder.add_client(client);
        }
        let mut system = builder.build();
        // open every connection outside the measured window
        for client in 1..=CLIENTS {
            system.invoke(client, deposit(0));
        }
        let start = system.sim.now();
        for round in 0..PER_CLIENT {
            for client in 1..=CLIENTS {
                system.invoke_async(client, deposit(1 + round as i64));
            }
        }
        // step until the last reply lands: `settle()` would also wait out
        // trailing retransmit timers and stretch the window
        let all_done = |system: &itdos::System| {
            (1..=CLIENTS).all(|c| system.client(c).completed.len() as u64 == PER_CLIENT + 1)
        };
        while !all_done(&system) {
            assert!(system.sim.step(), "batched={batched}: ran dry");
        }
        let sim_us = system.sim.now().since(start).as_micros().max(1);
        system.settle();
        let per_sim_s = (CLIENTS * PER_CLIENT) as f64 * 1e6 / sim_us as f64;
        (per_sim_s, system.metrics_jsonl())
    };
    let (batched, dump) = run(true);
    let (_, replay) = run(true);
    assert!(
        dump == replay,
        "the batched run must replay byte-identically"
    );
    let (unbatched, _) = run(false);
    assert!(
        batched >= 2.0 * unbatched,
        "batched {batched:.0} req/sim-s is not 2x unbatched {unbatched:.0}"
    );
}
