//! Observability-layer integration: the deterministic metrics/flight
//! pipeline threaded through the whole stack (DESIGN.md "Observability").
//!
//! The load-bearing property is *replayability*: two identical seeded runs
//! must produce byte-identical metric dumps, so a flight-recorder dump
//! attached to a bug report can be regenerated exactly from the seed.

use itdos_tests::common;

use common::{bank_system, deposit, BANK, CLIENT};
use itdos::system::System;
use itdos::{Invocation, ObsConfig};
use itdos_giop::types::Value;
use itdos_groupmgr::membership::DomainId;
use itdos_obs::metrics::label_u64;
use itdos_obs::{Event, LabelValue, SeriesKey};

/// Builds an instrumented bank system and runs `invocations` deposits.
fn instrumented_run(seed: u64, invocations: u64) -> System {
    let mut builder = bank_system(seed);
    builder.obs(ObsConfig::standard());
    let mut system = builder.build();
    for i in 0..invocations {
        let done = system.invoke(CLIENT, deposit(10 + i as i64));
        assert!(done.result.is_ok());
    }
    system.settle();
    system
}

/// Two runs from the same seed produce byte-identical JSON-lines dumps:
/// counters, gauges, histograms, *and* every flight-recorder event with
/// its timestamp. This is the determinism contract that justifies putting
/// itdos-obs on the lint L2 list.
#[test]
fn identical_runs_dump_identical_metrics() {
    let a = instrumented_run(71, 3);
    let b = instrumented_run(71, 3);
    let dump_a = a.metrics_jsonl();
    let dump_b = b.metrics_jsonl();
    assert!(!dump_a.is_empty());
    assert_eq!(dump_a, dump_b, "seeded runs must replay byte-identically");
    // the human-readable report is derived from the same state
    assert_eq!(a.metrics_report(), b.metrics_report());
}

/// A different seed shifts simulated timings, so the dump differs — the
/// equality above is not vacuous.
#[test]
fn different_seeds_dump_different_metrics() {
    let a = instrumented_run(72, 3);
    let b = instrumented_run(73, 3);
    assert_ne!(a.metrics_jsonl(), b.metrics_jsonl());
}

/// Every line of a real end-to-end dump parses as a standalone JSON
/// object, so any JSON-lines reader can consume it.
#[test]
fn dump_is_valid_json_lines() {
    let system = instrumented_run(74, 2);
    let dump = system.metrics_jsonl();
    let lines = itdos_obs::jsonl::validate(&dump).expect("dump must parse");
    assert!(lines > 20, "expected a substantive dump, got {lines} lines");
}

/// The protocol-level metric catalogue is populated by an ordinary
/// invocation: Figure-3 connection phases, ordering, voting, and keying
/// all leave traces.
#[test]
fn invocation_populates_protocol_metrics() {
    let system = instrumented_run(75, 2);
    let obs = system.obs.clone();
    system.sim.stats().export_obs(&obs);

    // counters across the layers
    assert_eq!(
        obs.counter_value("client.requests", &[("client", LabelValue::U64(CLIENT))]),
        2
    );
    assert_eq!(
        obs.counter_value("client.completed", &[("client", LabelValue::U64(CLIENT))]),
        2
    );
    assert_eq!(
        obs.counter_value("conn.opens", &[("client", LabelValue::U64(CLIENT))]),
        1
    );
    assert!(
        obs.counter_value("key.combined", &[]) > 0,
        "threshold keying must combine shares somewhere"
    );

    obs.with_registry(|registry| {
        // each correct replica executed both requests
        let executed: u64 = registry
            .counters()
            .filter(|(k, _)| k.name == "bft.executed")
            .map(|(_, v)| v)
            .sum();
        assert!(executed >= 2 * 3, "2f+1 replicas × 2 requests at minimum");
        // Figure-3 phase timings landed in histograms
        for name in ["conn.open_us", "invoke.reply_us", "bft.order_us"] {
            let h = registry
                .histograms()
                .find(|(k, _)| k.name == name)
                .unwrap_or_else(|| panic!("{name} histogram missing"));
            assert!(h.1.count() > 0, "{name} never observed");
            assert!(h.1.max() >= h.1.min());
        }
        // simnet bridge: wire totals mirrored into obs counters
        let net: u64 = registry
            .counters()
            .filter(|(k, _)| k.name == "net.messages")
            .map(|(_, v)| v)
            .sum();
        assert!(net > 0, "NetStats bridge exported nothing");
        // span completeness: every key combination closed exactly the
        // assembly span it opened (clobbered spans would leave
        // assembled < combined), and ordering spans survived per replica
        // (2 requests × at least a quorum of bank replicas)
        let combined: u64 = registry
            .counters()
            .filter(|(k, _)| k.name == "key.combined")
            .map(|(_, v)| v)
            .sum();
        let assembled: u64 = registry
            .histograms()
            .filter(|(k, _)| k.name == "key.assemble_us")
            .map(|(_, h)| h.count())
            .sum();
        assert_eq!(assembled, combined, "one assembly span per combined key");
        let ordered: u64 = registry
            .histograms()
            .filter(|(k, _)| k.name == "bft.order_us")
            .map(|(_, h)| h.count())
            .sum();
        assert!(
            ordered >= 2 * 3,
            "per-replica order spans survived: {ordered}"
        );
    });
}

/// Every flight event of one of the given kinds, in `seq` order.
fn events_of(system: &System, kinds: &[&str]) -> Vec<Event> {
    system
        .obs
        .with_flight(|flight| {
            flight
                .events()
                .filter(|e| kinds.contains(&e.kind))
                .cloned()
                .collect()
        })
        .expect("obs enabled")
}

fn counter_total(system: &System, name: &str) -> u64 {
    system
        .obs
        .with_registry(|registry| {
            registry
                .counters()
                .filter(|(k, _)| k.name == name)
                .map(|(_, v)| v)
                .sum()
        })
        .expect("obs enabled")
}

/// One key per `(connection, epoch)` per endpoint. All four GM elements
/// send a share and two suffice, so the last two arrive after the key is
/// made: they are still verified and counted, but never open a second
/// assembly (the parent combined twice at every endpoint — 10 keys and two
/// `conn.keyed` for one connection — re-keying it and rebuilding its seal
/// key). A rekey at the next epoch still combines.
#[test]
fn each_endpoint_combines_each_key_once() {
    let mut builder = bank_system(75);
    builder.obs(ObsConfig::standard().with_flight_capacity(1 << 16));
    let mut system = builder.build();
    // GM element 2's share reaches most endpoints after their key
    system.gm_element_mut(2).corrupt_shares = true;
    assert!(system.invoke(CLIENT, deposit(10)).result.is_ok());
    system.settle();
    // the client and the four bank elements
    assert_eq!(counter_total(&system, "key.combined"), 5);
    let keyed = events_of(&system, &["conn.keyed"]);
    assert_eq!(keyed.len(), 1, "the client keyed its connection once");
    let assembled: u64 = system
        .obs
        .with_registry(|registry| {
            registry
                .histograms()
                .filter(|(k, _)| k.name == "key.assemble_us")
                .map(|(_, h)| h.count())
                .sum()
        })
        .expect("obs enabled");
    assert_eq!(assembled, 5, "one assembly span per combined key");
    // the corrupt share is refused at every endpoint, late or not
    assert_eq!(counter_total(&system, "key.shares_rejected"), 5);
    assert_eq!(counter_total(&system, "key.shares_verified"), 15);
    let combined = events_of(&system, &["key.combined"]);
    let rejected = events_of(&system, &["key.share_rejected"]);
    assert_eq!(rejected.len(), 5);
    let late = rejected
        .iter()
        .filter(|r| combined.iter().any(|c| c.scope == r.scope && c.seq < r.seq))
        .count();
    assert!(late >= 1, "no corrupt share arrived after its key");

    // an expulsion rekeys the connection at epoch 1: the client and the
    // three remaining bank elements each combine that key once
    let mut builder = bank_system(83);
    builder.behavior(BANK, 2, itdos::fault::Behavior::CorruptValue);
    builder.obs(ObsConfig::standard().with_flight_capacity(1 << 16));
    let mut system = builder.build();
    assert!(system.invoke(CLIENT, deposit(9)).result.is_ok());
    system.settle();
    let at_epoch = |kind: &str, epoch: u64| {
        events_of(&system, &[kind])
            .iter()
            .filter(|e| e.labels.contains(&("epoch", LabelValue::U64(epoch))))
            .count()
    };
    assert_eq!(at_epoch("key.combined", 0), 5);
    assert_eq!(at_epoch("key.combined", 1), 4);
    assert_eq!(at_epoch("conn.keyed", 1), 1);
}

/// Two clients opening the same target with concurrently-assigned request
/// ids: spans are namespaced per process, so every phase lands once per
/// operation in each client's histograms instead of the processes
/// clobbering each other's in-flight timings.
#[test]
fn spans_are_isolated_across_processes() {
    const SECOND: u64 = 2;
    let mut builder = bank_system(79);
    builder.add_client(SECOND);
    builder.obs(ObsConfig::standard());
    let mut system = builder.build();
    for client in [CLIENT, SECOND] {
        for i in 0..2 {
            let done = system.invoke(client, deposit(1 + i));
            assert!(done.result.is_ok());
        }
    }
    system.settle();
    system
        .obs
        .with_registry(|registry| {
            for client in [CLIENT, SECOND] {
                let open = registry
                    .histogram(
                        "conn.open_us",
                        &[
                            ("client", LabelValue::U64(client)),
                            ("target", LabelValue::U64(BANK.0)),
                        ],
                    )
                    .unwrap_or_else(|| panic!("client {client}: conn.open_us missing"));
                assert_eq!(open.count(), 1, "client {client} timed its own open");
                let reply = registry
                    .histogram("invoke.reply_us", &[("client", LabelValue::U64(client))])
                    .unwrap_or_else(|| panic!("client {client}: invoke.reply_us missing"));
                assert_eq!(reply.count(), 2, "client {client} timed both replies");
            }
            // each endpoint (2 clients + 4 server elements, 2 connections)
            // assembled its own key and closed its own span
            let combined: u64 = registry
                .counters()
                .filter(|(k, _)| k.name == "key.combined")
                .map(|(_, v)| v)
                .sum();
            let assembled: u64 = registry
                .histograms()
                .filter(|(k, _)| k.name == "key.assemble_us")
                .map(|(_, h)| h.count())
                .sum();
            assert!(combined >= 2, "both connections keyed");
            assert_eq!(assembled, combined, "one assembly span per combined key");
        })
        .expect("obs enabled");
}

/// A refused connection open (unknown target domain) must not leak its
/// Figure-3 span: the client pairs the GM's ordered refusal with the
/// pending open, cancels the span, and counts the refusal.
#[test]
fn refused_open_cancels_span_and_counts() {
    let mut builder = bank_system(80);
    builder.obs(ObsConfig::standard());
    let mut system = builder.build();
    // DomainId(9) is not registered with the GM: the open is refused and
    // the invocation never completes
    system.invoke_async(
        CLIENT,
        Invocation::of(DomainId(9))
            .object(b"acct")
            .interface("Bank::Account")
            .operation("deposit")
            .arg(Value::LongLong(1)),
    );
    system.settle();
    let obs = system.obs.clone();
    assert_eq!(
        obs.counter_value("conn.refused", &[("client", LabelValue::U64(CLIENT))]),
        1,
        "refusal surfaced to the client"
    );
    system
        .obs
        .with_registry(|registry| {
            assert!(
                registry
                    .histogram("invoke.reply_us", &[("client", LabelValue::U64(CLIENT))])
                    .is_none(),
                "nothing decided"
            );
        })
        .expect("obs enabled");
}

/// The flight recorder is a bounded ring: shrinking the capacity keeps
/// only the most recent events while `total_recorded` still counts every
/// one, and the dump stays valid after wraparound.
#[test]
fn flight_recorder_wraps_at_capacity() {
    let mut builder = bank_system(76);
    builder.obs(ObsConfig::standard());
    let mut system = builder.build();
    system.obs.set_flight_capacity(8);
    for i in 0..3 {
        system.invoke(CLIENT, deposit(i));
    }
    system.settle();
    let (len, total, first_seq) = system
        .obs
        .with_flight(|flight| {
            let first = flight.events().next().map(|e| e.seq).unwrap_or(0);
            (flight.len(), flight.total_recorded(), first)
        })
        .expect("obs enabled");
    assert_eq!(len, 8, "ring must hold exactly its capacity");
    assert!(total > 8, "more events recorded than retained");
    assert_eq!(
        first_seq,
        total - 8,
        "retained window must be the newest events, seq still global"
    );
    let dump = system.metrics_jsonl();
    itdos_obs::jsonl::validate(&dump).expect("post-wraparound dump parses");
    assert_eq!(dump.matches("\"type\":\"event\"").count(), 8);
}

/// Span timings recorded through the stack use simulated time: the
/// latencies in the histograms match what the discrete-event network
/// actually charged, not host-machine noise.
#[test]
fn span_timings_are_simulated_time() {
    let mut builder = bank_system(77);
    builder.obs(ObsConfig::standard());
    let mut system = builder.build();
    let start = system.sim.now();
    system.invoke(CLIENT, deposit(1));
    let elapsed = system.sim.now().since(start).as_micros();
    system.settle();
    let reply_max = system
        .obs
        .with_registry(|registry| {
            registry
                .histograms()
                .find(|(k, _)| k.name == "invoke.reply_us")
                .map(|(_, h)| h.max())
                .expect("invoke.reply_us missing")
        })
        .expect("obs enabled");
    assert!(reply_max > 0, "span must measure nonzero simulated time");
    assert!(
        reply_max <= elapsed,
        "span ({reply_max}µs) cannot exceed the simulated window ({elapsed}µs)"
    );
}

/// Observability is opt-in: a default build keeps the recorder disabled
/// and every dump empty, so nothing changes for existing callers.
#[test]
fn disabled_by_default_and_dumps_empty() {
    let mut system = bank_system(78).build();
    system.invoke(CLIENT, deposit(5));
    assert!(!system.obs.is_enabled());
    assert_eq!(system.metrics_jsonl(), "");
    assert_eq!(system.metrics_report(), "");
}

/// The hosts record every fact their replicas emit. One observed bank
/// domain goes through a view change (its primary, element 0, is cut off)
/// and a state transfer (element 0 comes back more than a checkpoint
/// interval behind). Per replica, each event kind and phase histogram it
/// emitted is in the recorder, and `bft.committed` appears once per
/// sequence number it executed by agreement.
#[test]
fn hosts_record_every_replica_fact() {
    let mut builder = bank_system(76);
    builder.obs(ObsConfig::standard().with_flight_capacity(1 << 16));
    let mut system = builder.build();
    let primary = system.fabric.domain(BANK).nodes[0];
    let deposits = |system: &mut System, count: usize| {
        for _ in 0..count {
            assert!(system.invoke(CLIENT, deposit(1)).result.is_ok());
        }
    };
    // past the first checkpoint (interval 16) with all four elements
    deposits(&mut system, 20);
    system.sim.config_mut().isolate(primary);
    deposits(&mut system, 20);
    system.sim.config_mut().reconnect(primary);
    deposits(&mut system, 20);
    system.settle();

    let elements = system.fabric.domain(BANK).elements.to_vec();
    let flight = events_of(
        &system,
        &[
            "bft.admit",
            "bft.batch",
            "bft.prepared",
            "bft.committed",
            "bft.checkpoint",
            "bft.checkpoint_stable",
            "bft.state_fetch",
            "bft.state_transferred",
            "bft.view_change",
            "bft.view_entered",
        ],
    );
    // the (name, replica) of every nonzero `bft.*` counter and histogram
    let by_replica = |key: &SeriesKey| Some((key.name, label_u64(&key.labels, "replica")?));
    let series: Vec<(&str, u64)> = system
        .obs
        .with_registry(|registry| {
            let counters = registry.counters().filter(|(_, v)| *v > 0);
            let histograms = registry.histograms().filter(|(_, h)| h.count() > 0);
            let keys = counters.map(|(k, _)| k).chain(histograms.map(|(k, _)| k));
            keys.filter(|k| k.name.starts_with("bft."))
                .filter_map(by_replica)
                .collect()
        })
        .expect("obs enabled");
    for (index, &element) in elements.iter().enumerate() {
        let scope = itdos::codes::element_code(element);
        let mine: Vec<&Event> = flight.iter().filter(|e| e.scope == scope).collect();
        let mut kinds = vec![
            "bft.prepared",
            "bft.committed",
            "bft.checkpoint",
            "bft.checkpoint_stable",
        ];
        let mut metrics = vec![
            "bft.requests",
            "bft.executed",
            "bft.checkpoints",
            "bft.batch_size",
            "bft.prepare_us",
            "bft.commit_us",
            "bft.order_us",
        ];
        // the primaries of views 0 and 1 admit and batch traced requests
        if index <= 1 {
            kinds.extend(["bft.admit", "bft.batch"]);
        }
        if index == 0 {
            kinds.extend(["bft.state_fetch", "bft.state_transferred"]);
            metrics.extend(["bft.state_fetches", "bft.state_transfer_us"]);
        } else {
            kinds.extend(["bft.view_change", "bft.view_entered"]);
            metrics.extend(["bft.view_changes", "bft.view_change_us"]);
        }
        for kind in kinds {
            assert!(
                mine.iter().any(|e| e.kind == kind),
                "replica {index} emitted no {kind}"
            );
        }
        for metric in metrics {
            assert!(
                series.contains(&(metric, index as u64)),
                "replica {index} recorded no {metric}"
            );
        }
        // each sequence number executed by agreement is committed once:
        // every one above a transferred snapshot, and, below it, each one
        // executed before the transfer
        let seq = |e: &Event| label_u64(&e.labels, "seq");
        let committed: Vec<u64> = mine
            .iter()
            .filter(|e| e.kind == "bft.committed")
            .filter_map(|e| seq(e))
            .collect();
        let transferred = mine
            .iter()
            .filter(|e| e.kind == "bft.state_transferred")
            .filter_map(|e| seq(e))
            .max()
            .unwrap_or(0);
        let executed = system.element(BANK, index).replica().last_executed().0;
        let mut sorted = committed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            committed.len(),
            "replica {index} committed a seq twice"
        );
        let after: Vec<u64> = sorted
            .iter()
            .copied()
            .filter(|&s| s > transferred)
            .collect();
        assert_eq!(after, (transferred + 1..=executed).collect::<Vec<_>>());
        let before = sorted.len() - after.len();
        assert_eq!(
            sorted[..before],
            (1..=before as u64).collect::<Vec<_>>()[..]
        );
    }
}
