//! Streaming audit and causal traces (DESIGN.md §15): the in-system
//! incremental audit must reach byte-for-byte the same verdict as the
//! post-hoc batch audit of the same run, publish the same
//! `replica.health` gauges live that the batch path would export, and
//! `System::trace` must reconstruct an invocation's full causal path
//! from the flight recorder.
//!
//! These are the acceptance properties for the always-on pipeline: an
//! operator watching the live gauges and findings sees exactly what a
//! forensic analyst reading the dump later would conclude.

use itdos_tests::common;

use std::collections::BTreeMap;

use common::{bank_system, deposit, BANK, CLIENT};
use itdos::fault::Behavior;
use itdos::system::System;
use itdos::{ObsConfig, Ticket};
use itdos_obs::LabelValue;
use simnet::SimDuration;

/// Every seeded scenario the equivalence property sweeps: the clean run
/// plus each misbehaviour profile the drill exercises.
fn scenarios() -> Vec<(&'static str, Option<Behavior>, u64)> {
    vec![
        ("clean", None, 90),
        ("corrupt_value", Some(Behavior::CorruptValue), 91),
        ("silent", Some(Behavior::Silent), 92),
        (
            "slow",
            Some(Behavior::Slow(SimDuration::from_millis(400))),
            93,
        ),
        ("intermittent", Some(Behavior::Intermittent), 94),
    ]
}

/// Builds a forensic instrumented bank run (streaming audit on by
/// default) with `behavior` on replica 3, runs three deposits.
fn instrumented_run(seed: u64, behavior: Option<Behavior>) -> System {
    let mut builder = bank_system(seed);
    builder.obs(ObsConfig::forensic());
    if let Some(behavior) = behavior {
        builder.behavior(BANK, 3, behavior);
    }
    let mut system = builder.build();
    for i in 0..3i64 {
        let done = system.invoke(CLIENT, deposit(10 + i));
        assert!(done.result.is_ok(), "service must continue: {done:?}");
    }
    system.settle();
    system
}

/// The tentpole property: for every fault scenario, the live streaming
/// report renders byte-identically to the post-hoc batch audit of the
/// same run, and the whole pipeline replays exactly from the same seed.
#[test]
fn streaming_equals_batch_for_every_fault_scenario() {
    for (name, behavior, seed) in scenarios() {
        let run = |()| {
            let system = instrumented_run(seed, behavior.clone());
            let live = system
                .live_audit_report()
                .expect("streaming audit is on by default when obs is enabled");
            // batch second: `System::audit` re-exports health gauges,
            // so the live snapshot must be taken first
            let batch = system.audit();
            (live.render(), batch.render())
        };
        let (live, batch) = run(());
        assert_eq!(
            live, batch,
            "{name}: streaming and batch audits diverged\n--- streaming ---\n{live}\n--- batch ---\n{batch}"
        );
        let (live_again, _) = run(());
        assert_eq!(
            live, live_again,
            "{name}: streaming audit must replay exactly"
        );
    }
}

/// The live `replica.health` gauges — published incrementally, while the
/// run is still going — equal the health scores the post-hoc batch audit
/// computes, for every scenario.
#[test]
fn live_health_gauges_match_post_hoc_scores() {
    for (name, behavior, seed) in scenarios() {
        let system = instrumented_run(seed, behavior.clone());
        // read the gauges the streaming pump exported, before
        // `System::audit` gets a chance to overwrite them
        let live_gauges: Vec<(u64, i64)> = system
            .obs
            .with_registry(|registry| {
                system
                    .audit_topology()
                    .elements
                    .keys()
                    .map(|&element| {
                        let gauge = registry
                            .gauge("replica.health", &[("element", LabelValue::U64(element))])
                            .unwrap_or_else(|| {
                                panic!("{name}: element {element} has no live health gauge")
                            });
                        (element, gauge)
                    })
                    .collect()
            })
            .expect("obs enabled");
        let live = system.live_health();
        let batch = system.audit().health;
        for (element, gauge) in live_gauges {
            assert_eq!(
                Some(&gauge),
                batch.get(&element),
                "{name}: element {element} live gauge != post-hoc score"
            );
            assert_eq!(
                Some(&gauge),
                live.get(&element),
                "{name}: element {element} gauge != live_health()"
            );
        }
        if behavior.is_some() {
            let culprit = system.sim.fault_ledger().ids()[0];
            assert!(
                batch[&culprit] < 100,
                "{name}: the culprit's live health never dropped"
            );
        }
    }
}

/// The streaming audit costs nothing on the network: the same seed with
/// observability off and with the forensic recorder (and so the live
/// audit) on reaches the same simulated end time, messages and bytes,
/// because the audit pump sends nothing. The live report sees the
/// intrusion and equals the post-hoc batch audit; with observability off
/// there is no live report and no live health.
#[test]
fn the_streaming_audit_costs_nothing_on_the_network() {
    let run = |obs: ObsConfig| {
        let mut builder = bank_system(95);
        builder.obs(obs);
        builder.behavior(BANK, 3, Behavior::CorruptValue);
        let mut system = builder.build();
        let done = system.invoke(CLIENT, deposit(7));
        assert!(done.result.is_ok());
        system.settle();
        system
    };
    let off = run(ObsConfig::off());
    let forensic = run(ObsConfig::forensic());
    assert_eq!(forensic.sim.now(), off.sim.now());
    let (on, quiet) = (forensic.sim.stats(), off.sim.stats());
    assert_eq!(on.total.messages, quiet.total.messages);
    assert_eq!(on.total.bytes, quiet.total.bytes);

    let live = forensic
        .live_audit_report()
        .expect("observability on: the streaming audit is on");
    assert!(
        !live.findings.is_empty(),
        "the live audit saw the intrusion"
    );
    let batch = forensic.audit();
    assert!(!batch.blamed_elements().is_empty());
    assert_eq!(live, batch, "live report != post-hoc audit");

    assert!(off.live_audit_report().is_none());
    assert!(off.live_health().is_empty());
}

/// The `replica.health` gauges one element at a time, as the registry
/// holds them now.
fn health_gauges(system: &System) -> BTreeMap<u64, i64> {
    system
        .obs
        .with_registry(|registry| {
            system
                .audit_topology()
                .elements
                .keys()
                .filter_map(|&element| {
                    registry
                        .gauge("replica.health", &[("element", LabelValue::U64(element))])
                        .map(|gauge| (element, gauge))
                })
                .collect()
        })
        .expect("obs enabled")
}

/// `live_health()` returns what the last pump scored and exported as the
/// `replica.health` gauges, also once the run has moved on without a
/// pump: the silent replica's peers have answered a second deposit since,
/// so rescoring against the registry now would dock it further.
#[test]
fn live_health_is_what_the_last_pump_exported() {
    let mut builder = bank_system(96);
    builder.obs(ObsConfig::forensic());
    builder.behavior(BANK, 3, Behavior::Silent);
    let mut system = builder.build();
    let done = system.invoke(CLIENT, deposit(10));
    assert!(done.result.is_ok());
    let pumped = health_gauges(&system);
    assert!(
        pumped.values().any(|&h| 0 < h && h < 100),
        "the silent replica is docked but not floored: {pumped:?}"
    );

    // the second deposit runs on the simulator alone: no settle, no pump
    let ticket = system.invoke_async(CLIENT, deposit(11));
    system.sim.run();
    assert!(system.result(ticket).is_some(), "the deposit completed");
    let rescored = system
        .live_audit_report()
        .expect("streaming audit is on")
        .health;
    assert_ne!(rescored, pumped, "the registry has moved on since the pump");

    assert_eq!(health_gauges(&system), pumped, "no pump, no new gauges");
    let live: BTreeMap<u64, i64> = system.live_health().clone();
    assert_eq!(live, pumped, "live_health() != the exported gauges");
}

/// Builds a batched+pipelined deployment, submits `count` deposits
/// through the async API, and settles.
fn pipelined_run(seed: u64, count: usize) -> (System, Vec<Ticket>) {
    let mut builder = bank_system(seed);
    builder.obs(ObsConfig::forensic());
    builder.batching(8, 16);
    builder.client_pipeline(8);
    let mut system = builder.build();
    // open the connection outside the traced window
    let done = system.invoke(CLIENT, deposit(1));
    assert!(done.result.is_ok());
    let tickets: Vec<Ticket> = (0..count)
        .map(|i| system.invoke_async(CLIENT, deposit(2 + i as i64)))
        .collect();
    system.settle();
    (system, tickets)
}

/// `System::trace` reconstructs the complete causal path — admission,
/// batching, both agreement phases, execution, voting, reply — for a
/// pipelined batched invocation, with per-hop latency attribution.
#[test]
fn trace_reconstructs_the_full_causal_path_of_a_batched_invocation() {
    let (system, tickets) = pipelined_run(96, 6);
    // a mid-pipeline ticket: its batch carries neighbours on both sides
    let ticket = tickets[3];
    let report = system.trace(ticket).expect("flight ring holds the run");
    assert_eq!(
        report.stages(),
        vec!["send", "admit", "batch", "prepare", "commit", "execute", "vote", "decide", "reply"],
        "incomplete causal path:\n{}",
        report.render()
    );
    assert!(report.request_id.is_some(), "send record names the request");
    assert_eq!(report.target, Some(BANK.0), "send record names the domain");
    assert!(
        report.bft_seq.is_some(),
        "the batch record names the agreed seq"
    );
    assert!(report.total_us() > 0, "hops must span simulated time");
    // per-hop latency attribution: one entry per stage, deltas summing
    // to at most the end-to-end total, monotone timeline
    let latencies = report.stage_latencies();
    assert_eq!(latencies.len(), 9);
    assert_eq!(latencies[0], ("send", 0));
    assert!(latencies.iter().map(|&(_, d)| d).sum::<u64>() <= report.total_us());
    assert!(report.hops.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    let rendered = report.render();
    assert!(
        rendered.contains("== trace"),
        "render carries the header:\n{rendered}"
    );
    assert!(
        rendered.contains("over"),
        "render carries the hop count:\n{rendered}"
    );
}

/// Trace ids round-trip the whole stack: every ticket of a pipelined
/// burst reconstructs its own distinct path, ticket and trace agree, and
/// identical seeded runs produce identical traces.
#[test]
fn every_ticket_traces_distinctly_and_deterministically() {
    let (system, tickets) = pipelined_run(97, 4);
    let mut seen = std::collections::BTreeSet::new();
    for ticket in &tickets {
        let report = system.trace(*ticket).expect("traceable");
        assert!(seen.insert(report.trace), "trace ids must be distinct");
        assert_eq!(report.trace >> 32, CLIENT, "client rides the high bits");
        // each pipelined deposit decided with its own reply hop
        assert!(report.stages().contains(&"reply"), "{}", report.render());
    }
    let (replay, replay_tickets) = pipelined_run(97, 4);
    for (a, b) in tickets.iter().zip(&replay_tickets) {
        assert_eq!(
            system.trace(*a).map(|r| r.render()),
            replay.trace(*b).map(|r| r.render()),
            "seeded traces must replay byte-identically"
        );
    }
}

/// With observability off there is no flight ring, so no trace — the
/// API degrades to `None` instead of fabricating a path.
#[test]
fn trace_is_none_without_observability() {
    let mut builder = bank_system(98);
    builder.obs(ObsConfig::off());
    let mut system = builder.build();
    let ticket = system.invoke_async(CLIENT, deposit(3));
    system.settle();
    assert!(
        system.result(ticket).is_some(),
        "invocation still completes"
    );
    assert!(system.trace(ticket).is_none());
}
