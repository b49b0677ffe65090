//! Forensic-audit integration (DESIGN.md §12): the auditor must localize
//! exactly the injected faults — cross-checked against the simulator's
//! ground-truth fault ledger — and stay byte-deterministic.
//!
//! The ledger is the oracle: `SystemBuilder` marks every element built
//! with a non-honest [`Behavior`] there, the auditor never reads it, and
//! these tests assert `blamed == ledger` with no false positives.

use itdos_tests::common;

use common::{bank_system, deposit, BANK, CLIENT};
use itdos::fault::Behavior;
use itdos::system::System;
use itdos::ObsConfig;
use itdos_audit::Auditor;
use itdos_giop::types::Value;
use itdos_obs::LabelValue;
use simnet::adversary::{Scripted, Verdict};
use simnet::SimDuration;

/// Builds an instrumented bank system with `behavior` on replica index 3
/// and runs three deposits.
fn faulty_run(seed: u64, behavior: Behavior) -> System {
    let mut builder = bank_system(seed);
    builder.obs(ObsConfig::forensic()); // keep the whole timeline
    builder.behavior(BANK, 3, behavior);
    let mut system = builder.build();
    for i in 0..3i64 {
        let done = system.invoke(CLIENT, deposit(10 + i));
        assert!(done.result.is_ok(), "service must continue: {done:?}");
    }
    system.settle();
    system
}

/// Every simulated misbehaviour profile: the blamed set equals the
/// injected-faulty set exactly — the compromised element is found, and
/// nobody honest is smeared.
#[test]
fn blame_matches_the_ground_truth_ledger_for_every_profile() {
    let profiles: [(Behavior, u64); 4] = [
        (Behavior::CorruptValue, 61),
        (Behavior::Silent, 62),
        (Behavior::Slow(SimDuration::from_millis(400)), 63),
        (Behavior::Intermittent, 64),
    ];
    for (behavior, seed) in profiles {
        let kind = behavior.kind();
        let system = faulty_run(seed, behavior);
        let injected: Vec<u64> = system.sim.fault_ledger().ids();
        assert_eq!(injected.len(), 1, "{kind}: one fault injected");
        assert_eq!(
            system.sim.fault_ledger().kind_of(injected[0]),
            Some(kind),
            "{kind}: ledger records what was injected"
        );
        let report = system.audit();
        assert_eq!(
            report.blamed_elements(),
            injected,
            "{kind}: blamed set must equal the injected set\n{}",
            report.render()
        );
        // blame debits the culprit's health and nobody else's
        for (&element, &health) in &report.health {
            if element == injected[0] {
                assert!(health < 100, "{kind}: culprit keeps perfect health");
            } else {
                assert_eq!(health, 100, "{kind}: element {element} smeared");
            }
        }
    }
}

/// A clean seeded run: empty ledger, empty blame, all elements at 100.
#[test]
fn clean_run_produces_empty_blame_and_perfect_health() {
    let mut builder = bank_system(65);
    builder.obs(ObsConfig::forensic());
    let mut system = builder.build();
    for i in 0..3i64 {
        let done = system.invoke(CLIENT, deposit(1 + i));
        assert!(done.result.is_ok());
    }
    system.settle();
    assert!(system.sim.fault_ledger().is_empty(), "nothing injected");
    let report = system.audit();
    assert!(
        report.blamed_elements().is_empty(),
        "false positives on a clean run:\n{}",
        report.render()
    );
    assert!(report.health.values().all(|&h| h == 100));
    assert!(report.render().contains("blame: none"));
}

/// Network-level adversaries (duplication, tampering) are not replica
/// faults: the ledger stays empty and so must the blame set — the stack
/// absorbs them below the voting layer, and the auditor must not
/// misattribute transport damage to an element.
#[test]
fn network_adversaries_are_not_blamed_on_replicas() {
    // replay: every message duplicated twice
    let mut builder = bank_system(66);
    builder.obs(ObsConfig::forensic());
    let mut system = builder.build();
    let mut adversary = Scripted::new();
    adversary.rule(None, None, |_, _| {
        Verdict::Duplicate(vec![
            SimDuration::from_micros(40),
            SimDuration::from_micros(90),
        ])
    });
    system.sim.set_adversary(Box::new(adversary));
    for _ in 0..2 {
        let done = system.invoke(CLIENT, deposit(10));
        assert!(done.result.is_ok());
    }
    system.settle();
    assert!(system.sim.fault_ledger().is_empty());
    let report = system.audit();
    assert!(
        report.blamed_elements().is_empty(),
        "replayed traffic blamed on a replica:\n{}",
        report.render()
    );

    // tampering: one element's outbound traffic corrupted in flight
    let mut builder = bank_system(67);
    builder.obs(ObsConfig::forensic());
    let mut system = builder.build();
    let victim = system.fabric.domain(BANK).nodes[2];
    let mut adversary = Scripted::new();
    adversary.tamper_from(victim);
    system.sim.set_adversary(Box::new(adversary));
    let done = system.invoke(CLIENT, deposit(5));
    assert_eq!(done.result, Ok(Value::LongLong(5)));
    system.settle();
    assert!(system.sim.fault_ledger().is_empty());
    let report = system.audit();
    assert!(
        report.blamed_elements().is_empty(),
        "transport tampering misattributed as a replica fault:\n{}",
        report.render()
    );
}

/// The determinism contract of the acceptance bar: two identical seeded
/// faulty runs render byte-identical audit reports and byte-identical
/// forensic dumps.
#[test]
fn audit_reports_are_byte_identical_across_identical_runs() {
    let a = faulty_run(68, Behavior::CorruptValue);
    let b = faulty_run(68, Behavior::CorruptValue);
    let report_a = a.audit().render();
    let report_b = b.audit().render();
    assert!(!report_a.is_empty());
    assert_eq!(report_a, report_b, "seeded audits must replay exactly");
    assert_eq!(a.audit_jsonl(), b.audit_jsonl());
    // and a different seed shifts timings, so the check is not vacuous
    let c = faulty_run(69, Behavior::CorruptValue);
    assert_ne!(a.audit_jsonl(), c.audit_jsonl());
}

/// `audit()` exports per-replica health back through the observability
/// layer: the `replica.health{element}` gauge is readable like any other
/// metric, and lands in subsequent dumps.
#[test]
fn health_scores_are_exported_as_gauges() {
    let system = faulty_run(70, Behavior::CorruptValue);
    let report = system.audit();
    system
        .obs
        .with_registry(|registry| {
            for (&element, &health) in &report.health {
                let gauge = registry
                    .gauge("replica.health", &[("element", LabelValue::U64(element))])
                    .unwrap_or_else(|| panic!("element {element}: health gauge missing"));
                assert_eq!(gauge, health);
            }
        })
        .expect("obs enabled");
    let dump = system.metrics_jsonl();
    assert!(
        dump.contains("\"name\":\"replica.health\""),
        "exported health must appear in later dumps"
    );
}

/// The dump is self-describing: `audit_jsonl` embeds the topology, and an
/// offline `Auditor` reconstructed from the file alone reaches the same
/// verdict as the in-process audit.
#[test]
fn offline_audit_from_the_dump_alone_matches_in_process() {
    let system = faulty_run(71, Behavior::CorruptValue);
    let in_process = system.audit();
    let dump = system.audit_jsonl();
    let offline = Auditor::from_dump_text(&dump)
        .expect("dump carries topology")
        .audit(&dump)
        .expect("dump parses");
    assert_eq!(offline.blamed_elements(), in_process.blamed_elements());
    assert_eq!(
        offline.topology,
        system.audit_topology(),
        "embedded topology must round-trip through the JSONL dump"
    );
    assert_eq!(offline.timeline.processes, in_process.timeline.processes);
}
