//! Whole-stack profiler integration (DESIGN.md §16): causal cost
//! attribution over real end-to-end runs.
//!
//! The load-bearing properties: the profile is **deterministic** (two
//! identical seeded runs render byte-identical JSON and folded-stack
//! text), **honest** (attributed + residual never exceeds end-to-end
//! latency, untraced invocations are counted, not dropped), and
//! **useful** (at least 90% of latency lands on named hops in both the
//! clean and the intruded scenario).

use itdos_tests::common;

use common::{bank_system, deposit, BANK, CLIENT};
use itdos::fault::Behavior;
use itdos::system::System;
use itdos::ObsConfig;

/// A bank run under forensic observability (large flight ring, so no
/// trace anchor is evicted), optionally with one corrupt-value replica.
fn profiled_run(seed: u64, invocations: u64, faulty: bool) -> System {
    let mut builder = bank_system(seed);
    builder.obs(ObsConfig::forensic());
    if faulty {
        builder.behavior(BANK, 3, Behavior::CorruptValue);
    }
    let mut system = builder.build();
    for i in 0..invocations {
        let done = system.invoke(CLIENT, deposit(10 + i as i64));
        assert!(done.result.is_ok(), "voter must mask the fault");
    }
    system.settle();
    system
}

/// ≥ 90% of end-to-end invocation latency is attributed to named hops,
/// in both the clean and the intruded scenario, and the accounting
/// identity holds: attributed + residual ≤ total, nothing untraced.
#[test]
fn profile_attributes_at_least_ninety_percent() {
    for (seed, faulty) in [(81, false), (82, true)] {
        let system = profiled_run(seed, 4, faulty);
        let profile = system.profile().expect("observability is on");
        assert_eq!(profile.invocations(), 4);
        assert_eq!(profile.untraced(), 0, "forensic ring must hold all traces");
        assert!(profile.total_us() > 0);
        assert!(
            profile.attributed_us() + profile.residual_us() <= profile.total_us(),
            "attribution must never exceed measured latency"
        );
        let pm = profile.attributed_permille();
        assert!(
            pm >= 900,
            "faulty={faulty}: only {pm}‰ of latency attributed"
        );
        // residual stays under the 10% complement of the same floor
        assert!(profile.residual_us() * 10 <= profile.total_us());
    }
}

/// The profile leans on the real pipeline: ordering hops carry latency
/// and every instrumented subsystem shows activity.
#[test]
fn profile_sees_every_subsystem() {
    let system = profiled_run(83, 3, false);
    let profile = system.profile().expect("observability is on");
    let ordering_us: u64 = ["admit", "prepare", "commit"]
        .iter()
        .filter_map(|stage| profile.hop(stage))
        .map(|h| h.sum())
        .sum();
    assert!(ordering_us > 0, "ordering must cost latency");
    for name in [
        "giop.encode",
        "giop.decode",
        "crypto.seal",
        "crypto.open",
        "bft.wire_tx",
        "bft.wire_rx",
        "vote.fold",
        "obs.flight",
    ] {
        let cost = profile.subsystem(name).unwrap_or_default();
        assert!(cost.ops > 0, "subsystem {name} recorded no operations");
    }
    // wire subsystems carry byte series too
    assert!(profile.subsystem("bft.wire_tx").unwrap().bytes > 0);
    assert!(profile.subsystem("crypto.seal").unwrap().bytes > 0);
}

/// Two identical seeded runs render byte-identical profiles in every
/// format; a different seed shifts simulated timings, so the equality is
/// not vacuous.
#[test]
fn profile_output_is_byte_identical_across_identical_runs() {
    let profile = |seed: u64| profiled_run(seed, 3, false).profile().unwrap();
    let (a, b) = (profile(84), profile(84));
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.folded(), b.folded());
    assert_eq!(a.render(), b.render());
    assert!(!a.folded().is_empty());
    let c = profile(85);
    assert_ne!(a.to_json(), c.to_json());
}

/// The JSON profile line rides an existing metrics dump: appended to
/// `metrics_jsonl()`, every line still validates and the profile lands
/// in the parsed dump's `extras`, untouched by older consumers.
#[test]
fn profile_json_rides_the_metrics_dump() {
    let system = profiled_run(86, 2, false);
    let mut dump = system.metrics_jsonl();
    dump.push_str(&system.profile().unwrap().to_json());
    dump.push('\n');
    itdos_obs::jsonl::validate(&dump).expect("dump with profile line parses");
    let parsed = itdos_obs::jsonl::parse_dump(&dump).expect("dump parses");
    assert_eq!(parsed.extras.len(), 1, "profile is an extras line");
    assert_eq!(
        parsed.extras[0].get("type").and_then(|t| t.as_str()),
        Some("profile")
    );
}

/// The recorder's high-water marks surface as gauges in the standard
/// metrics report: the flight ring's peak occupancy and the deepest
/// subscriber tap backlog.
#[test]
fn high_water_gauges_surface_in_metrics_report() {
    let system = profiled_run(87, 2, false);
    let report = system.metrics_report();
    assert!(report.contains("obs.flight_hwm"), "report:\n{report}");
    assert!(report.contains("obs.tap_hwm"), "report:\n{report}");
    let dump = system.metrics_jsonl();
    assert!(dump.contains("\"name\":\"obs.flight_hwm\""));
}
