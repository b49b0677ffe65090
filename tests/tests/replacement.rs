//! Replica replacement: GM-brokered admission of fresh elements into a
//! degraded domain (DESIGN.md §14).
//!
//! An intruded element is expelled (§3.5), then a freshly keyed element
//! with a brand-new identity asks the Group Manager to admit it into the
//! vacated slot. The GM's replicated state machine orders the admission,
//! rekeys every touching virtual connection, and notifies peers, clients,
//! and voters of the new roster. The joiner catches up through the
//! checkpoint-granularity state-transfer machinery and only then votes —
//! after which the domain again tolerates its full `f` faults.

use itdos_tests::common;

use common::{assert_mean, gm_active_counts, gm_memberships, read_average as read, sensor_system};
use common::{CLIENT, SENSOR};
use itdos::fault::Behavior;
use itdos::{ObsConfig, ServerElement};
use itdos_bft::state::StateMachine;

/// The tentpole acceptance drill: expel an intruded element, replace it,
/// verify the domain is back to `n` elements, then script a *second*
/// f-fault intrusion on a different slot and watch it be masked, expelled,
/// and replaced in turn.
#[test]
fn expelled_element_is_replaced_and_the_domain_tolerates_a_fresh_fault() {
    let mut builder = sensor_system(141);
    builder.behavior(SENSOR, 2, Behavior::CorruptValue);
    let mut system = builder.build();

    // first intrusion: detected by voting, proof sent, element expelled
    let first = system.fabric.domain(SENSOR).elements[2];
    let done = read(&mut system);
    assert_mean(&done);
    assert_eq!(done.suspects, vec![first]);
    system.settle();
    assert_eq!(
        gm_active_counts(&system, SENSOR),
        vec![3; 4],
        "degraded to n-1"
    );

    // replacement: a freshly keyed element takes the vacated slot
    let admitted = system.spawn_replacement(SENSOR, first);
    system.settle();
    assert_eq!(
        gm_active_counts(&system, SENSOR),
        vec![4; 4],
        "restored to n"
    );
    for (i, membership) in gm_memberships(&system).enumerate() {
        let domain = membership.domain(SENSOR).expect("registered");
        assert!(domain.is_active(admitted), "gm {i}: newcomer on roster");
        assert!(!domain.is_active(first), "gm {i}: expelled stays out");
        assert_eq!(domain.epoch(), 1, "gm {i}: one admission so far");
    }
    let joiner = system.element(SENSOR, 2);
    assert_eq!(joiner.element(), admitted, "slot reused");
    assert!(!joiner.is_onboarding(), "state transfer completed");
    assert_eq!(
        joiner.replica().app().digest(),
        system.element(SENSOR, 0).replica().app().digest(),
        "joiner converged with the domain"
    );
    let done = read(&mut system);
    assert_mean(&done);
    assert!(done.suspects.is_empty(), "joiner votes correctly");

    // second intrusion, different slot: the restored domain masks it
    let second = system.fabric.domain(SENSOR).elements[1];
    let node = system.fabric.domain(SENSOR).nodes[1];
    system
        .sim
        .fault_ledger_mut()
        .mark(u64::from(second.0), Behavior::CorruptValue.kind());
    system
        .sim
        .process_mut::<ServerElement>(node)
        .set_behavior(Behavior::CorruptValue);
    let done = read(&mut system);
    assert_mean(&done);
    assert_eq!(done.suspects, vec![second], "second intruder detected");
    system.settle();
    assert_eq!(
        gm_active_counts(&system, SENSOR),
        vec![3; 4],
        "expelled again"
    );

    // and the cycle closes: replace the second casualty too
    let admitted2 = system.spawn_replacement(SENSOR, second);
    system.settle();
    assert_eq!(gm_active_counts(&system, SENSOR), vec![4; 4]);
    assert_ne!(admitted2, admitted, "identities are never reused");
    for (i, membership) in gm_memberships(&system).enumerate() {
        assert_eq!(
            membership.domain(SENSOR).expect("registered").epoch(),
            2,
            "gm {i}: two admissions"
        );
    }
    let done = read(&mut system);
    assert_mean(&done);
    assert!(done.suspects.is_empty());
}

/// Replacing the *primary's* slot: the decommissioned node takes the
/// current primary with it, so admission races the resulting view change
/// — the group must elect a new primary, order the Join, and still onboard
/// the newcomer into the post-view-change world.
#[test]
fn replacing_the_primary_slot_survives_the_view_change_race() {
    let mut builder = sensor_system(142);
    builder.behavior(SENSOR, 0, Behavior::CorruptValue);
    let mut system = builder.build();
    let primary = system.fabric.domain(SENSOR).elements[0];
    let done = read(&mut system);
    assert_mean(&done);
    system.settle();
    assert_eq!(gm_active_counts(&system, SENSOR), vec![3; 4]);

    let admitted = system.spawn_replacement(SENSOR, primary);
    system.settle();
    assert_eq!(gm_active_counts(&system, SENSOR), vec![4; 4]);
    let joiner = system.element(SENSOR, 0);
    assert_eq!(joiner.element(), admitted);
    assert!(!joiner.is_onboarding(), "onboarded through the view change");
    // the group moved off view 0 (its primary was decommissioned) and the
    // joiner followed its peers there rather than trusting any one claim
    assert!(
        joiner.replica().view().0 > 0,
        "joiner adopted the post-change view"
    );
    let done = read(&mut system);
    assert_mean(&done);
    assert!(done.suspects.is_empty());
}

/// A Byzantine replacement: the newcomer itself is intruded. The restored
/// domain masks it like any other f-fault, detects it by voting, and
/// expels it — proving admission grants no more trust than original
/// membership did.
#[test]
fn byzantine_replacement_is_masked_and_expelled_in_turn() {
    let mut builder = sensor_system(143);
    builder.behavior(SENSOR, 3, Behavior::CorruptValue);
    let mut system = builder.build();
    let first = system.fabric.domain(SENSOR).elements[3];
    read(&mut system);
    system.settle();
    assert_eq!(gm_active_counts(&system, SENSOR), vec![3; 4]);

    let admitted = system.spawn_replacement_with(SENSOR, first, Behavior::CorruptValue);
    system.settle();
    assert_eq!(
        gm_active_counts(&system, SENSOR),
        vec![4; 4],
        "restored first"
    );

    let done = read(&mut system);
    assert_mean(&done);
    // the newcomer's corrupt reply may arrive at the client before or
    // after the decision; either way the voter flags it (decision-time
    // dissent or the late-straggler path) and a proof reaches the GM
    system.settle();
    assert!(
        system.client(CLIENT).proofs_sent >= 2,
        "second proof sent against the faulty newcomer"
    );
    assert_eq!(
        gm_active_counts(&system, SENSOR),
        vec![3; 4],
        "faulty newcomer expelled in turn"
    );
    for (i, membership) in gm_memberships(&system).enumerate() {
        assert!(
            !membership
                .domain(SENSOR)
                .expect("registered")
                .is_active(admitted),
            "gm {i}: the byzantine newcomer is out"
        );
    }
}

/// Forensics across a replacement: with a faulty original *and* a faulty
/// replacement, the audit's blame set equals the simulator's ground-truth
/// fault ledger exactly — the retired element stays attributable, the
/// newcomer's pre-admission silence is not smeared as a fault, and honest
/// elements keep perfect health.
#[test]
fn audit_blame_matches_the_ledger_across_a_replacement() {
    let mut builder = sensor_system(144);
    builder.obs(ObsConfig::forensic());
    builder.behavior(SENSOR, 2, Behavior::CorruptValue);
    let mut system = builder.build();
    let first = system.fabric.domain(SENSOR).elements[2];
    read(&mut system);
    system.settle();

    let admitted = system.spawn_replacement_with(SENSOR, first, Behavior::CorruptValue);
    system.settle();
    let done = read(&mut system);
    assert_mean(&done);
    system.settle();

    let mut injected: Vec<u64> = system.sim.fault_ledger().ids();
    injected.sort_unstable();
    assert_eq!(
        injected,
        vec![u64::from(first.0), u64::from(admitted.0)],
        "ledger records both intrusions"
    );
    let report = system.audit();
    assert_eq!(
        report.blamed_elements(),
        injected,
        "blame must equal ground truth across the replacement\n{}",
        report.render()
    );
    for (&element, &health) in &report.health {
        if injected.contains(&element) {
            assert!(health < 100, "culprit {element} keeps perfect health");
        } else {
            assert_eq!(health, 100, "element {element} smeared");
        }
    }
}

/// Determinism: the whole expel→replace→re-intrude drill replays
/// byte-identically under the same seed (metrics dump and audit report),
/// and a different seed actually shifts the timeline.
#[test]
fn replacement_drills_replay_deterministically() {
    let run = |seed: u64| {
        let mut builder = sensor_system(seed);
        builder.obs(ObsConfig::forensic());
        builder.behavior(SENSOR, 2, Behavior::CorruptValue);
        let mut system = builder.build();
        let first = system.fabric.domain(SENSOR).elements[2];
        read(&mut system);
        system.settle();
        system.spawn_replacement(SENSOR, first);
        system.settle();
        read(&mut system);
        system.settle();
        (system.audit_jsonl(), system.audit_report())
    };
    let (dump_a, report_a) = run(145);
    let (dump_b, report_b) = run(145);
    assert!(!dump_a.is_empty());
    assert_eq!(dump_a, dump_b, "seeded replacement drills must replay");
    assert_eq!(report_a, report_b);
    let (dump_c, _) = run(146);
    assert_ne!(dump_a, dump_c, "the check is not vacuous");
}
