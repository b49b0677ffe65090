//! Faults inside the Group Manager domain itself — "a centralized
//! service … implemented in an intrusion tolerant manner" (§3.3): the GM
//! is a replication domain, so it must mask its own element failures.

use itdos_tests::common;

use common::{assert_mean, bank_system, gm_active_counts, gm_memberships, read_average};
use common::{sensor_system, BANK, CLIENT, SENSOR};
use itdos::{Behavior, GM_DOMAIN};
use itdos_crypto::shamir;
use itdos_giop::types::Value;

fn deposit(system: &mut itdos::System, amount: i64) -> itdos::Completed {
    system.invoke(CLIENT, common::deposit(amount))
}

/// One crashed GM backup: the GM's BFT group (f=1, n=4) orders the
/// open_request with 3 live elements, and 3 share streams ≥ f_gm+1 = 2
/// suffice to assemble every communication key.
#[test]
fn crashed_gm_backup_is_masked() {
    let mut system = bank_system(401).build();
    let gm_backup = system.fabric.domain(GM_DOMAIN).nodes[3];
    system.sim.config_mut().isolate(gm_backup);
    let done = deposit(&mut system, 11);
    assert_eq!(done.result, Ok(Value::LongLong(11)));
}

/// The crashed GM element is the *primary* of the GM ordering group: the
/// GM domain view-changes internally, then serves connection
/// establishment as usual.
#[test]
fn crashed_gm_primary_recovers_via_view_change() {
    let mut system = bank_system(402).build();
    let gm_primary = system.fabric.domain(GM_DOMAIN).nodes[0];
    system.sim.config_mut().isolate(gm_primary);
    let done = deposit(&mut system, 13);
    assert_eq!(done.result, Ok(Value::LongLong(13)));
    // the surviving GM elements moved past view 0
    for index in 1..4 {
        assert!(
            system.gm_element(index).replica().view().0 >= 1,
            "gm element {index} view-changed"
        );
    }
}

/// A crashed GM element AND a corrupt server element at the same time:
/// both fault budgets are independent (f_gm = 1 in the GM domain, f = 1
/// in the bank domain).
#[test]
fn independent_fault_budgets() {
    let mut builder = bank_system(403);
    builder.behavior(BANK, 1, itdos::Behavior::CorruptValue);
    let mut system = builder.build();
    let gm_backup = system.fabric.domain(GM_DOMAIN).nodes[2];
    system.sim.config_mut().isolate(gm_backup);
    let done = deposit(&mut system, 17);
    assert_eq!(done.result, Ok(Value::LongLong(17)));
    let corrupt = system.fabric.domain(BANK).elements[1];
    assert_eq!(done.suspects, vec![corrupt]);
}

/// GM state convergence: after a burst of opens and expulsions, all live
/// GM elements hold identical manager state (op-log digests agree).
#[test]
fn gm_elements_converge() {
    let mut builder = bank_system(404);
    builder.behavior(BANK, 3, itdos::Behavior::CorruptValue);
    let mut system = builder.build();
    deposit(&mut system, 1); // open + detect + expel + rekey
    system.settle();
    use itdos_bft::state::StateMachine;
    let d0 = system.gm_element(0).replica().app().digest();
    for index in 1..4 {
        assert_eq!(
            system.gm_element(index).replica().app().digest(),
            d0,
            "gm element {index} state diverged"
        );
    }
}

// ---- a seven-element Group Manager (f_gm = 2) --------------------------------

/// Two crashed GM elements at f_gm = 2: the GM's ordering group (n = 7)
/// still has its 2f+1 = 5 live elements, and 5 share streams ≥ f_gm+1 = 3
/// assemble the connection key.
#[test]
fn two_crashed_gm_elements_are_masked_at_f_gm_2() {
    let mut builder = bank_system(405);
    builder.gm_faults(2);
    let mut system = builder.build();
    let gm = system.fabric.domain(GM_DOMAIN);
    assert_eq!(gm.nodes.len(), 7);
    let (first, second) = (gm.nodes[2], gm.nodes[5]);
    system.sim.config_mut().isolate(first);
    system.sim.config_mut().isolate(second);
    let done = deposit(&mut system, 19);
    assert_eq!(done.result, Ok(Value::LongLong(19)));
}

/// §3.5's share threshold at f_gm = 2: any f_gm+1 = 3 leaked GM shares
/// rebuild one master secret, and f_gm = 2 rebuild something else.
#[test]
fn gm_share_threshold_at_f_gm_2() {
    let mut builder = bank_system(406);
    builder.gm_faults(2);
    let mut system = builder.build();
    assert_eq!(deposit(&mut system, 3).result, Ok(Value::LongLong(3)));
    let leaked: Vec<shamir::Share> = (0..7)
        .map(|i| system.gm_element(i).leaked_share())
        .collect();
    let master = shamir::combine(&leaked[0..3]).expect("three shares");
    for subset in [[1, 3, 5], [4, 5, 6], [0, 2, 6]] {
        let shares = subset.map(|i| leaked[i]);
        assert_eq!(shamir::combine(&shares), Ok(master), "{subset:?}");
    }
    let two = shamir::combine(&leaked[0..2]).expect("two shares");
    assert_ne!(two, master, "f_gm elements learn nothing");
}

/// Expel-then-replace at f_gm = 2: a corrupt sensor element is expelled
/// and a replacement restores the roster, as all seven GM elements see it;
/// the next call is correct and names no suspect. The expulsion is
/// asserted after `settle()`: the corrupt reply may arrive after the vote
/// has decided, and the late-dissent proof expels the element then.
#[test]
fn expelled_element_is_replaced_at_f_gm_2() {
    let mut builder = sensor_system(141);
    builder.gm_faults(2);
    builder.behavior(SENSOR, 2, Behavior::CorruptValue);
    let mut system = builder.build();
    let intruder = system.fabric.domain(SENSOR).elements[2];
    assert_mean(&read_average(&mut system));
    system.settle();
    assert_eq!(gm_active_counts(&system, SENSOR), vec![3; 7], "expelled");

    let admitted = system.spawn_replacement(SENSOR, intruder);
    system.settle();
    assert_eq!(gm_active_counts(&system, SENSOR), vec![4; 7], "restored");
    for (i, membership) in gm_memberships(&system).enumerate() {
        let domain = membership.domain(SENSOR).expect("registered");
        assert!(domain.is_active(admitted), "gm {i}: newcomer on roster");
        assert!(!domain.is_active(intruder), "gm {i}: intruder stays out");
    }
    let done = read_average(&mut system);
    assert_mean(&done);
    assert!(done.suspects.is_empty());
}
