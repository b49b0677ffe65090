//! Faults inside the Group Manager domain itself — "a centralized
//! service … implemented in an intrusion tolerant manner" (§3.3): the GM
//! is a replication domain, so it must mask its own element failures.

mod common;

use common::{bank_system, BANK, CLIENT};
use itdos::GM_DOMAIN;
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
