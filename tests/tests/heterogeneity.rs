//! E6: heterogeneous platforms — unmarshalled + inexact voting succeeds
//! where exact/byte comparison fails.

use itdos_tests::common;

use common::{repo, sensor_servant, CLIENT};
use itdos::SystemBuilder;
use itdos_giop::platform::PlatformProfile;
use itdos_giop::types::Value;
use itdos_groupmgr::membership::DomainId;
use itdos_orb::object::ObjectKey;
use itdos_vote::comparator::Comparator;
use simnet::SimDuration;

const SENSORS: DomainId = DomainId(1);

fn sensor_system(seed: u64, comparator: Comparator) -> itdos::System {
    let mut builder = SystemBuilder::new(seed);
    builder.repository(repo());
    builder.comparator("Sensor::Fusion", comparator);
    builder.add_domain(
        SENSORS,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("fusion"), sensor_servant())]),
    );
    // all four platform profiles: two big-endian, two little-endian,
    // three distinct float lanes
    builder.platforms(SENSORS, PlatformProfile::ALL.to_vec());
    builder.add_client(CLIENT);
    builder.build()
}

fn samples() -> Vec<Value> {
    vec![Value::Sequence(
        vec![
            Value::Double(20.125),
            Value::Double(19.875),
            Value::Double(20.500),
        ]
        .into(),
    )]
}

/// Inexact voting unifies correct replicas whose float results differ by
/// platform lane: no false suspects, decision reached.
#[test]
fn inexact_voting_accepts_heterogeneous_correct_replicas() {
    let mut system = sensor_system(41, Comparator::InexactRel(1e-6));
    let done = system.invoke(
        CLIENT,
        itdos::Invocation::of(SENSORS)
            .object(b"fusion")
            .interface("Sensor::Fusion")
            .operation("read_average")
            .args(samples()),
    );
    let value = match done.result {
        Ok(Value::Double(v)) => v,
        other => panic!("expected a double, got {other:?}"),
    };
    assert!((value - 20.166_666).abs() < 1e-3, "mean of the samples");
    assert!(
        done.suspects.is_empty(),
        "no correct replica branded faulty: {:?}",
        done.suspects
    );
    assert_eq!(system.client(CLIENT).proofs_sent, 0);
}

/// The paper's negative result: exact (byte-equivalent) voting cannot
/// assemble f+1 identical float results from heterogeneous correct
/// replicas — the invocation never decides.
#[test]
fn exact_voting_starves_on_heterogeneous_floats() {
    let mut system = sensor_system(42, Comparator::Exact);
    system.invoke_async(
        CLIENT,
        itdos::Invocation::of(SENSORS)
            .object(b"fusion")
            .interface("Sensor::Fusion")
            .operation("read_average")
            .args(samples()),
    );
    // bounded run: the system keeps retrying but can never decide
    system
        .sim
        .run_until(simnet::SimTime::ZERO + SimDuration::from_secs(2));
    assert!(
        system.client(CLIENT).completed.is_empty(),
        "exact voting must not reach a decision across float lanes"
    );
}

/// Inexact voting still catches a *really* faulty value among the
/// platform jitter: tolerance masks 1e-9-level divergence, not a lie.
#[test]
fn inexact_voting_still_detects_byzantine_values() {
    let mut builder = SystemBuilder::new(43);
    builder.repository(repo());
    builder.comparator("Sensor::Fusion", Comparator::InexactRel(1e-6));
    builder.add_domain(
        SENSORS,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("fusion"), sensor_servant())]),
    );
    builder.platforms(SENSORS, PlatformProfile::ALL.to_vec());
    builder.behavior(SENSORS, 2, itdos::fault::Behavior::CorruptValue);
    builder.add_client(CLIENT);
    let mut system = builder.build();
    let done = system.invoke(
        CLIENT,
        itdos::Invocation::of(SENSORS)
            .object(b"fusion")
            .interface("Sensor::Fusion")
            .operation("read_average")
            .args(samples()),
    );
    let faulty = system.fabric.domain(SENSORS).elements[2];
    assert!(matches!(done.result, Ok(Value::Double(_))));
    assert_eq!(done.suspects, vec![faulty], "the lie is outside tolerance");
}

/// Integer-valued interfaces vote exactly even across platforms: only
/// floats diverge, so exact voting works for the bank.
#[test]
fn integer_interfaces_vote_exactly_across_platforms() {
    let mut builder = SystemBuilder::new(44);
    builder.repository(repo());
    builder.add_domain(
        DomainId(1),
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), common::bank_servant())]),
    );
    builder.platforms(DomainId(1), PlatformProfile::ALL.to_vec());
    builder.add_client(CLIENT);
    let mut system = builder.build();
    let done = system.invoke(
        CLIENT,
        itdos::Invocation::of(DomainId(1))
            .object(b"acct")
            .interface("Bank::Account")
            .operation("deposit")
            .arg(Value::LongLong(10)),
    );
    assert_eq!(done.result, Ok(Value::LongLong(10)));
    assert!(done.suspects.is_empty());
}
