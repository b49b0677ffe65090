//! Heterogeneous sensor fusion: four replicas on four *different*
//! platforms (mixed endianness, divergent float lanes) — the scenario
//! that motivates voting on unmarshalled values (§3.6).
//!
//! Run with: `cargo run --example heterogeneous_cluster`

use itdos::system::SystemBuilder;
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::platform::PlatformProfile;
use itdos_giop::types::{TypeDesc, Value};
use itdos_groupmgr::membership::DomainId;
use itdos_orb::object::ObjectKey;
use itdos_orb::servant::{FnServant, Servant, ServantException};
use itdos_vote::comparator::Comparator;

const SENSORS: DomainId = DomainId(1);
const CLIENT: u64 = 1;

fn repo() -> InterfaceRepository {
    let mut repo = InterfaceRepository::new();
    repo.register(
        InterfaceDef::new("Sensor::Fusion").with_operation(OperationDef::new(
            "fuse",
            vec![("samples".into(), TypeDesc::sequence_of(TypeDesc::Double))],
            TypeDesc::Double,
        )),
    );
    repo
}

fn fusion_servant() -> Box<dyn Servant> {
    Box::new(FnServant::new("Sensor::Fusion", |_, args| {
        let Value::Sequence(samples) = &args[0] else {
            return Err(ServantException::new("Sensor::BadArgs"));
        };
        let sum: f64 = samples
            .iter()
            .map(|v| if let Value::Double(d) = v { *d } else { 0.0 })
            .sum();
        Ok(Value::Double(sum / samples.len().max(1) as f64))
    }))
}

fn build(comparator: Comparator, seed: u64) -> itdos::System {
    let mut builder = SystemBuilder::new(seed);
    builder.repository(repo());
    builder.comparator("Sensor::Fusion", comparator);
    builder.add_domain(
        SENSORS,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("fusion"), fusion_servant())]),
    );
    builder.platforms(SENSORS, PlatformProfile::ALL.to_vec());
    builder.add_client(CLIENT);
    builder.build()
}

fn main() {
    println!("== heterogeneous sensor cluster ==");
    println!("replica platforms:");
    for (i, p) in PlatformProfile::ALL.iter().enumerate() {
        println!(
            "  replica {i}: {:<18} ({:?}-endian, float lane {})",
            p.name, p.endianness, p.float_lane
        );
    }
    let samples = vec![Value::Sequence(
        vec![
            Value::Double(20.1),
            Value::Double(19.9),
            Value::Double(20.4),
            Value::Double(20.0),
        ]
        .into(),
    )];

    // Inexact voting: correct replicas whose floats differ by platform
    // rounding are recognized as equivalent.
    let mut system = build(Comparator::InexactRel(1e-6), 7);
    let done = system.invoke(
        CLIENT,
        itdos::Invocation::of(SENSORS)
            .object(b"fusion")
            .interface("Sensor::Fusion")
            .operation("fuse")
            .args(samples.clone()),
    );
    println!("\ninexact voting (rel eps 1e-6):");
    println!("  fused reading -> {:?}", done.result);
    println!(
        "  suspects      -> {:?} (platform divergence tolerated)",
        done.suspects
    );

    // Exact voting: the same deployment never assembles f+1 bit-identical
    // doubles — the invocation starves. This is why Immune-style byte
    // voting cannot support heterogeneity.
    let mut system = build(Comparator::Exact, 7);
    system.invoke_async(
        CLIENT,
        itdos::Invocation::of(SENSORS)
            .object(b"fusion")
            .interface("Sensor::Fusion")
            .operation("fuse")
            .args(samples),
    );
    system
        .sim
        .run_until(simnet::SimTime::ZERO + simnet::SimDuration::from_secs(2));
    println!("\nexact voting on the same cluster:");
    println!(
        "  completed invocations after 2 simulated seconds: {} (starved — no f+1 identical floats)",
        system.client(CLIENT).completed.len()
    );

    // And with a genuinely Byzantine replica, inexact voting still
    // catches the lie: tolerance covers rounding, not corruption.
    let mut builder = SystemBuilder::new(8);
    builder.repository(repo());
    builder.comparator("Sensor::Fusion", Comparator::InexactRel(1e-6));
    builder.add_domain(
        SENSORS,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("fusion"), fusion_servant())]),
    );
    builder.platforms(SENSORS, PlatformProfile::ALL.to_vec());
    builder.behavior(SENSORS, 2, itdos::Behavior::CorruptValue);
    builder.add_client(CLIENT);
    let mut system = builder.build();
    let done = system.invoke(
        CLIENT,
        itdos::Invocation::of(SENSORS)
            .object(b"fusion")
            .interface("Sensor::Fusion")
            .operation("fuse")
            .arg(Value::Sequence(
                vec![Value::Double(20.0), Value::Double(20.2)].into(),
            )),
    );
    println!("\ninexact voting with one corrupt replica:");
    println!("  fused reading -> {:?}", done.result);
    println!(
        "  suspects      -> {:?} (the lie is outside tolerance)",
        done.suspects
    );
}
