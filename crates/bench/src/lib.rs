//! # itdos-bench — experiment harness
//!
//! Shared builders and sweep functions used by both the Criterion benches
//! (`benches/`) and the `exp_report` binary that regenerates every
//! experiment table in `EXPERIMENTS.md` (E1–E12; see `DESIGN.md` §4 for
//! the experiment index).

#![warn(missing_docs)]

pub mod compare;
pub mod harness;

use itdos::fault::Behavior;
use itdos::system::{System, SystemBuilder};
use itdos::{Invocation, ObsConfig};
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::platform::PlatformProfile;
use itdos_giop::types::{Seq, TypeDesc, Value};
use itdos_groupmgr::membership::DomainId;
use itdos_orb::object::ObjectKey;
use itdos_orb::servant::{FnServant, Servant, ServantException};
use itdos_vote::comparator::Comparator;
use simnet::{SimDuration, SimTime};
use std::process::ExitCode;

/// The benchmark server domain.
pub const DOMAIN: DomainId = DomainId(1);
/// The benchmark client.
pub const CLIENT: u64 = 1;

/// A wall-clock [`itdos_obs::Clock`] for host-time measurements.
///
/// Lives here — not in `itdos-obs` — on purpose: the observability crate
/// sits on the itdos-lint L2 replica-deterministic list, where
/// `Instant::now` is banned. Benches run outside replicas, so they may
/// time with the host clock.
#[derive(Debug)]
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    /// A clock whose epoch is the moment of construction.
    pub fn new() -> WallClock {
        WallClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl itdos_obs::Clock for WallClock {
    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// The benchmark interface repository: a counter, a float sensor, and a
/// bulk-payload store.
pub fn repo() -> InterfaceRepository {
    let mut repo = InterfaceRepository::new();
    repo.register(
        InterfaceDef::new("Counter").with_operation(OperationDef::new(
            "add",
            vec![("delta".into(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    repo.register(
        InterfaceDef::new("Sensor").with_operation(OperationDef::new(
            "fuse",
            vec![("samples".into(), TypeDesc::sequence_of(TypeDesc::Double))],
            TypeDesc::Double,
        )),
    );
    repo.register(InterfaceDef::new("Store").with_operation(OperationDef::new(
        "put",
        vec![("blob".into(), TypeDesc::sequence_of(TypeDesc::Octet))],
        TypeDesc::ULong,
    )));
    repo
}

/// A counter servant.
pub fn counter_servant() -> Box<dyn Servant> {
    let mut total = 0i64;
    Box::new(FnServant::new("Counter", move |_, args| {
        if let Value::LongLong(d) = args[0] {
            total += d;
        }
        Ok(Value::LongLong(total))
    }))
}

/// A float-averaging sensor servant.
pub fn sensor_servant() -> Box<dyn Servant> {
    Box::new(FnServant::new("Sensor", |_, args| {
        let Value::Sequence(s) = &args[0] else {
            return Err(ServantException::new("Sensor::BadArgs"));
        };
        let sum: f64 = s
            .iter()
            .map(|v| if let Value::Double(d) = v { *d } else { 0.0 })
            .sum();
        Ok(Value::Double(sum / s.len().max(1) as f64))
    }))
}

/// A bulk store servant returning the payload length.
pub fn store_servant() -> Box<dyn Servant> {
    Box::new(FnServant::new("Store", |_, args| {
        let blob = match &args[0] {
            Value::Sequence(s) => s.as_octets(),
            _ => None,
        };
        let blob = blob.ok_or_else(|| ServantException::new("Store::BadArgs"))?;
        Ok(Value::ULong(blob.len() as u32))
    }))
}

/// Options for a benchmark deployment.
#[derive(Debug, Clone)]
pub struct DeployOptions {
    /// Server-domain fault tolerance.
    pub f: usize,
    /// A faulty element's behaviour (applied to the last replica).
    pub fault: Option<Behavior>,
    /// Heterogeneous platforms (default: all four profiles cycled).
    pub heterogeneous: bool,
    /// Comparator for the Sensor interface.
    pub sensor_comparator: Comparator,
    /// Determinism seed.
    pub seed: u64,
    /// Enable the deterministic observability layer (metrics + flight
    /// recorder shared across every process).
    pub observability: bool,
    /// Run the in-system streaming audit (ignored when `observability`
    /// is off; `SystemBuilder` defaults it on, so benches that want the
    /// recorder without the analyzer pipeline must opt out here).
    pub streaming_audit: bool,
    /// Use [`ObsConfig::forensic`] instead of [`ObsConfig::standard`]
    /// (ignored when `observability` is off). Whole-run causal profiling
    /// needs the large flight ring so no trace anchor is evicted.
    pub forensic: bool,
}

impl Default for DeployOptions {
    fn default() -> Self {
        DeployOptions {
            f: 1,
            fault: None,
            heterogeneous: true,
            sensor_comparator: Comparator::InexactRel(1e-6),
            seed: 1,
            observability: false,
            streaming_audit: true,
            forensic: false,
        }
    }
}

/// Builds a counter+sensor+store deployment.
pub fn deploy(options: &DeployOptions) -> System {
    let mut builder = SystemBuilder::new(options.seed);
    builder.obs(match (options.observability, options.forensic) {
        (false, _) => ObsConfig::off(),
        (true, false) => ObsConfig::standard(),
        (true, true) => ObsConfig::forensic(),
    });
    builder.streaming_audit(options.streaming_audit);
    builder.repository(repo());
    builder.comparator("Sensor", options.sensor_comparator.clone());
    builder.add_domain(
        DOMAIN,
        options.f,
        Box::new(|_| {
            vec![
                (ObjectKey::from_name("counter"), counter_servant()),
                (ObjectKey::from_name("sensor"), sensor_servant()),
                (ObjectKey::from_name("store"), store_servant()),
            ]
        }),
    );
    if options.heterogeneous {
        builder.platforms(DOMAIN, PlatformProfile::ALL.to_vec());
    } else {
        builder.platforms(DOMAIN, vec![PlatformProfile::SPARC_SOLARIS]);
    }
    if let Some(fault) = &options.fault {
        builder.behavior(DOMAIN, 3 * options.f, fault.clone());
    }
    builder.add_client(CLIENT);
    builder.build()
}

/// Measurements from one ordered invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationCost {
    /// Simulated time from submission to the client's vote decision.
    pub latency: SimDuration,
    /// Protocol messages sent during the invocation.
    pub messages: u64,
    /// Bytes sent during the invocation.
    pub bytes: u64,
}

/// Runs an arbitrary invocation and measures cost up to the vote decision.
pub fn invoke_measured(
    system: &mut System,
    target: DomainId,
    object_key: &[u8],
    interface: &str,
    operation: &str,
    args: Vec<Value>,
) -> InvocationCost {
    let start_time = system.sim.now();
    let start_messages = system.sim.stats().total.messages;
    let start_bytes = system.sim.stats().total.bytes;
    let before = system.client(CLIENT).completed.len();
    system.invoke_async(
        CLIENT,
        Invocation::of(target)
            .object(object_key)
            .interface(interface)
            .operation(operation)
            .args(args),
    );
    let mut guard = 0u64;
    while system.client(CLIENT).completed.len() == before {
        assert!(system.sim.step(), "quiesced without completing");
        guard += 1;
        assert!(guard < 50_000_000, "invocation never completed");
    }
    let cost = InvocationCost {
        latency: system.sim.now().since(start_time),
        messages: system.sim.stats().total.messages - start_messages,
        bytes: system.sim.stats().total.bytes - start_bytes,
    };
    system.settle();
    cost
}

/// Runs one counter invocation and measures its cost up to the vote
/// decision (§3.6: the client decides at 2f+1, not 3f+1).
pub fn measure_invocation(system: &mut System, amount: i64) -> InvocationCost {
    let start_time = system.sim.now();
    let start_messages = system.sim.stats().total.messages;
    let start_bytes = system.sim.stats().total.bytes;
    let before = system.client(CLIENT).completed.len();
    system.invoke_async(
        CLIENT,
        Invocation::of(DOMAIN)
            .object(b"counter")
            .interface("Counter")
            .operation("add")
            .arg(Value::LongLong(amount)),
    );
    let mut guard = 0u64;
    while system.client(CLIENT).completed.len() == before {
        assert!(system.sim.step(), "quiesced without completing");
        guard += 1;
        assert!(guard < 50_000_000, "invocation never completed");
    }
    let latency = system.sim.now().since(start_time);
    let cost = InvocationCost {
        latency,
        messages: system.sim.stats().total.messages - start_messages,
        bytes: system.sim.stats().total.bytes - start_bytes,
    };
    system.settle();
    cost
}

/// One row of the E4 ordering-cost sweep.
#[derive(Debug, Clone, Copy)]
pub struct OrderingRow {
    /// Fault tolerance.
    pub f: usize,
    /// Group size `3f+1`.
    pub n: usize,
    /// Steady-state (warm connection) cost of one ordered invocation.
    pub warm: InvocationCost,
}

/// E4: ordering cost versus group size.
pub fn ordering_sweep(fs: &[usize]) -> Vec<OrderingRow> {
    fs.iter()
        .map(|&f| {
            let mut system = deploy(&DeployOptions {
                f,
                seed: 40 + f as u64,
                ..DeployOptions::default()
            });
            measure_invocation(&mut system, 1); // warm up (keying + ordering)
            let runs = 5u64;
            let mut acc = InvocationCost {
                latency: SimDuration::ZERO,
                messages: 0,
                bytes: 0,
            };
            for _ in 0..runs {
                let c = measure_invocation(&mut system, 1);
                acc.latency = acc.latency + c.latency;
                acc.messages += c.messages;
                acc.bytes += c.bytes;
            }
            OrderingRow {
                f,
                n: 3 * f + 1,
                warm: InvocationCost {
                    latency: SimDuration::from_micros(acc.latency.as_micros() / runs),
                    messages: acc.messages / runs,
                    bytes: acc.bytes / runs,
                },
            }
        })
        .collect()
}

/// E3: connection establishment vs reuse.
#[derive(Debug, Clone, Copy)]
pub struct EstablishmentRow {
    /// First invocation (includes Figure 3 steps 1–3).
    pub cold: InvocationCost,
    /// Second invocation (connection reused).
    pub warm: InvocationCost,
}

/// Measures cold-vs-warm invocation cost.
pub fn establishment_cost(seed: u64) -> EstablishmentRow {
    let mut system = deploy(&DeployOptions {
        seed,
        ..DeployOptions::default()
    });
    let cold = measure_invocation(&mut system, 1);
    let warm = measure_invocation(&mut system, 1);
    EstablishmentRow { cold, warm }
}

/// E5: decision latency with an optional straggler behaviour on one
/// element.
pub fn straggler_latency(fault: Option<Behavior>, seed: u64) -> SimDuration {
    let mut system = deploy(&DeployOptions {
        fault,
        seed,
        ..DeployOptions::default()
    });
    measure_invocation(&mut system, 1); // warm
    measure_invocation(&mut system, 1).latency
}

/// E12: invocation cost versus payload size (bytes of the blob argument).
pub fn payload_sweep(sizes: &[usize]) -> Vec<(usize, InvocationCost)> {
    sizes
        .iter()
        .map(|&size| {
            let mut system = deploy(&DeployOptions {
                seed: 120 + size as u64,
                ..DeployOptions::default()
            });
            system.invoke(
                CLIENT,
                Invocation::of(DOMAIN)
                    .object(b"store")
                    .interface("Store")
                    .operation("put")
                    .arg(Value::Sequence(Seq::from_octets(vec![0]))),
            );
            let blob = Value::Sequence(Seq::from_octets(vec![0xAB; size]));
            let cost = invoke_measured(&mut system, DOMAIN, b"store", "Store", "put", vec![blob]);
            let done = system.client(CLIENT).completed.last().expect("completed");
            assert_eq!(done.result, Ok(Value::ULong(size as u32)));
            (size, cost)
        })
        .collect()
}

/// Convenience: the simulation time origin.
pub fn origin() -> SimTime {
    SimTime::ZERO
}

/// Writes a bench binary's snapshot and returns its exit code. With no
/// path given a full run refreshes the committed `default` in the current
/// directory; a `--smoke` run, whose small-workload numbers must never
/// replace a committed snapshot, writes nothing.
pub fn write_snapshot(path: Option<String>, default: &str, smoke: bool, json: &str) -> ExitCode {
    let path = match path {
        Some(path) => path,
        None if smoke => {
            println!("smoke run, no output path given: {default} left untouched");
            return ExitCode::SUCCESS;
        }
        None => default.to_string(),
    };
    if let Err(err) = std::fs::write(&path, json) {
        eprintln!("FAIL: cannot write {path}: {err}");
        return ExitCode::from(1);
    }
    println!("wrote {path}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_sweep_is_monotonic_in_f() {
        let rows = ordering_sweep(&[1, 2]);
        assert!(rows[1].warm.messages > rows[0].warm.messages);
        assert!(rows[1].warm.bytes > rows[0].warm.bytes);
    }

    #[test]
    fn establishment_dominates_reuse() {
        let row = establishment_cost(7);
        assert!(row.cold.messages > row.warm.messages);
        assert!(row.cold.latency > row.warm.latency);
    }

    #[test]
    fn payload_sweep_scales_bytes() {
        let rows = payload_sweep(&[64, 4096]);
        assert!(rows[1].1.bytes > rows[0].1.bytes);
    }
}
