//! Intrusion drill: a guided tour of the fault pipeline — corruption,
//! masking, detection, signed-message proof, expulsion, rekey, and
//! continued service (§2.1, §3.6) — followed by a forensic audit that
//! localizes the compromised element from telemetry alone.
//!
//! Run with: `cargo run --example intrusion_drill`
//!
//! Pass a path argument to also write the first drill's JSONL dump
//! (metrics + flight events + embedded topology) there, ready for the
//! offline audit CLI: `cargo run -p itdos --example audit -- FILE`.
//! A second path argument writes the replacement drill's dump too — CI
//! runs the drill twice and byte-compares that dump to prove the whole
//! expel→replace→re-intrude timeline replays deterministically.

use itdos::fault::Behavior;
use itdos::system::SystemBuilder;
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::types::{TypeDesc, Value};
use itdos_groupmgr::membership::DomainId;
use itdos_orb::object::ObjectKey;
use itdos_orb::servant::{FnServant, Servant};
use simnet::SimDuration;

const LEDGER: DomainId = DomainId(1);
const CLIENT: u64 = 1;

fn repo() -> InterfaceRepository {
    let mut repo = InterfaceRepository::new();
    repo.register(
        InterfaceDef::new("Ledger").with_operation(OperationDef::new(
            "append",
            vec![("entry".into(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    repo
}

/// One line of the live health timeline: the `replica.health` scores the
/// in-system streaming audit holds *right now* — what an operator
/// watching the gauges sees mid-run, no dump parse involved.
fn print_live_health(act: &str, system: &itdos::System) {
    let health = system.live_health();
    // scored straight from the live findings, it must equal the full
    // report's scores at every act of every drill
    let report = system.live_audit_report().expect("streaming audit is on");
    assert_eq!(
        *health, report.health,
        "live health diverged from the report"
    );
    print!("live health [{act}]:");
    for (element, score) in health {
        print!(" e{element}={score}");
    }
    println!();
}

fn ledger_servant() -> Box<dyn Servant> {
    let mut total = 0i64;
    Box::new(FnServant::new("Ledger", move |_, args| {
        if let Value::LongLong(v) = args[0] {
            total += v;
        }
        Ok(Value::LongLong(total))
    }))
}

fn drill(title: &str, behavior: Behavior, seed: u64, dump_to: Option<&str>) -> itdos::System {
    println!("\n=== drill: {title} ===");
    let mut builder = SystemBuilder::new(seed);
    // forensic profile: a flight ring holding the whole timeline — a
    // truncated ring would cost the auditor its earliest evidence (and it
    // would say so in the report)
    builder.obs(itdos::ObsConfig::forensic());
    builder.repository(repo());
    builder.add_domain(
        LEDGER,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("ledger"), ledger_servant())]),
    );
    builder.behavior(LEDGER, 3, behavior.clone());
    builder.add_client(CLIENT);
    let mut system = builder.build();
    let compromised = system.fabric.domain(LEDGER).elements[3];

    let done = system.invoke(
        CLIENT,
        itdos::Invocation::of(LEDGER)
            .object(b"ledger")
            .interface("Ledger")
            .operation("append")
            .arg(Value::LongLong(1000)),
    );
    println!("append(1000) -> {:?}", done.result);
    println!("suspects: {:?}", done.suspects);
    print_live_health("after intrusion", &system);
    system.settle();
    println!(
        "proofs sent to Group Manager: {}",
        system.client(CLIENT).proofs_sent
    );
    let expelled = !system
        .gm_element(0)
        .replica()
        .app()
        .manager()
        .membership()
        .domain(LEDGER)
        .unwrap()
        .is_active(compromised);
    println!("element {:?} expelled: {expelled}", compromised);
    // service must continue either way
    let done = system.invoke(
        CLIENT,
        itdos::Invocation::of(LEDGER)
            .object(b"ledger")
            .interface("Ledger")
            .operation("append")
            .arg(Value::LongLong(24)),
    );
    println!("append(24)  -> {:?} (service continues)", done.result);
    assert_eq!(done.result, Ok(Value::LongLong(1024)));
    print_live_health("after recovery", &system);

    println!("\n-- per-phase metrics for this drill --");
    print!("{}", system.metrics_report());

    // where did the latency go? the causal cost tree over both appends
    println!("\n-- whole-stack profile (DESIGN.md §16) --");
    print!(
        "{}",
        system.profile().expect("observability is on").render()
    );

    // the forensic layer: from telemetry alone, which element was bad?
    println!("\n-- forensic audit --");
    print!("{}", system.audit().render());

    if let Some(path) = dump_to {
        let dump = system.audit_jsonl();
        std::fs::write(path, &dump).expect("write dump");
        println!("(dump written to {path}: {} lines)", dump.lines().count());
    }
    system
}

/// The replacement drill runs on a *stateless* servant: replies depend
/// only on the request arguments. The paper's §3.1 model synchronizes the
/// replicated message queue, not application object state, so a freshly
/// admitted element converges with its peers from its admission point
/// onward (DESIGN.md §14 spells out this boundary).
fn sensor_servant() -> Box<dyn Servant> {
    Box::new(FnServant::new("Sensor", move |_, args| {
        let Value::Sequence(samples) = &args[0] else {
            return Ok(Value::Double(0.0));
        };
        let values: Vec<f64> = samples
            .iter()
            .filter_map(|v| match v {
                Value::Double(d) => Some(*d),
                _ => None,
            })
            .collect();
        let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
        Ok(Value::Double(mean))
    }))
}

/// Expel → replace → re-intrude: after an intrusion consumes the domain's
/// fault budget, a GM-brokered replacement (§14) restores it to `n`
/// elements — and a scripted *second* f-fault intrusion is masked,
/// detected, and expelled just like the first.
fn replacement_drill(seed: u64, dump_to: Option<&str>) -> itdos::System {
    println!("\n=== drill: expel, replace, re-intrude (replica replacement) ===");
    let mut builder = SystemBuilder::new(seed);
    builder.obs(itdos::ObsConfig::forensic());
    let mut repo = InterfaceRepository::new();
    repo.register(
        InterfaceDef::new("Sensor").with_operation(OperationDef::new(
            "read_average",
            vec![(
                "samples".into(),
                TypeDesc::Sequence(Box::new(TypeDesc::Double)),
            )],
            TypeDesc::Double,
        )),
    );
    builder.repository(repo);
    builder.comparator(
        "Sensor",
        itdos_vote::comparator::Comparator::InexactRel(1e-6),
    );
    builder.add_domain(
        LEDGER,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("sensor"), sensor_servant())]),
    );
    builder.behavior(LEDGER, 2, Behavior::CorruptValue);
    builder.add_client(CLIENT);
    let mut system = builder.build();
    let read = |system: &mut itdos::System| {
        system.invoke(
            CLIENT,
            itdos::Invocation::of(LEDGER)
                .object(b"sensor")
                .interface("Sensor")
                .operation("read_average")
                .arg(Value::Sequence(
                    vec![Value::Double(1.0), Value::Double(3.0)].into(),
                )),
        )
    };
    let active = |system: &itdos::System| {
        system
            .gm_element(0)
            .replica()
            .app()
            .manager()
            .membership()
            .domain(LEDGER)
            .unwrap()
            .active_count()
    };

    // act 1: the intrusion is masked, proven, and the culprit expelled
    let compromised = system.fabric.domain(LEDGER).elements[2];
    let done = read(&mut system);
    println!("read_average([1,3]) -> {:?}", done.result);
    println!("suspects: {:?}", done.suspects);
    system.settle();
    println!(
        "active elements after expulsion: {} of 4 (f exhausted)",
        active(&system)
    );
    assert_eq!(active(&system), 3);
    print_live_health("act 1: first intrusion expelled", &system);

    // act 2: a freshly keyed element is admitted into the vacated slot
    let admitted = system.spawn_replacement(LEDGER, compromised, Behavior::Honest);
    system.settle();
    println!(
        "element {:?} admitted into slot 2; active elements: {} of 4",
        admitted,
        active(&system)
    );
    assert_eq!(active(&system), 4);
    let joiner = system.element(LEDGER, 2);
    println!(
        "joiner onboarded via state transfer: {}",
        !joiner.is_onboarding()
    );
    assert!(!joiner.is_onboarding());
    print_live_health("act 2: replacement admitted", &system);

    // act 3: a second intrusion on a different slot — the restored
    // domain tolerates its full f faults again
    let second = system.fabric.domain(LEDGER).elements[1];
    let node = system.fabric.domain(LEDGER).nodes[1];
    system
        .sim
        .fault_ledger_mut()
        .mark(u64::from(second.0), Behavior::CorruptValue.kind());
    system
        .sim
        .process_mut::<itdos::ServerElement>(node)
        .set_behavior(Behavior::CorruptValue);
    let done = read(&mut system);
    println!(
        "second intrusion: read_average -> {:?}, suspects {:?}",
        done.result, done.suspects
    );
    assert_eq!(done.suspects, vec![second]);
    system.settle();
    println!(
        "second intruder expelled; active elements: {} of 4",
        active(&system)
    );
    assert_eq!(active(&system), 3);
    print_live_health("act 3: second intrusion expelled", &system);

    println!("\n-- forensic audit across the replacement --");
    print!("{}", system.audit().render());

    if let Some(path) = dump_to {
        let dump = system.audit_jsonl();
        std::fs::write(path, &dump).expect("write dump");
        println!(
            "(replacement dump written to {path}: {} lines)",
            dump.lines().count()
        );
    }
    system
}

/// The corrupt-value drill whose dump CI audits, and the replacement
/// drill, as their finished systems.
#[cfg(test)]
fn ci_drills() -> Vec<itdos::System> {
    vec![
        drill(
            "value corruption (detected by the vote, expelled via proof)",
            Behavior::CorruptValue,
            41,
            None,
        ),
        replacement_drill(45, None),
    ]
}

fn main() {
    let dump_path = std::env::args().nth(1);
    let replacement_dump_path = std::env::args().nth(2);
    println!("== ITDOS intrusion drill: one compromised element out of four ==");
    drill(
        "value corruption (detected by the vote, expelled via proof)",
        Behavior::CorruptValue,
        41,
        dump_path.as_deref(),
    );
    drill(
        "silence (masked by 2f+1 rule; nothing to prove)",
        Behavior::Silent,
        42,
        None,
    );
    drill(
        "deliberate slowness (vote decides without waiting, §3.6)",
        Behavior::Slow(SimDuration::from_millis(400)),
        43,
        None,
    );
    drill(
        "intermittent lies (caught on the request where it lies)",
        Behavior::Intermittent,
        44,
        None,
    );
    replacement_drill(45, replacement_dump_path.as_deref());
    println!("\nall drills complete: integrity and availability held throughout.");
}

#[cfg(test)]
mod tests {
    use itdos_audit::{MetricsFacts, Stream};
    use itdos_obs::flight::Event;
    use itdos_obs::jsonl::parse_dump;

    use super::ci_drills;

    #[test]
    fn tapped_events_and_parsed_records_audit_identically() {
        for system in ci_drills() {
            let dump = parse_dump(&system.audit_jsonl()).expect("dump parses");
            let live: Vec<Event> = system
                .obs
                .with_flight(|f| f.events().cloned().collect())
                .expect("observability is on");
            assert_eq!(live.len(), dump.events.len());
            let facts = MetricsFacts::from_dump(&dump);
            let mut from_live = Stream::new(system.audit_topology());
            let mut from_dump = Stream::new(system.audit_topology());
            for (event, record) in live.iter().zip(&dump.events) {
                assert_eq!(from_live.observe_event(event), from_dump.observe(record));
            }
            let findings = from_live.findings(&facts);
            assert!(findings.iter().any(|f| f.kind == "divergence"));
            assert_eq!(findings, from_dump.findings(&facts));
            assert_eq!(from_live.timeline(), from_dump.timeline());
            assert_eq!(from_live.health(&facts), from_dump.health(&facts));
        }
    }

    #[test]
    fn health_from_findings_equals_the_reports_after_every_event() {
        for system in ci_drills() {
            let dump = parse_dump(&system.audit_jsonl()).expect("dump parses");
            let facts = MetricsFacts::from_dump(&dump);
            let mut stream = Stream::new(system.audit_topology());
            for record in &dump.events {
                stream.observe(record);
                assert_eq!(stream.health(&facts), stream.report(&facts).health);
            }
        }
    }
}
