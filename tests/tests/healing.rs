//! The self-healing control loop (DESIGN.md §17): audit-driven automatic
//! expulsion, replacement, and proactive rejuvenation with no operator in
//! the loop.
//!
//! A continuous-intrusion campaign silences one element per wave — always
//! the *current* occupant of a rotating slot, so the attacker also goes
//! after replacements the healer installed. The healed system must
//! outlive the no-controller baseline by at least 3x, every controller
//! decision must be deterministic (run-twice dumps byte-identical), and
//! the forensic blame set must equal the injected-fault ledger exactly —
//! proactively rejuvenated elements included on the *not blamed* side.

use itdos_tests::common;

use common::CLIENT;
use itdos::fault::Behavior;
use itdos::heal::HealConfig;
use itdos::{ObsConfig, ServerElement, System, SystemBuilder};
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::types::{TypeDesc, Value};
use itdos_groupmgr::membership::DomainId;
use itdos_orb::object::ObjectKey;
use itdos_orb::servant::{FnServant, Servant};

const LEDGER: DomainId = DomainId(1);
const SEED: u64 = 61;
/// Mirrors `examples/continuous_intrusion.rs`: the window spans one
/// wave's client-retry tail (~400ms of simulated timer drain) but not a
/// full wave cycle, so fresh silence is visible at the settle boundary.
const DECAY_WINDOW_US: u64 = 600_000;
const REJUVENATION_PERIOD_US: u64 = 1_500_000;

fn echo_repo() -> InterfaceRepository {
    let mut repo = InterfaceRepository::new();
    repo.register(
        InterfaceDef::new("Sensor").with_operation(OperationDef::new(
            "echo",
            vec![("sample".into(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    repo
}

fn echo_servant() -> Box<dyn Servant> {
    Box::new(FnServant::new("Sensor", move |_, args| {
        let Value::LongLong(v) = args[0] else {
            return Ok(Value::LongLong(0));
        };
        Ok(Value::LongLong(v * 2))
    }))
}

fn build(healing: bool) -> System {
    let mut builder = SystemBuilder::new(SEED);
    builder.obs(ObsConfig::forensic());
    builder.repository(echo_repo());
    builder.add_domain(
        LEDGER,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("sensor"), echo_servant())]),
    );
    builder.add_client(CLIENT);
    if healing {
        builder.healing(HealConfig {
            expel_below: 45,
            rejuvenation_period_us: Some(REJUVENATION_PERIOD_US),
            decay_window_us: Some(DECAY_WINDOW_US),
            max_rounds: 8,
        });
    }
    // a bounded budget turns a genuine liveness loss into a fast
    // `try_settle` error instead of a multi-minute 20M-step burn
    builder.settle_budget(4_000_000);
    builder.build()
}

/// One campaign wave against the current occupant of `slot`: silence it
/// (masked by the 2f+1 vote, so only the audit verdict can catch it),
/// drive six client invocations, settle. True iff service stayed live
/// and every reply was correct.
fn wave(system: &mut System, wave_no: usize, slot: usize) -> bool {
    let victim = system.fabric.domain(LEDGER).elements[slot];
    let node = system.fabric.domain(LEDGER).nodes[slot];
    system
        .sim
        .fault_ledger_mut()
        .mark(u64::from(victim.0), Behavior::Silent.kind());
    system
        .sim
        .process_mut::<ServerElement>(node)
        .set_behavior(Behavior::Silent);
    let mut tickets = Vec::new();
    for i in 0..6u64 {
        let sample = (wave_no as u64) * 100 + i;
        tickets.push((
            sample,
            system.invoke_async(
                CLIENT,
                itdos::Invocation::of(LEDGER)
                    .object(b"sensor")
                    .interface("Sensor")
                    .operation("echo")
                    .arg(Value::LongLong(sample as i64)),
            ),
        ));
    }
    if system.try_settle().is_err() {
        return false;
    }
    tickets.into_iter().all(|(sample, ticket)| {
        system
            .result(ticket)
            .is_some_and(|done| done.result == Ok(Value::LongLong(2 * sample as i64)))
    })
}

fn campaign(healing: bool, waves: usize) -> (System, usize) {
    let mut system = build(healing);
    let mut survived = 0;
    for wave_no in 0..waves {
        if !wave(&mut system, wave_no, wave_no % 4) {
            break;
        }
        survived += 1;
    }
    (system, survived)
}

/// The acceptance bar from the issue: under one new compromise per wave,
/// the healed run survives the whole campaign while the baseline
/// exhausts `f` and loses liveness — at least a 3x survival gap.
#[test]
fn healed_campaign_outlives_baseline_3x() {
    const WAVES: usize = 4;
    let (healed, healed_waves) = campaign(true, WAVES);
    let (_baseline, baseline_waves) = campaign(false, WAVES);

    assert_eq!(healed_waves, WAVES, "healed run must survive every wave");
    assert!(
        baseline_waves < WAVES,
        "baseline must exhaust f and lose liveness (survived {baseline_waves})"
    );
    assert!(
        healed_waves >= 3 * baseline_waves.max(1),
        "healing must extend survival >= 3x (healed {healed_waves}, baseline {baseline_waves})"
    );

    let stats = healed.heal_stats();
    assert_eq!(
        stats.expulsions, WAVES as u64,
        "every wave's intruder is expelled by the controller"
    );
    assert!(
        stats.rejuvenations >= 1,
        "the {REJUVENATION_PERIOD_US}us period fires at least once in the campaign"
    );
    assert_eq!(
        stats.replacements,
        stats.expulsions + stats.rejuvenations,
        "every departure — expelled or retired — is replaced"
    );
}

/// The forensic verdict at the end of the healed campaign blames exactly
/// the elements the fault ledger says were compromised: no intruder
/// escapes, no honest element (rejuvenated veterans and fresh
/// replacements included) is defamed.
#[test]
fn healed_campaign_blames_exactly_the_injected_faults() {
    const WAVES: usize = 4;
    let (healed, healed_waves) = campaign(true, WAVES);
    assert_eq!(healed_waves, WAVES);

    let report = healed.audit();
    let mut ledger = healed.sim.fault_ledger().ids();
    ledger.sort_unstable();
    assert_eq!(
        report.blamed_elements(),
        ledger,
        "audit blame set must equal the injected-fault ledger"
    );

    // rejuvenation is visible in the verdict — as benign Info, not blame
    let retired: Vec<u64> = report
        .findings
        .iter()
        .filter(|f| f.kind == "retired")
        .filter_map(|f| f.element)
        .collect();
    assert!(
        !retired.is_empty(),
        "proactive retirement must surface as a finding"
    );
    for element in retired {
        assert!(
            !report.blamed_elements().contains(&element),
            "rejuvenated element {element} must not be blamed"
        );
    }
}

/// Every controller decision is a deterministic function of the GM
/// membership, the live verdict, and the simulated clock: two runs of
/// the same campaign produce byte-identical forensic dumps.
#[test]
fn healed_campaign_replays_byte_identically() {
    const WAVES: usize = 3;
    let (first, first_waves) = campaign(true, WAVES);
    let (second, second_waves) = campaign(true, WAVES);
    assert_eq!(first_waves, WAVES);
    assert_eq!(second_waves, WAVES);
    assert!(
        first.audit_jsonl() == second.audit_jsonl(),
        "run-twice dumps must be byte-identical"
    );
}

/// Regression (stale health across replacement): the freshly admitted
/// joiner occupies the victim's *slot* but must not inherit the victim's
/// audit record — it starts at full health while the expelled identity
/// keeps its blame.
#[test]
fn replacement_joiner_starts_at_full_health() {
    let (healed, survived) = campaign(true, 1);
    assert_eq!(survived, 1);
    let stats = healed.heal_stats();
    assert_eq!(stats.expulsions, 1);
    assert_eq!(stats.replacements, 1);

    let health = healed.live_health();
    // seed topology: elements 0..=3 are the GM domain, 4..=7 the ledger
    // domain; the wave-0 victim is element 4 and its replacement is the
    // next identity the GM mints, element 8
    let victim = health.get(&4).copied().expect("victim is scored");
    let joiner = health.get(&8).copied().expect("joiner is scored");
    assert!(
        victim < 45,
        "expelled identity keeps its blame (health {victim})"
    );
    assert_eq!(
        joiner, 100,
        "fresh joiner in the same slot starts at full health"
    );
    // the controller's decisions and the accusations behind them are
    // typed facts like every other flight event
    let kinds = common::flight_fact_kinds(&healed);
    for kind in [
        "heal.expel",
        "heal.replace",
        "element.accuse",
        "gm.admitted",
    ] {
        assert!(kinds.contains(kind), "no {kind} recorded");
    }
}
