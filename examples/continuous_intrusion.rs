//! Continuous intrusion campaign: a patient attacker compromises one
//! element after another, and the self-healing control loop
//! ([`itdos::heal`]) expels, replaces, and proactively rejuvenates —
//! automatically, with no operator in the loop — so service survives
//! indefinitely. A no-controller baseline run under the *same* campaign
//! exhausts its fault budget `f` and loses liveness within two waves.
//!
//! Run with: `cargo run --example continuous_intrusion`
//!
//! Flags / arguments:
//! - `--smoke` shortens the campaign for CI;
//! - a path argument writes the healed run's JSONL forensic dump there —
//!   CI runs the example twice and byte-compares the dumps to prove the
//!   whole campaign (threshold expulsions, replacements, rejuvenations
//!   included) replays deterministically.

use itdos::fault::Behavior;
use itdos::heal::HealConfig;
use itdos::system::SystemBuilder;
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::types::{TypeDesc, Value};
use itdos_groupmgr::membership::DomainId;
use itdos_orb::object::ObjectKey;
use itdos_orb::servant::{FnServant, Servant};

const LEDGER: DomainId = DomainId(1);
const CLIENT: u64 = 1;
const SEED: u64 = 61;
/// Sim-time between proactive rejuvenations in the healed run.
const REJUVENATION_PERIOD_US: u64 = 1_500_000;
/// Decay window handed to the audit pipeline. Must span one wave's quiet
/// client-retry tail (~400ms of simulated timer drain after the last
/// voted reply) so the wave's traffic is still in view at the settle
/// boundary, yet stay shorter than a full wave cycle so the victim's own
/// earlier replies have aged out and its fresh silence is visible.
/// Structural evidence (expulsions, accusations) never ages out.
const DECAY_WINDOW_US: u64 = 600_000;

fn repo() -> InterfaceRepository {
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

/// Stateless servant (replies depend only on the request arguments), so a
/// freshly admitted replacement converges with its peers from its
/// admission point onward — the §3.1 replicated-message-queue model
/// (DESIGN.md §14).
fn sensor_servant() -> Box<dyn Servant> {
    Box::new(FnServant::new("Sensor", move |_, args| {
        let Value::LongLong(v) = args[0] else {
            return Ok(Value::LongLong(0));
        };
        Ok(Value::LongLong(v * 2))
    }))
}

fn build(healing: bool) -> itdos::System {
    let mut builder = SystemBuilder::new(SEED);
    builder.obs(itdos::ObsConfig::forensic());
    builder.repository(repo());
    builder.add_domain(
        LEDGER,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("sensor"), sensor_servant())]),
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
    // either leg must *observably* lose liveness, not hang the example: a
    // bounded budget makes try_settle report a stall quickly (a healthy
    // wave, replacement onboarding included, needs well under half this)
    builder.settle_budget(4_000_000);
    builder.build()
}

/// One campaign wave: compromise the current occupant of `slot` with
/// silence (masked by the 2f+1 vote, so there is never a signed proof to
/// convict on — only the audit verdict can catch it), then drive client
/// traffic and settle. Returns whether service stayed live and correct.
fn wave(system: &mut itdos::System, wave_no: usize, slot: usize) -> bool {
    let victim = system.fabric.domain(LEDGER).elements[slot];
    let node = system.fabric.domain(LEDGER).nodes[slot];
    system
        .sim
        .fault_ledger_mut()
        .mark(u64::from(victim.0), Behavior::Silent.kind());
    system
        .sim
        .process_mut::<itdos::ServerElement>(node)
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
    if let Err(e) = system.try_settle() {
        let first = e.lines().next().unwrap_or("");
        println!("  wave {wave_no}: LIVENESS LOST ({first})");
        return false;
    }
    for (sample, ticket) in tickets {
        let Some(done) = system.result(ticket) else {
            println!("  wave {wave_no}: invocation never completed");
            return false;
        };
        if done.result != Ok(Value::LongLong(2 * sample as i64)) {
            println!("  wave {wave_no}: WRONG RESULT {:?}", done.result);
            return false;
        }
    }
    true
}

fn campaign(title: &str, healing: bool, waves: usize) -> (itdos::System, usize) {
    println!("\n=== campaign: {title} ===");
    let mut system = build(healing);
    let mut survived = 0;
    for wave_no in 0..waves {
        // always attack the *current* occupant of a rotating slot — a
        // patient attacker going after whatever the healer put there
        let slot = wave_no % 4;
        if !wave(&mut system, wave_no, slot) {
            break;
        }
        survived += 1;
        print!("  live health:");
        for (e, h) in system.live_health() {
            print!(" e{e}={h}");
        }
        println!();
        let stats = system.heal_stats();
        println!(
            "  wave {wave_no}: survived (sim {}; expulsions {}, replacements {}, rejuvenations {})",
            system.sim.now(),
            stats.expulsions,
            stats.replacements,
            stats.rejuvenations
        );
    }
    (system, survived)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let dump_path = args.iter().find(|a| !a.starts_with("--")).cloned();
    let waves = if smoke { 4 } else { 8 };

    println!("== ITDOS continuous intrusion: one new compromise per wave ==");

    let (healed, healed_waves) = campaign("self-healing controller on", true, waves);
    let stats = healed.heal_stats();
    println!(
        "healed run: survived {healed_waves}/{waves} waves \
         ({} expulsions, {} replacements, {} rejuvenations)",
        stats.expulsions, stats.replacements, stats.rejuvenations
    );

    println!("\n-- forensic audit of the healed campaign --");
    let report = healed.audit();
    print!("{}", report.render());
    let ledger = healed.sim.fault_ledger().ids();
    println!("injected-fault ledger: {ledger:?}");
    println!("audit blamed set:      {:?}", report.blamed_elements());

    if let Some(path) = &dump_path {
        let dump = healed.audit_jsonl();
        std::fs::write(path, &dump).expect("write dump");
        println!("(dump written to {path}: {} lines)", dump.lines().count());
    }

    let (_baseline, baseline_waves) = campaign("no controller (baseline)", false, waves);
    println!("baseline run: survived {baseline_waves}/{waves} waves before losing liveness");

    assert!(
        healed_waves == waves,
        "healed run must survive the whole campaign"
    );
    assert!(
        baseline_waves < waves,
        "baseline must exhaust f and lose liveness"
    );
    assert!(
        healed_waves >= 3 * baseline_waves.max(1),
        "healing must extend survival at least 3x (healed {healed_waves}, baseline {baseline_waves})"
    );
    println!(
        "\nself-healing extended survival {healed_waves} vs {baseline_waves} waves (>= 3x): \
         integrity and availability held with no operator in the loop."
    );
}
