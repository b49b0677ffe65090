//! Self-healing control-loop bench (DESIGN.md §17): survival under a
//! continuous intrusion campaign with the healing controller on versus
//! the no-controller baseline, plus the controller's action counts and
//! the sim-time cost of recovering from each wave.
//!
//! ```text
//! heal [OUT.json]            full campaign, writes BENCH_heal.json by default
//! heal --smoke [OUT.json]    short campaign + determinism self-check;
//!                            writes only to an explicit OUT.json
//! ```
//!
//! `--smoke` runs the healed campaign twice from the same seed and
//! asserts byte-identical forensic dumps — the CI gate that every
//! controller decision (threshold expulsion, replacement, proactive
//! rejuvenation) is a deterministic function of the run.
//!
//! All gated metrics are simulated-time or event counts; wall-clock is
//! reported informationally only.

use std::fmt::Write as _;
use std::process::ExitCode;

use itdos::fault::Behavior;
use itdos::heal::HealConfig;
use itdos::system::SystemBuilder;
use itdos::{Invocation, ObsConfig, ServerElement, System};
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::types::{TypeDesc, Value};
use itdos_groupmgr::membership::DomainId;
use itdos_orb::object::ObjectKey;
use itdos_orb::servant::{FnServant, Servant};

const LEDGER: DomainId = DomainId(1);
const CLIENT: u64 = 1;
const SEED: u64 = 61;
/// See `examples/continuous_intrusion.rs` for how these two windows are
/// derived from the wave cadence.
const REJUVENATION_PERIOD_US: u64 = 1_500_000;
const DECAY_WINDOW_US: u64 = 600_000;

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

/// Stateless, so replacements converge from their admission point onward.
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
    // bound the budget so the baseline's genuine liveness loss reports
    // quickly instead of burning the default 20M-step budget
    builder.settle_budget(4_000_000);
    builder.build()
}

struct CampaignStats {
    waves_survived: u64,
    sim_us: u64,
    /// Mean sim-time from a wave's first injected fault to full recovery
    /// (quiescent, expelled, replaced) over the waves that survived.
    recover_mean_us: u64,
    expulsions: u64,
    replacements: u64,
    rejuvenations: u64,
    wall_ms: u64,
    dump: String,
}

/// One campaign: silence the current occupant of a rotating slot each
/// wave (so the attacker also goes after the healer's replacements),
/// drive six invocations, settle.
fn campaign(healing: bool, waves: u64) -> CampaignStats {
    let wall = std::time::Instant::now();
    let mut system = build(healing);
    let mut survived = 0;
    let mut recover_total_us = 0;
    for wave_no in 0..waves {
        let slot = (wave_no % 4) as usize;
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
        let wave_start = system.sim.now();
        let mut tickets = Vec::new();
        for i in 0..6u64 {
            let sample = wave_no * 100 + i;
            tickets.push((
                sample,
                system.invoke_async(
                    CLIENT,
                    Invocation::of(LEDGER)
                        .object(b"sensor")
                        .interface("Sensor")
                        .operation("echo")
                        .arg(Value::LongLong(sample as i64)),
                ),
            ));
        }
        if system.try_settle().is_err() {
            break;
        }
        let correct = tickets.into_iter().all(|(sample, ticket)| {
            system
                .result(ticket)
                .is_some_and(|done| done.result == Ok(Value::LongLong(2 * sample as i64)))
        });
        if !correct {
            break;
        }
        survived += 1;
        recover_total_us += system.sim.now().since(wave_start).as_micros();
    }
    let stats = system.heal_stats();
    CampaignStats {
        waves_survived: survived,
        sim_us: system.sim.now().as_micros(),
        recover_mean_us: recover_total_us / survived.max(1),
        expulsions: stats.expulsions,
        replacements: stats.replacements,
        rejuvenations: stats.rejuvenations,
        wall_ms: wall.elapsed().as_millis() as u64,
        dump: system.audit_jsonl(),
    }
}

fn render_json(waves: u64, healed: &CampaignStats, baseline: &CampaignStats) -> String {
    let ratio = healed.waves_survived as f64 / baseline.waves_survived.max(1) as f64;
    let mut out = String::from("{\n  \"bench\": \"heal\",\n");
    let _ = writeln!(out, "  \"waves\": {waves},");
    let _ = writeln!(out, "  \"survival_ratio\": {ratio:.2},");
    for (name, s) in [("healed", healed), ("baseline", baseline)] {
        let _ = writeln!(out, "  \"{name}\": {{");
        let _ = writeln!(out, "    \"waves_survived\": {},", s.waves_survived);
        let _ = writeln!(out, "    \"sim_us\": {},", s.sim_us);
        let _ = writeln!(out, "    \"recover_mean_us\": {},", s.recover_mean_us);
        let _ = writeln!(out, "    \"expulsions\": {},", s.expulsions);
        let _ = writeln!(out, "    \"replacements\": {},", s.replacements);
        let _ = writeln!(out, "    \"rejuvenations\": {},", s.rejuvenations);
        let _ = writeln!(out, "    \"wall_ms\": {}", s.wall_ms);
        let _ = writeln!(out, "  }}{}", if name == "healed" { "," } else { "" });
    }
    out.push_str("}\n");
    out
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                eprintln!("usage: heal [--smoke] [OUT.json]  (default BENCH_heal.json; --smoke writes only to an explicit path)");
                return ExitCode::from(2);
            }
            path => out_path = Some(path.to_string()),
        }
    }

    let waves = if smoke { 3 } else { 6 };
    let healed = campaign(true, waves);
    println!(
        "healed:   {}/{waves} waves, {} expulsions, {} replacements, {} rejuvenations \
         (recover mean {} sim-µs, wall {}ms)",
        healed.waves_survived,
        healed.expulsions,
        healed.replacements,
        healed.rejuvenations,
        healed.recover_mean_us,
        healed.wall_ms
    );

    // determinism self-check: every controller decision replays
    let replay = campaign(true, waves);
    if replay.dump != healed.dump {
        eprintln!("FAIL: identical seeded campaigns produced different forensic dumps");
        return ExitCode::from(1);
    }
    println!(
        "determinism: replay dump byte-identical ({} bytes)",
        replay.dump.len()
    );

    let baseline = campaign(false, waves);
    println!(
        "baseline: {}/{waves} waves before losing liveness (wall {}ms)",
        baseline.waves_survived, baseline.wall_ms
    );

    if healed.waves_survived < waves {
        eprintln!("FAIL: healed campaign must survive every wave");
        return ExitCode::from(1);
    }
    if baseline.waves_survived >= waves
        || healed.waves_survived < 3 * baseline.waves_survived.max(1)
    {
        eprintln!(
            "FAIL: healing must extend survival >= 3x (healed {}, baseline {})",
            healed.waves_survived, baseline.waves_survived
        );
        return ExitCode::from(1);
    }

    let json = render_json(waves, &healed, &baseline);
    itdos_bench::write_snapshot(out_path, "BENCH_heal.json", smoke, &json)
}
