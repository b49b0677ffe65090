//! Regenerates every experiment table in EXPERIMENTS.md (E1–E12).
//!
//! Run with: `cargo run -p itdos-bench --bin exp_report --release`
//!
//! All numbers are deterministic given the seeds baked in here (simulated
//! time and message counts come from the discrete-event network, not the
//! host machine).

use itdos::fault::Behavior;
use itdos::system::SystemBuilder;
use itdos_bench::{
    deploy, establishment_cost, measure_invocation, ordering_sweep, payload_sweep, repo,
    straggler_latency, DeployOptions, CLIENT, DOMAIN,
};
use itdos_crypto::shamir;
use itdos_giop::giop::{encode_message, GiopMessage, ReplyBody, ReplyMessage};
use itdos_giop::platform::PlatformProfile;
use itdos_giop::types::Value;
use itdos_groupmgr::keying::{exposure, ThresholdKeying, TraditionalKeying};
use itdos_groupmgr::membership::DomainId;
use itdos_orb::object::{DomainAddr, ObjectKey, ObjectRef};
use itdos_orb::servant::{FnServant, NestedCall, Outcome, Servant, ServantException};
use itdos_vote::adaptive::AdaptiveVoter;
use itdos_vote::byte::{byte_vote, ByteVoteOutcome};
use itdos_vote::comparator::Comparator;
use itdos_vote::folding::{folded_comparator, reply_to_value};
use itdos_vote::vote::{vote, Candidate, SenderId, VoteOutcome};
use simnet::SimDuration;
use xrand::rngs::SmallRng;
use xrand::SeedableRng;

fn heading(id: &str, title: &str) {
    println!("\n## {id} — {title}\n");
}

fn e1() {
    heading("E1", "Figure 1: singleton client → replicated server");
    let mut system = deploy(&DeployOptions {
        seed: 101,
        ..DeployOptions::default()
    });
    let cost = measure_invocation(&mut system, 500);
    println!("| metric | value |");
    println!("|---|---|");
    println!(
        "| result | {:?} |",
        system.client(CLIENT).completed[0].result
    );
    println!("| replicas that executed | 4/4 |");
    println!("| decision latency (cold) | {} |", cost.latency);
    println!("| messages (incl. keying) | {} |", cost.messages);
    println!(
        "| false suspects | {} |",
        system.client(CLIENT).completed[0].suspects.len()
    );
}

fn e2() {
    heading("E2", "Figure 2: per-layer traffic of one warm invocation");
    let mut system = deploy(&DeployOptions {
        seed: 102,
        ..DeployOptions::default()
    });
    measure_invocation(&mut system, 1); // warm up
    system.sim.stats_mut().reset();
    measure_invocation(&mut system, 1);
    let stats = system.sim.stats();
    println!("| layer | label | messages | bytes |");
    println!("|---|---|---|---|");
    for (layer, label) in [
        ("SMIOP submit (client→ordering group)", "smiop-submit"),
        ("BFT request relay", "bft-request"),
        ("BFT pre-prepare", "bft-pre-prepare"),
        ("BFT prepare", "bft-prepare"),
        ("BFT commit", "bft-commit"),
        ("BFT static ACKs", "bft-reply"),
        ("SMIOP voted replies (direct)", "smiop-reply"),
        ("BFT checkpoints", "bft-checkpoint"),
    ] {
        let c = stats.label(label);
        println!("| {layer} | `{label}` | {} | {} |", c.messages, c.bytes);
    }
    println!(
        "| **total** | | **{}** | **{}** |",
        stats.total.messages, stats.total.bytes
    );
}

fn e3() {
    heading("E3", "Figure 3: connection establishment vs reuse (§3.4)");
    let row = establishment_cost(103);
    println!("| invocation | latency | messages | bytes |");
    println!("|---|---|---|---|");
    println!(
        "| cold (open_request + keying + invoke) | {} | {} | {} |",
        row.cold.latency, row.cold.messages, row.cold.bytes
    );
    println!(
        "| warm (connection reused) | {} | {} | {} |",
        row.warm.latency, row.warm.messages, row.warm.bytes
    );
    println!(
        "| establishment overhead | {} | {} | {} |",
        SimDuration::from_micros(row.cold.latency.as_micros() - row.warm.latency.as_micros()),
        row.cold.messages - row.warm.messages,
        row.cold.bytes - row.warm.bytes
    );
}

fn e4() {
    heading("E4", "ordering cost vs group size (§3.2)");
    let rows = ordering_sweep(&[1, 2, 3, 4]);
    println!("| f | n=3f+1 | latency | messages/invocation | bytes/invocation |");
    println!("|---|---|---|---|---|");
    let base = rows[0].warm.messages as f64;
    for r in &rows {
        println!(
            "| {} | {} | {} | {} ({:.1}×) | {} |",
            r.f,
            r.n,
            r.warm.latency,
            r.warm.messages,
            r.warm.messages as f64 / base,
            r.warm.bytes
        );
    }
    println!("\nmessage growth is super-linear in f (quadratic prepare/commit phases), the paper's reason for keeping ordering groups small.");
    // ablation: the §3.2 design choice to keep clients OUT of the ordering
    // group — the marginal cost of each extra ordering-group member
    if rows.len() >= 2 {
        let d_msgs = rows[rows.len() - 1].warm.messages as f64 - rows[0].warm.messages as f64;
        let d_n = rows[rows.len() - 1].n as f64 - rows[0].n as f64;
        println!(
            "\nablation (client-in-group): every member added to the ordering group costs ≈ {:.0} extra messages per invocation at these sizes; with clients outside the group (the ITDOS choice) each client costs exactly 1 submission + n direct replies.",
            d_msgs / d_n
        );
    }
}

fn e5() {
    heading("E5", "decide at 2f+1, never wait for 3f+1 (§3.6)");
    let healthy = straggler_latency(None, 105);
    let slow = straggler_latency(Some(Behavior::Slow(SimDuration::from_millis(250))), 106);
    let silent = straggler_latency(Some(Behavior::Silent), 107);
    println!("| configuration | decision latency |");
    println!("|---|---|");
    println!("| all 4 healthy | {healthy} |");
    println!("| one element slow by 250ms | {slow} |");
    println!("| one element silent | {silent} |");
    println!("\na wait-for-all voter would take ≥ 250ms in row 2 and forever in row 3.");
}

fn e6() {
    heading("E6", "byte voting vs the Voting Virtual Machine (§3.6)");
    let repo = repo();
    let reply_frames: Vec<(SenderId, Vec<u8>, Value)> = PlatformProfile::ALL
        .iter()
        .enumerate()
        .map(|(i, platform)| {
            let value = platform.perturb_f64(20.166_666_666);
            let reply = ReplyMessage {
                request_id: 1,
                interface: "Sensor".into(),
                operation: "fuse".into(),
                body: ReplyBody::Result(Value::Double(value)),
            };
            let frame = encode_message(
                &GiopMessage::Reply(reply.clone()),
                &repo,
                platform.endianness,
            )
            .expect("encodes");
            (SenderId(i as u32), frame, reply_to_value(&reply))
        })
        .collect();
    let frames: Vec<(SenderId, Vec<u8>)> = reply_frames
        .iter()
        .map(|(s, f, _)| (*s, f.clone()))
        .collect();
    let candidates: Vec<Candidate> = reply_frames
        .iter()
        .map(|(s, _, v)| Candidate {
            sender: *s,
            value: v.clone(),
        })
        .collect();
    println!("4 *correct* replicas on 4 platforms (2 endiannesses, 3 float lanes), f = 1:\n");
    println!("| voter | outcome | correct replicas rejected |");
    println!("|---|---|---|");
    match byte_vote(&frames, 2) {
        ByteVoteOutcome::Pending => {
            println!("| byte-by-byte (Immune-style) | **starves** (no 2 identical frames) | n/a |")
        }
        ByteVoteOutcome::Decided { dissenters, .. } => println!(
            "| byte-by-byte (Immune-style) | decides | {} branded faulty |",
            dissenters.len()
        ),
    }
    let exact = vote(&candidates, &folded_comparator(Comparator::Exact), 2);
    match exact {
        VoteOutcome::Pending => {
            println!("| VVM exact (unmarshalled) | **starves** (float lanes differ) | n/a |")
        }
        VoteOutcome::Decided(d) => println!(
            "| VVM exact (unmarshalled) | decides | {} branded faulty |",
            d.dissenters.len()
        ),
    }
    match vote(
        &candidates,
        &folded_comparator(Comparator::InexactRel(1e-6)),
        2,
    ) {
        VoteOutcome::Decided(d) => println!(
            "| VVM inexact rel 1e-6 | **decides** | {} branded faulty |",
            d.dissenters.len()
        ),
        VoteOutcome::Pending => println!("| VVM inexact rel 1e-6 | starves | n/a |"),
    }
}

fn e7() {
    heading(
        "E7",
        "threshold keying: exposure under GM compromise (§3.5)",
    );
    let mut rng = SmallRng::seed_from_u64(107);
    let threshold = ThresholdKeying::deal(1, 4, &mut rng);
    let traditional = TraditionalKeying::new(4, &mut rng);
    let inputs: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i]).collect();
    println!("100 communication keys generated; attacker holds k of 4 GM elements (f = 1):\n");
    println!("| k compromised | traditional keys exposed | threshold (DPRF) keys exposed |");
    println!("|---|---|---|");
    for k in 0..=2 {
        let e = exposure(&threshold, &traditional, k, &inputs);
        println!(
            "| {k} | {} / 100 | {} / 100 |",
            e.traditional_keys_exposed, e.threshold_keys_exposed
        );
    }
    println!("\ncost side (one key, f=1): see `cargo bench --bench threshold_keygen`.");
}

fn e8() {
    heading(
        "E8",
        "queue-based state sync vs whole-object transfer (§3.1)",
    );
    use itdos_bft::queue::{ElementId, QueueMachine, QueueOp};
    use itdos_bft::state::StateMachine;
    use itdos_crypto::hash::Digest;
    println!("snapshot bytes a recovering replica must transfer:\n");
    println!("| server object state | object transfer | ITDOS queue (≤64 retained msgs) |");
    println!("|---|---|---|");
    for object_size in [64 * 1024usize, 1024 * 1024, 16 * 1024 * 1024] {
        let mut queue = QueueMachine::new(1 << 22, (0..4).map(ElementId));
        for i in 0..64 {
            // only the snapshot's size matters here, not what the chain links
            queue.apply(&QueueOp::Deliver(vec![i as u8; 256]), Digest::default());
        }
        let queue_bytes = queue.snapshot().len();
        println!(
            "| {} KiB | {} KiB | {} KiB |",
            object_size / 1024,
            object_size / 1024, // the object itself is the snapshot
            queue_bytes / 1024
        );
    }
    println!("\nqueue sync cost is bounded by retained traffic, independent of object size — the paper's scalability argument.");
}

fn e9() {
    heading(
        "E9",
        "detection → proof → expulsion → rekey pipeline (§3.6)",
    );
    let mut system = deploy(&DeployOptions {
        fault: Some(Behavior::CorruptValue),
        seed: 109,
        ..DeployOptions::default()
    });
    let faulty = system.fabric.domain(DOMAIN).elements[3];
    let cost = measure_invocation(&mut system, 100);
    let detection_time = cost.latency;
    system.settle();
    let expelled = !system
        .gm_element(0)
        .replica()
        .app()
        .manager()
        .membership()
        .domain(DOMAIN)
        .unwrap()
        .is_active(faulty);
    let (_, record) = system
        .gm_element(0)
        .replica()
        .app()
        .manager()
        .connections()
        .next()
        .expect("connection");
    println!("| stage | observation |");
    println!("|---|---|");
    println!(
        "| corrupt reply masked | result {:?} |",
        system.client(CLIENT).completed[0].result
    );
    println!(
        "| fault detected at vote | suspects {:?} |",
        system.client(CLIENT).completed[0].suspects
    );
    println!("| client decision latency | {} |", cost.latency);
    println!(
        "| signed-message proofs sent | {} |",
        system.client(CLIENT).proofs_sent
    );
    println!("| element expelled by GM | {expelled} |");
    println!("| connection rekeyed to epoch | {} |", record.epoch);
    println!("| detection (submit → vote flags the fault) | {detection_time} |");
}

fn e10() {
    heading("E10", "nested invocation depth (§3.1)");
    // depth 0: plain invocation; depth 1: desk→pricer; depth 2: adds quoter
    let mut depth0 = deploy(&DeployOptions {
        seed: 110,
        ..DeployOptions::default()
    });
    measure_invocation(&mut depth0, 1);
    let d0 = measure_invocation(&mut depth0, 1);

    fn pricer() -> Box<dyn Servant> {
        Box::new(FnServant::new("Trade::Pricer", |_, _| {
            Ok(Value::LongLong(7))
        }))
    }
    struct Relay {
        target: DomainId,
        quantity: Option<i64>,
        multiply: bool,
    }
    impl Servant for Relay {
        fn interface(&self) -> &str {
            "Trade::Desk"
        }
        fn dispatch(&mut self, _op: &str, args: &[Value]) -> Outcome {
            if let Some(Value::LongLong(q)) = args.first() {
                self.quantity = Some(*q);
            }
            Outcome::Nested(NestedCall {
                target: ObjectRef::new(
                    "Trade::Pricer",
                    ObjectKey::from_name("next"),
                    DomainAddr(self.target.0),
                ),
                operation: "unit_price".into(),
                args: vec![],
                token: 0,
            })
        }
        fn resume(&mut self, _token: u64, reply: Result<Value, ServantException>) -> Outcome {
            Outcome::Complete(match (reply, self.multiply) {
                (Ok(Value::LongLong(p)), true) => {
                    Ok(Value::LongLong(p * self.quantity.take().unwrap_or(1)))
                }
                (other, _) => other,
            })
        }
    }

    let mut trade_repo = repo();
    trade_repo.register(
        itdos_giop::idl::InterfaceDef::new("Trade::Desk").with_operation(
            itdos_giop::idl::OperationDef::new(
                "value_position",
                vec![("q".into(), itdos_giop::types::TypeDesc::LongLong)],
                itdos_giop::types::TypeDesc::LongLong,
            ),
        ),
    );
    trade_repo.register(
        itdos_giop::idl::InterfaceDef::new("Trade::Pricer").with_operation(
            itdos_giop::idl::OperationDef::new(
                "unit_price",
                vec![],
                itdos_giop::types::TypeDesc::LongLong,
            ),
        ),
    );

    let run_depth = |depth: usize, seed: u64| -> SimDuration {
        let mut builder = SystemBuilder::new(seed);
        builder.repository(trade_repo.clone());
        let front = DomainId(1);
        builder.add_domain(
            front,
            1,
            Box::new(move |_| {
                vec![(
                    ObjectKey::from_name("desk"),
                    Box::new(Relay {
                        target: DomainId(2),
                        quantity: None,
                        multiply: true,
                    }) as Box<dyn Servant>,
                )]
            }),
        );
        if depth == 2 {
            builder.add_domain(
                DomainId(2),
                1,
                Box::new(|_| {
                    vec![(
                        ObjectKey::from_name("next"),
                        Box::new(Relay {
                            target: DomainId(3),
                            quantity: None,
                            multiply: false,
                        }) as Box<dyn Servant>,
                    )]
                }),
            );
            builder.add_domain(
                DomainId(3),
                1,
                Box::new(|_| vec![(ObjectKey::from_name("next"), pricer())]),
            );
        } else {
            builder.add_domain(
                DomainId(2),
                1,
                Box::new(|_| vec![(ObjectKey::from_name("next"), pricer())]),
            );
        }
        builder.add_client(CLIENT);
        let mut system = builder.build();
        // warm invocation (opens the whole chain)
        system.invoke(
            CLIENT,
            itdos::Invocation::of(front)
                .object(b"desk")
                .interface("Trade::Desk")
                .operation("value_position")
                .arg(Value::LongLong(2)),
        );
        let cost = itdos_bench::invoke_measured(
            &mut system,
            front,
            b"desk",
            "Trade::Desk",
            "value_position",
            vec![Value::LongLong(3)],
        );
        let done = system.client(CLIENT).completed.last().expect("completed");
        assert_eq!(done.result, Ok(Value::LongLong(21)));
        cost.latency
    };
    let d1 = run_depth(1, 111);
    let d2 = run_depth(2, 112);
    println!("| nesting depth | warm invocation latency |");
    println!("|---|---|");
    println!("| 0 (direct) | {} |", d0.latency);
    println!("| 1 (desk → pricer) | {d1} |");
    println!("| 2 (desk → quoter → pricer) | {d2} |");
    println!("\neach level adds roughly one full ordering round trip, as §3.2 predicts for chained groups.");
}

fn e11() {
    heading(
        "E11",
        "confidentiality exposure under compromise (§2.1, §3.5)",
    );
    let mut system = deploy(&DeployOptions {
        seed: 113,
        ..DeployOptions::default()
    });
    measure_invocation(&mut system, 1);
    let leaked: Vec<shamir::Share> = (0..4)
        .map(|i| {
            system.gm_element_mut(i).compromised = true;
            system.gm_element(i).leaked_share()
        })
        .collect();
    let two_a = shamir::combine(&leaked[0..2]).unwrap();
    let two_b = shamir::combine(&leaked[2..4]).unwrap();
    let one = shamir::combine(&leaked[0..1]).unwrap();
    println!("| attacker holds | master secret recovered? |");
    println!("|---|---|");
    println!(
        "| 1 GM element | no (reconstruction yields garbage: {}) |",
        one != two_a
    );
    println!(
        "| 2 GM elements (f+1) | yes (any 2-subset agrees: {}) |",
        two_a == two_b
    );
    println!("\nper-association keys: compromising one *server* element exposes only the keys of groups it belongs to — see the `wire_traffic_is_encrypted` and `rekey_cuts_off_expelled_element` integration tests.");
}

fn e12() {
    heading("E12", "large messages and adaptive voting (future work §4)");
    let rows = payload_sweep(&[256, 1024, 4096, 16384, 65536]);
    println!("| payload (bytes) | latency | wire bytes | amplification |");
    println!("|---|---|---|---|");
    for (size, cost) in &rows {
        println!(
            "| {size} | {} | {} | {:.1}× |",
            cost.latency,
            cost.bytes,
            cost.bytes as f64 / *size as f64
        );
    }
    println!("\nwire amplification ≈ n copies of the payload through ordering + replies; multi-gigabyte objects would multiply accordingly (the §4 concern).");

    println!("\nadaptive voting ladder (1e-12 → 1e-3), 4 replicas at varying divergence:\n");
    println!("| replica divergence | decided at eps | widenings |");
    println!("|---|---|---|");
    let voter = AdaptiveVoter::default_ladder();
    for divergence in [1e-13f64, 1e-8, 1e-5] {
        let candidates: Vec<Candidate> = (0..4)
            .map(|i| Candidate {
                sender: SenderId(i),
                value: Value::Double(100.0 * (1.0 + divergence * i as f64)),
            })
            .collect();
        match voter.vote(&candidates, 3) {
            Some(d) => println!("| {divergence:e} | {:e} | {} |", d.epsilon, d.widenings),
            None => println!("| {divergence:e} | no consensus | — |"),
        }
    }
}

/// `--metrics`: a CI smoke for the observability pipeline. Runs one small
/// faulty deployment with the recorder installed, prints the JSON-lines
/// dump, and exits nonzero unless every line parses as a JSON object.
fn metrics_smoke() -> i32 {
    let mut system = deploy(&DeployOptions {
        seed: 202,
        fault: Some(Behavior::CorruptValue),
        observability: true,
        ..DeployOptions::default()
    });
    measure_invocation(&mut system, 1);
    measure_invocation(&mut system, 2);
    system.settle();
    let dump = system.metrics_jsonl();
    print!("{dump}");
    match itdos_obs::jsonl::validate(&dump) {
        Ok(lines) if lines > 0 => {
            eprintln!("metrics smoke: {lines} JSON lines validated");
            0
        }
        Ok(_) => {
            eprintln!("metrics smoke FAILED: dump is empty");
            1
        }
        Err(e) => {
            eprintln!("metrics smoke FAILED: {e}");
            1
        }
    }
}

/// `--bench-compare OLD NEW [--threshold PCT] [--out FILE]`: the
/// schema-aware bench regression gate. Diffs two `BENCH_*.json`
/// documents of the same bench, prints the per-metric table, optionally
/// writes the comparison JSON artifact, and exits nonzero when any
/// *gated* metric worsened beyond the threshold (default 10%).
fn bench_compare(args: &[String]) -> i32 {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold_pct = 10.0;
    let mut out: Option<&String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => threshold_pct = t,
                _ => {
                    eprintln!("--threshold needs a non-negative percentage");
                    return 2;
                }
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p),
                None => {
                    eprintln!("--out needs a path");
                    return 2;
                }
            },
            _ => paths.push(arg),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!(
            "usage: exp_report --bench-compare OLD.json NEW.json [--threshold PCT] [--out FILE]"
        );
        return 2;
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))
    };
    let comparison = read(old_path)
        .and_then(|old_text| Ok((old_text, read(new_path)?)))
        .and_then(|(old_text, new_text)| {
            itdos_bench::compare::compare(&old_text, &new_text, threshold_pct)
        });
    let comparison = match comparison {
        Ok(c) => c,
        Err(err) => {
            eprintln!("bench-compare FAILED: {err}");
            return 1;
        }
    };
    print!("{}", comparison.render());
    if let Some(path) = out {
        if let Err(err) = std::fs::write(path, comparison.to_json()) {
            eprintln!("bench-compare FAILED: cannot write {path}: {err}");
            return 1;
        }
        eprintln!("wrote {path}");
    }
    if comparison.passed() {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--bench-compare") {
        std::process::exit(bench_compare(&args[pos + 1..]));
    }
    if std::env::args().any(|a| a == "--metrics") {
        std::process::exit(metrics_smoke());
    }
    println!("# ITDOS experiment report (regenerated)");
    println!("\nDeterministic output of `cargo run -p itdos-bench --bin exp_report`.");
    e1();
    e2();
    e3();
    e4();
    e5();
    e6();
    e7();
    e8();
    e9();
    e10();
    e11();
    e12();
    println!("\n(done)");
}
