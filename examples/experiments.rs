//! Regenerates every experiment table in EXPERIMENTS.md (E1–E12).
//!
//! Run with: `cargo run --release -p itdos --example experiments`
//!
//! All numbers are deterministic given the seeds baked in here (simulated
//! time and message counts come from the discrete-event network, not the
//! host machine). `cargo test -p itdos --example experiments` runs the
//! sweeps' own checks.

use itdos::fault::Behavior;
use itdos::system::{System, SystemBuilder};
use itdos::Invocation;
use itdos_crypto::shamir;
use itdos_giop::giop::{encode_message, GiopMessage, ReplyBody, ReplyMessage};
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::platform::PlatformProfile;
use itdos_giop::types::{Seq, TypeDesc, Value};
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

/// The experiment server domain.
const DOMAIN: DomainId = DomainId(1);
/// The experiment client.
const CLIENT: u64 = 1;

/// The experiment interface repository: a counter, a float sensor (E6
/// encodes its replies), and a bulk-payload store.
fn repo() -> InterfaceRepository {
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

fn counter_servant() -> Box<dyn Servant> {
    let mut total = 0i64;
    Box::new(FnServant::new("Counter", move |_, args| {
        if let Value::LongLong(d) = args[0] {
            total += d;
        }
        Ok(Value::LongLong(total))
    }))
}

/// Returns the payload length.
fn store_servant() -> Box<dyn Servant> {
    Box::new(FnServant::new("Store", |_, args| {
        let blob = match &args[0] {
            Value::Sequence(s) => s.as_octets(),
            _ => None,
        };
        let blob = blob.ok_or_else(|| ServantException::new("Store::BadArgs"))?;
        Ok(Value::ULong(blob.len() as u32))
    }))
}

/// A counter+store domain tolerating `f` faults on all four
/// platform profiles, with `fault` (if any) on its last replica.
fn deploy(f: usize, fault: Option<Behavior>, seed: u64) -> System {
    let mut builder = SystemBuilder::new(seed);
    builder.repository(repo());
    builder.add_domain(
        DOMAIN,
        f,
        Box::new(|_| {
            vec![
                (ObjectKey::from_name("counter"), counter_servant()),
                (ObjectKey::from_name("store"), store_servant()),
            ]
        }),
    );
    builder.platforms(DOMAIN, PlatformProfile::ALL.to_vec());
    if let Some(fault) = fault {
        builder.behavior(DOMAIN, 3 * f, fault);
    }
    builder.add_client(CLIENT);
    builder.build()
}

/// Measurements from one ordered invocation.
#[derive(Debug, Clone, Copy)]
struct InvocationCost {
    /// Simulated time from submission to the client's vote decision.
    latency: SimDuration,
    /// Protocol messages sent during the invocation.
    messages: u64,
    /// Bytes sent during the invocation.
    bytes: u64,
}

/// `Counter.add(amount)` on the experiment domain.
fn add(amount: i64) -> Invocation {
    Invocation::of(DOMAIN)
        .object(b"counter")
        .interface("Counter")
        .operation("add")
        .arg(Value::LongLong(amount))
}

/// Runs one invocation from [`CLIENT`], measures its cost up to the vote
/// decision (§3.6: the client decides at 2f+1, not 3f+1), then settles.
fn measure(system: &mut System, invocation: Invocation) -> InvocationCost {
    let start_time = system.sim.now();
    let start_messages = system.sim.stats().total.messages;
    let start_bytes = system.sim.stats().total.bytes;
    let before = system.client(CLIENT).completed.len();
    system.invoke_async(CLIENT, invocation);
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

/// E4: the steady-state (warm connection) cost of one ordered invocation
/// for each `f`, averaged over five runs.
fn ordering_sweep(fs: &[usize]) -> Vec<(usize, InvocationCost)> {
    fs.iter()
        .map(|&f| {
            let mut system = deploy(f, None, 40 + f as u64);
            measure(&mut system, add(1)); // warm up (keying + ordering)
            let runs = 5u64;
            let mut acc = InvocationCost {
                latency: SimDuration::ZERO,
                messages: 0,
                bytes: 0,
            };
            for _ in 0..runs {
                let c = measure(&mut system, add(1));
                acc.latency += c.latency;
                acc.messages += c.messages;
                acc.bytes += c.bytes;
            }
            let warm = InvocationCost {
                latency: SimDuration::from_micros(acc.latency.as_micros() / runs),
                messages: acc.messages / runs,
                bytes: acc.bytes / runs,
            };
            (f, warm)
        })
        .collect()
}

/// E3: the first invocation (Figure 3 steps 1–3 included) and the second,
/// which reuses the connection.
fn establishment_cost(seed: u64) -> (InvocationCost, InvocationCost) {
    let mut system = deploy(1, None, seed);
    let cold = measure(&mut system, add(1));
    let warm = measure(&mut system, add(1));
    (cold, warm)
}

/// E12: invocation cost versus payload size (bytes of the blob argument).
fn payload_sweep(sizes: &[usize]) -> Vec<(usize, InvocationCost)> {
    let put = |blob: Vec<u8>| {
        Invocation::of(DOMAIN)
            .object(b"store")
            .interface("Store")
            .operation("put")
            .arg(Value::Sequence(Seq::from_octets(blob)))
    };
    sizes
        .iter()
        .map(|&size| {
            let mut system = deploy(1, None, 120 + size as u64);
            system.invoke(CLIENT, put(vec![0]));
            let cost = measure(&mut system, put(vec![0xAB; size]));
            let done = system.client(CLIENT).completed.last().expect("completed");
            assert_eq!(done.result, Ok(Value::ULong(size as u32)));
            (size, cost)
        })
        .collect()
}

fn heading(id: &str, title: &str) {
    println!("\n## {id} — {title}\n");
}

fn e1() {
    heading("E1", "Figure 1: singleton client → replicated server");
    let mut system = deploy(1, None, 101);
    let cost = measure(&mut system, add(500));
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
    let mut system = deploy(1, None, 102);
    measure(&mut system, add(1)); // warm up
    system.sim.stats_mut().reset();
    measure(&mut system, add(1));
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
    let (cold, warm) = establishment_cost(103);
    println!("| invocation | latency | messages | bytes |");
    println!("|---|---|---|---|");
    println!(
        "| cold (open_request + keying + invoke) | {} | {} | {} |",
        cold.latency, cold.messages, cold.bytes
    );
    println!(
        "| warm (connection reused) | {} | {} | {} |",
        warm.latency, warm.messages, warm.bytes
    );
    println!(
        "| establishment overhead | {} | {} | {} |",
        SimDuration::from_micros(cold.latency.as_micros() - warm.latency.as_micros()),
        cold.messages - warm.messages,
        cold.bytes - warm.bytes
    );
}

fn e4() {
    heading("E4", "ordering cost vs group size (§3.2)");
    let rows = ordering_sweep(&[1, 2, 3, 4]);
    println!("| f | n=3f+1 | latency | messages/invocation | bytes/invocation |");
    println!("|---|---|---|---|---|");
    let base = rows[0].1.messages as f64;
    for (f, warm) in &rows {
        println!(
            "| {f} | {} | {} | {} ({:.1}×) | {} |",
            3 * f + 1,
            warm.latency,
            warm.messages,
            warm.messages as f64 / base,
            warm.bytes
        );
    }
    println!("\nmessage growth is super-linear in f (quadratic prepare/commit phases), the paper's reason for keeping ordering groups small.");
    // ablation: the §3.2 design choice to keep clients OUT of the ordering
    // group — the marginal cost of each extra ordering-group member
    let ((first_f, first), (last_f, last)) = (rows[0], rows[rows.len() - 1]);
    let d_msgs = last.messages as f64 - first.messages as f64;
    let d_n = 3.0 * (last_f - first_f) as f64;
    println!(
        "\nablation (client-in-group): every member added to the ordering group costs ≈ {:.0} extra messages per invocation at these sizes; with clients outside the group (the ITDOS choice) each client costs exactly 1 submission + n direct replies.",
        d_msgs / d_n
    );
}

fn e5() {
    heading("E5", "decide at 2f+1, never wait for 3f+1 (§3.6)");
    // the warm invocation's decision latency with `fault` on one element
    let straggler_latency = |fault: Option<Behavior>, seed: u64| {
        let mut system = deploy(1, fault, seed);
        measure(&mut system, add(1)); // warm
        measure(&mut system, add(1)).latency
    };
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
    println!(
        "\ncost side (one key, f=1): see `itdos-benchmark --workload connect_storm --trace 1`."
    );
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
            queue.apply(QueueOp::Deliver(vec![i as u8; 256]), Digest::default());
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
    let mut system = deploy(1, Some(Behavior::CorruptValue), 109);
    let faulty = system.fabric.domain(DOMAIN).elements[3];
    let cost = measure(&mut system, add(100));
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
    let mut depth0 = deploy(1, None, 110);
    measure(&mut depth0, add(1));
    let d0 = measure(&mut depth0, add(1));

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
        InterfaceDef::new("Trade::Desk").with_operation(OperationDef::new(
            "value_position",
            vec![("q".into(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    trade_repo.register(
        InterfaceDef::new("Trade::Pricer").with_operation(OperationDef::new(
            "unit_price",
            vec![],
            TypeDesc::LongLong,
        )),
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
        let value_position = |quantity: i64| {
            Invocation::of(front)
                .object(b"desk")
                .interface("Trade::Desk")
                .operation("value_position")
                .arg(Value::LongLong(quantity))
        };
        // warm invocation (opens the whole chain)
        system.invoke(CLIENT, value_position(2));
        let cost = measure(&mut system, value_position(3));
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
    let mut system = deploy(1, None, 113);
    measure(&mut system, add(1));
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

fn main() {
    println!("# ITDOS experiment report (regenerated)");
    println!("\nDeterministic output of `cargo run --release -p itdos --example experiments`.");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_sweep_is_monotonic_in_f() {
        let rows = ordering_sweep(&[1, 2]);
        assert!(rows[1].1.messages > rows[0].1.messages);
        assert!(rows[1].1.bytes > rows[0].1.bytes);
    }

    #[test]
    fn establishment_dominates_reuse() {
        let (cold, warm) = establishment_cost(7);
        assert!(cold.messages > warm.messages);
        assert!(cold.latency > warm.latency);
    }

    #[test]
    fn payload_sweep_scales_bytes() {
        let rows = payload_sweep(&[64, 4096]);
        assert!(rows[1].1.bytes > rows[0].1.bytes);
    }
}
