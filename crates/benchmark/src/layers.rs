//! Per-layer attribution, measured from outside.
//!
//! Three sources are combined per workload:
//!
//! * **op counts** from the traced epoch — registry counters, the flight
//!   ring, sampled causal traces, `sim.stats()`;
//! * **host ns per call** from timing each layer's *public* functions on
//!   inputs of the sizes that traced epoch observed (every cost timed
//!   here is affine in its input size, so timing at the observed mean
//!   size gives the mean cost);
//! * the **untraced** mean host µs per op, against which
//!   `Σ ops × ns` is reconciled with an explicit residual.
//!
//! Nothing here is inside the product: a layer that gets faster shows up
//! as a smaller `*_ns`, a layer that is called less as a smaller `*_ops`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use itdos_bft::config::{ClientId, GroupConfig};
use itdos_bft::node::{build_group, ClientNode};
use itdos_bft::queue::QueueOp;
use itdos_crypto::dprf::{combine, Dprf, KeyShare};
use itdos_crypto::hash::Digest;
use itdos_crypto::keys::SymmetricKey;
use itdos_crypto::mac::Authenticator;
use itdos_crypto::sign::SigningKey;
use itdos_crypto::symmetric::{open, seal};
use itdos_giop::cdr::Endianness;
use itdos_giop::giop::{
    decode_message, encode_message, GiopMessage, ReplyBody, ReplyMessage, RequestMessage,
};
use itdos_giop::types::Value;
use itdos_obs::{LabelValue, Obs};
use itdos_vote::comparator::Comparator;
use itdos_vote::folding::{folded_comparator, reply_to_value, request_to_value};
use itdos_vote::vote::{vote, Candidate, SenderId};
use simnet::{Context, GroupId, NodeId, Process, Simulator};
use xbytes::Bytes;
use xrand::rngs::SmallRng;
use xrand::{Rng, SeedableRng};

use crate::measure::{Metric, Pool, RunConfig};
use crate::spans::Spans;
use crate::stats;
use crate::trace::Traced;
use crate::workload::{repository, Epoch, Op, Shape, Workload};

/// The traced epoch runs at most this many waves, so the flight ring
/// keeps every trace anchor and `System::trace` stays affordable.
pub const TRACED_WAVES: usize = 256;

/// Replicas per domain at f = 1: the tags in one multicast authenticator.
const REPLICAS: usize = 4;

/// Layer functions timed per traced run; the replay budget is split
/// evenly among them.
const REPLAYS: f64 = 20.0;

/// The per-layer metrics of one traced run plus its reconciliation line.
#[derive(Debug)]
pub struct Attribution {
    /// Every `per_layer` metric of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// `Σ busy_us + core.residual_us = mean op_host_us`, spelled out.
    pub reconciliation: String,
}

/// Times `f`: median host ns per call over batches filling `budget`.
fn time_ns(spans: &mut Spans, name: &'static str, budget: Duration, mut f: impl FnMut()) -> f64 {
    let span = spans.begin(name);
    // calibrate: grow the batch until one takes at least 50 µs
    let mut batch = 1u64;
    loop {
        let clock = Instant::now();
        for _ in 0..batch {
            f();
        }
        if clock.elapsed() >= Duration::from_micros(50) || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let clock = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || clock.elapsed() < budget {
        let batch_clock = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(batch_clock.elapsed().as_nanos() as f64 / batch as f64);
    }
    spans.end(span);
    stats::median(&samples)
}

/// The request and reply one op of `workload` puts on the wire.
fn sample_messages(workload: Workload, op: Op) -> (RequestMessage, ReplyMessage) {
    let (key, interface, operation, arg, result): (&[u8], _, _, _, _) = match (workload, op) {
        (Workload::IntrusionCampaign, _) => (
            b"sensor",
            "Sensor",
            "echo",
            Value::LongLong(123_456),
            Value::LongLong(246_912),
        ),
        (_, Op::CounterAdd) => (
            b"counter",
            "Counter",
            "add",
            Value::LongLong(517),
            Value::LongLong(123_456),
        ),
        (_, Op::StorePut(len)) => (
            b"store",
            "Store",
            "put",
            Value::Sequence((0..len).map(|i| Value::Octet(i as u8)).collect()),
            Value::ULong(len as u32),
        ),
    };
    let request = RequestMessage {
        request_id: 7,
        trace: 0x0001_0000_0007,
        response_expected: true,
        object_key: key.to_vec(),
        interface: interface.into(),
        operation: operation.into(),
        args: vec![arg],
    };
    let reply = ReplyMessage {
        request_id: 7,
        interface: interface.into(),
        operation: operation.into(),
        body: ReplyBody::Result(result),
    };
    (request, reply)
}

/// How many of `ops` calls moving `bytes` in total were requests of
/// `request_len` bytes, the rest being replies of `reply_len` bytes:
/// solves the two-kind byte balance, clamped to `0..=ops`.
fn requests_among(ops: f64, bytes: f64, request_len: f64, reply_len: f64) -> f64 {
    if (request_len - reply_len).abs() < 1.0 {
        return ops / 2.0;
    }
    ((bytes - ops * reply_len) / (request_len - reply_len)).clamp(0.0, ops)
}

/// A process that multicasts every injected payload to its group and
/// ignores everything else: PBFT's fan-out with none of its work.
struct Fanout(GroupId);

impl Process for Fanout {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        if from.is_external() {
            ctx.multicast_labeled(self.0, payload, "fanout");
        }
    }
}

fn per(total: u64, ops: f64) -> f64 {
    total as f64 / ops
}

fn median_u64(samples: Option<&Vec<u64>>) -> f64 {
    samples.map_or(0.0, |v| {
        stats::median(&v.iter().map(|&us| us as f64).collect::<Vec<_>>())
    })
}

/// Builds every per-layer metric of one traced run. `left` is the host
/// seconds still unspent, shared among the layer replays.
pub fn attribute(
    cfg: &RunConfig,
    shape: &Shape,
    pool: &Pool,
    traced: &Epoch,
    left: f64,
    spans: &mut Spans,
) -> Attribution {
    let none = Traced::default();
    let t = traced.traced.as_ref().unwrap_or(&none);
    let c = &t.counts;
    let ops = traced.ok_ops().max(1) as f64;
    let slice = Duration::from_secs_f64((left / REPLAYS).max(0.002));
    let repo = repository();
    let (request, reply) = sample_messages(cfg.workload, shape.op);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x1a7e_55ed);

    // ---- giop -----------------------------------------------------------
    let request_msg = GiopMessage::Request(request.clone());
    let reply_msg = GiopMessage::Reply(reply.clone());
    let encode = |m: &GiopMessage| {
        encode_message(m, &repo, Endianness::Little).expect("the runner's own message encodes")
    };
    let request_frame = encode(&request_msg);
    let reply_frame = encode(&reply_msg);
    let (rq_len, rp_len) = (request_frame.len() as f64, reply_frame.len() as f64);
    let encode_rq_ns = time_ns(spans, "replay.giop.encode_request", slice / 2, || {
        black_box(encode(black_box(&request_msg)));
    });
    let encode_rp_ns = time_ns(spans, "replay.giop.encode_reply", slice / 2, || {
        black_box(encode(black_box(&reply_msg)));
    });
    let decode_rq_ns = time_ns(spans, "replay.giop.decode_request", slice / 2, || {
        black_box(decode_message(black_box(&request_frame), &repo).expect("round trips"));
    });
    let decode_rp_ns = time_ns(spans, "replay.giop.decode_reply", slice / 2, || {
        black_box(decode_message(black_box(&reply_frame), &repo).expect("round trips"));
    });
    let encodes = c.counter("giop.encode") as f64;
    let decodes = c.counter("giop.decode") as f64;
    let mix = |calls: f64, bytes: u64, rq_ns: f64, rp_ns: f64| {
        if calls == 0.0 {
            return (rq_ns + rp_ns) / 2.0;
        }
        let requests = requests_among(calls, bytes as f64, rq_len, rp_len);
        (requests * rq_ns + (calls - requests) * rp_ns) / calls
    };
    let encode_ns = mix(
        encodes,
        c.counter("giop.encode_bytes"),
        encode_rq_ns,
        encode_rp_ns,
    );
    let decode_ns = mix(
        decodes,
        c.counter("giop.decode_bytes"),
        decode_rq_ns,
        decode_rp_ns,
    );
    let giop_busy_us = (encodes * encode_ns + decodes * decode_ns) / ops / 1e3;

    // ---- crypto: seal / open / MAC / signatures / SHA-256 ---------------
    let key = SymmetricKey::derive(b"itdos-benchmark", b"connection");
    let seals = c.counter("crypto.seal") as f64;
    let opens = c.counter("crypto.open") as f64;
    let mean_len = |bytes: u64, calls: f64, default: usize| {
        if calls > 0.0 {
            (bytes as f64 / calls).round() as usize
        } else {
            default
        }
    };
    let mut fill_rng = SmallRng::seed_from_u64(cfg.seed ^ 0xf111_55ed);
    let mut random = |len: usize| {
        let mut v = vec![0u8; len];
        fill_rng.fill(&mut v);
        v
    };
    let seal_plain = random(mean_len(c.counter("crypto.seal_bytes"), seals, 128));
    let open_plain = random(mean_len(c.counter("crypto.open_bytes"), opens, 128));
    let sealed = seal(&key, [9u8; 16], &open_plain);
    let seal_ns = time_ns(spans, "replay.crypto.seal", slice, || {
        black_box(seal(&key, [9u8; 16], black_box(&seal_plain)));
    });
    let open_ns = time_ns(spans, "replay.crypto.open", slice, || {
        black_box(open(&key, black_box(&sealed)).expect("the runner's own seal opens"));
    });

    let envelopes_tx = c.counter("bft.wire_tx") as f64;
    let envelopes_rx = c.counter("bft.wire_rx") as f64;
    let wire_bytes = c.counter("bft.wire_tx_bytes") + c.counter("bft.wire_rx_bytes");
    let envelope = random(mean_len(wire_bytes, envelopes_tx + envelopes_rx, 160));
    // one tag per envelope received; a sent envelope carries one tag per
    // replica, except the reply each executed request sends its client,
    // which carries one
    let to_client = c.counter("bft.executed").min(c.mac_envelopes_tx);
    let mac_ops = (c.mac_envelopes_rx
        + REPLICAS as u64 * (c.mac_envelopes_tx - to_client)
        + to_client) as f64;
    let mac_ns = time_ns(spans, "replay.crypto.mac", slice, || {
        black_box(Authenticator::generate(
            std::slice::from_ref(&key),
            black_box(&envelope),
        ));
    });
    // signed envelopes (view change, checkpoint, state) plus the signed
    // SMIOP reply every element returns and the client verifies
    let replies = c.counter("element.replies") as f64;
    let signs = envelopes_tx - c.mac_envelopes_tx as f64 + replies;
    let verifies = envelopes_rx - c.mac_envelopes_rx as f64 + replies;
    let signer = SigningKey::from_seed(b"itdos-benchmark");
    let verifier = signer.verifying_key();
    let signature = signer.sign(&envelope);
    let sign_ns = time_ns(spans, "replay.crypto.sign", slice, || {
        black_box(signer.sign(black_box(&envelope)));
    });
    let verify_ns = time_ns(spans, "replay.crypto.verify", slice, || {
        black_box(verifier.verify(black_box(&envelope), &signature));
    });
    let block = random(16 * 1024);
    let sha_ns = time_ns(spans, "replay.crypto.sha256", slice, || {
        black_box(Digest::of(black_box(&block)));
    });
    let crypto_busy_us = (seals * seal_ns
        + opens * open_ns
        + mac_ops * mac_ns
        + signs * sign_ns
        + verifies * verify_ns)
        / ops
        / 1e3;

    // ---- groupmgr: threshold keying (Figure 3) --------------------------
    let dprf = Dprf::deal(1, REPLICAS, &mut rng);
    let input = [0x5au8; 32];
    let shares: Vec<KeyShare> = dprf.holders().iter().map(|h| h.evaluate(&input)).collect();
    let dprf_eval_ns = time_ns(spans, "replay.crypto.dprf_eval", slice, || {
        black_box(dprf.holders()[0].evaluate(black_box(&input)));
    });
    let share_verify_ns = time_ns(spans, "replay.crypto.share_verify", slice, || {
        black_box(dprf.verifier().verify(black_box(&input), &shares[0]));
    });
    let combine_ns = time_ns(spans, "replay.crypto.combine", slice, || {
        black_box(combine(dprf.verifier(), black_box(&input), &shares[..2]).expect("combines"));
    });
    let keydists = c.counter("gm.keydists") as f64;
    let groupmgr_busy_us = (keydists * dprf_eval_ns
        + c.counter("key.shares_verified") as f64 * share_verify_ns
        + c.counter("key.combined") as f64 * combine_ns)
        / ops
        / 1e3;

    // ---- bft: framing, and a bare group ordering the same payload -------
    let frame_ns = time_ns(spans, "replay.bft.frame", slice, || {
        let framed = QueueOp::Deliver(black_box(&request_frame).clone()).encode();
        black_box(QueueOp::decode(&framed).expect("round trips"));
    });
    let bft_busy_us = (envelopes_tx + envelopes_rx) * frame_ns / ops / 1e3;
    let bare_order_host_us = {
        // PBFT + MACs + simnet without the ITDOS stack: one client, f = 1
        let mut sim = Simulator::new(cfg.seed);
        let (_, client, _) = build_group(
            &mut sim,
            &GroupConfig::for_f(1),
            [7u8; 32],
            GroupId::from_raw(0),
            ClientId(1),
        );
        let payload = Bytes::from(request_frame.clone());
        let mut ordered = 0;
        let ns = time_ns(spans, "replay.bft.bare_order", slice, || {
            sim.inject(client, payload.clone());
            sim.run();
            ordered += 1;
        });
        let done = sim.process_ref::<ClientNode>(client).results.len();
        if done == ordered {
            ns / 1e3
        } else {
            0.0 // an ordering was lost: report nothing rather than a lie
        }
    };

    // ---- vote -----------------------------------------------------------
    let folds = c.counter("vote.folds") as f64;
    let candidates = c.histogram_mean("vote.fold_candidates");
    let comparator = folded_comparator(Comparator::Exact);
    let held = (candidates.round() as usize).max(1);
    let reply_candidates: Vec<Candidate> = (0..held)
        .map(|i| Candidate {
            sender: SenderId(i as u32),
            value: reply_to_value(&reply),
        })
        .collect();
    let request_candidates = [Candidate {
        sender: SenderId(0),
        value: request_to_value(&request),
    }];
    // elements fold the singleton client's request (one candidate), the
    // client folds the elements' replies; weighted equally
    let fold_ns = (time_ns(spans, "replay.vote.fold_replies", slice / 2, || {
        black_box(vote(black_box(&reply_candidates), &comparator, 2));
    }) + time_ns(spans, "replay.vote.fold_request", slice / 2, || {
        black_box(vote(black_box(&request_candidates), &comparator, 1));
    })) / 2.0;
    let vote_busy_us = folds * fold_ns / ops / 1e3;

    // ---- simnet ---------------------------------------------------------
    let msgs = traced.msgs();
    // the campaign runs inside `try_settle`, which does not report steps:
    // there, delivered messages stand in for them
    let steps = traced.steps.max(msgs) as f64;
    let step_ns = {
        let mut sim = Simulator::new(cfg.seed);
        let group = GroupId::from_raw(0);
        let nodes: Vec<NodeId> = (0..=REPLICAS)
            .map(|_| sim.add_process(Box::new(Fanout(group))))
            .collect();
        for &node in &nodes {
            sim.join_group(node, group);
        }
        let payload = Bytes::from(random(
            (traced.wire_bytes as f64 / msgs.max(1) as f64).round() as usize,
        ));
        // one inject = one external delivery + REPLICAS multicast copies
        time_ns(spans, "replay.simnet.step", slice, || {
            sim.inject(nodes[0], payload.clone());
            sim.run();
        }) / (REPLICAS + 1) as f64
    };
    let simnet_busy_us = steps * step_ns / ops / 1e3;

    // ---- obs / audit / heal ---------------------------------------------
    let event_ns = {
        let (obs, _clock) = Obs::manual();
        obs.set_flight_capacity(1 << 15);
        // the product runs with one tap subscribed (the streaming audit)
        let tap = obs.subscribe(itdos_obs::DEFAULT_TAP_CAPACITY);
        let scoped = obs.scoped(42);
        let mut n = 0u64;
        time_ns(spans, "replay.obs.event", slice, || {
            n += 1;
            scoped.event(
                "bench.probe",
                &[
                    ("seq", LabelValue::U64(n)),
                    ("kind", LabelValue::Str("probe")),
                ],
            );
            if n.is_multiple_of(1024) {
                if let Some(tap) = tap {
                    black_box(obs.drain_subscription(tap));
                }
            }
        })
    };
    let events = c.events_recorded as f64;
    let (audit_events_per_s, audit_findings) = if t.events.is_empty() {
        (0.0, 0.0)
    } else {
        let mut findings = 0;
        let ns = time_ns(spans, "replay.audit.observe", slice, || {
            let mut stream = itdos_audit::Stream::new(t.topology.clone());
            for event in &t.events {
                black_box(stream.observe_event(event));
            }
            findings = stream.findings(&itdos_audit::MetricsFacts::default()).len();
        });
        (t.events.len() as f64 / (ns / 1e9), findings as f64)
    };
    // observability is part of the untraced product only on the campaign
    let obs_in_product = cfg.workload == Workload::IntrusionCampaign;
    let obs_busy_us = if obs_in_product {
        events * event_ns / ops / 1e3
    } else {
        0.0
    };

    // ---- queue: first vs last quarter of the untraced epochs ------------
    let per_wave_ops = cfg.workload.ops_per_wave(shape) as f64;
    let (mut q1_msgs, mut q4_msgs, mut q1_ns, mut q4_ns, mut quarter_waves) =
        (0u64, 0u64, 0.0, 0.0, 0usize);
    for epoch in &pool.epochs {
        let n = epoch.op_host_ns.len().min(epoch.wave_msgs.len());
        let quarter = (n / 4).max(usize::from(n >= 2));
        if quarter == 0 {
            continue;
        }
        quarter_waves += quarter;
        q1_msgs += epoch.wave_msgs[..quarter].iter().sum::<u64>();
        q4_msgs += epoch.wave_msgs[n - quarter..n].iter().sum::<u64>();
        q1_ns += epoch.op_host_ns[..quarter].iter().sum::<f64>();
        q4_ns += epoch.op_host_ns[n - quarter..n].iter().sum::<f64>();
    }
    let quarter_ops = (quarter_waves as f64 * per_wave_ops).max(1.0);

    // ---- reconciliation against the untraced figure ---------------------
    // the traced epoch ran the leading waves only, so it is reconciled
    // against the same leading waves of the untraced epochs
    let untraced_ns = pool.host_ns_sorted(Some(shape.waves));
    let mean_op_us = stats::mean(&untraced_ns) / 1e3;
    let mut traced_ns = traced.op_host_ns.clone();
    stats::sort(&mut traced_ns);
    let overhead_ratio = match stats::quantile(&untraced_ns, 0.5) {
        p50 if p50 > 0.0 => stats::quantile(&traced_ns, 0.5) / p50,
        _ => 0.0,
    };
    let busy_us = giop_busy_us
        + crypto_busy_us
        + groupmgr_busy_us
        + bft_busy_us
        + vote_busy_us
        + simnet_busy_us
        + obs_busy_us;
    let residual_us = mean_op_us - busy_us;
    let untraced_ops = pool.ok_ops().max(1) as f64;
    let alloc_bytes: u64 = pool.epochs.iter().map(|e| e.alloc_bytes).sum();

    let m = Metric::new;
    let metrics = vec![
        m("giop.encode_ops", encodes / ops, "count"),
        m("giop.decode_ops", decodes / ops, "count"),
        m(
            "giop.bytes",
            per(
                c.counter("giop.encode_bytes") + c.counter("giop.decode_bytes"),
                ops,
            ),
            "B",
        ),
        m("giop.encode_ns", encode_ns, "ns"),
        m("giop.decode_ns", decode_ns, "ns"),
        m("giop.busy_us", giop_busy_us, "us"),
        m("crypto.seal_ops", seals / ops, "count"),
        m("crypto.open_ops", opens / ops, "count"),
        m(
            "crypto.sealed_bytes",
            per(
                c.counter("crypto.seal_bytes") + c.counter("crypto.open_bytes"),
                ops,
            ),
            "B",
        ),
        m("crypto.seal_ns", seal_ns, "ns"),
        m("crypto.open_ns", open_ns, "ns"),
        m("crypto.mac_ops", mac_ops / ops, "count"),
        m("crypto.mac_ns", mac_ns, "ns"),
        m("crypto.sig_ops", (signs + verifies) / ops, "count"),
        m("crypto.sign_ns", sign_ns, "ns"),
        m("crypto.verify_ns", verify_ns, "ns"),
        m(
            "crypto.sha256_mib_s",
            block.len() as f64 / (1024.0 * 1024.0) / (sha_ns / 1e9),
            "MiB/s",
        ),
        m("crypto.busy_us", crypto_busy_us, "us"),
        m(
            "crypto.share",
            crypto_busy_us / mean_op_us.max(1e-9),
            "fraction",
        ),
        m("crypto.dprf_eval_ns", dprf_eval_ns, "ns"),
        m("crypto.share_verify_ns", share_verify_ns, "ns"),
        m("crypto.combine_ns", combine_ns, "ns"),
        m("groupmgr.keydists", keydists / ops, "count"),
        m("groupmgr.busy_us", groupmgr_busy_us, "us"),
        m("bft.envelopes_rx", envelopes_rx / ops, "count"),
        m("bft.envelopes_tx", envelopes_tx / ops, "count"),
        m("bft.wire_bytes", per(wire_bytes, ops), "B"),
        m(
            "bft.mean_batch",
            c.histogram_mean("bft.batch_size"),
            "count",
        ),
        m(
            "bft.view_changes",
            c.counter("bft.view_changes") as f64,
            "count",
        ),
        m("bft.frame_ns", frame_ns, "ns"),
        m("bft.busy_us", bft_busy_us, "us"),
        m("bft.bare_order_host_us", bare_order_host_us, "us"),
        m("hop.admit_sim_us", median_u64(t.hops.get("admit")), "us"),
        m(
            "hop.prepare_sim_us",
            median_u64(t.hops.get("prepare")),
            "us",
        ),
        m("hop.commit_sim_us", median_u64(t.hops.get("commit")), "us"),
        m("hop.vote_sim_us", median_u64(t.hops.get("vote")), "us"),
        m("hop.decide_sim_us", median_u64(t.hops.get("decide")), "us"),
        m("vote.folds", folds / ops, "count"),
        m("vote.candidates", candidates, "count"),
        m("vote.fold_ns", fold_ns, "ns"),
        m("vote.busy_us", vote_busy_us, "us"),
        m("simnet.steps_per_op", steps / ops, "count"),
        m("simnet.step_ns", step_ns, "ns"),
        m("simnet.busy_us", simnet_busy_us, "us"),
        m(
            "queue.msgs_per_op_q1",
            q1_msgs as f64 / quarter_ops,
            "count",
        ),
        m(
            "queue.msgs_per_op_q4",
            q4_msgs as f64 / quarter_ops,
            "count",
        ),
        m(
            "queue.host_us_q4_over_q1",
            if q1_ns > 0.0 { q4_ns / q1_ns } else { 0.0 },
            "ratio",
        ),
        m("obs.events_per_op", events / ops, "count"),
        m("obs.event_ns", event_ns, "ns"),
        m("obs.busy_us", obs_busy_us, "us"),
        m("obs.overhead_ratio", overhead_ratio, "ratio"),
        m(
            "obs.tap_dropped",
            c.counter("obs.tap_dropped") as f64,
            "count",
        ),
        m("audit.events_per_s", audit_events_per_s, "1/s"),
        m("audit.findings", audit_findings, "count"),
        m("heal.expulsions", t.heal.expulsions as f64, "count"),
        m("heal.replacements", t.heal.replacements as f64, "count"),
        m("heal.rejuvenations", t.heal.rejuvenations as f64, "count"),
        m(
            "heal.recover_sim_us",
            if obs_in_product {
                stats::mean(
                    &traced
                        .sim_latency_us
                        .iter()
                        .map(|&us| us as f64)
                        .collect::<Vec<_>>(),
                )
            } else {
                0.0
            },
            "us",
        ),
        m("core.residual_us", residual_us, "us"),
        m(
            "core.residual_share",
            residual_us / mean_op_us.max(1e-9),
            "fraction",
        ),
        m(
            "core.alloc_bytes_per_op",
            alloc_bytes as f64 / untraced_ops,
            "B",
        ),
    ];
    let reconciliation = format!(
        "reconciliation: sum busy_us {busy_us:.1} (giop {giop_busy_us:.1} + crypto \
         {crypto_busy_us:.1} + groupmgr {groupmgr_busy_us:.1} + bft {bft_busy_us:.1} + vote \
         {vote_busy_us:.1} + simnet {simnet_busy_us:.1} + obs {obs_busy_us:.1}) + \
         core.residual_us {residual_us:.1} = mean op_host_us {mean_op_us:.1}{}",
        if t.untraced > 0 {
            format!("; {} sampled trace(s) fell off the flight ring", t.untraced)
        } else {
            String::new()
        }
    );
    Attribution {
        metrics,
        reconciliation,
    }
}
