//! Property-based invariants across the stack.
//!
//! Runs on the in-tree deterministic harness (`itdos_tests::prop`) rather
//! than proptest: every case is derived from the property name and case
//! index, so failures replay bit-for-bit on any machine.

mod common;

use itdos_giop::cdr::{Decoder, Encoder, Endianness};
use itdos_giop::types::{Seq, TypeDesc, Value};
use itdos_tests::{arbitrary, prop};
use itdos_vote::comparator::Comparator;
use itdos_vote::vote::{vote, Candidate, SenderId, VoteOutcome};
use xrand::rngs::SmallRng;
use xrand::Rng;

const CASES: usize = prop::DEFAULT_CASES;

/// Generates a matching (TypeDesc, Value) pair, recursing up to `depth`.
fn typed_value(rng: &mut SmallRng, depth: usize) -> (TypeDesc, Value) {
    // leaves are variants 0..=10; composites appear only while depth remains
    let variants: u32 = if depth == 0 { 11 } else { 13 };
    match rng.gen_range(0..variants) {
        0 => (TypeDesc::Octet, Value::Octet(rng.gen())),
        1 => (TypeDesc::Boolean, Value::Boolean(rng.gen())),
        2 => (TypeDesc::Short, Value::Short(rng.gen::<u16>() as i16)),
        3 => (TypeDesc::UShort, Value::UShort(rng.gen())),
        4 => (TypeDesc::Long, Value::Long(rng.gen::<u32>() as i32)),
        5 => (TypeDesc::ULong, Value::ULong(rng.gen())),
        6 => (TypeDesc::LongLong, Value::LongLong(rng.gen::<u64>() as i64)),
        7 => (TypeDesc::ULongLong, Value::ULongLong(rng.gen())),
        8 => (TypeDesc::Float, Value::Float(f32::from_bits(rng.gen()))),
        9 => (TypeDesc::Double, Value::Double(f64::from_bits(rng.gen()))),
        10 => (
            TypeDesc::String,
            Value::String(arbitrary::ascii_string(rng, 12)),
        ),
        11 => {
            // homogeneous sequence: one element type, several values
            let (elem_t, elem_v) = typed_value(rng, depth - 1);
            let n = rng.gen_range(0..4usize);
            let items: Vec<Value> = (0..n).map(|_| elem_v.clone()).collect();
            (TypeDesc::sequence_of(elem_t), Value::Sequence(items.into()))
        }
        _ => {
            // struct: independent field types
            let n = rng.gen_range(1..4usize);
            let fields: Vec<(TypeDesc, Value)> =
                (0..n).map(|_| typed_value(rng, depth - 1)).collect();
            let descs = fields
                .iter()
                .enumerate()
                .map(|(i, (t, _))| (format!("f{i}"), t.clone()))
                .collect();
            let values = fields.into_iter().map(|(_, v)| v).collect();
            (
                TypeDesc::Struct {
                    name: "S".into(),
                    fields: descs,
                },
                Value::Struct(values),
            )
        }
    }
}

fn bits_eq(a: &Value, b: &Value) -> bool {
    // equality with NaN-tolerant float comparison (bit patterns preserved)
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::Sequence(xs), Value::Sequence(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bits_eq(x, y))
        }
        (Value::Struct(xs), Value::Struct(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bits_eq(x, y))
        }
        _ => a == b,
    }
}

/// CDR round-trips every generatable value in both byte orders.
#[test]
fn cdr_round_trips() {
    prop::check("cdr_round_trips", CASES, |rng, _| {
        let (desc, value) = typed_value(rng, 3);
        for endianness in [Endianness::Big, Endianness::Little] {
            let mut enc = Encoder::new(endianness);
            enc.encode(&value, &desc).expect("generated pair conforms");
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes, endianness);
            let out = dec.decode(&desc).expect("round trip decodes");
            assert!(
                bits_eq(&out, &value),
                "{endianness:?}: {out:?} != {value:?}"
            );
            assert_eq!(dec.remaining(), 0);
        }
    });
}

/// Cross-endian transport preserves values: encode big, decode big ==
/// encode little, decode little.
#[test]
fn cdr_cross_platform_agreement() {
    prop::check("cdr_cross_platform_agreement", CASES, |rng, _| {
        let (desc, value) = typed_value(rng, 3);
        let mut be = Encoder::new(Endianness::Big);
        be.encode(&value, &desc).expect("conforms");
        let mut le = Encoder::new(Endianness::Little);
        le.encode(&value, &desc).expect("conforms");
        let from_be = Decoder::new(&be.into_bytes(), Endianness::Big)
            .decode(&desc)
            .expect("decodes");
        let from_le = Decoder::new(&le.into_bytes(), Endianness::Little)
            .decode(&desc)
            .expect("decodes");
        assert!(bits_eq(&from_be, &from_le));
    });
}

/// The CDR decoder never panics on arbitrary bytes (Byzantine senders
/// control them).
#[test]
fn cdr_decoder_is_total() {
    prop::check("cdr_decoder_is_total", CASES, |rng, _| {
        let bytes = arbitrary::bytes(rng, 64);
        let (desc, _) = typed_value(rng, 3);
        let mut dec = Decoder::new(&bytes, Endianness::Little);
        let _ = dec.decode(&desc); // must return, never panic
    });
}

/// The comparator as it was before octet sequences were packed: every
/// sequence is walked item by item through `iter()`, never compared as
/// bytes. The reference that `Comparator::equivalent`'s byte-slice fast
/// paths must agree with.
fn item_walk_equivalent(c: &Comparator, a: &Value, b: &Value) -> bool {
    fn leaves(a: &Value, b: &Value, floats_eq: &dyn Fn(f64, f64) -> bool) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => floats_eq(f64::from(*x), f64::from(*y)),
            (Value::Double(x), Value::Double(y)) => floats_eq(*x, *y),
            (Value::Sequence(xs), Value::Sequence(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| leaves(x, y, floats_eq))
            }
            (Value::Struct(xs), Value::Struct(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| leaves(x, y, floats_eq))
            }
            _ => a == b,
        }
    }
    match c {
        Comparator::Exact => leaves(a, b, &|x, y| x.to_bits() == y.to_bits()),
        Comparator::InexactRel(eps) => leaves(a, b, &|x, y| {
            x == y
                || (x.is_nan() && y.is_nan())
                || (x.is_finite() && y.is_finite() && (x - y).abs() <= eps * x.abs().max(y.abs()))
        }),
        Comparator::Ignore => true,
        Comparator::Sequence(elem) => match (a, b) {
            (Value::Sequence(xs), Value::Sequence(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|(x, y)| item_walk_equivalent(elem, x, y))
            }
            _ => false,
        },
        other => panic!("not exercised by this property: {other:?}"),
    }
}

/// Packed octet sequences compare as byte slices; that shortcut must give
/// the verdict the item walk gives — on equal blobs, blobs one byte or one
/// item apart, a blob against its unpacked near-twin (one item not an
/// octet), and on arbitrary generated values.
#[test]
fn packed_and_item_walk_comparison_agree() {
    let comparators = [
        Comparator::Exact,
        Comparator::InexactRel(1e-6),
        Comparator::Sequence(Box::new(Comparator::Exact)),
        Comparator::Sequence(Box::new(Comparator::Ignore)),
    ];
    prop::check("packed_and_item_walk_comparison_agree", CASES, |rng, _| {
        let blob = arbitrary::bytes(rng, 9);
        let a = Value::Sequence(Seq::from_octets(blob.clone()));
        assert!(matches!(&a, Value::Sequence(s) if s.as_octets().is_some()));
        let mut pairs = vec![(a.clone(), a.clone())];
        if !blob.is_empty() {
            let at = rng.gen_range(0..blob.len());
            let mut flipped = blob.clone();
            flipped[at] ^= 1 << rng.gen_range(0..8u32);
            pairs.push((a.clone(), Value::Sequence(Seq::from_octets(flipped))));
            let shorter = Value::Sequence(Seq::from_octets(blob[1..].to_vec()));
            pairs.push((a.clone(), shorter));
            // same length, one item a float: stored unpacked
            let mut items: Vec<Value> = blob.iter().copied().map(Value::Octet).collect();
            items[at] = Value::Double(f64::from(blob[at]));
            let unpacked = Value::Sequence(items.into());
            assert!(matches!(&unpacked, Value::Sequence(s) if s.as_octets().is_none()));
            pairs.push((a.clone(), unpacked.clone()));
            pairs.push((unpacked.clone(), unpacked));
        }
        let (_, x) = typed_value(rng, 3);
        let (_, y) = typed_value(rng, 3);
        pairs.push((x.clone(), x.clone()));
        pairs.push((a.clone(), x.clone()));
        pairs.push((x, y));
        for (l, r) in &pairs {
            for c in &comparators {
                assert_eq!(
                    c.equivalent(l, r),
                    item_walk_equivalent(c, l, r),
                    "{c:?}: {l:?} vs {r:?}"
                );
                assert_eq!(c.equivalent(l, r), c.equivalent(r, l), "{c:?} symmetric");
            }
        }
    });
}

/// Vote safety: a decision's supporters meet the threshold and every
/// supporter's candidate is equivalent to the decided value.
#[test]
fn vote_supporters_meet_threshold() {
    prop::check("vote_supporters_meet_threshold", CASES, |rng, _| {
        let n = rng.gen_range(1..9usize);
        let values: Vec<i32> = (0..n).map(|_| rng.gen_range(0..6u32) as i32 - 3).collect();
        let threshold = rng.gen_range(1..5usize);
        let candidates: Vec<Candidate> = values
            .iter()
            .enumerate()
            .map(|(i, v)| Candidate {
                sender: SenderId(i as u32),
                value: Value::Long(*v),
            })
            .collect();
        if let VoteOutcome::Decided(d) = vote(&candidates, &Comparator::Exact, threshold) {
            assert!(d.supporters.len() >= threshold);
            for s in &d.supporters {
                let c = candidates
                    .iter()
                    .find(|c| c.sender == *s)
                    .expect("supporter exists");
                assert_eq!(&c.value, &d.value);
            }
            // supporters + dissenters partition the candidate set
            assert_eq!(d.supporters.len() + d.dissenters.len(), candidates.len());
        }
    });
}

/// Shamir: every (threshold)-subset reconstructs the same secret.
#[test]
fn shamir_subset_invariance() {
    prop::check("shamir_subset_invariance", CASES, |rng, _| {
        use itdos_crypto::group::Scalar;
        use itdos_crypto::shamir::{combine, split};
        let secret = rng.gen_range(0..1_000_000u64);
        let f = rng.gen_range(1..4usize);
        let n = 3 * f + 1;
        let (shares, commitments) = split(Scalar::new(secret), f + 1, n, rng);
        for s in &shares {
            assert!(commitments.verify(s));
        }
        // sliding-window subsets all agree
        for start in 0..=(n - (f + 1)) {
            let subset = &shares[start..start + f + 1];
            assert_eq!(combine(subset).unwrap(), Scalar::new(secret));
        }
    });
}

/// An incremental hash over any chunking equals the one-shot digest, and
/// a prepared HMAC key over any split of the message equals `hmac`.
#[test]
fn chunked_hashing_and_prepared_hmac_equal_oneshot() {
    prop::check("chunked_hashing_and_prepared_hmac", CASES, |rng, _| {
        use itdos_crypto::hash::{Digest, Sha256};
        use itdos_crypto::hmac::{hmac, HmacKey};
        let key = arbitrary::bytes(rng, 140);
        let message = arbitrary::bytes(rng, 301);
        let mut parts: Vec<&[u8]> = Vec::new();
        let mut rest = &message[..];
        while !rest.is_empty() {
            let (part, tail) = rest.split_at(rng.gen_range(0..=rest.len().min(130)));
            parts.push(part);
            rest = tail;
        }
        let mut hasher = Sha256::new();
        for part in &parts {
            hasher.update(part);
        }
        assert_eq!(hasher.finish(), Digest::of(&message));
        assert_eq!(HmacKey::new(&key).tag_parts(&parts), hmac(&key, &message));
    });
}

/// `open` inverts `seal` at the keystream's block edges and at random
/// lengths, and the keystream is positional: sealing any prefix of a
/// message under the same key and nonce yields that prefix of the
/// ciphertext, wherever the split falls within a 64-byte block.
#[test]
fn seal_open_round_trips_across_lengths_and_splits() {
    use itdos_crypto::keys::SymmetricKey;
    use itdos_crypto::symmetric::{open, seal, SEALED_OVERHEAD};
    // the ciphertext of one seal: what follows its nonce and tag
    let round_trip = |key: &SymmetricKey, nonce: [u8; 16], message: &[u8]| {
        let sealed = seal(key, nonce, message);
        assert_eq!(sealed.len(), SEALED_OVERHEAD + message.len());
        assert_eq!(open(key, &sealed).expect("authentic"), message);
        sealed[SEALED_OVERHEAD..].to_vec()
    };
    let key = SymmetricKey::derive(b"edges", b"prop");
    for len in [0usize, 1, 63, 64, 65, 127, 128, 16_384] {
        let message: Vec<u8> = (0..len).map(|i| (i * 5 + 1) as u8).collect();
        round_trip(&key, [len as u8; 16], &message);
    }
    prop::check("seal_open_round_trips", CASES, |rng, _| {
        let key = SymmetricKey::derive(&arbitrary::bytes(rng, 40), b"prop");
        let nonce: [u8; 16] = rng.gen();
        let message = arbitrary::bytes(rng, 700);
        let whole = round_trip(&key, nonce, &message);
        let split = rng.gen_range(0..=message.len());
        let prefix = round_trip(&key, nonce, &message[..split]);
        assert_eq!(prefix, whole[..split]);
    });
}

/// Wire decoders for protocol messages are total on random bytes.
#[test]
fn protocol_decoders_are_total() {
    prop::check("protocol_decoders_are_total", CASES, |rng, _| {
        let bytes = arbitrary::bytes(rng, 96);
        let _ = itdos_bft::message::Message::decode(&bytes);
        let _ = itdos::wire::CoreMsg::decode(&bytes);
        let _ = itdos::wire::SmiopFrame::decode(&bytes);
        let _ = itdos::wire::GmOp::decode(&bytes);
        let _ = itdos::wire::decode_directives(&bytes);
        let _ = itdos_bft::queue::QueueOp::decode(&bytes);
    });
}

/// The DPRF yields the same key for every (f+1)-subset and detects a
/// substituted share.
#[test]
fn dprf_subset_invariance() {
    prop::check("dprf_subset_invariance", CASES, |rng, _| {
        use itdos_crypto::dprf::{combine, Dprf};
        let seed = rng.gen_range(0..10_000u64);
        let f = rng.gen_range(1..3usize);
        let n = 3 * f + 1;
        let dprf = Dprf::deal(f, n, rng);
        let x = seed.to_le_bytes();
        let shares: Vec<_> = dprf.holders().iter().map(|h| h.evaluate(&x)).collect();
        let reference = combine(dprf.verifier(), &x, &shares[0..f + 1]).unwrap();
        for start in 1..=(n - (f + 1)) {
            let key = combine(dprf.verifier(), &x, &shares[start..start + f + 1]).unwrap();
            assert_eq!(key, reference);
        }
        // a share evaluated on a different input is rejected
        let mut bad = shares.clone();
        bad[0] = dprf.holders()[0].evaluate(b"other");
        assert!(combine(dprf.verifier(), &x, &bad[0..f + 1]).is_err());
    });
}

/// End-to-end determinism across random crash choices: whichever single
/// element crashes (f = 1), the service answers identically.
#[test]
fn any_single_crash_is_masked() {
    for crashed_index in 0..4usize {
        let mut system = common::bank_system(70 + crashed_index as u64).build();
        let node = system.fabric.domain(common::BANK).nodes[crashed_index];
        system.sim.config_mut().isolate(node);
        let done = system.invoke(
            common::CLIENT,
            itdos::Invocation::of(common::BANK)
                .object(b"acct")
                .interface("Bank::Account")
                .operation("deposit")
                .arg(Value::LongLong(33)),
        );
        assert_eq!(
            done.result,
            Ok(Value::LongLong(33)),
            "crash of element {crashed_index} must be masked"
        );
    }
}

/// One real instrumented dump (topology included) to feed the parser
/// adversarial variants of.
fn forensic_dump() -> String {
    let mut builder = common::bank_system(75);
    builder.obs(itdos::ObsConfig::standard());
    let mut system = builder.build();
    for i in 0..2i64 {
        let done = system.invoke(
            common::CLIENT,
            itdos::Invocation::of(common::BANK)
                .object(b"acct")
                .interface("Bank::Account")
                .operation("deposit")
                .arg(Value::LongLong(1 + i)),
        );
        assert!(done.result.is_ok());
    }
    system.settle();
    let dump = system.audit_jsonl();
    assert!(
        dump.lines().count() > 20,
        "need a substantive dump to mutate"
    );
    dump
}

/// The JSONL parser is total on arbitrary input: random bytes may be
/// rejected but never panic, recurse out of stack, or loop. This is the
/// forensic boundary — the auditor chews on dumps recovered from
/// compromised machines.
#[test]
fn jsonl_parser_is_total_on_random_bytes() {
    // nesting bombs are bounded, not followed
    let bomb = "[".repeat(1 << 16);
    assert!(itdos_obs::jsonl::parse_lines(&bomb).is_err());
    let obj_bomb = format!("{}\"k\":1{}", "{".repeat(1 << 16), "}".repeat(1 << 16));
    assert!(itdos_obs::jsonl::parse_dump(&obj_bomb).is_err());
    prop::check("jsonl parser total on random bytes", CASES, |rng, _| {
        let raw = arbitrary::bytes(rng, 256);
        let text = String::from_utf8_lossy(&raw);
        let _ = itdos_obs::jsonl::parse_lines(&text);
        let _ = itdos_obs::jsonl::parse_dump(&text);
        let _ = itdos_obs::jsonl::validate(&text);
    });
}

/// Truncation at any byte boundary — a dump cut off mid-line by a crash
/// or a partial copy — parses or errors cleanly, never panics.
#[test]
fn jsonl_parser_survives_truncated_dumps() {
    let dump = forensic_dump();
    prop::check("jsonl parser total on truncation", CASES, |rng, _| {
        let mut cut = rng.gen_range(0..=dump.len());
        while !dump.is_char_boundary(cut) {
            cut -= 1;
        }
        let text = &dump[..cut];
        let _ = itdos_obs::jsonl::parse_dump(text);
        let _ = itdos_obs::jsonl::validate(text);
    });
}

/// Byte-level corruption of a real dump — flipped quotes, braces, digits
/// — is contained to a parse error.
#[test]
fn jsonl_parser_survives_mutated_dumps() {
    let dump = forensic_dump();
    prop::check("jsonl parser total on mutation", CASES, |rng, _| {
        let mut bytes = dump.clone().into_bytes();
        for _ in 0..rng.gen_range(1..8usize) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen();
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = itdos_obs::jsonl::parse_dump(&text);
        let _ = itdos_obs::jsonl::validate(&text);
    });
}

/// The typed parser reads back exactly what the writer emitted: every
/// event line surfaces as an `EventRecord` with its seq/scope intact, in
/// writer order.
#[test]
fn jsonl_typed_parse_round_trips_events() {
    let dump = forensic_dump();
    let parsed = itdos_obs::jsonl::parse_dump(&dump).expect("own dump parses");
    let raw_events = dump.matches("\"type\":\"event\"").count();
    assert_eq!(parsed.events.len(), raw_events);
    for pair in parsed.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seqs strictly increase");
    }
    assert!(
        parsed.events.iter().all(|e| !e.kind.is_empty()),
        "every event keeps its kind"
    );
    let scopes: std::collections::BTreeSet<u64> = parsed.events.iter().map(|e| e.scope).collect();
    assert!(scopes.len() > 1, "events carry distinct per-process scopes");
}
