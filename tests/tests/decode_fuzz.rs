//! Adversarial decode fuzz for the Byzantine-facing wire formats.
//!
//! The JSONL forensic parser already gets this treatment in
//! `properties.rs`; here the same three attack modes — random bytes,
//! truncation at every boundary, and bit flips inside valid encodings —
//! hit the protocol decoders themselves: every compact-wire type the law
//! harness lists (`wire_samples::cases`: core and BFT frames, healing
//! commands, the transfer payload, both snapshots and everything nested in
//! them) and the GIOP/CDR unmarshallers. Every
//! case must return a typed error or a value; a panic is an availability
//! attack a single hostile peer could mount on demand (L5's dynamic twin).
//!
//! Runs on the in-tree deterministic harness (`itdos_tests::prop`): every
//! case derives from the property name and case index, so failures replay
//! bit-for-bit on any machine.

use itdos_tests::common;

use std::collections::VecDeque;

use common::{bank_system, deposit, Inject, BANK, CLIENT};
use itdos::codes::{element_code, singleton_code};
use itdos::keying::ShareBank;
use itdos::wire::{ConnectionMeta, CoreMsg, DirectReplyMsg, KeyShareMsg, NoticeMsg};
use itdos::System;
use itdos_crypto::keys::SymmetricKey;
use itdos_crypto::sign::SigningKey;
use itdos_crypto::symmetric::{open, seal, SEALED_OVERHEAD};
use itdos_giop::cdr::{CdrError, Decoder, Encoder, Endianness, MAX_SEQUENCE_LEN};
use itdos_giop::giop::{decode_message, encode_message, GiopMessage, RequestMessage};
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::types::{TypeDesc, Value};
use itdos_obs::Obs;
use itdos_tests::wire_samples::{cases, Case};
use itdos_tests::{arbitrary, prop};
use simnet::adversary::{Scripted, Verdict};
use std::cell::RefCell;
use std::rc::Rc;
use xrand::rngs::SmallRng;
use xrand::Rng;

const CASES: usize = prop::DEFAULT_CASES;

/// Valid encodings of every compact-wire shape — the corpus the mutating
/// modes start from.
fn core_corpus(cases: &[Case]) -> Vec<&Vec<u8>> {
    cases.iter().flat_map(|case| &case.samples).collect()
}

/// Runs every compact-wire decoder — the law harness's whole type list —
/// on one buffer, from a slice and from a shared `Bytes`; all of them must
/// return.
fn decode_all_core(cases: &[Case], bytes: &[u8]) {
    let shared = xbytes::Bytes::copy_from_slice(bytes);
    for case in cases {
        let _ = (case.recode)(bytes);
        let _ = (case.recode_shared)(&shared);
    }
}

/// Core wire decoders are total on random bytes.
#[test]
fn core_wire_decoders_total_on_random_bytes() {
    let cases = cases();
    prop::check("core wire total on random bytes", CASES, |rng, _| {
        let bytes = arbitrary::bytes(rng, 96);
        decode_all_core(&cases, &bytes);
    });
}

/// Core wire decoders are total on truncated valid encodings — including
/// cuts that land mid-length-field, the classic hostile-length seam.
#[test]
fn core_wire_decoders_total_on_truncation() {
    let cases = cases();
    let corpus = core_corpus(&cases);
    prop::check("core wire total on truncation", CASES, |rng, _| {
        let buf = corpus[rng.gen_range(0..corpus.len())];
        let cut = rng.gen_range(0..=buf.len());
        decode_all_core(&cases, &buf[..cut]);
    });
}

/// Core wire decoders are total on bit-flipped valid encodings. Flips that
/// hit a length prefix forge hostile lengths; flips that hit a tag forge
/// unknown variants. Either decodes to a different value or errs — no
/// panic, no wrap.
#[test]
fn core_wire_decoders_total_on_bit_flips() {
    let cases = cases();
    let corpus = core_corpus(&cases);
    prop::check("core wire total on bit flips", CASES, |rng, _| {
        let mut buf = corpus[rng.gen_range(0..corpus.len())].clone();
        for _ in 0..rng.gen_range(1..6usize) {
            let at = rng.gen_range(0..buf.len());
            buf[at] ^= 1 << rng.gen_range(0..8u32);
        }
        decode_all_core(&cases, &buf);
    });
}

/// A random schema to decode hostile bytes against.
fn random_desc(rng: &mut SmallRng, depth: usize) -> TypeDesc {
    let variants: u32 = if depth == 0 { 8 } else { 10 };
    match rng.gen_range(0..variants) {
        0 => TypeDesc::Octet,
        1 => TypeDesc::Boolean,
        2 => TypeDesc::Short,
        3 => TypeDesc::UShort,
        4 => TypeDesc::ULong,
        5 => TypeDesc::ULongLong,
        6 => TypeDesc::Double,
        7 => TypeDesc::String,
        8 => TypeDesc::sequence_of(random_desc(rng, depth - 1)),
        _ => TypeDesc::Struct {
            name: "S".into(),
            fields: (0..rng.gen_range(1..3usize))
                .map(|i| (format!("f{i}"), random_desc(rng, depth - 1)))
                .collect(),
        },
    }
}

/// A value conforming to `desc`, for building valid CDR corpora.
fn value_for(rng: &mut SmallRng, desc: &TypeDesc) -> Value {
    match desc {
        TypeDesc::Octet => Value::Octet(rng.gen()),
        TypeDesc::Boolean => Value::Boolean(rng.gen()),
        TypeDesc::Short => Value::Short(rng.gen::<u16>() as i16),
        TypeDesc::UShort => Value::UShort(rng.gen()),
        TypeDesc::ULong => Value::ULong(rng.gen()),
        TypeDesc::ULongLong => Value::ULongLong(rng.gen()),
        TypeDesc::Double => Value::Double(f64::from_bits(rng.gen())),
        TypeDesc::String => Value::String(arbitrary::ascii_string(rng, 10)),
        TypeDesc::Sequence(elem) => {
            let n = rng.gen_range(0..4usize);
            Value::Sequence((0..n).map(|_| value_for(rng, elem)).collect())
        }
        TypeDesc::Struct { fields, .. } => {
            Value::Struct(fields.iter().map(|(_, t)| value_for(rng, t)).collect())
        }
        _ => Value::Void,
    }
}

/// CDR decode is total on truncated and bit-flipped valid encodings, in
/// both byte orders (random-bytes totality already lives in
/// `properties.rs::cdr_decoder_is_total`).
#[test]
fn cdr_decoder_total_on_truncation_and_flips() {
    prop::check("cdr total on mutation", CASES, |rng, _| {
        let desc = random_desc(rng, 2);
        let value = value_for(rng, &desc);
        for endianness in [Endianness::Big, Endianness::Little] {
            let mut enc = Encoder::new(endianness);
            enc.encode(&value, &desc).expect("generated pair conforms");
            let mut bytes = enc.into_bytes();
            if bytes.is_empty() {
                continue;
            }
            // truncate ...
            let cut = rng.gen_range(0..bytes.len());
            let _ = Decoder::new(&bytes[..cut], endianness).decode(&desc);
            // ... and independently flip bits in the full buffer
            for _ in 0..rng.gen_range(1..5usize) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
            let _ = Decoder::new(&bytes, endianness).decode(&desc);
        }
    });
}

/// A hostile `sequence<octet>` length is refused on the *whole* claimed
/// length before anything is copied: the error names the full count
/// against the bytes present. The packed decode's only allocation is the
/// copy of the slice that check returned, so a 16 MiB claim backed by
/// 3 bytes reserves nothing. (An item-by-item decoder would instead fail
/// on the fourth item with `needed: 1, remaining: 0`.)
#[test]
fn hostile_octet_sequence_length_checked_before_any_copy() {
    let octets = TypeDesc::sequence_of(TypeDesc::Octet);
    for endianness in [Endianness::Big, Endianness::Little] {
        let claimed: u32 = 0x00FF_FFFF;
        let mut bytes = match endianness {
            Endianness::Big => claimed.to_be_bytes().to_vec(),
            Endianness::Little => claimed.to_le_bytes().to_vec(),
        };
        bytes.extend_from_slice(&[1, 2, 3]);
        assert_eq!(
            Decoder::new(&bytes, endianness).decode(&octets),
            Err(CdrError::Truncated {
                needed: claimed as usize,
                remaining: 3,
            })
        );
        assert_eq!(
            Decoder::new(&bytes, endianness).take_octets(),
            Err(CdrError::Truncated {
                needed: claimed as usize,
                remaining: 3,
            })
        );
        // the sanity limit still comes first, for octets as for any element
        let over = MAX_SEQUENCE_LEN + 1;
        let bytes = match endianness {
            Endianness::Big => over.to_be_bytes(),
            Endianness::Little => over.to_le_bytes(),
        };
        for desc in [&octets, &TypeDesc::sequence_of(TypeDesc::Double)] {
            assert_eq!(
                Decoder::new(&bytes, endianness).decode(desc),
                Err(CdrError::OversizedSequence(over))
            );
        }
        assert_eq!(
            Decoder::new(&bytes, endianness).take_octets(),
            Err(CdrError::OversizedSequence(over))
        );
    }
}

fn giop_repo() -> InterfaceRepository {
    let mut repo = InterfaceRepository::new();
    repo.register(InterfaceDef::new("Echo").with_operation(OperationDef::new(
        "echo",
        vec![("s".into(), TypeDesc::String)],
        TypeDesc::String,
    )));
    repo
}

/// GIOP message decode is total on random, truncated, and bit-flipped
/// frames — the header parse, the hostile size field, and the typed body
/// unmarshal all surface typed errors only.
#[test]
fn giop_decoder_total_on_hostile_frames() {
    let repo = giop_repo();
    let valid = encode_message(
        &GiopMessage::Request(RequestMessage {
            request_id: 1,
            trace: 0,
            response_expected: true,
            object_key: b"obj".to_vec(),
            interface: "Echo".into(),
            operation: "echo".into(),
            args: vec![Value::String("hi".into())],
        }),
        &repo,
        Endianness::Little,
    )
    .expect("valid request encodes");
    assert!(decode_message(&valid, &repo).is_ok());

    prop::check("giop total on hostile frames", CASES, |rng, _| {
        match rng.gen_range(0..3u32) {
            0 => {
                let bytes = arbitrary::bytes(rng, 64);
                let _ = decode_message(&bytes, &repo);
            }
            1 => {
                let cut = rng.gen_range(0..valid.len());
                let _ = decode_message(&valid[..cut], &repo);
            }
            _ => {
                let mut buf = valid.clone();
                for _ in 0..rng.gen_range(1..6usize) {
                    let at = rng.gen_range(0..buf.len());
                    buf[at] ^= 1 << rng.gen_range(0..8u32);
                }
                let _ = decode_message(&buf, &repo);
            }
        }
    });
}

/// Sealed buffers an attacker can send: too short for a nonce and a tag,
/// exactly a nonce and a tag of garbage, and a seal of `plain` under `key`
/// with one bit flipped in its nonce, its tag or its ciphertext.
fn hostile_sealed(key: &SymmetricKey, plain: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = [0usize, 1, 47, 48].map(|len| vec![0xA5; len]).into();
    let sealed = seal(key, [1; 16], plain);
    for byte in [5, 16 + 9, SEALED_OVERHEAD + 2] {
        let mut bad = sealed.clone();
        bad[byte] ^= 0x10;
        out.push(bad);
    }
    out
}

/// Hostile sealed buffers reach every path that opens one: a direct reply
/// to the client (`Smiop::open`), a key share to the client (the share
/// bank) and an expulsion notice to each bank element (the GM notice
/// count). Each is refused without a panic, and every element goes on
/// executing the client's calls.
#[test]
fn hostile_sealed_buffers_are_refused_on_every_open_path() {
    let mut system = bank_system(5).build();
    assert_eq!(
        system.invoke(CLIENT, deposit(1)).result,
        Ok(Value::LongLong(1))
    );
    let manager = system.gm_element(0).replica().app().manager();
    let (connection, record) = manager.connections().next().expect("a connection");
    let (fabric, epoch) = (system.fabric.clone(), record.epoch);
    let meta = ConnectionMeta {
        connection,
        epoch,
        client_code: singleton_code(CLIENT),
        client_domain: None,
        server_domain: BANK,
    };
    let gm = fabric.element_codes(fabric.gm_domain())[0];
    let client = fabric.node_of(meta.client_code).expect("the client's node");
    let bank = fabric.domain(BANK);
    let signature = SigningKey::from_seed(b"hostile").sign(b"frame");
    let mut frames = VecDeque::new();
    for sealed in hostile_sealed(&fabric.pairwise(gm, meta.client_code), &[0; 60]) {
        let share = KeyShareMsg {
            meta,
            gm_code: gm,
            sealed: sealed.clone(),
        };
        let reply = DirectReplyMsg {
            connection,
            epoch,
            sender: bank.elements[0],
            sequence: 99,
            sealed,
            signature,
        };
        frames.push_back((client, CoreMsg::KeyShare(share).encode().into()));
        frames.push_back((client, CoreMsg::DirectReply(reply).encode().into()));
    }
    for (&element, &node) in bank.elements.iter().zip(bank.nodes) {
        for sealed in hostile_sealed(&fabric.pairwise(gm, element_code(element)), b"expel") {
            let notice = NoticeMsg {
                gm_code: gm,
                domain: BANK,
                expelled: bank.elements[3],
                sealed,
            };
            frames.push_back((node, CoreMsg::Notice(notice).encode().into()));
        }
    }
    system.sim.add_process(Box::new(Inject(frames)));
    system.settle();

    assert_eq!(
        system.invoke(CLIENT, deposit(1)).result,
        Ok(Value::LongLong(2))
    );
    let handled: Vec<u64> = (0..4)
        .map(|i| system.element(BANK, i).requests_handled)
        .collect();
    assert_eq!(handled, [2, 2, 2, 2]);
}

/// Key-share plaintexts as the share bank opens them (`ShareBank::offer`):
/// a plaintext of every length 0..=64 and a bit flip in every byte of a
/// genuine one are refused without a panic, and a flipped share never
/// completes a key that one genuine share is waiting on. The genuine shares
/// the Group Manager sent still assemble the key.
#[test]
fn key_share_plaintexts_are_refused_at_every_length_and_flip() {
    let mut system = bank_system(5).build();
    let me = singleton_code(CLIENT);
    let client = system.fabric.node_of(me).expect("the client's node");
    let captured = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&captured);
    let mut tap = Scripted::new();
    tap.rule(None, Some(client), move |payload, _| {
        if let Ok(CoreMsg::KeyShare(share)) = CoreMsg::decode(payload) {
            sink.borrow_mut().push(share);
        }
        Verdict::Pass
    });
    system.sim.set_adversary(Box::new(tap));
    system.invoke(CLIENT, deposit(1));
    let shares = captured.take();
    let fabric = system.fabric.clone();
    let obs = Obs::disabled();
    let offer = |bank: &mut ShareBank, msg: &KeyShareMsg| bank.offer(&fabric, me, &obs, msg);
    let genuine_key = shares
        .iter()
        .filter_map(|msg| offer(&mut ShareBank::default(), msg))
        .count();
    assert_eq!(genuine_key, 0, "one share alone makes no key");
    let mut bank = ShareBank::default();
    let keys = shares
        .iter()
        .filter_map(|msg| offer(&mut bank, msg))
        .count();
    assert_eq!(keys, 1, "the genuine shares make the key once");

    let (first, second) = (&shares[0], &shares[1]);
    let pairwise = fabric.pairwise(first.gm_code, me);
    let plain = open(&pairwise, &first.sealed).expect("a genuine share opens");
    assert_eq!(plain.len(), 60, "a 32-byte input, then a 28-byte share");
    let resealed = |plain: &[u8]| KeyShareMsg {
        sealed: seal(&pairwise, [9; 16], plain),
        ..first.clone()
    };
    for len in 0..=64 {
        let hostile: Vec<u8> = plain.iter().copied().cycle().take(len).collect();
        assert!(offer(&mut ShareBank::default(), &resealed(&hostile)).is_none());
    }
    for byte in 0..plain.len() {
        let mut flipped = plain.clone();
        flipped[byte] ^= 1 << (byte % 8);
        let mut waiting = ShareBank::default();
        assert!(offer(&mut waiting, second).is_none());
        assert!(
            offer(&mut waiting, &resealed(&flipped)).is_none(),
            "a share flipped in byte {byte} completed a key"
        );
    }
}

/// A raw client command (`SingletonClient::on_command`: an 8-byte target,
/// then a GIOP request) depositing `amount`, under trace id `trace`.
fn raw_deposit(system: &System, amount: i64, trace: u64) -> Vec<u8> {
    let request = RequestMessage {
        request_id: 0,
        trace,
        response_expected: true,
        object_key: b"acct".to_vec(),
        interface: "Bank::Account".into(),
        operation: "deposit".into(),
        args: vec![Value::LongLong(amount)],
    };
    let frame = encode_message(
        &GiopMessage::Request(request),
        system.fabric.repo(),
        Endianness::Little,
    )
    .expect("deposit matches the repository");
    [&BANK.0.to_le_bytes()[..], &frame].concat()
}

/// The client's command path cut at every boundary: each prefix is
/// dropped without a panic or a call, and the whole command still runs.
#[test]
fn client_commands_truncated_at_every_boundary_are_dropped() {
    let mut system = bank_system(5).build();
    let command = raw_deposit(&system, 5, 7);
    let client = system
        .fabric
        .node_of(singleton_code(CLIENT))
        .expect("the client's node");
    for cut in 0..command.len() {
        system.sim.inject(client, command[..cut].to_vec().into());
    }
    system.settle();
    assert!(system.client(CLIENT).completed.is_empty());
    system.sim.inject(client, command.into());
    system.settle();
    let completed = &system.client(CLIENT).completed;
    assert_eq!(completed.len(), 1);
    assert_eq!(completed[0].result, Ok(Value::LongLong(5)));
}

/// A ticket names its own invocation: a raw command that completed on
/// the client first does not shift it onto that command's result.
#[test]
fn a_ticket_is_not_shifted_by_a_command_injected_before_it() {
    let mut system = bank_system(5).build();
    let command = raw_deposit(&system, 5, 7);
    let client = system
        .fabric
        .node_of(singleton_code(CLIENT))
        .expect("the client's node");
    system.sim.inject(client, command.into());
    system.settle();
    assert_eq!(system.client(CLIENT).completed.len(), 1);
    let done = system.invoke(CLIENT, deposit(1));
    assert_eq!(done.result, Ok(Value::LongLong(6)));
}
