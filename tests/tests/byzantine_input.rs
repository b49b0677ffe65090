//! Byzantine input totality: hostile bytes must surface as typed errors
//! or be ignored — never panic.
//!
//! A panicking message handler turns malformed input into an availability
//! attack (one crafted packet kills a replica, and `f` budgets assume
//! *independent* failures, not an input that kills every replica the same
//! way). These tests drive the real decode and handler entry points with
//! truncated, oversized, bit-flipped, and random garbage inputs. The
//! static side of the same contract is clippy's panic-freedom lints (L3),
//! denied in every crate that handles hostile input; this file is the
//! dynamic side.

use itdos_tests::common;

use std::collections::VecDeque;

use common::{bank_system, deposit, Inject, BANK, CLIENT};
use itdos::codes::{element_code, singleton_code};
use itdos::wire::{bft_frame, CoreMsg, FrameKind, SmiopFrame};
use itdos::System;
use itdos_bft::auth::{AuthContext, AuthProof, Envelope, KeyProvisioner, Peer};
use itdos_bft::message::{
    Batch, Checkpoint, ClientRequest, Commit, Message, PrePrepare, Prepare, PreparedProof, Reply,
    StateData, StateFetch, ViewChange,
};
use itdos_bft::node::{build_group, ClientNode};
use itdos_bft::queue::QueueOp;
use itdos_bft::state::CounterMachine;
use itdos_bft::{ClientId, GroupConfig, Output, Received, Replica, ReplicaId, SeqNo, To, View};
use itdos_crypto::group::Element;
use itdos_crypto::hash::Digest;
use itdos_crypto::keys::SymmetricKey;
use itdos_crypto::shamir;
use itdos_crypto::sign::SigningKey;
use itdos_crypto::symmetric::SealKey;
use itdos_giop::cdr::Endianness;
use itdos_giop::giop::{
    decode_message, encode_message, GiopMessage, ReplyBody, ReplyMessage, RequestMessage,
};
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::types::{TypeDesc, Value};
use itdos_groupmgr::{
    ConnectionId, DomainId, DomainRecord, ElementRecord, Endpoint, GroupManager, Membership,
};
use itdos_obs::LabelValue;
use itdos_vote::comparator::Comparator;
use itdos_vote::detector::{FaultProof, SignedReply};
use itdos_vote::vote::SenderId;
use simnet::{GroupId, Simulator};
use xbytes::Bytes;
use xrand::rngs::SmallRng;
use xrand::{Rng, SeedableRng};

fn digest(tag: &[u8]) -> Digest {
    Digest::of(tag)
}

fn repo() -> InterfaceRepository {
    let mut repo = InterfaceRepository::new();
    repo.register(
        InterfaceDef::new("Bank::Account").with_operation(OperationDef::new(
            "deposit",
            vec![("amount".to_string(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    repo
}

fn valid_giop_request() -> Vec<u8> {
    let msg = GiopMessage::Request(RequestMessage {
        request_id: 7,
        trace: 0,
        response_expected: true,
        object_key: b"acct".to_vec(),
        interface: "Bank::Account".to_string(),
        operation: "deposit".to_string(),
        args: vec![Value::LongLong(42)],
    });
    encode_message(&msg, &repo(), itdos_giop::cdr::Endianness::Little).expect("valid request")
}

fn valid_pbft_messages() -> Vec<Message> {
    let request = ClientRequest::new(ClientId(3), 9, 0, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    let batch = Batch::single(request.clone());
    let d = batch.digest();
    vec![
        Message::Request(request),
        Message::PrePrepare(PrePrepare {
            view: View(0),
            seq: SeqNo(1),
            digest: d,
            batch,
        }),
        Message::Prepare(Prepare {
            view: View(0),
            seq: SeqNo(1),
            digest: d,
            replica: ReplicaId(2),
        }),
        Message::Commit(Commit {
            view: View(0),
            seq: SeqNo(1),
            digest: d,
            replica: ReplicaId(2),
        }),
        Message::Checkpoint(Checkpoint {
            seq: SeqNo(10),
            state_digest: digest(b"state"),
            replica: ReplicaId(1),
        }),
        Message::StateFetch(StateFetch {
            seq: SeqNo(10),
            replica: ReplicaId(3),
        }),
        Message::StateData(StateData {
            seq: SeqNo(10),
            snapshot: vec![0xAB; 40],
            proof: vec![],
            replica: ReplicaId(1),
        }),
    ]
}

/// Every truncation of a valid GIOP frame decodes to an error, not a
/// panic.
#[test]
fn giop_truncations_error_cleanly() {
    let frame = valid_giop_request();
    let repo = repo();
    for cut in 0..frame.len() {
        assert!(
            decode_message(&frame[..cut], &repo).is_err(),
            "truncation at {cut} must fail"
        );
    }
}

/// A GIOP header whose length field claims far more body than was sent
/// is a truncation error, not an out-of-bounds read.
#[test]
fn giop_oversized_length_claim_is_rejected() {
    let mut frame = valid_giop_request();
    frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_message(&frame, &repo()).is_err());
}

/// Random garbage never panics the GIOP decoder (most inputs fail the
/// magic check; the rest must still fail cleanly).
#[test]
fn giop_random_garbage_is_total() {
    let repo = repo();
    let mut rng = SmallRng::seed_from_u64(0x610F);
    for _ in 0..4000 {
        let len = rng.gen_range(0..128usize);
        let mut buf = vec![0u8; len];
        rng.fill(&mut buf[..]);
        let _ = decode_message(&buf, &repo);
    }
}

/// Bit-flipped but well-framed GIOP messages (magic and length intact)
/// exercise the body decoders; every outcome is Ok or Err, never a panic.
#[test]
fn giop_bitflipped_bodies_are_total() {
    let frame = valid_giop_request();
    let repo = repo();
    let mut rng = SmallRng::seed_from_u64(0xF11B);
    for _ in 0..4000 {
        let mut mutated = frame.clone();
        // flip 1..4 bits anywhere past the magic/version/length header
        for _ in 0..rng.gen_range(1..4u32) {
            let i = rng.gen_range(12..mutated.len());
            mutated[i] ^= 1u8 << rng.gen_range(0..8u32);
        }
        let _ = decode_message(&mutated, &repo);
    }
}

/// Every truncation of every valid PBFT message encoding is a clean
/// `WireError`.
#[test]
fn pbft_truncations_error_cleanly() {
    for msg in valid_pbft_messages() {
        let bytes = msg.encode();
        assert_eq!(Message::decode(&bytes).as_ref(), Ok(&msg), "round trip");
        for cut in 0..bytes.len() {
            assert!(
                Message::decode(&bytes[..cut]).is_err(),
                "truncated {msg:?} at {cut} must fail"
            );
        }
    }
}

/// Length prefixes inside PBFT messages that claim gigabytes must fail
/// without allocating or reading out of bounds.
#[test]
fn pbft_oversized_interior_lengths_are_rejected() {
    // a Request's operation is length-prefixed; claim u32::MAX bytes
    let bytes = Message::Request(ClientRequest::new(ClientId(1), 1, 0, vec![0; 8])).encode();
    for pos in 0..bytes.len().saturating_sub(4) {
        let mut mutated = bytes.clone();
        mutated[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let _ = Message::decode(&mutated); // must not panic or OOM
    }
}

/// Random garbage and bit-flipped envelopes/messages never panic the
/// wire layer; whatever decodes is fed to a live replica, which must
/// absorb arbitrary (unauthenticated-content) protocol messages without
/// panicking.
#[test]
fn replica_absorbs_hostile_decoded_messages() {
    let mut replica = Replica::new(GroupConfig::for_f(1), ReplicaId(1), CounterMachine::new());
    let valid: Vec<Vec<u8>> = valid_pbft_messages().iter().map(Message::encode).collect();
    let mut rng = SmallRng::seed_from_u64(0xBF7);
    let mut delivered = 0u32;
    for round in 0..6000 {
        let mut buf = valid[round % valid.len()].clone();
        for _ in 0..rng.gen_range(1..6u32) {
            let i = rng.gen_range(0..buf.len());
            buf[i] ^= 1u8 << rng.gen_range(0..8u32);
        }
        if let Ok(msg) = Message::decode(&buf) {
            let sender = ReplicaId(rng.gen_range(0..5u32));
            replica.on_message(sender, msg);
            replica.take_outputs();
            delivered += 1;
        }
    }
    // the corpus must actually exercise the handlers, not just the decoder
    assert!(delivered > 100, "only {delivered} mutants decoded");
}

/// Hand-crafted adversarial protocol messages: absurd views, sequence
/// numbers at the numeric edge, and mismatched digests are ignored or
/// refused, never fatal.
#[test]
fn replica_survives_adversarial_field_values() {
    let mut replica = Replica::new(GroupConfig::for_f(1), ReplicaId(1), CounterMachine::new());
    let request = ClientRequest::new(ClientId(9), 1, 0, vec![0xFF; 8]);
    let hostile = vec![
        // pre-prepare whose digest does not match the batch
        Message::PrePrepare(PrePrepare {
            view: View(0),
            seq: SeqNo(1),
            digest: digest(b"lie"),
            batch: Batch::single(request.clone()),
        }),
        // sequence number at the numeric edge (watermark arithmetic)
        Message::PrePrepare(PrePrepare {
            view: View(0),
            seq: SeqNo(u64::MAX),
            digest: Batch::single(request.clone()).digest(),
            batch: Batch::single(request.clone()),
        }),
        // view far in the future
        Message::Prepare(Prepare {
            view: View(u64::MAX),
            seq: SeqNo(u64::MAX),
            digest: digest(b"x"),
            replica: ReplicaId(3),
        }),
        Message::Commit(Commit {
            view: View(u64::MAX),
            seq: SeqNo(3),
            digest: digest(b"y"),
            replica: ReplicaId(0),
        }),
        // checkpoint claiming a bogus far-future stable state
        Message::Checkpoint(Checkpoint {
            seq: SeqNo(u64::MAX),
            state_digest: digest(b"z"),
            replica: ReplicaId(2),
        }),
        // state snapshot that is pure garbage with an empty proof
        Message::StateData(StateData {
            seq: SeqNo(u64::MAX),
            snapshot: vec![0x5A; 100],
            proof: vec![],
            replica: ReplicaId(2),
        }),
        // replica id far outside the group
        Message::Prepare(Prepare {
            view: View(0),
            seq: SeqNo(1),
            digest: request.digest(),
            replica: ReplicaId(u32::MAX),
        }),
    ];
    for msg in hostile {
        for sender in [0u32, 3, u32::MAX] {
            replica.on_message(ReplicaId(sender), msg.clone());
            replica.take_outputs();
        }
    }
    // the replica made no ordering progress off hostile input
    assert_eq!(replica.last_executed(), SeqNo(0));
}

/// Envelope (authenticator layer) truncations and garbage are clean
/// errors.
#[test]
fn envelope_decoding_is_total() {
    let env = Envelope {
        sender: Peer::Replica(ReplicaId(2)),
        payload: Message::Request(ClientRequest::new(ClientId(1), 4, 0, vec![9; 12]))
            .encode()
            .into(),
        auth: AuthProof::Signature(SigningKey::from_seed(b"env").sign(b"payload")),
    };
    let bytes = env.encode();
    assert!(Envelope::decode(&bytes).is_ok());
    for cut in 0..bytes.len() {
        assert!(Envelope::decode(&bytes[..cut]).is_err());
    }
    let mut rng = SmallRng::seed_from_u64(0xE7E);
    for _ in 0..2000 {
        let len = rng.gen_range(0..96usize);
        let mut buf = vec![0u8; len];
        rng.fill(&mut buf[..]);
        let _ = Envelope::decode(&buf);
    }
}

// ---- what a MAC covers --------------------------------------------------

const KEYS: [u8; 32] = [5u8; 32];

fn replica_auth(id: u32) -> AuthContext {
    AuthContext::for_replica(KeyProvisioner::new(KEYS), ReplicaId(id), 4)
}

/// A replica's receive path: open the frame, verify the decoded pair,
/// and hand back what it would act on.
fn receive(receiver: &AuthContext, frame: &[u8]) -> Option<(Peer, Message)> {
    let (envelope, message) = Envelope::open(&Bytes::copy_from_slice(frame)).ok()?;
    receiver
        .verify(&envelope, &message)
        .then_some((envelope.sender, message))
}

/// A request with a 1 KiB operation, and a pre-prepare batching it with a
/// second request.
fn mac_covered_messages() -> (Message, Message) {
    let operation: Vec<u8> = (0..1024usize).map(|i| (i * 31 + 7) as u8).collect();
    let request = ClientRequest::new(ClientId(7), 12, 99, operation);
    let batch = Batch {
        requests: vec![
            request.clone(),
            ClientRequest::new(ClientId(8), 3, 0, vec![1, 2, 3]),
        ],
    };
    let pre_prepare = PrePrepare {
        view: View(0),
        seq: SeqNo(4),
        digest: batch.digest(),
        batch,
    };
    (Message::Request(request), Message::PrePrepare(pre_prepare))
}

/// Every single-bit flip of a MAC'd request (from its client) and of a
/// two-request pre-prepare (from the primary), at every replica. A MAC
/// covers the request and the pre-prepare through their digests, not
/// their bytes, so this is the check that no byte escapes it: a flip is
/// refused unless it lands in *another* receiver's 8-byte entry, which
/// this receiver neither reads nor relies on — and then what it accepts
/// is the very message and sender that were sent.
#[test]
fn no_single_bit_flip_of_a_macd_request_or_pre_prepare_is_accepted() {
    let (request, pre_prepare) = mac_covered_messages();
    let client = AuthContext::for_client(KeyProvisioner::new(KEYS), ClientId(7), 4);
    let frames = [
        (
            client.frame(&request, None),
            Peer::Client(ClientId(7)),
            request,
        ),
        (
            replica_auth(0).frame(&pre_prepare, None),
            Peer::Replica(ReplicaId(0)),
            pre_prepare,
        ),
    ];
    for (frame, sender, message) in frames {
        let receivers: Vec<AuthContext> = (0..4).map(replica_auth).collect();
        for receiver in &receivers {
            assert_eq!(receive(receiver, &frame), Some((sender, message.clone())));
        }
        // the four entries close the frame, in replica order
        let entries = frame.len() - 32;
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // decoded once, as a receiver does, then judged by each replica
            let Ok((envelope, decoded)) = Envelope::open(&Bytes::from(flipped)) else {
                continue;
            };
            for (id, receiver) in receivers.iter().enumerate() {
                if !receiver.verify(&envelope, &decoded) {
                    continue;
                }
                let byte = bit / 8;
                assert!(
                    byte >= entries && (byte - entries) / 8 != id,
                    "replica {id} accepted a flip of bit {bit} in {}",
                    message.label()
                );
                assert_eq!((envelope.sender, &decoded), (sender, &message));
            }
        }
    }
}

/// The kinds a MAC covers by structure are domain-separated from each
/// other and from the kinds covered by their bytes: a sender's tags on one
/// message never verify another message in its place.
#[test]
fn a_tag_for_one_kind_never_verifies_another() {
    let (request, pre_prepare) = mac_covered_messages();
    let Message::PrePrepare(pp) = &pre_prepare else {
        unreachable!("a pre-prepare");
    };
    let prepare = Message::Prepare(Prepare {
        view: pp.view,
        seq: pp.seq,
        digest: pp.digest,
        replica: ReplicaId(0),
    });
    let sender = replica_auth(0);
    let messages = [request, pre_prepare, prepare];
    for tagged in &messages {
        let auth = sender.mac_envelope(tagged).auth;
        for carried in messages.iter().filter(|m| *m != tagged) {
            let forged = Envelope {
                auth: auth.clone(),
                ..sender.mac_envelope(carried)
            };
            for id in 1..4 {
                assert!(
                    receive(&replica_auth(id), &forged.encode()).is_none(),
                    "{}'s tag verified a {}",
                    tagged.label(),
                    carried.label()
                );
            }
        }
    }
}

/// A pre-prepare's MAC covers its batch, not only the digest field that
/// names it: swapping the batch while keeping that field breaks the MAC.
#[test]
fn a_pre_prepare_with_a_swapped_batch_fails_its_mac() {
    let (_, pre_prepare) = mac_covered_messages();
    let Message::PrePrepare(pp) = &pre_prepare else {
        unreachable!("a pre-prepare");
    };
    let sender = replica_auth(0);
    let mut swapped = pp.clone();
    swapped.batch.requests.reverse();
    let forged = Envelope {
        payload: Message::PrePrepare(swapped).encode().into(),
        ..sender.mac_envelope(&pre_prepare)
    };
    for id in 1..4 {
        assert!(receive(&replica_auth(id), &forged.encode()).is_none());
    }
}

// ---- recalled request digests ----------------------------------------------

fn keyed_replica(id: u32) -> Replica<CounterMachine> {
    Replica::new(GroupConfig::for_f(1), ReplicaId(id), CounterMachine::new())
}

fn client_auth(id: u64) -> AuthContext {
    AuthContext::for_client(KeyProvisioner::new(KEYS), ClientId(id), 4)
}

/// `replica` receives `frame` through its receive path; true when the frame
/// was authenticated and delivered. Its outputs stay queued.
fn receive_at(replica: &mut Replica<CounterMachine>, frame: &Bytes) -> bool {
    let auth = replica_auth(replica.id().0);
    matches!(replica.receive(&auth, frame), Received::Delivered(_))
}

/// Replica `id`, holding `request` as received from its client, with the
/// outputs that produced drained.
fn holding(id: u32, request: &ClientRequest) -> Replica<CounterMachine> {
    let mut replica = keyed_replica(id);
    let multicast = client_auth(7).frame(&Message::Request(request.clone()), None);
    assert!(receive_at(&mut replica, &multicast));
    replica.take_outputs();
    replica
}

/// A copy of a held request under the same `(client, timestamp)` with one
/// operation bit flipped recalls nothing: it is hashed as itself. So a MAC
/// its sender made over it verifies, a MAC made over the original does not,
/// and a pre-prepare's digest field is checked against the copy's own
/// digest — every verdict is the one a replica holding nothing reaches.
#[test]
fn a_copy_one_bit_off_a_held_request_recalls_nothing() {
    let honest = ClientRequest::new(ClientId(7), 1, 0, CounterMachine::op(5));
    let mut operation = honest.operation().to_vec();
    operation[0] ^= 1;
    let flipped = ClientRequest::new(ClientId(7), 1, 0, operation);
    let flipped_batch = Batch::single(flipped.clone());
    let honest_batch = Batch::single(honest.clone());

    // relayed alone to the primary by backup 2: made by it, it is ordered
    // as a request of its own; tampered with on the way, it is dropped
    let mut primary = holding(0, &honest);
    let made = replica_auth(2).frame(&Message::Request(flipped.clone()), None);
    assert!(
        receive_at(&mut primary, &made),
        "backup 2's MAC over the copy"
    );
    let proposed: Vec<PrePrepare> = primary
        .take_outputs()
        .into_iter()
        .filter_map(|o| match o {
            Output::Send(To::All, Message::PrePrepare(pp)) => Some(pp),
            _ => None,
        })
        .collect();
    assert_eq!(proposed.len(), 1);
    assert_eq!(proposed[0].seq, SeqNo(2));
    assert_eq!(proposed[0].batch, flipped_batch);
    assert_eq!(proposed[0].digest, flipped_batch.digest());
    let tampered = Envelope {
        payload: Message::Request(flipped.clone()).encode().into(),
        ..replica_auth(2).mac_envelope(&Message::Request(honest.clone()))
    };
    let mut primary = holding(0, &honest);
    assert!(!receive_at(&mut primary, &tampered.encode().into()));
    assert!(primary.take_outputs().is_empty());

    // inside a pre-prepare from the primary, at a backup holding the
    // original: prepared under the copy's own digest when the digest field
    // names it, refused when the field names the original's batch, and
    // dropped when the body was swapped under the primary's MAC
    let pre_prepare = |digest, batch| {
        Message::PrePrepare(PrePrepare {
            view: View(0),
            seq: SeqNo(1),
            digest,
            batch,
        })
    };
    let consistent = pre_prepare(flipped_batch.digest(), flipped_batch.clone());
    let misnamed = pre_prepare(honest_batch.digest(), flipped_batch.clone());
    let tampered = Envelope {
        payload: misnamed.encode().into(),
        ..replica_auth(0).mac_envelope(&pre_prepare(honest_batch.digest(), honest_batch))
    };
    let cases = [
        (
            replica_auth(0).frame(&consistent, None),
            true,
            Some(flipped_batch.digest()),
        ),
        (replica_auth(0).frame(&misnamed, None), true, None),
        (tampered.encode().into(), false, None),
    ];
    for (frame, delivered, prepared) in cases {
        let mut backup = holding(1, &honest);
        assert_eq!(receive_at(&mut backup, &frame), delivered);
        let prepares: Vec<Digest> = backup
            .take_outputs()
            .into_iter()
            .filter_map(|o| match o {
                Output::Send(To::All, Message::Prepare(p)) => Some(p.digest),
                _ => None,
            })
            .collect();
        assert_eq!(prepares, Vec::from_iter(prepared));
    }
}

// ---- a request ordered under another client's name (ROADMAP item 15) ------

/// Four replicas exchanging real frames until quiescent: each output is
/// framed by its sender and received through `Replica::receive`. Returns
/// the replies sent to clients.
fn exchange(replicas: &mut [Replica<CounterMachine>]) -> Vec<Reply> {
    let mut replies = Vec::new();
    loop {
        let mut sent = Vec::new();
        for (from, replica) in replicas.iter_mut().enumerate() {
            for output in replica.take_outputs() {
                match output {
                    Output::Send(To::Replica(to), message) => {
                        sent.push((from, vec![to.0 as usize], message))
                    }
                    Output::Send(To::All, message) => {
                        sent.push((from, (0..4).filter(|&to| to != from).collect(), message));
                    }
                    Output::Send(To::Client(_), Message::Reply(reply)) => replies.push(reply),
                    _ => {}
                }
            }
        }
        if sent.is_empty() {
            return replies;
        }
        for (from, to, message) in sent {
            let frame = replica_auth(from as u32).frame(&message, None);
            for to in to {
                receive_at(&mut replicas[to], &frame);
            }
        }
    }
}

/// One Byzantine backup orders a request under a client's name. A relay is
/// authenticated by the relaying replica, not by the client, and a
/// pre-prepared request carries no client authentication at all. Client
/// timestamps are consecutive, so the backup can claim the client's next
/// one with an operation of its choosing; the client's real request is
/// then answered from the reply cache and never executed. Castro–Liskov
/// close this by forwarding the client's own envelope and having backups
/// check the client's entry of each pre-prepared request.
#[test]
#[ignore = "ROADMAP item 15: relayed and pre-prepared requests carry no client authentication"]
fn a_backup_cannot_order_a_request_under_a_clients_name() {
    let mut replicas: Vec<_> = (0..4).map(keyed_replica).collect();
    let forged = ClientRequest::new(ClientId(7), 1, 0, CounterMachine::op(-1000));
    receive_at(
        &mut replicas[0],
        &replica_auth(2).frame(&Message::Request(forged), None),
    );
    exchange(&mut replicas);
    let real = ClientRequest::new(ClientId(7), 1, 0, CounterMachine::op(5));
    let multicast = client_auth(7).frame(&Message::Request(real), None);
    for replica in replicas.iter_mut() {
        receive_at(replica, &multicast);
    }
    let replies = exchange(&mut replicas);
    for replica in &replicas {
        assert_eq!(
            replica.app().total(),
            5,
            "replica {:?} executed the backup's operation in the client's place",
            replica.id()
        );
    }
    assert!(replies.iter().all(|r| r.result == 5i64.to_le_bytes()));
}

// ---- early frames are held within a quota per submitter

/// A BFT client of the bank's ordering group has frames for 200
/// connections nobody opened ordered. Each is early at every element — no
/// key for it will ever arrive — so an element that kept them all would
/// grow without bound, one queue per invented id. Each element keeps at
/// most the submitter's quota of 128, drops and counts the rest, and
/// still serves the honest client.
#[test]
fn early_frames_for_invented_connections_are_held_within_a_quota() {
    let mut builder = bank_system(73);
    builder.obs(itdos::ObsConfig::standard());
    let mut system = builder.build();
    let submitter = 4242;
    let auth = system.fabric.bft_auth_client(BANK, submitter);
    let nodes = system.fabric.domain(BANK).nodes.to_vec();
    let signature = SigningKey::from_seed(b"invented").sign(b"frame");
    let mut frames = VecDeque::new();
    for i in 0..200u64 {
        let early = SmiopFrame {
            connection: ConnectionId(1_000_000 + i),
            epoch: 0,
            kind: FrameKind::Request,
            sender_code: submitter,
            request_id: 1,
            sequence: 1,
            sealed: vec![0; 48],
            signature,
        };
        let op = QueueOp::Deliver(early.encode()).encode();
        let submission = Message::Request(ClientRequest::new(ClientId(submitter), i + 1, 0, op));
        let frame: Bytes = bft_frame(&auth, BANK, &submission, None).bytes;
        frames.extend(nodes.iter().map(|&node| (node, frame.clone())));
    }
    system.sim.add_process(Box::new(Inject(frames)));
    system.settle();

    for index in 0..4 {
        let element = system.element(BANK, index);
        assert_eq!(element.replica().app().next_index(), 200, "all ordered");
        assert_eq!(element.stalled_frames(), 128, "element {index}");
        let label = [("element", LabelValue::U64(u64::from(element.element().0)))];
        assert_eq!(system.obs.counter_value("element.stall_drops", &label), 72);
    }
    let done = system.invoke(CLIENT, deposit(5));
    assert_eq!(done.result, Ok(Value::LongLong(5)));
}

// ---- a connection's key holders speak only for their side (ROADMAP item 16)

fn requests_handled(system: &System) -> Vec<u64> {
    (0..4)
        .map(|i| system.element(BANK, i).requests_handled)
        .collect()
}

/// The client's connection to the bank, its epoch, and its key as every
/// element holds it, rebuilt here from f_gm + 1 leaked Group Manager
/// shares and the DPRF's KDF.
fn leaked_connection_key(system: &System) -> (ConnectionId, u32, SealKey) {
    let gm_f = system.fabric.domain(system.fabric.gm_domain()).f;
    let leaked: Vec<shamir::Share> = (0..=gm_f)
        .map(|i| system.gm_element(i).leaked_share())
        .collect();
    let master = shamir::combine(&leaked).expect("f_gm + 1 shares");
    let manager = system.gm_element(0).replica().app().manager();
    let (connection, record) = manager
        .connections()
        .find(|(_, record)| record.server == BANK)
        .expect("the client's connection");
    let input = manager.connection_input(connection, record.epoch);
    let point = Element::hash_to_group(&input).pow(master);
    let kdf = Digest::of_parts(&[b"itdos-dprf-kdf", &input, &point.to_bytes()]);
    let key = SealKey::new(&SymmetricKey::from_digest(kdf));
    (connection, record.epoch, key)
}

/// One Byzantine server element speaks for a singleton client. Every
/// element of the domain holds the connection's key, so the element can
/// seal the client's next request (`deposit(-1000)`) and sign it with its
/// own key; the bank's ordering queue delivers it whoever submits it. Only
/// the side rule refuses it: a request on a singleton connection comes
/// from that singleton's endpoint code alone. The client's real request 2
/// then executes as request 2.
#[test]
fn an_element_cannot_send_a_request_on_a_clients_connection() {
    let mut system = bank_system(71).build();
    let first = system.invoke(CLIENT, deposit(5));
    assert_eq!(first.result, Ok(Value::LongLong(5)));
    assert_eq!(requests_handled(&system), [1, 1, 1, 1]);
    let (connection, epoch, key) = leaked_connection_key(&system);

    // bank element 3 seals and signs the client's request 2 as itself
    let forger = system.fabric.domain(BANK).elements[3];
    let request = GiopMessage::Request(RequestMessage {
        request_id: 2,
        trace: 0,
        response_expected: true,
        object_key: b"acct".to_vec(),
        interface: "Bank::Account".into(),
        operation: "deposit".into(),
        args: vec![Value::LongLong(-1000)],
    });
    let giop = encode_message(&request, system.fabric.repo(), Endianness::Little).unwrap();
    let signed = SignedReply::sign(&system.fabric.signing_key(forger), forger, 1, giop);
    let forged = SmiopFrame {
        connection,
        epoch,
        kind: FrameKind::Request,
        sender_code: element_code(forger),
        request_id: 2,
        sequence: 1,
        sealed: key.seal([7; 16], &signed.frame),
        signature: signed.signature,
    };

    // delivered through the bank's ordering group by a BFT client of it
    let submitter = 4242;
    let op = QueueOp::Deliver(forged.encode()).encode();
    let submission = Message::Request(ClientRequest::new(ClientId(submitter), 1, 0, op));
    let auth = system.fabric.bft_auth_client(BANK, submitter);
    let frame = bft_frame(&auth, BANK, &submission, None).bytes;
    let to = &system.fabric.domain(BANK).nodes;
    system.sim.add_process(Inject::to_all(to, &frame));
    system.settle();
    assert_eq!(
        requests_handled(&system),
        [1, 1, 1, 1],
        "the elements executed element 3's request on the client's connection"
    );

    let ticket = system.invoke_async(CLIENT, deposit(5));
    system
        .try_settle()
        .expect("the client's request 2 completes");
    let second = system.result(ticket).expect("request 2 completed");
    assert_eq!(second.result, Ok(Value::LongLong(10)));
    assert_eq!(requests_handled(&system), [2, 2, 2, 2]);
}

/// A client's proof carries the frame its vote counted. Bank element 3
/// replies to the client's request 2 twice, straight to the client and
/// before any honest reply: first a wrong balance, then the right one.
/// The vote counts the first, names element 3 a suspect and discards the
/// second as a repeat. The proof must ship the first, so the Group
/// Manager confirms the dissent and expels element 3; shipping the
/// second would prove nothing.
#[test]
fn a_clients_proof_carries_the_frame_its_vote_counted() {
    let mut system = bank_system(72).build();
    let first = system.invoke(CLIENT, deposit(5));
    assert_eq!(first.result, Ok(Value::LongLong(5)));
    let (connection, epoch, key) = leaked_connection_key(&system);
    let liar = system.fabric.domain(BANK).elements[3];
    let reply = |sequence: u64, balance: i64| {
        let reply = GiopMessage::Reply(ReplyMessage {
            request_id: 2,
            interface: "Bank::Account".into(),
            operation: "deposit".into(),
            body: ReplyBody::Result(Value::LongLong(balance)),
        });
        let giop = encode_message(&reply, system.fabric.repo(), Endianness::Little).unwrap();
        let signed = SignedReply::sign(&system.fabric.signing_key(liar), liar, sequence, giop);
        let frame = SmiopFrame {
            connection,
            epoch,
            kind: FrameKind::Reply,
            sender_code: element_code(liar),
            request_id: 2,
            sequence,
            sealed: key.seal([sequence as u8; 16], &signed.frame),
            signature: signed.signature,
        };
        CoreMsg::DirectReply(frame.into()).encode()
    };
    let (dissent, matching) = (reply(1_000, -1), reply(1_001, 10));

    // the client opens round 2; both replies land, in turn, before any
    // honest one has been ordered
    let ticket = system.invoke_async(CLIENT, deposit(5));
    let to = system
        .fabric
        .node_of(singleton_code(CLIENT))
        .expect("the client's node");
    let frames = VecDeque::from([(to, dissent.into()), (to, matching.into())]);
    system.sim.add_process(Box::new(Inject(frames)));
    system.settle();

    let second = system.result(ticket).expect("request 2 completed");
    assert_eq!(second.result, Ok(Value::LongLong(10)));
    assert_eq!(second.suspects, [liar]);
    assert_eq!(system.client(CLIENT).proofs_sent, 1);
    let membership = system.gm_element(0).replica().app().manager().membership();
    assert!(
        !membership.domain(BANK).unwrap().is_active(liar),
        "the proof confirmed element 3's dissent"
    );
}

// ---- a state fetch is answered to its sender only ---------------------------

/// `StateFetch` frames from replica 1 of a group keyed by `seed`, naming a
/// replica that does not exist and then replica 3 as the fetcher.
fn forged_fetches(frame: impl Fn(&Message) -> Bytes) -> [Bytes; 2] {
    [ReplicaId(99), ReplicaId(3)].map(|replica| {
        frame(&Message::StateFetch(StateFetch {
            seq: SeqNo(0),
            replica,
        }))
    })
}

/// A replica answers a state fetch to the replica that sent it. Replica 1
/// MACs fetches that name someone else: replica 99, which no host has a
/// node for, and replica 3, which would then receive full snapshots it
/// never asked for. Neither is answered, no host crashes, and the group
/// keeps ordering.
#[test]
fn a_state_fetch_naming_another_replica_is_not_answered() {
    let seed = [9u8; 32];
    let mut sim = Simulator::new(33);
    let (replicas, client, _) = build_group(
        &mut sim,
        &GroupConfig::for_f(1),
        seed,
        GroupId::from_raw(0),
        ClientId(1),
    );
    for _ in 0..20 {
        sim.inject(client, Bytes::from(CounterMachine::op(1)));
        sim.run();
    }
    let auth = AuthContext::for_replica(KeyProvisioner::new(seed), ReplicaId(1), 4);
    for frame in forged_fetches(|message| auth.frame(message, None)) {
        sim.inject(replicas[0], frame);
        sim.run();
    }
    assert_eq!(sim.stats().label("bft-state-data").messages, 0);
    sim.inject(client, Bytes::from(CounterMachine::op(1)));
    sim.run();
    let results = &sim.process_ref::<ClientNode>(client).results;
    assert_eq!(results.len(), 21);
    assert_eq!(results[20], 21i64.to_le_bytes());
}

/// The same forged fetches, sent by bank replica 1 to every element of a
/// running bank domain.
#[test]
fn a_server_element_answers_a_state_fetch_to_its_sender_only() {
    let mut system = bank_system(72).build();
    for _ in 0..20 {
        system.invoke(CLIENT, deposit(1));
    }
    let auth = system.fabric.bft_auth_replica(BANK, 1);
    for frame in forged_fetches(|message| bft_frame(&auth, BANK, message, None).bytes) {
        let to = &system.fabric.domain(BANK).nodes;
        system.sim.add_process(Inject::to_all(to, &frame));
        system.settle();
    }
    assert_eq!(system.sim.stats().label("bft-state-data").messages, 0);
    let last = system.invoke(CLIENT, deposit(1));
    assert_eq!(last.result, Ok(Value::LongLong(21)));
}

// ---- view-change bounds ----------------------------------------------------

/// Replica 0's signed view change to view 1, carrying one prepared
/// proof at `seq` with two prepares, from a genesis stable checkpoint.
fn view_change_with_proof_at(seq: u64) -> Vec<u8> {
    let batch = Batch::single(ClientRequest::new(ClientId(9), 1, 0, vec![0xAB; 8]));
    let digest = batch.digest();
    let prepare = |replica| Prepare {
        view: View(0),
        seq: SeqNo(seq),
        digest,
        replica: ReplicaId(replica),
    };
    let vc = ViewChange {
        new_view: View(1),
        stable_seq: SeqNo(0),
        checkpoint_proof: vec![],
        prepared: vec![PreparedProof {
            pre_prepare: PrePrepare {
                view: View(0),
                seq: SeqNo(seq),
                digest,
                batch,
            },
            prepares: vec![prepare(2), prepare(3)],
        }],
        replica: ReplicaId(0),
    };
    replica_auth(0)
        .frame(&Message::ViewChange(vc), None)
        .to_vec()
}

/// Replica 1, the primary of view 1, receives replica 0's view change and
/// then honest ones from replicas 2 and 3 until it can install view 1.
/// Returns the sequence numbers its NEW-VIEW re-issues.
fn new_view_after(byzantine: &[u8]) -> Vec<u64> {
    let auth = replica_auth(1);
    let mut replica = Replica::new(GroupConfig::for_f(1), ReplicaId(1), CounterMachine::new());
    let honest = |id: u32| {
        let vc = ViewChange {
            new_view: View(1),
            stable_seq: SeqNo(0),
            checkpoint_proof: vec![],
            prepared: vec![],
            replica: ReplicaId(id),
        };
        replica_auth(id)
            .frame(&Message::ViewChange(vc), None)
            .to_vec()
    };
    let mut new_views = Vec::new();
    for frame in [byzantine.to_vec(), honest(2), honest(3)] {
        let Some((Peer::Replica(sender), message)) = receive(&auth, &frame) else {
            panic!("a signed view change verifies");
        };
        replica.on_message(sender, message);
        for output in replica.take_outputs() {
            if let Output::Send(To::All, Message::NewView(nv)) = output {
                new_views.push(nv);
            }
        }
    }
    assert_eq!(new_views.len(), 1, "view 1 is installed once");
    assert_eq!(replica.view(), View(1));
    new_views[0]
        .pre_prepares
        .iter()
        .map(|pp| pp.seq.0)
        .collect()
}

/// A view change may only carry proofs inside its sender's watermark
/// window `(stable_seq, stable_seq + L]`, as Castro–Liskov require. At the
/// edge the proof is carried, with null batches filling the gap below it;
/// one past the edge the message is refused, and a proof at `u64::MAX` is
/// refused without the new primary walking the range it would open.
#[test]
fn view_change_proofs_outside_the_watermark_window_are_refused() {
    let window = GroupConfig::for_f(1).watermark_window;
    let carried = new_view_after(&view_change_with_proof_at(window));
    assert_eq!(carried, (1..=window).collect::<Vec<_>>());
    assert!(new_view_after(&view_change_with_proof_at(window + 1)).is_empty());
    assert!(new_view_after(&view_change_with_proof_at(u64::MAX)).is_empty());
}

fn manager() -> GroupManager {
    let key = |id: u32| SigningKey::from_seed(&id.to_le_bytes()).verifying_key();
    let mut m = Membership::new();
    m.register_domain(DomainRecord::new(
        DomainId(1),
        1,
        (0..4)
            .map(|id| ElementRecord {
                id: SenderId(id),
                verifying_key: key(id),
            })
            .collect(),
    ));
    m.register_singleton(100, key(100));
    GroupManager::new(m, [7u8; 32])
}

/// Group Manager requests naming unknown domains, unknown endpoints, or
/// expelled elements are typed errors.
#[test]
fn group_manager_refuses_unknown_principals() {
    let mut gm = manager();
    assert!(gm
        .open_request(Endpoint::Singleton(100), None, DomainId(99))
        .is_err());
    assert!(gm
        .open_request(Endpoint::Singleton(555), None, DomainId(1))
        .is_err());
    assert!(gm
        .change_request_from_domain(SenderId(0), SenderId(777))
        .is_err());
}

/// A fault "proof" that is empty, self-contradictory, or unsigned is
/// rejected with `ChangeError`, and the membership is untouched.
#[test]
fn group_manager_rejects_garbage_proofs() {
    let mut gm = manager();
    let repo = repo();
    let comparator = Comparator::Exact;
    let empty = FaultProof {
        accused: vec![],
        request_id: 1,
        messages: vec![],
    };
    assert!(gm
        .change_request_with_proof(&empty, &repo, &comparator)
        .is_err());
    let unsubstantiated = FaultProof {
        accused: vec![SenderId(2)],
        request_id: 1,
        messages: vec![],
    };
    assert!(gm
        .change_request_with_proof(&unsubstantiated, &repo, &comparator)
        .is_err());
    let foreign = FaultProof {
        accused: vec![SenderId(4242)],
        request_id: 1,
        messages: vec![],
    };
    assert!(gm
        .change_request_with_proof(&foreign, &repo, &comparator)
        .is_err());
    // nobody got expelled by garbage
    let domain = gm.membership().domain(DomainId(1)).expect("domain exists");
    assert_eq!(domain.active_count(), 4);
}
