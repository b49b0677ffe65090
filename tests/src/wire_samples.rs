//! One sample value of every compact-wire shape, shared by the golden
//! vectors (`golden_wire.rs`), the law harness (`wire_laws.rs`) and the
//! decode fuzzers (`decode_fuzz.rs`).
//!
//! Neighbouring fields of equal width hold different values, so a
//! field-order slip moves a byte in the golden vectors.

use itdos::gm::{GmMachine, MAX_OPLOG};
use itdos::registry::ComparatorRegistry;
use itdos::wire::{
    decode_directives, encode_directives, AdmitNoticeMsg, ConnectionMeta, CoreMsg, DirectReplyMsg,
    Directive, FrameKind, GmOp, HealCmd, KeyShareMsg, NoticeMsg, SmiopFrame,
};
use itdos_bft::auth::{AuthProof, Envelope, KeyProvisioner, Peer};
use itdos_bft::config::{ClientId, GroupConfig, ReplicaId, SeqNo, View};
use itdos_bft::message::{
    Batch, Checkpoint, ClientRequest, Commit, Message, NewView, PrePrepare, Prepare, PreparedProof,
    Reply, StateData, StateFetch, ViewChange,
};
use itdos_bft::queue::{ElementId, QueueEntry, QueueMachine, QueueOp};
use itdos_bft::replica::{Output, Replica, To, TransferPayload};
use itdos_bft::state::{CounterMachine, StateMachine};
use itdos_bft::wire::{decode_seq, encode_seq, put_seq, Wire, WireError, Writer};
use itdos_crypto::hash::Digest;
use itdos_crypto::keys::SymmetricKey;
use itdos_crypto::mac::Authenticator;
use itdos_crypto::sign::{Signature, SigningKey, VerifyingKey};
use itdos_giop::idl::InterfaceRepository;
use itdos_groupmgr::manager::ConnectionId;
use itdos_groupmgr::membership::{DomainId, DomainRecord, ElementRecord, Endpoint, Membership};
use itdos_vote::detector::{FaultProof, SignedReply};
use itdos_vote::vote::SenderId;
use xbytes::Bytes;

fn signature() -> Signature {
    SigningKey::from_seed(b"s").sign(b"m")
}

fn verifying_key() -> VerifyingKey {
    SigningKey::from_seed(b"r").verifying_key()
}

fn request() -> ClientRequest {
    ClientRequest::new(ClientId(9), 3, (9 << 32) | 3, vec![1, 2, 3])
}

/// Requests carrying the edge trace ids (the other samples carry 0 and
/// `(9 << 32) | 3`): the trace id travels whole.
fn traced_requests() -> Vec<ClientRequest> {
    [1, u64::MAX]
        .map(|trace| ClientRequest::new(ClientId(7), 11, trace, vec![9, 9]))
        .to_vec()
}

fn pre_prepare() -> PrePrepare {
    let batch = Batch {
        requests: vec![
            request(),
            ClientRequest::new(ClientId(10), 1, 0, vec![4, 5]),
        ],
    };
    PrePrepare {
        view: View(1),
        seq: SeqNo(5),
        digest: batch.digest(),
        batch,
    }
}

fn checkpoint() -> Checkpoint {
    Checkpoint {
        seq: SeqNo(16),
        state_digest: Digest::of(b"state"),
        replica: ReplicaId(1),
    }
}

fn prepare() -> Prepare {
    Prepare {
        view: View(1),
        seq: SeqNo(5),
        digest: request().digest(),
        replica: ReplicaId(2),
    }
}

fn prepared_proof() -> PreparedProof {
    PreparedProof {
        pre_prepare: pre_prepare(),
        prepares: vec![prepare()],
    }
}

fn view_change() -> ViewChange {
    ViewChange {
        new_view: View(2),
        stable_seq: SeqNo(16),
        checkpoint_proof: vec![checkpoint()],
        prepared: vec![prepared_proof()],
        replica: ReplicaId(3),
    }
}

/// Every `Message` variant; the pre-prepare twice (a 2-request and an
/// empty batch), a view change with both proofs, a new view embedding it.
pub fn messages() -> Vec<Message> {
    vec![
        Message::Request(request()),
        Message::PrePrepare(pre_prepare()),
        Message::PrePrepare(PrePrepare {
            view: View(3),
            seq: SeqNo(9),
            digest: Batch::default().digest(),
            batch: Batch::default(),
        }),
        Message::Prepare(prepare()),
        Message::Commit(Commit {
            view: View(4),
            seq: SeqNo(6),
            digest: Digest::of(b"commit"),
            replica: ReplicaId(1),
        }),
        Message::Reply(Reply {
            view: View(1),
            timestamp: 3,
            client: ClientId(9),
            replica: ReplicaId(0),
            result: Bytes::from_static(&[42]),
        }),
        Message::Checkpoint(checkpoint()),
        Message::ViewChange(view_change()),
        Message::NewView(NewView {
            view: View(2),
            view_changes: vec![view_change()],
            pre_prepares: vec![pre_prepare()],
            primary: ReplicaId(2),
        }),
        Message::StateFetch(StateFetch {
            seq: SeqNo(16),
            replica: ReplicaId(1),
        }),
        Message::StateData(StateData {
            seq: SeqNo(16),
            snapshot: Bytes::from_static(&[7, 8]),
            proof: vec![checkpoint()],
            replica: ReplicaId(3),
        }),
    ]
}

/// Both `AuthProof`s and both `Peer`s: a replica's MAC authenticator, a
/// replica's signature, a client's MAC authenticator — each over a short
/// opaque payload, as the envelope layer sees it.
pub fn envelopes() -> Vec<Envelope> {
    let keys = KeyProvisioner::new([7u8; 32]);
    let macs = |pair: &dyn Fn(ReplicaId) -> SymmetricKey, payload: &[u8]| {
        let pairs: Vec<SymmetricKey> = (0..4).map(|i| pair(ReplicaId(i))).collect();
        AuthProof::Macs(Authenticator::generate(&pairs, payload))
    };
    let envelope = |sender, payload: &'static [u8], auth| Envelope {
        sender,
        payload: Bytes::from_static(payload),
        auth,
    };
    let replica = ReplicaId(2);
    vec![
        envelope(
            Peer::Replica(replica),
            &[1, 2],
            macs(&|r| keys.replica_pair(replica, r), &[1, 2]),
        ),
        envelope(
            Peer::Replica(replica),
            &[3],
            AuthProof::Signature(keys.signing_key(replica).sign(&[3])),
        ),
        envelope(
            Peer::Client(ClientId(5)),
            &[4],
            macs(&|r| keys.client_pair(ClientId(5), r), &[4]),
        ),
    ]
}

/// Every `QueueOp` variant.
pub fn queue_ops() -> Vec<QueueOp> {
    vec![
        QueueOp::Deliver(vec![1, 2, 3]),
        QueueOp::Ack {
            element: ElementId(7),
            up_to: 42,
        },
        QueueOp::Expel(ElementId(2)),
        QueueOp::Join(ElementId(5)),
    ]
}

fn meta() -> ConnectionMeta {
    ConnectionMeta {
        connection: ConnectionId(7),
        epoch: 2,
        client_code: 42,
        client_domain: Some(DomainId(3)),
        server_domain: DomainId(1),
    }
}

/// Every `CoreMsg` variant.
pub fn core_msgs() -> Vec<CoreMsg> {
    vec![
        CoreMsg::Bft {
            domain: DomainId(4),
            envelope: vec![1, 2, 3, 4, 5].into(),
        },
        CoreMsg::KeyShare(KeyShareMsg {
            meta: meta(),
            gm_code: 1_000_050,
            sealed: vec![9; 24],
        }),
        CoreMsg::DirectReply(DirectReplyMsg {
            connection: ConnectionId(7),
            epoch: 3,
            sender: SenderId(6),
            sequence: 41,
            sealed: vec![8; 12],
            signature: signature(),
        }),
        CoreMsg::Notice(NoticeMsg {
            gm_code: 1_000_051,
            domain: DomainId(5),
            expelled: SenderId(2),
            sealed: vec![3; 8],
        }),
        CoreMsg::AdmitNotice(AdmitNoticeMsg {
            gm_code: 1_000_052,
            domain: DomainId(5),
            admitted: SenderId(30),
            replaced: SenderId(2),
            slot: 1,
            node: 99,
            epoch: 7,
            verifying_key: verifying_key(),
            sealed: vec![4; 8],
        }),
    ]
}

/// An `SmiopFrame` of each `FrameKind`.
pub fn smiop_frames() -> Vec<SmiopFrame> {
    [FrameKind::Request, FrameKind::Reply]
        .into_iter()
        .map(|kind| SmiopFrame {
            connection: ConnectionId(9),
            epoch: 3,
            kind,
            sender_code: 1_000_002,
            request_id: 5,
            sequence: 77,
            sealed: vec![6; 16],
            signature: signature(),
        })
        .collect()
}

fn signed_reply() -> SignedReply {
    SignedReply {
        sender: SenderId(0),
        sequence: 1,
        frame: vec![5, 5],
        signature: signature(),
    }
}

fn fault_proof() -> FaultProof {
    FaultProof {
        accused: vec![SenderId(3)],
        request_id: 9,
        messages: vec![signed_reply()],
    }
}

/// Every `GmOp` variant; `Open` with and without a client domain, the
/// change proof carrying one signed reply.
pub fn gm_ops() -> Vec<GmOp> {
    vec![
        GmOp::Open {
            client: Endpoint::Singleton(9),
            client_domain: None,
            target: DomainId(1),
        },
        GmOp::Open {
            client: Endpoint::Element(SenderId(4)),
            client_domain: Some(DomainId(2)),
            target: DomainId(1),
        },
        GmOp::ChangeProof(fault_proof()),
        GmOp::ChangeVote {
            accuser: SenderId(0),
            accused: SenderId(3),
        },
        GmOp::Close(ConnectionId(2)),
        GmOp::Admit {
            domain: DomainId(1),
            replacement: SenderId(14),
            replaced: SenderId(3),
            node: 22,
            verifying_key: verifying_key(),
        },
        GmOp::Retire {
            domain: DomainId(1),
            element: SenderId(2),
        },
    ]
}

/// One list holding every `Directive` variant.
pub fn directives() -> Vec<Directive> {
    vec![
        Directive::KeyDist {
            meta: meta(),
            input: [7u8; 32],
            recipients: vec![1, 1_000_000],
        },
        Directive::Refused(2),
        Directive::Expelled {
            domain: DomainId(1),
            element: SenderId(3),
        },
        Directive::VoteRecorded,
        Directive::Admitted {
            domain: DomainId(1),
            element: SenderId(14),
            replaced: SenderId(3),
            slot: 2,
            node: 22,
            epoch: 1,
            verifying_key: verifying_key(),
        },
        Directive::Retired {
            domain: DomainId(1),
            element: SenderId(2),
        },
    ]
}

/// Both `HealCmd`s.
pub fn heal_cmds() -> Vec<HealCmd> {
    vec![
        HealCmd::Accuse {
            accused: SenderId(7),
        },
        HealCmd::Retire,
    ]
}

/// The state-transfer payload replica 0 of a four-replica group
/// checkpoints after two clients ran two requests each: the counter
/// snapshot plus two clients' reply caches of two replies.
pub fn transfer_payload() -> Vec<u8> {
    let mut config = GroupConfig::for_f(1);
    config.checkpoint_interval = 4;
    let mut replicas: Vec<Replica<CounterMachine>> = (0..4)
        .map(|i| Replica::new(config.clone(), ReplicaId(i), CounterMachine::new()))
        .collect();
    for (client, timestamp, delta) in [(7, 1, 5), (8, 1, -2), (7, 2, 11), (8, 2, 1)] {
        let op = CounterMachine::op(delta);
        replicas[0].on_request(ClientRequest::new(ClientId(client), timestamp, 0, op));
        // relay replica-to-replica traffic until the group is quiet
        while let Some((from, outputs)) = (0..4u32)
            .map(|i| (i, crate::common::outputs(&mut replicas[i as usize])))
            .find(|(_, outputs)| !outputs.is_empty())
        {
            for output in outputs {
                let (to, message) = match output {
                    Output::Send(To::Replica(to), message) => (vec![to.0], message),
                    Output::Send(To::All, message) => {
                        ((0..4).filter(|to| *to != from).collect(), message)
                    }
                    _ => continue,
                };
                for to in to {
                    replicas[to as usize].on_message(ReplicaId(from), message.clone());
                }
            }
        }
    }
    let (seq, (_, payload)) = replicas[0]
        .log()
        .latest_own_checkpoint()
        .expect("four executions reach the checkpoint interval");
    assert_eq!(seq, SeqNo(4));
    payload.to_vec()
}

/// A queue holding two messages, one member's ack ahead of the others.
pub fn queue_machine() -> QueueMachine {
    let mut queue = QueueMachine::new(100, (0..3).map(ElementId));
    for (n, op) in [
        QueueOp::Deliver(vec![1, 2, 3]),
        QueueOp::Deliver(vec![4]),
        QueueOp::Ack {
            element: ElementId(1),
            up_to: 1,
        },
    ]
    .into_iter()
    .enumerate()
    {
        queue.apply(op, Digest::of(&[n as u8]));
    }
    queue
}

/// A Group Manager machine with no operation applied yet: domain 1 of
/// four elements and singleton client 9.
fn gm_machine() -> GmMachine {
    let mut membership = Membership::new();
    membership.register_domain(DomainRecord::new(
        DomainId(1),
        1,
        (0..4u32)
            .map(|i| ElementRecord {
                id: SenderId(i),
                verifying_key: SigningKey::from_seed(&i.to_le_bytes()).verifying_key(),
            })
            .collect(),
    ));
    membership.register_singleton(9, SigningKey::from_seed(b"c").verifying_key());
    GmMachine::new(
        membership,
        [5u8; 32],
        InterfaceRepository::new(),
        ComparatorRegistry::new(),
    )
}

/// The snapshot of `gm_machine` after an open, a vote and a malformed
/// operation (the log keeps all three).
pub fn gm_snapshot() -> Vec<u8> {
    let mut machine = gm_machine();
    for operation in [gm_ops()[0].encode(), gm_ops()[3].encode(), vec![1, 2, 3]] {
        machine.execute(&operation, Digest::default());
    }
    machine.snapshot()
}

// ---- the type list ---------------------------------------------------------

/// One compact-wire type (or free-standing list) with valid encodings of
/// it, type-erased so the law harness and the fuzzers walk one list.
pub struct Case {
    /// The type's name.
    pub name: &'static str,
    /// Valid encodings of sample values.
    pub samples: Vec<Vec<u8>>,
    /// Decodes a whole buffer and encodes the value again.
    pub recode: fn(&[u8]) -> Result<Vec<u8>, WireError>,
    /// As `recode`, decoding from a received (shared) buffer — the path
    /// whose `Bytes` fields are slices of it.
    pub recode_shared: fn(&Bytes) -> Result<Vec<u8>, WireError>,
    /// Decodes a whole buffer and writes the value again down every
    /// writer path.
    pub rewrite: fn(&[u8]) -> Result<Rewritten, WireError>,
    /// For a tagged type: every tag value it declares (the tag is byte 0).
    pub tags: &'static [u8],
    /// Where `samples[0]` holds an element count, and that count's bound.
    pub counts: Vec<(usize, u32)>,
}

/// One value written down every path a [`Writer`] has.
#[derive(Debug)]
pub struct Rewritten {
    /// The value's `Wire::wire_len` (for a list: its presized encoding's
    /// length).
    pub wire_len: usize,
    /// `Wire::encode_shared`: a writer sized at `wire_len`.
    pub presized: Bytes,
    /// A writer started empty, grown by copying.
    pub grown: Bytes,
    /// A writer sized one byte short of the value, outrunning its bound.
    pub outrun: Bytes,
}

impl Rewritten {
    /// Writes with `put` down the two growing paths; `presized` is the
    /// caller's encoding at `wire_len`.
    fn new(wire_len: usize, presized: Bytes, put: impl Fn(&mut Writer)) -> Rewritten {
        let write = |mut w: Writer| {
            put(&mut w);
            w.finish()
        };
        Rewritten {
            wire_len,
            presized,
            grown: write(Writer::new()),
            outrun: write(Writer::with_capacity(wire_len.saturating_sub(1))),
        }
    }

    /// The three writers' bytes.
    pub fn paths(&self) -> [(&'static str, &Bytes); 3] {
        [
            ("presized", &self.presized),
            ("grown", &self.grown),
            ("outrun", &self.outrun),
        ]
    }
}

/// The payloads of `$variant` among a list of samples.
macro_rules! payloads {
    ($samples:expr, $variant:path) => {
        ($samples.into_iter())
            .filter_map(|sample| match sample {
                $variant(payload) => Some(payload),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
}

fn recode<T: Wire>(bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    T::decode(bytes).map(|value| value.encode())
}

fn recode_shared<T: Wire>(bytes: &Bytes) -> Result<Vec<u8>, WireError> {
    T::decode_shared(bytes).map(|value| value.encode())
}

fn rewrite<T: Wire>(bytes: &[u8]) -> Result<Rewritten, WireError> {
    let value = T::decode(bytes)?;
    Ok(Rewritten::new(
        value.wire_len(),
        value.encode_shared(),
        |w| value.put(w),
    ))
}

/// [`rewrite`] for a list that travels alone, of at most `max` items.
fn rewrite_seq<T: Wire>(bytes: &[u8], max: u32) -> Result<Rewritten, WireError> {
    let items = decode_seq::<T>(bytes, max)?;
    let presized = encode_seq(&items);
    Ok(Rewritten::new(presized.len(), presized, |w| {
        put_seq(w, items.iter())
    }))
}

fn case<T: Wire>(samples: &[T]) -> Case {
    Case {
        name: std::any::type_name::<T>(),
        samples: samples.iter().map(Wire::encode).collect(),
        recode: recode::<T>,
        recode_shared: recode_shared::<T>,
        rewrite: rewrite::<T>,
        tags: &[],
        counts: Vec::new(),
    }
}

impl Case {
    fn tags(mut self, tags: &'static [u8]) -> Case {
        self.tags = tags;
        self
    }

    fn count(mut self, offset: usize, bound: u32) -> Case {
        self.counts.push((offset, bound));
        self
    }
}

/// Every `Wire` type in the workspace — generated or hand-written — and
/// the two lists that travel alone. `wire_laws.rs` fails when a `Wire`
/// impl is not named here. Bounds are spelled as numbers on purpose: they
/// pin the values the decoders must keep rejecting at.
pub fn cases() -> Vec<Case> {
    const MAX_VEC: u32 = 65_536;
    const MAX_PROOF_ITEMS: u32 = 1_024;
    const MAX_TABLE: u32 = 65_536;
    const MAX_SNAPSHOT_ITEMS: u32 = 1 << 20;
    let (envelopes, core_msgs, queue) = (envelopes(), core_msgs(), queue_machine());
    let proofs: Vec<AuthProof> = envelopes.iter().map(|e| e.auth.clone()).collect();
    vec![
        // xbytes::wire primitives
        case::<u8>(&[7]),
        case::<u32>(&[0xDEAD_BEEF]),
        case::<u64>(&[u64::MAX - 1]),
        case::<[u8; 3]>(&[[1, 2, 3]]),
        case::<Vec<u8>>(&[vec![], vec![1, 2]]),
        case::<Bytes>(&[Bytes::new(), Bytes::from_static(&[1, 2])]),
        case::<Option<u32>>(&[None, Some(5)]).tags(&[0, 1]),
        // itdos-crypto
        case::<Digest>(&[Digest::of(b"d")]),
        case::<Signature>(&[signature()]),
        case::<VerifyingKey>(&[verifying_key()]),
        case::<Authenticator>(&payloads!(proofs.clone(), AuthProof::Macs)),
        // itdos-vote
        case::<SenderId>(&[SenderId(3)]),
        case::<SignedReply>(&[signed_reply()]),
        case::<FaultProof>(&[fault_proof()])
            .count(0, MAX_PROOF_ITEMS)
            .count(4 + 4 + 8, MAX_PROOF_ITEMS),
        // itdos-groupmgr
        case::<DomainId>(&[DomainId(4)]),
        case::<ConnectionId>(&[ConnectionId(7)]),
        case::<Endpoint>(&[Endpoint::Singleton(9), Endpoint::Element(SenderId(4))]),
        // itdos-bft
        case::<ReplicaId>(&[ReplicaId(2)]),
        case::<ClientId>(&[ClientId(9)]),
        case::<View>(&[View(1)]),
        case::<SeqNo>(&[SeqNo(5)]),
        case::<ClientRequest>(&[vec![request()], traced_requests()].concat()),
        case::<Batch>(&[
            pre_prepare().batch,
            Batch::default(),
            Batch {
                requests: traced_requests(),
            },
        ])
        .count(0, MAX_VEC),
        case::<PrePrepare>(&[pre_prepare()]).count(48, MAX_VEC),
        case::<Prepare>(&[prepare()]),
        case::<Commit>(&payloads!(messages(), Message::Commit)),
        case::<Reply>(&payloads!(messages(), Message::Reply)),
        case::<Checkpoint>(&[checkpoint()]),
        case::<PreparedProof>(&[prepared_proof()]).count(pre_prepare().encode().len(), MAX_VEC),
        case::<ViewChange>(&[view_change()])
            .count(16, MAX_VEC)
            .count(16 + 4 + checkpoint().encode().len(), MAX_VEC),
        case::<NewView>(&payloads!(messages(), Message::NewView))
            .count(8, MAX_VEC)
            .count(8 + 4 + view_change().encode().len(), MAX_VEC),
        case::<StateFetch>(&payloads!(messages(), Message::StateFetch)),
        case::<StateData>(&payloads!(messages(), Message::StateData)).count(8 + 4 + 2, MAX_VEC),
        case::<Message>(&messages()).tags(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
        case::<Peer>(&[Peer::Replica(ReplicaId(2)), Peer::Client(ClientId(5))]).tags(&[0, 1]),
        case::<AuthProof>(&proofs).tags(&[0, 1]),
        case::<Envelope>(&envelopes).tags(&[0, 1]),
        case::<ElementId>(&[ElementId(7)]),
        case::<QueueOp>(&queue_ops()).tags(&[0, 1, 2, 3]),
        case::<QueueEntry>(&queue.entries().cloned().collect::<Vec<_>>()),
        case::<QueueMachine>(&[queue])
            .count(48, MAX_SNAPSHOT_ITEMS)
            .count(48 + 4 + (12 + 3) + (12 + 1), MAX_SNAPSHOT_ITEMS),
        Case {
            samples: vec![transfer_payload()],
            ..case::<TransferPayload<'_>>(&[])
        }
        .count(4 + 16, MAX_TABLE)
        .count(4 + 16 + 4 + 8 + 8, MAX_TABLE),
        // itdos (core)
        case::<ConnectionMeta>(&[meta()]),
        case::<KeyShareMsg>(&payloads!(core_msgs.clone(), CoreMsg::KeyShare)),
        case::<DirectReplyMsg>(&payloads!(core_msgs.clone(), CoreMsg::DirectReply)),
        case::<NoticeMsg>(&payloads!(core_msgs.clone(), CoreMsg::Notice)),
        case::<AdmitNoticeMsg>(&payloads!(core_msgs.clone(), CoreMsg::AdmitNotice)),
        case::<CoreMsg>(&core_msgs).tags(&[1, 2, 3, 4, 5]),
        case::<FrameKind>(&[FrameKind::Request, FrameKind::Reply]).tags(&[0, 1]),
        case::<SmiopFrame>(&smiop_frames()),
        case::<GmOp>(&gm_ops()).tags(&[1, 2, 3, 4, 5, 6]),
        case::<Directive>(&directives())
            .tags(&[1, 2, 3, 4, 5, 6])
            .count(1 + meta().encode().len() + 32, MAX_PROOF_ITEMS),
        case::<HealCmd>(&heal_cmds()).tags(&[1, 2]),
        // lists that travel alone
        Case {
            name: "directive list",
            samples: vec![encode_directives(&directives())],
            recode: |bytes| decode_directives(bytes).map(|list| encode_directives(&list)),
            // a list that travels alone holds no `Bytes`: both paths read a slice
            recode_shared: |bytes| decode_directives(bytes).map(|list| encode_directives(&list)),
            rewrite: |bytes| rewrite_seq::<Directive>(bytes, MAX_PROOF_ITEMS),
            tags: &[],
            counts: vec![(0, MAX_PROOF_ITEMS)],
        },
        Case {
            name: "GmMachine snapshot",
            samples: vec![gm_snapshot()],
            recode: |bytes| {
                decode_seq::<Vec<u8>>(bytes, MAX_OPLOG).map(|log| encode_seq(&log).to_vec())
            },
            recode_shared: |bytes| {
                decode_seq::<Vec<u8>>(bytes, MAX_OPLOG).map(|log| encode_seq(&log).to_vec())
            },
            rewrite: |bytes| rewrite_seq::<Vec<u8>>(bytes, MAX_OPLOG),
            tags: &[],
            counts: vec![(0, MAX_OPLOG)],
        },
    ]
}
