//! PBFT protocol messages and their wire encoding.
//!
//! Message set from Castro–Liskov \[7\]: `REQUEST`, `PRE-PREPARE`,
//! `PREPARE`, `COMMIT`, `REPLY`, `CHECKPOINT`, `VIEW-CHANGE`, `NEW-VIEW`,
//! plus the state-transfer pair (`STATE-FETCH`/`STATE-DATA`) used by
//! proactive recovery and by lagging replicas.
//!
//! Normal-case messages are authenticated with MAC authenticators \[8\];
//! view-change and checkpoint messages are signed (as in the original PBFT
//! paper) so they can be embedded as transferable proofs.

use std::sync::OnceLock;

use itdos_crypto::hash::{Digest, Sha256};

use crate::config::{ClientId, ReplicaId, SeqNo, View};
use crate::wire::{Reader, Wire, WireError, Writer};
use xbytes::{wire_enum, wire_frame, wire_struct, Bytes};

/// A client's operation request.
///
/// Immutable once built: the fields feed [`ClientRequest::digest`], which
/// is computed at most once per object and remembered, so they are
/// reachable through accessors only. Equality ignores the memo. The
/// operation is shared: a request decoded from a received frame holds a
/// slice of it, and the log's and batches' clones share that one buffer.
#[derive(Clone)]
pub struct ClientRequest {
    client: ClientId,
    timestamp: u64,
    trace: u64,
    operation: Bytes,
    digest: OnceLock<Digest>,
}

impl ClientRequest {
    /// Builds a request. `trace` is the causal trace id (0 = untraced);
    /// `operation` is opaque (in ITDOS: an encrypted SMIOP frame).
    pub fn new(
        client: ClientId,
        timestamp: u64,
        trace: u64,
        operation: impl Into<Bytes>,
    ) -> ClientRequest {
        ClientRequest {
            client,
            timestamp,
            trace,
            operation: operation.into(),
            digest: OnceLock::new(),
        }
    }

    /// Requesting client.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Client-local timestamp providing exactly-once semantics.
    pub fn timestamp(&self) -> u64 {
        self.timestamp
    }

    /// Causal trace id (ITDOS extension): stamped by the invoking client
    /// so a batch's agreement rounds can be attributed to the end-to-end
    /// invocation that caused them. 0 means untraced. Part of the digest:
    /// a replica cannot silently re-attribute a request.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Opaque operation bytes.
    pub fn operation(&self) -> &[u8] {
        &self.operation
    }

    /// The request digest used throughout the three-phase protocol,
    /// hashed on first use and looked up afterwards (clones carry it).
    pub fn digest(&self) -> Digest {
        *self.digest.get_or_init(|| {
            Digest::of_parts(&[
                b"bft-req",
                &self.client.0.to_le_bytes(),
                &self.timestamp.to_le_bytes(),
                &self.trace.to_le_bytes(),
                &self.operation,
            ])
        })
    }

    /// Takes `held`'s digest memo when `held` is this very request — same
    /// client, timestamp, trace and operation bytes — and this one has none
    /// yet. The memo is then exactly what hashing would give, because the
    /// preimage is byte-equal; comparing the operation costs one `memcmp`
    /// where hashing it costs a pass of SHA-256. Returns whether it took one.
    pub(crate) fn recall(&self, held: &ClientRequest) -> bool {
        match held.digest.get() {
            Some(&digest) if self.digest.get().is_none() && self == held => {
                self.digest.set(digest).is_ok()
            }
            _ => false,
        }
    }

    /// The digest memo, if this request has been hashed or has recalled one.
    #[cfg(test)]
    pub(crate) fn memo(&self) -> Option<Digest> {
        self.digest.get().copied()
    }
}

impl PartialEq for ClientRequest {
    fn eq(&self, other: &ClientRequest) -> bool {
        (self.client, self.timestamp, self.trace) == (other.client, other.timestamp, other.trace)
            && self.operation == other.operation
    }
}

impl Eq for ClientRequest {}

impl std::fmt::Debug for ClientRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientRequest")
            .field("client", &self.client)
            .field("timestamp", &self.timestamp)
            .field("trace", &self.trace)
            .field("operation", &&self.operation[..])
            .finish()
    }
}

/// An ordered group of requests agreed under one sequence number —
/// Castro–Liskov's batching optimization, amortizing the three-phase
/// quadratic message cost over `len()` requests.
///
/// The batch digest binds the count and every request digest in order, so
/// two batches containing the same requests in different orders (or one
/// with a request dropped or injected) never collide. An *empty* batch is
/// the null operation used by new-view gap filling; it executes nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Batch {
    /// The requests, in execution order.
    pub requests: Vec<ClientRequest>,
}

impl Batch {
    /// A batch of one request (the unbatched protocol).
    pub fn single(request: ClientRequest) -> Batch {
        Batch {
            requests: vec![request],
        }
    }

    /// The batch digest agreed by the three-phase protocol: the request
    /// digests are streamed into it, one at a time.
    pub fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"bft-batch");
        h.update(&(self.requests.len() as u64).to_le_bytes());
        for request in &self.requests {
            h.update(request.digest().as_bytes());
        }
        h.finish()
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True for the null batch.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Primary's ordering proposal for one batch of requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrePrepare {
    /// View in which the order is proposed.
    pub view: View,
    /// Proposed sequence number.
    pub seq: SeqNo,
    /// Digest of the embedded batch.
    pub digest: Digest,
    /// The full batch (piggybacked, as in PBFT).
    pub batch: Batch,
}

/// Backup's agreement to the proposed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prepare {
    /// View number.
    pub view: View,
    /// Sequence number.
    pub seq: SeqNo,
    /// Request digest.
    pub digest: Digest,
    /// Sending replica.
    pub replica: ReplicaId,
}

/// Replica's commitment to execute at the agreed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// View number.
    pub view: View,
    /// Sequence number.
    pub seq: SeqNo,
    /// Request digest.
    pub digest: Digest,
    /// Sending replica.
    pub replica: ReplicaId,
}

/// Execution result returned to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// View in which the request executed.
    pub view: View,
    /// Echo of the request timestamp.
    pub timestamp: u64,
    /// The client addressed.
    pub client: ClientId,
    /// Replying replica.
    pub replica: ReplicaId,
    /// Execution result bytes.
    pub result: Vec<u8>,
}

/// Periodic proof of state at a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Sequence number of the checkpointed state.
    pub seq: SeqNo,
    /// Digest of the application state at `seq`.
    pub state_digest: Digest,
    /// Sending replica.
    pub replica: ReplicaId,
}

/// A prepared certificate carried in a view change: the pre-prepare plus
/// 2f matching prepares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedProof {
    /// The ordering proposal.
    pub pre_prepare: PrePrepare,
    /// 2f prepares matching it.
    pub prepares: Vec<Prepare>,
}

/// A replica's vote to move to a new view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChange {
    /// The view being moved to.
    pub new_view: View,
    /// Last stable checkpoint sequence.
    pub stable_seq: SeqNo,
    /// 2f+1 checkpoint messages proving `stable_seq`.
    pub checkpoint_proof: Vec<Checkpoint>,
    /// Prepared certificates above `stable_seq`.
    pub prepared: Vec<PreparedProof>,
    /// Sending replica.
    pub replica: ReplicaId,
}

/// The new primary's installation message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewView {
    /// The view being installed.
    pub view: View,
    /// 2f+1 view-change messages justifying the change.
    pub view_changes: Vec<ViewChange>,
    /// Re-issued pre-prepares for requests that must carry over.
    pub pre_prepares: Vec<PrePrepare>,
    /// The new primary.
    pub primary: ReplicaId,
}

/// Request for state transfer starting at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateFetch {
    /// The requester wants the stable state at or above this sequence.
    pub seq: SeqNo,
    /// Requesting replica.
    pub replica: ReplicaId,
}

/// State transfer payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateData {
    /// Sequence number of the snapshot.
    pub seq: SeqNo,
    /// Application snapshot bytes.
    pub snapshot: Vec<u8>,
    /// 2f+1 checkpoints proving the snapshot digest.
    pub proof: Vec<Checkpoint>,
    /// Sending replica.
    pub replica: ReplicaId,
}

/// Any protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client request.
    Request(ClientRequest),
    /// Ordering proposal.
    PrePrepare(PrePrepare),
    /// Order agreement.
    Prepare(Prepare),
    /// Execution commitment.
    Commit(Commit),
    /// Execution result.
    Reply(Reply),
    /// State proof.
    Checkpoint(Checkpoint),
    /// View-change vote.
    ViewChange(ViewChange),
    /// View installation.
    NewView(NewView),
    /// State transfer request.
    StateFetch(StateFetch),
    /// State transfer payload.
    StateData(StateData),
}

/// Bound on every decoded vector length (hostile-length defence).
const MAX_VEC: u32 = 1 << 16;

/// Hand-written: the fields are private and a decoded request starts with
/// an empty digest memo, which only [`ClientRequest::new`] builds.
impl Wire for ClientRequest {
    fn put(&self, w: &mut Writer) {
        self.client.put(w);
        self.timestamp.put(w);
        self.trace.put(w);
        self.operation.put(w);
    }

    fn take(r: &mut Reader<'_>) -> Result<ClientRequest, WireError> {
        Ok(ClientRequest::new(
            Wire::take(r)?,
            Wire::take(r)?,
            Wire::take(r)?,
            Bytes::take(r)?,
        ))
    }
}

wire_struct!(Batch { requests <= MAX_VEC });
wire_struct!(PrePrepare {
    view,
    seq,
    digest,
    batch
});
wire_struct!(Prepare {
    view,
    seq,
    digest,
    replica
});
wire_struct!(Commit {
    view,
    seq,
    digest,
    replica
});
wire_struct!(Reply {
    view,
    timestamp,
    client,
    replica,
    result
});
wire_struct!(Checkpoint {
    seq,
    state_digest,
    replica
});
wire_struct!(PreparedProof { pre_prepare, prepares <= MAX_VEC });
wire_struct!(ViewChange {
    new_view,
    stable_seq,
    checkpoint_proof <= MAX_VEC,
    prepared <= MAX_VEC,
    replica,
});
wire_struct!(NewView {
    view,
    view_changes <= MAX_VEC,
    pre_prepares <= MAX_VEC,
    primary,
});
wire_struct!(StateFetch { seq, replica });
wire_struct!(StateData { seq, snapshot, proof <= MAX_VEC, replica });
wire_enum!(Message {
    1 => Request(m),
    2 => PrePrepare(m),
    3 => Prepare(m),
    4 => Commit(m),
    5 => Reply(m),
    6 => Checkpoint(m),
    7 => ViewChange(m),
    8 => NewView(m),
    9 => StateFetch(m),
    10 => StateData(m),
});
wire_frame!(Message);

impl Message {
    /// A short protocol-phase label for network statistics.
    pub fn label(&self) -> &'static str {
        match self {
            Message::Request(_) => "bft-request",
            Message::PrePrepare(_) => "bft-pre-prepare",
            Message::Prepare(_) => "bft-prepare",
            Message::Commit(_) => "bft-commit",
            Message::Reply(_) => "bft-reply",
            Message::Checkpoint(_) => "bft-checkpoint",
            Message::ViewChange(_) => "bft-view-change",
            Message::NewView(_) => "bft-new-view",
            Message::StateFetch(_) => "bft-state-fetch",
            Message::StateData(_) => "bft-state-data",
        }
    }

    /// What a MAC authenticator on this message covers, given `payload`,
    /// the message's own encoding — the one definition the send and
    /// receive paths share.
    ///
    /// A request is covered through its memoised digest, and a
    /// pre-prepare through its fields and its batch's digest, so the one
    /// pass over a request body serves both the MAC and the protocol, and
    /// a replica relaying or batching a request it holds MACs without
    /// touching the body. Every decoded field is bound: the request digest
    /// binds client, timestamp, trace and operation, and the batch digest
    /// binds the count and every request digest. Every other message is
    /// covered by `H(payload)`, whose preimage starts with the message's
    /// tag byte (1–10), never with the `b` of these two labels.
    pub fn mac_digest(&self, payload: &[u8]) -> Digest {
        match self {
            Message::Request(request) => {
                Digest::of_parts(&[b"bft-mac-request", request.digest().as_bytes()])
            }
            Message::PrePrepare(pp) => Digest::of_parts(&[
                b"bft-mac-pre-prepare",
                &pp.view.0.to_le_bytes(),
                &pp.seq.0.to_le_bytes(),
                pp.digest.as_bytes(),
                pp.batch.digest().as_bytes(),
            ]),
            _ => Digest::of(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> ClientRequest {
        ClientRequest::new(ClientId(9), 3, (9 << 32) | 3, vec![1, 2, 3])
    }

    fn sample_pre_prepare() -> PrePrepare {
        let batch = Batch {
            requests: vec![
                sample_request(),
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

    fn all_messages() -> Vec<Message> {
        let req = sample_request();
        let pp = sample_pre_prepare();
        let prepare = Prepare {
            view: View(1),
            seq: SeqNo(5),
            digest: req.digest(),
            replica: ReplicaId(2),
        };
        let commit = Commit {
            view: View(1),
            seq: SeqNo(5),
            digest: req.digest(),
            replica: ReplicaId(2),
        };
        let checkpoint = Checkpoint {
            seq: SeqNo(16),
            state_digest: Digest::of(b"state"),
            replica: ReplicaId(1),
        };
        let vc = ViewChange {
            new_view: View(2),
            stable_seq: SeqNo(16),
            checkpoint_proof: vec![checkpoint],
            prepared: vec![PreparedProof {
                pre_prepare: pp.clone(),
                prepares: vec![prepare],
            }],
            replica: ReplicaId(3),
        };
        vec![
            Message::Request(req.clone()),
            Message::PrePrepare(pp.clone()),
            Message::Prepare(prepare),
            Message::Commit(commit),
            Message::Reply(Reply {
                view: View(1),
                timestamp: 3,
                client: ClientId(9),
                replica: ReplicaId(0),
                result: vec![42],
            }),
            Message::Checkpoint(checkpoint),
            Message::ViewChange(vc.clone()),
            Message::NewView(NewView {
                view: View(2),
                view_changes: vec![vc],
                pre_prepares: vec![pp],
                primary: ReplicaId(2),
            }),
            Message::StateFetch(StateFetch {
                seq: SeqNo(16),
                replica: ReplicaId(1),
            }),
            Message::StateData(StateData {
                seq: SeqNo(16),
                snapshot: vec![7, 8],
                proof: vec![checkpoint],
                replica: ReplicaId(0),
            }),
        ]
    }

    #[test]
    fn batch_digest_binds_order_count_and_content() {
        let a = sample_request();
        let b = ClientRequest::new(ClientId(10), 1, 0, vec![4, 5]);
        let ab = Batch {
            requests: vec![a.clone(), b.clone()],
        };
        let ba = Batch {
            requests: vec![b.clone(), a.clone()],
        };
        assert_ne!(ab.digest(), ba.digest(), "order matters");
        let just_a = Batch::single(a.clone());
        assert_ne!(ab.digest(), just_a.digest(), "dropped request detected");
        assert_ne!(just_a.digest(), a.digest(), "batch-of-one != raw request");
        let null = Batch::default();
        assert!(null.is_empty());
        assert_ne!(null.digest(), just_a.digest());
    }

    #[test]
    fn hostile_batch_length_rejected() {
        // a PRE-PREPARE claiming 2^30 requests in its batch
        let mut w = Writer::new();
        w.u8(2).u64(0).u64(1);
        w.raw(&[0u8; 32]);
        w.u32(1 << 30);
        assert!(Message::decode(&w.finish()).is_err());
    }

    #[test]
    fn digest_is_content_sensitive() {
        let a = sample_request();
        // one field off at a time, built fresh: a request cannot be edited
        let variants = [
            ClientRequest::new(ClientId(8), 3, (9 << 32) | 3, vec![1, 2, 3]),
            ClientRequest::new(ClientId(9), 4, (9 << 32) | 3, vec![1, 2, 3]),
            ClientRequest::new(ClientId(9), 3, (9 << 32) | 4, vec![1, 2, 3]),
            ClientRequest::new(ClientId(9), 3, (9 << 32) | 3, vec![0, 2, 3]),
        ];
        for v in &variants {
            assert_ne!(a, *v);
            assert_ne!(a.digest(), v.digest(), "{v:?}");
        }
    }

    /// The memo is invisible: equality and `Debug` ignore it, a clone
    /// carries it, and a second call returns the first call's value.
    #[test]
    fn digest_memo_is_not_part_of_the_value() {
        let hashed = sample_request();
        let first = hashed.digest();
        let fresh = sample_request();
        assert_eq!(hashed, fresh, "hashed == never hashed");
        assert_eq!(format!("{hashed:?}"), format!("{fresh:?}"));
        assert_eq!(hashed.clone().digest(), first);
        assert_eq!(hashed.digest(), first);
        assert_eq!(fresh.digest(), first);
    }

    /// A memo is recalled only from an equal, hashed request, and only into
    /// one not yet hashed. Any field off — client, timestamp, trace, one
    /// operation bit, one operation byte fewer — leaves the memo empty, and
    /// the digest is then a fresh hash of the request's own fields.
    #[test]
    fn recall_takes_only_an_equal_requests_memo() {
        let held = ClientRequest::new(ClientId(9), 3, 77, vec![1, 2, 3, 4]);
        let copy = ClientRequest::new(ClientId(9), 3, 77, vec![1, 2, 3, 4]);
        assert!(
            !copy.recall(&held),
            "nothing to take from an unhashed request"
        );
        assert_eq!(copy.memo(), None);
        let digest = held.digest();
        assert!(copy.recall(&held));
        assert_eq!(copy.memo(), Some(digest));
        assert!(!copy.recall(&held), "a memo is taken once");
        let variants = [
            ClientRequest::new(ClientId(8), 3, 77, vec![1, 2, 3, 4]),
            ClientRequest::new(ClientId(9), 4, 77, vec![1, 2, 3, 4]),
            ClientRequest::new(ClientId(9), 3, 78, vec![1, 2, 3, 4]),
            ClientRequest::new(ClientId(9), 3, 77, vec![1, 2, 3, 5]),
            ClientRequest::new(ClientId(9), 3, 77, vec![1, 2, 3]),
        ];
        for variant in variants {
            assert!(!variant.recall(&held), "{variant:?}");
            assert_eq!(variant.memo(), None, "{variant:?}");
            let fresh = Digest::of_parts(&[
                b"bft-req",
                &variant.client().0.to_le_bytes(),
                &variant.timestamp().to_le_bytes(),
                &variant.trace().to_le_bytes(),
                variant.operation(),
            ]);
            assert_eq!(variant.digest(), fresh, "{variant:?}");
            assert_ne!(variant.digest(), digest);
        }
    }

    /// Digests captured at the parent commit (e1d2979), before requests
    /// were memoised: the digest *formula* must not move, or replicas of
    /// different builds would disagree on every pre-prepare.
    #[test]
    fn request_and_batch_digests_match_parent_commit() {
        let request = |client, timestamp, trace, len: usize| {
            let operation: Vec<u8> = (0..len).map(|i| (i * 13 + 1) as u8).collect();
            ClientRequest::new(ClientId(client), timestamp, trace, operation)
        };
        let a = request(7, 1, 0, 0);
        let b = request(8, 2, 99, 130);
        let c = request(9, 3, u64::MAX, 16384);
        let hex = |d: Digest| d.to_hex();
        assert_eq!(
            hex(a.digest()),
            "8fb722a9e5e26919ba31d7ecf347189f78c4ea9aafe8612f8914646553ee205c"
        );
        assert_eq!(
            hex(b.digest()),
            "10c3e35679441f0a0ee8d4a7036919fb4eb2b49d7999927001f39bcd8fd5c10f"
        );
        assert_eq!(
            hex(c.digest()),
            "7d9453588ba9683fb77389921f857b139b2aed5baef9fa383232a8fa44e9f647"
        );
        let batch = Batch {
            requests: vec![a, b, c],
        };
        assert_eq!(
            hex(batch.digest()),
            "d78b84c7b669aca56b06510b70e5c0e016750b14ecd33fae7d8122a62480dc93"
        );
        assert_eq!(
            hex(Batch::default().digest()),
            "60a388c80c9ba95e8d7c3233e2800a8de69b8a82419330695a3d55e1ff251f97"
        );
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            all_messages().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), all_messages().len());
    }
}
