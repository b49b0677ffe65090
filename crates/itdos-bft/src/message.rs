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

use itdos_crypto::hash::Digest;

use crate::config::{ClientId, ReplicaId, SeqNo, View};
use crate::wire::{Reader, WireError, Writer};

/// A client's operation request.
///
/// Immutable once built: the fields feed [`ClientRequest::digest`], which
/// is computed at most once per object and remembered, so they are
/// reachable through accessors only. Equality ignores the memo.
#[derive(Clone)]
pub struct ClientRequest {
    client: ClientId,
    timestamp: u64,
    trace: u64,
    operation: Vec<u8>,
    digest: OnceLock<Digest>,
}

impl ClientRequest {
    /// Builds a request. `trace` is the causal trace id (0 = untraced);
    /// `operation` is opaque (in ITDOS: an encrypted SMIOP frame).
    pub fn new(client: ClientId, timestamp: u64, trace: u64, operation: Vec<u8>) -> ClientRequest {
        ClientRequest {
            client,
            timestamp,
            trace,
            operation,
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
            .field("operation", &self.operation)
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

    /// The batch digest agreed by the three-phase protocol.
    pub fn digest(&self) -> Digest {
        let digests: Vec<Digest> = self.requests.iter().map(|r| r.digest()).collect();
        let count = (self.requests.len() as u64).to_le_bytes();
        let mut parts: Vec<&[u8]> = Vec::with_capacity(digests.len() + 2);
        parts.push(b"bft-batch");
        parts.push(&count);
        for d in &digests {
            parts.push(d.as_bytes());
        }
        Digest::of_parts(&parts)
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

const TAG_REQUEST: u8 = 1;
const TAG_PRE_PREPARE: u8 = 2;
const TAG_PREPARE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_REPLY: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;
const TAG_VIEW_CHANGE: u8 = 7;
const TAG_NEW_VIEW: u8 = 8;
const TAG_STATE_FETCH: u8 = 9;
const TAG_STATE_DATA: u8 = 10;

fn write_digest(w: &mut Writer, d: &Digest) {
    w.raw(d.as_bytes());
}

fn read_digest(r: &mut Reader<'_>) -> Result<Digest, WireError> {
    Ok(Digest(r.raw(32)?.try_into().map_err(|_| WireError)?))
}

fn write_request(w: &mut Writer, m: &ClientRequest) {
    w.u64(m.client.0);
    w.u64(m.timestamp);
    w.u64(m.trace);
    w.bytes(&m.operation);
}

fn read_request(r: &mut Reader<'_>) -> Result<ClientRequest, WireError> {
    Ok(ClientRequest::new(
        ClientId(r.u64()?),
        r.u64()?,
        r.u64()?,
        r.bytes()?.to_vec(),
    ))
}

fn write_pre_prepare(w: &mut Writer, m: &PrePrepare) {
    w.u64(m.view.0);
    w.u64(m.seq.0);
    write_digest(w, &m.digest);
    w.u32(m.batch.requests.len() as u32);
    for req in &m.batch.requests {
        write_request(w, req);
    }
}

fn read_pre_prepare(r: &mut Reader<'_>) -> Result<PrePrepare, WireError> {
    let view = View(r.u64()?);
    let seq = SeqNo(r.u64()?);
    let digest = read_digest(r)?;
    let n_req = bounded(r.u32()?)?;
    let mut requests = Vec::with_capacity(n_req.min(64) as usize);
    for _ in 0..n_req {
        requests.push(read_request(r)?);
    }
    Ok(PrePrepare {
        view,
        seq,
        digest,
        batch: Batch { requests },
    })
}

fn write_prepare(w: &mut Writer, m: &Prepare) {
    w.u64(m.view.0);
    w.u64(m.seq.0);
    write_digest(w, &m.digest);
    w.u32(m.replica.0);
}

fn read_prepare(r: &mut Reader<'_>) -> Result<Prepare, WireError> {
    Ok(Prepare {
        view: View(r.u64()?),
        seq: SeqNo(r.u64()?),
        digest: read_digest(r)?,
        replica: ReplicaId(r.u32()?),
    })
}

fn write_commit(w: &mut Writer, m: &Commit) {
    w.u64(m.view.0);
    w.u64(m.seq.0);
    write_digest(w, &m.digest);
    w.u32(m.replica.0);
}

fn read_commit(r: &mut Reader<'_>) -> Result<Commit, WireError> {
    Ok(Commit {
        view: View(r.u64()?),
        seq: SeqNo(r.u64()?),
        digest: read_digest(r)?,
        replica: ReplicaId(r.u32()?),
    })
}

fn write_checkpoint(w: &mut Writer, m: &Checkpoint) {
    w.u64(m.seq.0);
    write_digest(w, &m.state_digest);
    w.u32(m.replica.0);
}

fn read_checkpoint(r: &mut Reader<'_>) -> Result<Checkpoint, WireError> {
    Ok(Checkpoint {
        seq: SeqNo(r.u64()?),
        state_digest: read_digest(r)?,
        replica: ReplicaId(r.u32()?),
    })
}

fn write_view_change(w: &mut Writer, m: &ViewChange) {
    w.u64(m.new_view.0);
    w.u64(m.stable_seq.0);
    w.u32(m.checkpoint_proof.len() as u32);
    for c in &m.checkpoint_proof {
        write_checkpoint(w, c);
    }
    w.u32(m.prepared.len() as u32);
    for p in &m.prepared {
        write_pre_prepare(w, &p.pre_prepare);
        w.u32(p.prepares.len() as u32);
        for pr in &p.prepares {
            write_prepare(w, pr);
        }
    }
    w.u32(m.replica.0);
}

const MAX_VEC: u32 = 1 << 16;

fn bounded(len: u32) -> Result<u32, WireError> {
    if len > MAX_VEC {
        Err(WireError)
    } else {
        Ok(len)
    }
}

fn read_view_change(r: &mut Reader<'_>) -> Result<ViewChange, WireError> {
    let new_view = View(r.u64()?);
    let stable_seq = SeqNo(r.u64()?);
    let n_cp = bounded(r.u32()?)?;
    let mut checkpoint_proof = Vec::with_capacity(n_cp.min(64) as usize);
    for _ in 0..n_cp {
        checkpoint_proof.push(read_checkpoint(r)?);
    }
    let n_prep = bounded(r.u32()?)?;
    let mut prepared = Vec::with_capacity(n_prep.min(64) as usize);
    for _ in 0..n_prep {
        let pre_prepare = read_pre_prepare(r)?;
        let n_pr = bounded(r.u32()?)?;
        let mut prepares = Vec::with_capacity(n_pr.min(64) as usize);
        for _ in 0..n_pr {
            prepares.push(read_prepare(r)?);
        }
        prepared.push(PreparedProof {
            pre_prepare,
            prepares,
        });
    }
    Ok(ViewChange {
        new_view,
        stable_seq,
        checkpoint_proof,
        prepared,
        replica: ReplicaId(r.u32()?),
    })
}

impl Message {
    /// Encodes to the compact wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Message::Request(m) => {
                w.u8(TAG_REQUEST);
                write_request(&mut w, m);
            }
            Message::PrePrepare(m) => {
                w.u8(TAG_PRE_PREPARE);
                write_pre_prepare(&mut w, m);
            }
            Message::Prepare(m) => {
                w.u8(TAG_PREPARE);
                write_prepare(&mut w, m);
            }
            Message::Commit(m) => {
                w.u8(TAG_COMMIT);
                write_commit(&mut w, m);
            }
            Message::Reply(m) => {
                w.u8(TAG_REPLY);
                w.u64(m.view.0);
                w.u64(m.timestamp);
                w.u64(m.client.0);
                w.u32(m.replica.0);
                w.bytes(&m.result);
            }
            Message::Checkpoint(m) => {
                w.u8(TAG_CHECKPOINT);
                write_checkpoint(&mut w, m);
            }
            Message::ViewChange(m) => {
                w.u8(TAG_VIEW_CHANGE);
                write_view_change(&mut w, m);
            }
            Message::NewView(m) => {
                w.u8(TAG_NEW_VIEW);
                w.u64(m.view.0);
                w.u32(m.view_changes.len() as u32);
                for vc in &m.view_changes {
                    write_view_change(&mut w, vc);
                }
                w.u32(m.pre_prepares.len() as u32);
                for pp in &m.pre_prepares {
                    write_pre_prepare(&mut w, pp);
                }
                w.u32(m.primary.0);
            }
            Message::StateFetch(m) => {
                w.u8(TAG_STATE_FETCH);
                w.u64(m.seq.0);
                w.u32(m.replica.0);
            }
            Message::StateData(m) => {
                w.u8(TAG_STATE_DATA);
                w.u64(m.seq.0);
                w.bytes(&m.snapshot);
                w.u32(m.proof.len() as u32);
                for c in &m.proof {
                    write_checkpoint(&mut w, c);
                }
                w.u32(m.replica.0);
            }
        }
        w.finish()
    }

    /// Decodes from the wire format.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, trailing garbage, unknown tags, or
    /// hostile length fields — all reachable by a Byzantine peer.
    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            TAG_REQUEST => Message::Request(read_request(&mut r)?),
            TAG_PRE_PREPARE => Message::PrePrepare(read_pre_prepare(&mut r)?),
            TAG_PREPARE => Message::Prepare(read_prepare(&mut r)?),
            TAG_COMMIT => Message::Commit(read_commit(&mut r)?),
            TAG_REPLY => Message::Reply(Reply {
                view: View(r.u64()?),
                timestamp: r.u64()?,
                client: ClientId(r.u64()?),
                replica: ReplicaId(r.u32()?),
                result: r.bytes()?.to_vec(),
            }),
            TAG_CHECKPOINT => Message::Checkpoint(read_checkpoint(&mut r)?),
            TAG_VIEW_CHANGE => Message::ViewChange(read_view_change(&mut r)?),
            TAG_NEW_VIEW => {
                let view = View(r.u64()?);
                let n_vc = bounded(r.u32()?)?;
                let mut view_changes = Vec::with_capacity(n_vc.min(64) as usize);
                for _ in 0..n_vc {
                    view_changes.push(read_view_change(&mut r)?);
                }
                let n_pp = bounded(r.u32()?)?;
                let mut pre_prepares = Vec::with_capacity(n_pp.min(64) as usize);
                for _ in 0..n_pp {
                    pre_prepares.push(read_pre_prepare(&mut r)?);
                }
                Message::NewView(NewView {
                    view,
                    view_changes,
                    pre_prepares,
                    primary: ReplicaId(r.u32()?),
                })
            }
            TAG_STATE_FETCH => Message::StateFetch(StateFetch {
                seq: SeqNo(r.u64()?),
                replica: ReplicaId(r.u32()?),
            }),
            TAG_STATE_DATA => {
                let seq = SeqNo(r.u64()?);
                let snapshot = r.bytes()?.to_vec();
                let n = bounded(r.u32()?)?;
                let mut proof = Vec::with_capacity(n.min(64) as usize);
                for _ in 0..n {
                    proof.push(read_checkpoint(&mut r)?);
                }
                Message::StateData(StateData {
                    seq,
                    snapshot,
                    proof,
                    replica: ReplicaId(r.u32()?),
                })
            }
            _ => return Err(WireError),
        };
        r.expect_end()?;
        Ok(msg)
    }

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
    fn every_message_round_trips() {
        for msg in all_messages() {
            let bytes = msg.encode();
            assert_eq!(Message::decode(&bytes).unwrap(), msg, "{}", msg.label());
        }
    }

    /// The causal trace id survives `ClientRequest` wire round-trips —
    /// standalone and inside a batched pre-prepare — and is bound by the
    /// request digest so a replica cannot silently re-attribute it.
    #[test]
    fn client_request_trace_round_trips() {
        for trace in [0u64, 1, (7u64 << 32) | 3, u64::MAX] {
            let req = ClientRequest::new(ClientId(7), 11, trace, vec![9, 9]);
            let bytes = Message::Request(req.clone()).encode();
            let Message::Request(back) = Message::decode(&bytes).unwrap() else {
                panic!("wrong message kind");
            };
            assert_eq!(back, req);
            assert_eq!(back.trace(), trace);
            let pp = Message::PrePrepare(PrePrepare {
                view: View(0),
                seq: SeqNo(1),
                digest: Batch::single(req.clone()).digest(),
                batch: Batch::single(req.clone()),
            });
            let Message::PrePrepare(pp_back) = Message::decode(&pp.encode()).unwrap() else {
                panic!("wrong message kind");
            };
            assert_eq!(pp_back.batch.requests[0].trace(), trace);
        }
        let a = ClientRequest::new(ClientId(7), 11, 1, vec![9, 9]);
        let b = ClientRequest::new(ClientId(7), 11, 2, vec![9, 9]);
        assert_ne!(a.digest(), b.digest(), "trace is digest-bound");
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
    fn empty_batch_pre_prepare_round_trips() {
        let batch = Batch::default();
        let msg = Message::PrePrepare(PrePrepare {
            view: View(3),
            seq: SeqNo(9),
            digest: batch.digest(),
            batch,
        });
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
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

    /// Digests captured at the parent commit (e1d2979), before requests
    /// were memoised: the digest *formula* must not move, or replicas of
    /// different builds would disagree on every pre-prepare.
    #[test]
    fn request_and_batch_digests_match_parent_commit() {
        let request = |client, timestamp, trace, len: usize| {
            let operation = (0..len).map(|i| (i * 13 + 1) as u8).collect();
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
    fn unknown_tag_rejected() {
        assert!(Message::decode(&[200]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = all_messages()[2].encode();
        bytes.push(0);
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected_for_every_message() {
        for msg in all_messages() {
            let bytes = msg.encode();
            for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    Message::decode(&bytes[..cut]).is_err(),
                    "{} cut at {cut}",
                    msg.label()
                );
            }
        }
    }

    #[test]
    fn hostile_vector_length_rejected() {
        // craft a NEW-VIEW claiming 2^31 view-changes
        let mut w = Writer::new();
        w.u8(8).u64(1).u32(1 << 31);
        assert!(Message::decode(&w.finish()).is_err());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            all_messages().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), all_messages().len());
    }
}
