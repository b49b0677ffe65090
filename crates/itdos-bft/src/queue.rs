//! The ITDOS message-queue state machine (§3.1).
//!
//! ITDOS's key adaptation of Castro–Liskov: "An ITDOS server implements a
//! message queue that *is* the state machine. Whenever Castro–Liskov
//! synchronizes the replica state, the message queue is synchronized."
//! Replicas converge on the totally-ordered queue of delivered messages
//! instead of on application object state — which is what makes state
//! synchronization "scalable to large object servers".
//!
//! The queue lives in a bounded memory region, so it "must be
//! garbage-collected and more memory made available for incoming
//! messages". GC consumption acknowledgements flow through the same total
//! order (they are queue operations), so all replicas truncate
//! identically. An element that stops acknowledging blocks GC; once the
//! queue backs up past a threshold the element is reported as a *laggard*
//! and must be expelled to make progress — "this step essentially adds
//! virtual synchrony \[2\] to the system".

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use itdos_crypto::hash::Digest;

use crate::state::StateMachine;
use crate::wire::{put_seq, read_whole, take_seq, Reader, Wire, WireError, Writer};
use xbytes::{wire_enum, wire_frame, wire_struct, Bytes};

/// Identifies a replication domain element within its queue group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElementId(pub u32);

/// An operation applied to the queue state machine (the BFT `operation`
/// bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueOp {
    /// Append a message to the queue.
    Deliver(Vec<u8>),
    /// Element `element` has consumed every message with index < `up_to`.
    Ack {
        /// Acknowledging element.
        element: ElementId,
        /// One past the highest consumed index.
        up_to: u64,
    },
    /// Remove `element` from the GC membership (virtual-synchrony
    /// expulsion).
    Expel(ElementId),
    /// Add `element` to the GC membership.
    Join(ElementId),
}

/// Wire tag of [`QueueOp::Deliver`], whose payload [`delivered`] reads in
/// place.
const DELIVER_TAG: u8 = 0;

/// Wire tag of [`QueueOp::Join`], the one op [`QueueMachine::is_barrier`]
/// must recognise without decoding.
const JOIN_TAG: u8 = 3;

wire_struct!(ElementId(id));
wire_enum!(QueueOp {
    DELIVER_TAG => Deliver(payload),
    1 => Ack { element, up_to },
    2 => Expel(element),
    JOIN_TAG => Join(element),
});
wire_frame!(QueueOp);

/// The payload of a [`QueueOp::Deliver`] encoded in `operation`, read in
/// place: the bytes [`QueueOp::decode`] would copy into `Deliver`, for a
/// host that has already had the op executed and only reads the message.
/// `None` for any other op and for bytes that do not decode.
pub fn delivered(operation: &[u8]) -> Option<&[u8]> {
    read_whole(operation, |r| match r.u8()? {
        DELIVER_TAG => r.bytes(),
        _ => Err(WireError),
    })
    .ok()
}

/// The bytes of `QueueOp::Deliver(message.encode())`, written into one
/// buffer: the tag, the length prefix and the message itself, with no
/// separately encoded copy of the message.
pub fn deliver(message: &impl Wire) -> Bytes {
    let len = message.wire_len();
    let mut w = Writer::with_capacity(len.saturating_add(5));
    w.u8(DELIVER_TAG).count(len);
    message.put(&mut w);
    w.finish()
}

/// One queued message with its absolute index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueEntry {
    /// Absolute (never reused) index.
    pub index: u64,
    /// Message payload.
    pub payload: Vec<u8>,
}

wire_struct!(QueueEntry { index, payload });

/// Result of applying a queue operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied {
    /// Message enqueued at this index.
    Enqueued(u64),
    /// Queue full: the message was refused (callers must GC / expel).
    Refused,
    /// Ack/expel/join applied; GC freed this many bytes.
    Collected(u64),
}

/// The replicated message queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueMachine {
    capacity: usize,
    entries: VecDeque<QueueEntry>,
    next_index: u64,
    bytes_used: usize,
    acks: BTreeMap<ElementId, u64>,
    members: BTreeSet<ElementId>,
    /// Running hash chain over the digest of every ordered request (the
    /// checkpoint digest).
    chain: Digest,
}

impl QueueMachine {
    /// Creates a queue bounded to `capacity` payload bytes, with the given
    /// initial GC membership.
    pub fn new(capacity: usize, members: impl IntoIterator<Item = ElementId>) -> QueueMachine {
        let members: BTreeSet<ElementId> = members.into_iter().collect();
        QueueMachine {
            capacity,
            entries: VecDeque::new(),
            next_index: 0,
            bytes_used: 0,
            acks: members.iter().map(|m| (*m, 0)).collect(),
            members,
            chain: Digest::of(b"itdos-queue-genesis"),
        }
    }

    /// The messages currently retained, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.iter()
    }

    /// Payload bytes currently held.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Index that will be assigned to the next enqueued message.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Current GC members.
    pub fn members(&self) -> impl Iterator<Item = ElementId> + '_ {
        self.members.iter().copied()
    }

    /// Members whose acknowledgement lags `window` or more messages behind
    /// the queue head while the queue is above half capacity — the
    /// virtual-synchrony expulsion candidates.
    pub fn laggards(&self, window: u64) -> Vec<ElementId> {
        if self.bytes_used.saturating_mul(2) < self.capacity {
            return Vec::new();
        }
        self.members
            .iter()
            .filter(|m| {
                let acked = self.acks.get(m).copied().unwrap_or(0);
                self.next_index.saturating_sub(acked) >= window
            })
            .copied()
            .collect()
    }

    fn mix_chain(&mut self, link: &[u8]) {
        self.chain = Digest::of_parts(&[b"itdos-queue-link", self.chain.as_bytes(), link]);
    }

    /// Applies one decoded operation, keeping a delivered payload without
    /// copying it. `request_digest` is the digest of the ordered request
    /// that carried it: the chain links that agreed value, so an operation
    /// is never hashed (or re-encoded) here.
    pub fn apply(&mut self, op: QueueOp, request_digest: Digest) -> Applied {
        let link = request_digest.as_bytes();
        match op {
            QueueOp::Deliver(payload) => {
                let used = self.bytes_used.checked_add(payload.len());
                let Some(used) = used.filter(|&used| used <= self.capacity) else {
                    // refusal is part of the replicated state (all replicas
                    // refuse identically), so it is chained too
                    self.mix_chain(b"refused");
                    return Applied::Refused;
                };
                self.mix_chain(link);
                let index = self.next_index;
                self.next_index = self.next_index.saturating_add(1);
                self.bytes_used = used;
                self.entries.push_back(QueueEntry { index, payload });
                Applied::Enqueued(index)
            }
            QueueOp::Ack { element, up_to } => {
                self.mix_chain(link);
                if self.members.contains(&element) {
                    let entry = self.acks.entry(element).or_insert(0);
                    if up_to > *entry {
                        *entry = up_to;
                    }
                }
                Applied::Collected(self.collect())
            }
            QueueOp::Expel(element) => {
                self.mix_chain(link);
                self.members.remove(&element);
                self.acks.remove(&element);
                Applied::Collected(self.collect())
            }
            QueueOp::Join(element) => {
                self.mix_chain(link);
                if self.members.insert(element) {
                    // a joiner starts acknowledged at the current head: it
                    // is only responsible for messages from now on
                    self.acks.insert(element, self.next_index);
                }
                Applied::Collected(0)
            }
        }
    }

    /// Truncates messages consumed by every member; returns bytes freed.
    fn collect(&mut self) -> u64 {
        let floor = self
            .members
            .iter()
            .map(|m| self.acks.get(m).copied().unwrap_or(0))
            .min()
            .unwrap_or(self.next_index);
        let mut freed = 0u64;
        while let Some(front) = self.entries.front() {
            if front.index < floor {
                freed = freed.saturating_add(front.payload.len() as u64);
                self.bytes_used = self.bytes_used.saturating_sub(front.payload.len());
                self.entries.pop_front();
            } else {
                break;
            }
        }
        freed
    }
}

impl StateMachine for QueueMachine {
    fn execute(&mut self, operation: &[u8], request_digest: Digest) -> Bytes {
        match QueueOp::decode(operation) {
            // the "static reply that acts as an acknowledgement message for
            // the protocol" (§3.1): a tag and, but for a refusal, a count,
            // allocated once at its size
            Ok(op) => match self.apply(op, request_digest) {
                Applied::Enqueued(index) => tagged(0, index),
                Applied::Refused => Bytes::from_static(&[1]),
                Applied::Collected(freed) => tagged(2, freed),
            },
            Err(_) => {
                self.mix_chain(b"malformed");
                Bytes::from_static(&[255])
            }
        }
    }

    fn digest(&self) -> Digest {
        self.chain
    }

    fn snapshot(&self) -> Vec<u8> {
        self.encode()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        if let Ok(restored) = QueueMachine::decode(snapshot) {
            *self = restored;
        }
    }

    fn is_barrier(&self, operation: &[u8]) -> bool {
        // a Join is the replacement admission barrier: every replica
        // forces a checkpoint right after executing it, so the joiner can
        // state-transfer from a quorum at exactly its admission point;
        // the tag is checked first so a bulk Deliver is not copied to learn
        // it is not a Join
        operation.first() == Some(&JOIN_TAG)
            && matches!(QueueOp::decode(operation), Ok(QueueOp::Join(_)))
    }
}

/// An execution result: `tag` then `value`, little-endian.
fn tagged(tag: u8, value: u64) -> Bytes {
    let mut w = Writer::with_capacity(9);
    w.u8(tag).u64(value);
    w.finish()
}

/// Bound on the retained messages and on the members one snapshot may
/// claim (hostile-length defence).
const MAX_SNAPSHOT_ITEMS: u32 = 1 << 20;

/// The snapshot format. Hand-written because it is a projection of the
/// machine: `bytes_used` is derived from the entries, and the member set
/// and the ack table travel as one list of `(member, ack)` pairs.
impl Wire for QueueMachine {
    fn put(&self, w: &mut Writer) {
        (self.capacity as u64).put(w);
        self.next_index.put(w);
        self.chain.put(w);
        put_seq(w, self.entries.iter());
        w.count(self.members.len());
        for member in &self.members {
            member.put(w);
            self.acks.get(member).copied().unwrap_or(0).put(w);
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<QueueMachine, WireError> {
        let capacity = usize::try_from(u64::take(r)?).map_err(|_| WireError)?;
        let next_index = Wire::take(r)?;
        let chain = Wire::take(r)?;
        let entries: Vec<QueueEntry> = take_seq(r, MAX_SNAPSHOT_ITEMS)?;
        let mut acks = BTreeMap::new();
        for _ in 0..r.count(MAX_SNAPSHOT_ITEMS)? {
            acks.insert(ElementId::take(r)?, u64::take(r)?);
        }
        Ok(QueueMachine {
            capacity,
            bytes_used: entries.iter().map(|e| e.payload.len()).sum(),
            entries: entries.into(),
            next_index,
            members: acks.keys().copied().collect(),
            acks,
            chain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: u32) -> Vec<ElementId> {
        (0..n).map(ElementId).collect()
    }

    fn queue(capacity: usize) -> QueueMachine {
        QueueMachine::new(capacity, members(3))
    }

    /// The digest a request carrying exactly `operation` would have here.
    fn digest_of(operation: &[u8]) -> Digest {
        Digest::of_parts(&[b"test-request", operation])
    }

    /// Test shorthand: feed an operation as the request with `digest_of` it.
    trait AsRequest {
        fn run(&mut self, op: &QueueOp) -> Applied;
        fn exec(&mut self, operation: &[u8]) -> Bytes;
    }

    impl AsRequest for QueueMachine {
        fn run(&mut self, op: &QueueOp) -> Applied {
            self.apply(op.clone(), digest_of(&op.encode()))
        }

        fn exec(&mut self, operation: &[u8]) -> Bytes {
            self.execute(operation, digest_of(operation))
        }
    }

    #[test]
    fn enqueue_assigns_increasing_indices() {
        let mut q = queue(1000);
        assert_eq!(q.run(&QueueOp::Deliver(vec![1])), Applied::Enqueued(0));
        assert_eq!(q.run(&QueueOp::Deliver(vec![2])), Applied::Enqueued(1));
        assert_eq!(q.next_index(), 2);
        assert_eq!(q.bytes_used(), 2);
    }

    #[test]
    fn full_queue_refuses() {
        let mut q = queue(4);
        assert_eq!(q.run(&QueueOp::Deliver(vec![0; 3])), Applied::Enqueued(0));
        assert_eq!(q.run(&QueueOp::Deliver(vec![0; 2])), Applied::Refused);
        assert_eq!(q.bytes_used(), 3, "refused message not stored");
    }

    #[test]
    fn gc_requires_all_members() {
        let mut q = queue(1000);
        q.run(&QueueOp::Deliver(vec![1; 10]));
        q.run(&QueueOp::Deliver(vec![2; 10]));
        // two of three members ack; no GC yet
        q.run(&QueueOp::Ack {
            element: ElementId(0),
            up_to: 2,
        });
        assert_eq!(
            q.run(&QueueOp::Ack {
                element: ElementId(1),
                up_to: 2
            }),
            Applied::Collected(0),
            "third member has not acked"
        );
        // third member acks: both messages collected
        assert_eq!(
            q.run(&QueueOp::Ack {
                element: ElementId(2),
                up_to: 2
            }),
            Applied::Collected(20)
        );
        assert_eq!(q.bytes_used(), 0);
    }

    #[test]
    fn expulsion_unblocks_gc() {
        let mut q = queue(1000);
        q.run(&QueueOp::Deliver(vec![1; 10]));
        q.run(&QueueOp::Ack {
            element: ElementId(0),
            up_to: 1,
        });
        q.run(&QueueOp::Ack {
            element: ElementId(1),
            up_to: 1,
        });
        assert_eq!(q.bytes_used(), 10, "element 2 blocks GC");
        // virtual synchrony: expel the non-participant; GC proceeds
        assert_eq!(q.run(&QueueOp::Expel(ElementId(2))), Applied::Collected(10));
        assert_eq!(q.bytes_used(), 0);
    }

    #[test]
    fn laggards_reported_when_queue_backs_up() {
        let mut q = queue(100);
        for _ in 0..6 {
            q.run(&QueueOp::Deliver(vec![0; 10]));
        }
        // members 0,1 keep up; member 2 never acks
        q.run(&QueueOp::Ack {
            element: ElementId(0),
            up_to: 6,
        });
        q.run(&QueueOp::Ack {
            element: ElementId(1),
            up_to: 6,
        });
        assert_eq!(q.laggards(4), vec![ElementId(2)]);
    }

    #[test]
    fn no_laggards_while_queue_has_headroom() {
        let mut q = queue(1000);
        q.run(&QueueOp::Deliver(vec![0; 10]));
        assert!(q.laggards(1).is_empty(), "under half capacity");
    }

    #[test]
    fn joiner_starts_at_current_head() {
        let mut q = queue(1000);
        q.run(&QueueOp::Deliver(vec![1; 10]));
        q.run(&QueueOp::Join(ElementId(9)));
        // the joiner owes no ack for the pre-join message
        q.run(&QueueOp::Ack {
            element: ElementId(0),
            up_to: 1,
        });
        q.run(&QueueOp::Ack {
            element: ElementId(1),
            up_to: 1,
        });
        assert_eq!(
            q.run(&QueueOp::Ack {
                element: ElementId(2),
                up_to: 1
            }),
            Applied::Collected(10)
        );
    }

    #[test]
    fn replicas_converge_digest() {
        let ops = vec![
            QueueOp::Deliver(vec![1, 2]),
            QueueOp::Ack {
                element: ElementId(0),
                up_to: 1,
            },
            QueueOp::Deliver(vec![3]),
        ];
        let mut a = queue(100);
        let mut b = queue(100);
        for op in &ops {
            a.exec(&op.encode());
            b.exec(&op.encode());
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
    }

    #[test]
    fn divergent_histories_have_divergent_digests() {
        let mut a = queue(100);
        let mut b = queue(100);
        a.exec(&QueueOp::Deliver(vec![1]).encode());
        b.exec(&QueueOp::Deliver(vec![2]).encode());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn chain_links_the_request_digest_not_the_bytes() {
        // the same operation ordered as two different requests (another
        // client, another timestamp) is a different history
        let op = QueueOp::Deliver(vec![1, 2]).encode();
        let mut a = queue(100);
        let mut b = queue(100);
        assert_eq!(
            a.execute(&op, Digest::of(b"request 1")),
            b.execute(&op, Digest::of(b"request 2"))
        );
        assert_ne!(a.digest(), b.digest());
        // while one digest chains identically whoever hashed it
        let mut c = queue(100);
        c.execute(&op, Digest::of(b"request 1"));
        assert_eq!(a.digest(), c.digest());
        assert_eq!(a, c);
    }

    #[test]
    fn restored_queue_continues_the_chain() {
        let mut q = queue(100);
        q.run(&QueueOp::Deliver(vec![1, 2, 3]));
        let mut r = QueueMachine::new(1, members(0));
        r.restore(&q.snapshot());
        let next = QueueOp::Deliver(vec![4]);
        assert_eq!(r.run(&next), q.run(&next));
        assert_eq!(r.digest(), q.digest());
        assert_eq!(r, q);
    }

    #[test]
    fn delivered_reads_what_decode_would_copy() {
        let ops = [
            QueueOp::Deliver(vec![7; 40]),
            QueueOp::Deliver(Vec::new()),
            QueueOp::Ack {
                element: ElementId(1),
                up_to: 9,
            },
            QueueOp::Expel(ElementId(2)),
            QueueOp::Join(ElementId(3)),
        ];
        for op in ops {
            let bytes = op.encode();
            let longer = [&bytes[..], &[0]].concat();
            for cut in (0..=bytes.len()).map(|n| &bytes[..n]).chain([&longer[..]]) {
                let copied = match QueueOp::decode(cut) {
                    Ok(QueueOp::Deliver(payload)) => Some(payload),
                    _ => None,
                };
                assert_eq!(delivered(cut).map(<[u8]>::to_vec), copied, "{op:?}");
            }
        }
    }

    #[test]
    fn deliver_writes_what_the_layered_encoding_does() {
        for len in [0, 130, 16 * 1024] {
            let message: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let layered = QueueOp::Deliver(message.encode()).encode();
            assert_eq!(deliver(&message), layered, "{len}-byte frame");
            assert_eq!(delivered(&layered), Some(&message.encode()[..]));
        }
    }

    #[test]
    fn only_a_well_formed_join_is_a_barrier() {
        let q = queue(100);
        assert!(q.is_barrier(&QueueOp::Join(ElementId(9)).encode()));
        assert!(!q.is_barrier(&QueueOp::Deliver(vec![3; 64]).encode()));
        assert!(!q.is_barrier(&QueueOp::Expel(ElementId(3)).encode()));
        assert!(!q.is_barrier(&[3]), "truncated Join");
        assert!(!q.is_barrier(&[]));
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut q = queue(100);
        q.run(&QueueOp::Deliver(vec![1, 2, 3]));
        q.run(&QueueOp::Ack {
            element: ElementId(0),
            up_to: 1,
        });
        let snap = q.snapshot();
        let mut r = QueueMachine::new(1, members(0));
        r.restore(&snap);
        assert_eq!(r, q);
        assert_eq!(r.digest(), q.digest());
    }

    #[test]
    fn corrupt_snapshot_leaves_state_unchanged() {
        let mut q = queue(100);
        q.run(&QueueOp::Deliver(vec![1]));
        let before = q.clone();
        q.restore(&[1, 2, 3]);
        assert_eq!(q, before);
    }

    #[test]
    fn malformed_op_is_deterministic() {
        let mut a = queue(100);
        let mut b = queue(100);
        assert_eq!(a.exec(&[99, 99]), vec![255]);
        assert_eq!(b.exec(&[99, 99]), vec![255]);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn ack_never_regresses() {
        let mut q = queue(100);
        q.run(&QueueOp::Deliver(vec![1]));
        q.run(&QueueOp::Ack {
            element: ElementId(0),
            up_to: 5,
        });
        q.run(&QueueOp::Ack {
            element: ElementId(0),
            up_to: 2,
        });
        // a Byzantine element cannot roll its own ack back to force
        // re-retention; floor for element 0 stays 5
        q.run(&QueueOp::Ack {
            element: ElementId(1),
            up_to: 5,
        });
        assert_eq!(
            q.run(&QueueOp::Ack {
                element: ElementId(2),
                up_to: 5
            }),
            Applied::Collected(1)
        );
    }
}
