//! The BFT client protocol.
//!
//! "A singleton client sends an invocation message to a replica group. The
//! replicas decide on the total order … Each replica computes the response
//! and delivers it to the client directly. The client waits for f+1 replies
//! with the same result; this is the result of the operation" (§3.1,
//! describing Castro–Liskov).
//!
//! At this layer replies are compared byte-for-byte — in ITDOS the BFT
//! reply is a *static acknowledgement*, identical on all correct replicas
//! regardless of platform; the real CORBA reply travels separately and is
//! voted by the VVM (§3.1).
//!
//! The default window of one outstanding request is the classic PBFT
//! client (and the ITDOS §3.6 connection model); [`Client::set_window`]
//! raises it so a pipelining caller can keep several timestamps in flight
//! and let the primary batch them under one sequence number.
//!
//! Retransmission is deadline-driven and sans-IO: the client stamps each
//! request with the time it was last broadcast (the owner's clock, in µs)
//! and its owner keeps **one** timer per client. A retransmit timer covers
//! requests, not the channel's history — when it fires only the requests
//! whose own deadline has passed are due, and it dies when nothing is
//! undecided.

use std::collections::VecDeque;

use crate::config::{ClientId, GroupConfig, ReplicaId};
use crate::message::{ClientRequest, Reply};

/// One in-flight request's reply collection state.
#[derive(Debug, Clone)]
struct Outstanding {
    request: ClientRequest,
    /// The latest reply from each replica that answered, in arrival order
    /// (room for all `n` is made when the request starts).
    replies: Vec<(ReplicaId, Vec<u8>)>,
    /// When the request was last broadcast (owner's clock, µs).
    sent_at: u64,
}

/// A BFT client for one replica group.
///
/// At most `window` undecided requests at a time (default 1 — §3.6: "only
/// one outstanding request can exist for a connection"); each in-flight
/// request collects replies independently, keyed by its timestamp.
///
/// # Examples
///
/// ```
/// use itdos_bft::client::Client;
/// use itdos_bft::config::{ClientId, GroupConfig};
///
/// let mut client = Client::new(ClientId(7), GroupConfig::for_f(1));
/// let request = client.start_request(vec![1, 2, 3], 0).expect("no outstanding request");
/// assert_eq!(request.client(), ClientId(7));
/// ```
#[derive(Debug, Clone)]
pub struct Client {
    id: ClientId,
    config: GroupConfig,
    next_timestamp: u64,
    window: usize,
    /// Undecided requests in timestamp order; an entry is removed the
    /// moment its result is accepted, so late replies are discarded
    /// without penalty. Its buffer is sized to the window when a request
    /// first needs room, and kept.
    outstanding: VecDeque<Outstanding>,
    /// When the owner's one pending retransmit timer fires, if one is
    /// armed. It only prevents duplicates — what is due is recomputed
    /// from the per-request stamps at every firing.
    timer_at: Option<u64>,
}

impl Client {
    /// Creates a client with a window of one outstanding request.
    pub fn new(id: ClientId, config: GroupConfig) -> Client {
        Client {
            id,
            config,
            next_timestamp: 1,
            window: 1,
            outstanding: VecDeque::new(),
            timer_at: None,
        }
    }

    /// The client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Sets the number of requests that may be in flight concurrently
    /// (clamped to at least 1).
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// The configured in-flight window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// True while the in-flight window is full.
    pub fn busy(&self) -> bool {
        self.outstanding.len() >= self.window
    }

    /// Number of undecided requests in flight.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Starts a request broadcast at `now`; returns the message to send to
    /// the group, or `None` if the window is full.
    pub fn start_request(&mut self, operation: Vec<u8>, now: u64) -> Option<ClientRequest> {
        self.start_request_traced(operation, 0, now)
    }

    /// Starts a request carrying a causal trace id (0 = untraced); the id
    /// rides the request through batching and agreement so the ordering
    /// work can be attributed to the invocation that caused it.
    pub fn start_request_traced(
        &mut self,
        operation: Vec<u8>,
        trace: u64,
        now: u64,
    ) -> Option<ClientRequest> {
        if self.busy() {
            return None;
        }
        let timestamp = self.next_timestamp;
        self.next_timestamp = self.next_timestamp.saturating_add(1);
        let request = ClientRequest::new(self.id, timestamp, trace, operation);
        // hashed before it is kept, so every retransmitted clone carries the
        // digest its MAC covers
        request.digest();
        if self.outstanding.len() == self.outstanding.capacity() {
            self.outstanding
                .reserve_exact(self.window.saturating_sub(self.outstanding.len()));
        }
        // timestamps only grow, so the newest request goes last
        self.outstanding.push_back(Outstanding {
            request: request.clone(),
            replies: Vec::with_capacity(self.config.n),
            sent_at: now,
        });
        Some(request)
    }

    /// Call after starting requests. Returns the delay after which the
    /// owner must fire its retransmit timer, or `None` when one is already
    /// pending (or nothing is undecided): at most one timer per client.
    pub fn arm_retransmit(&mut self, now: u64, timeout: u64) -> Option<u64> {
        if self.timer_at.is_some() {
            return None;
        }
        let deadline = self
            .outstanding
            .iter()
            .map(|o| o.sent_at.saturating_add(timeout))
            .min()?;
        self.timer_at = Some(deadline);
        Some(deadline.saturating_sub(now))
    }

    /// Call when the retransmit timer fires. Returns the undecided
    /// requests not broadcast for `timeout` (oldest first; PBFT clients
    /// retransmit to all replicas, which triggers reply resend or a view
    /// change), stamped as broadcast at `now`, and the delay until the
    /// earliest remaining deadline — `None` lets the timer die because
    /// nothing is undecided. A request started just before the timer
    /// fires is not retransmitted early.
    pub fn due(&mut self, now: u64, timeout: u64) -> (Vec<ClientRequest>, Option<u64>) {
        if self.timer_at.is_some_and(|at| now < at) {
            // a stray timer (e.g. one set by a replaced process): the
            // armed one is still pending and will do the work
            return (Vec::new(), None);
        }
        self.timer_at = None;
        let mut due = Vec::new();
        for outstanding in self.outstanding.iter_mut() {
            if outstanding.sent_at.saturating_add(timeout) <= now {
                outstanding.sent_at = now;
                due.push(outstanding.request.clone());
            }
        }
        (due, self.arm_retransmit(now, timeout))
    }

    /// Processes one reply. Returns `(timestamp, result)` the first time
    /// f+1 matching replies have arrived for that timestamp.
    pub fn on_reply(&mut self, reply: Reply) -> Option<(u64, Vec<u8>)> {
        let threshold = self.config.weak_quorum();
        if reply.client != self.id || reply.replica.0 as usize >= self.config.n {
            return None;
        }
        let index = self
            .outstanding
            .binary_search_by_key(&reply.timestamp, |o| o.request.timestamp())
            .ok()?;
        let replies = &mut self.outstanding.get_mut(index)?.replies;
        // a replica's later reply replaces its earlier one
        let slot = match replies.iter().position(|(r, _)| *r == reply.replica) {
            Some(slot) => {
                let held = replies.get_mut(slot)?;
                held.1 = reply.result;
                slot
            }
            None => {
                replies.push((reply.replica, reply.result));
                replies.len().saturating_sub(1)
            }
        };
        // only the arriving value's count changed, so only it can have
        // newly reached f+1: every other value is below it still
        let arrived = &replies.get(slot)?.1;
        let matching = replies.iter().filter(|(_, r)| r == arrived).count();
        if matching < threshold {
            return None;
        }
        let mut decided = self.outstanding.remove(index)?;
        Some((reply.timestamp, decided.replies.swap_remove(slot).1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::View;

    fn reply(client: &Client, replica: u32, ts: u64, result: &[u8]) -> Reply {
        Reply {
            view: View(0),
            timestamp: ts,
            client: client.id(),
            replica: ReplicaId(replica),
            result: result.to_vec(),
        }
    }

    fn client() -> Client {
        Client::new(ClientId(1), GroupConfig::for_f(1))
    }

    #[test]
    fn accepts_on_f_plus_1_matching() {
        let mut c = client();
        c.start_request(vec![0], 0).unwrap();
        assert_eq!(c.on_reply(reply(&c, 0, 1, b"ok")), None);
        assert_eq!(
            c.on_reply(reply(&c, 1, 1, b"ok")),
            Some((1, b"ok".to_vec()))
        );
    }

    #[test]
    fn byzantine_reply_does_not_count_toward_quorum() {
        let mut c = client();
        c.start_request(vec![0], 0).unwrap();
        assert_eq!(c.on_reply(reply(&c, 0, 1, b"evil")), None);
        assert_eq!(c.on_reply(reply(&c, 1, 1, b"ok")), None);
        assert_eq!(
            c.on_reply(reply(&c, 2, 1, b"ok")),
            Some((1, b"ok".to_vec()))
        );
    }

    #[test]
    fn duplicate_replica_replies_overwrite_not_double_count() {
        let mut c = client();
        c.start_request(vec![0], 0).unwrap();
        assert_eq!(c.on_reply(reply(&c, 0, 1, b"ok")), None);
        assert_eq!(
            c.on_reply(reply(&c, 0, 1, b"ok")),
            None,
            "same replica twice"
        );
    }

    /// Only the arriving value's count can newly reach f+1: a replica that
    /// changes its reply moves its vote, and the decision hands over the
    /// value that reached f+1.
    #[test]
    fn a_replaced_reply_moves_its_vote() {
        let mut c = client();
        c.start_request(vec![0], 0).unwrap();
        assert_eq!(c.on_reply(reply(&c, 0, 1, b"a")), None);
        assert_eq!(
            c.on_reply(reply(&c, 0, 1, b"b")),
            None,
            "replaced, not added"
        );
        assert_eq!(c.on_reply(reply(&c, 1, 1, b"a")), None, "a has one vote");
        assert_eq!(c.on_reply(reply(&c, 2, 1, b"b")), Some((1, b"b".to_vec())));
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn one_request_at_a_time_by_default() {
        let mut c = client();
        c.start_request(vec![0], 0).unwrap();
        assert!(c.start_request(vec![1], 0).is_none());
        assert!(c.busy());
        c.on_reply(reply(&c, 0, 1, b"ok"));
        c.on_reply(reply(&c, 1, 1, b"ok"));
        assert!(!c.busy(), "decided");
        assert!(c.start_request(vec![1], 0).is_some());
    }

    #[test]
    fn window_allows_pipelined_requests() {
        let mut c = client();
        c.set_window(3);
        let r1 = c.start_request(vec![1], 0).unwrap();
        let r2 = c.start_request(vec![2], 0).unwrap();
        let r3 = c.start_request(vec![3], 0).unwrap();
        assert!(c.busy(), "window of 3 full");
        assert!(c.start_request(vec![4], 0).is_none());
        assert!(r1.timestamp() < r2.timestamp() && r2.timestamp() < r3.timestamp());
        // replies may decide out of submission order
        c.on_reply(reply(&c, 0, r2.timestamp(), b"b"));
        assert_eq!(
            c.on_reply(reply(&c, 1, r2.timestamp(), b"b")),
            Some((r2.timestamp(), b"b".to_vec()))
        );
        assert_eq!(c.in_flight(), 2);
        assert!(!c.busy(), "slot freed");
        let (due, _) = c.due(100, 100);
        let due: Vec<u64> = due.iter().map(ClientRequest::timestamp).collect();
        assert_eq!(due, vec![r1.timestamp(), r3.timestamp()], "oldest first");
    }

    /// Replies collected across undecided requests.
    fn collected(c: &Client) -> usize {
        c.outstanding.iter().map(|o| o.replies.len()).sum()
    }

    #[test]
    fn stale_timestamp_ignored() {
        let mut c = client();
        c.start_request(vec![0], 0).unwrap();
        c.on_reply(reply(&c, 0, 1, b"ok"));
        c.on_reply(reply(&c, 1, 1, b"ok"));
        c.start_request(vec![1], 0).unwrap();
        // replies for ts=1 arrive late during ts=2
        assert_eq!(c.on_reply(reply(&c, 2, 1, b"ok")), None);
        assert_eq!(collected(&c), 0);
    }

    #[test]
    fn out_of_range_replica_ignored() {
        let mut c = client();
        c.start_request(vec![0], 0).unwrap();
        assert_eq!(c.on_reply(reply(&c, 99, 1, b"ok")), None);
        assert_eq!(collected(&c), 0);
    }

    #[test]
    fn retransmit_returns_outstanding_request() {
        let mut c = client();
        let req = c.start_request(vec![5], 0).unwrap();
        assert_eq!(c.due(100, 100), (vec![req], Some(100)));
        c.on_reply(reply(&c, 0, 1, b"ok"));
        c.on_reply(reply(&c, 1, 1, b"ok"));
        assert_eq!(
            c.due(200, 100),
            (vec![], None),
            "decided requests are not retransmitted, and the timer dies"
        );
    }

    /// A retransmission is a clone of the kept request: it must carry the
    /// digest memo, or each one hashes the body again for its MAC.
    #[test]
    fn retransmitted_requests_carry_the_digest_memo() {
        let mut c = client();
        let sent = c.start_request(vec![5; 64], 0).unwrap();
        assert_eq!(sent.memo(), Some(sent.digest()));
        let (due, _) = c.due(100, 100);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].memo(), Some(sent.digest()));
    }

    #[test]
    fn due_table() {
        // nothing outstanding: nothing to send, no deadline
        let mut c = client();
        c.set_window(2);
        assert_eq!(c.due(1_000, 100), (vec![], None));
        assert_eq!(c.arm_retransmit(1_000, 100), None);
        // one due + one not: one request, the other's remaining time
        let old = c.start_request(vec![1], 1_000).unwrap();
        assert_eq!(c.arm_retransmit(1_000, 100), Some(100));
        let young = c.start_request(vec![2], 1_099).unwrap();
        assert_eq!(c.arm_retransmit(1_099, 100), None, "one timer only");
        assert_eq!(c.due(1_100, 100), (vec![old.clone()], Some(99)));
        // a stray timer before the armed deadline does nothing
        assert_eq!(c.due(1_150, 100), (vec![], None));
        // each request keeps its own period
        assert_eq!(c.due(1_199, 100), (vec![young], Some(1)));
        assert_eq!(c.due(1_200, 100), (vec![old], Some(99)));
    }

    #[test]
    fn due_time_deltas_saturate() {
        let mut c = client();
        let req = c.start_request(vec![1], u64::MAX - 5).unwrap();
        assert_eq!(c.arm_retransmit(u64::MAX - 5, 100), Some(5));
        assert_eq!(c.due(u64::MAX, 100), (vec![req], Some(0)));
        // a clock that went backwards never underflows the remaining time
        let mut c = client();
        c.start_request(vec![1], 500).unwrap();
        assert_eq!(c.arm_retransmit(900, 100), Some(0));
    }

    #[test]
    fn timestamps_strictly_increase() {
        let mut c = client();
        let r1 = c.start_request(vec![0], 0).unwrap();
        c.on_reply(reply(&c, 0, r1.timestamp(), b"ok"));
        c.on_reply(reply(&c, 1, r1.timestamp(), b"ok"));
        let r2 = c.start_request(vec![1], 0).unwrap();
        assert!(r2.timestamp() > r1.timestamp());
    }
}
