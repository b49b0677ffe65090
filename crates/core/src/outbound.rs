//! Outbound BFT client channels.
//!
//! Every endpoint that submits operations into some domain's ordering
//! group — a singleton client invoking a server, a server element making a
//! nested invocation or sending queue-control ops to its *own* group, any
//! process talking to the Group Manager — drives one [`Outbound`] per
//! target domain. It wraps the PBFT client protocol (send to all, collect
//! `f+1` matching ACKs, retransmit on timeout — one timer per channel,
//! one deadline per request, see [`Client::due`]). By default operations are
//! serialized one in flight per channel (§3.6's single outstanding
//! request); [`Outbound::set_window`] opens a pipelining window of several
//! in-flight operations — the BFT primary batches them under shared
//! sequence numbers — while accepted results are still released to the
//! owner strictly in submission order, so every caller keeps its FIFO
//! view of the channel.

use std::collections::VecDeque;

use itdos_bft::auth::{AuthContext, Envelope};
use itdos_bft::client::Client;
use itdos_bft::message::Message;
use itdos_groupmgr::membership::DomainId;
use simnet::{Context, SimDuration};
use xbytes::Bytes;

use crate::codes::{bft_client_id, pack_timer, TimerTag};
use crate::fabric::Fabric;
use crate::wire::bft_frame;

/// One outbound ordering channel to a target domain.
pub struct Outbound {
    target: DomainId,
    auth: AuthContext,
    client: Client,
    /// Queued `(operation, trace)` pairs awaiting a window slot.
    queue: VecDeque<(Vec<u8>, u64)>,
    /// In-flight operations in submission order, by timestamp, each with
    /// its result once decided; results are released to `accepted` only
    /// when the head decides (FIFO reorder).
    in_order: VecDeque<(u64, Option<Bytes>)>,
    /// Results of accepted operations, oldest first (drained by the owner).
    accepted: VecDeque<Bytes>,
}

impl std::fmt::Debug for Outbound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outbound")
            .field("target", &self.target)
            .field("queued", &self.queue.len())
            .field("busy", &self.client.busy())
            .finish()
    }
}

impl Outbound {
    /// Opens a channel from endpoint `code` to `target`'s ordering group.
    pub fn new(fabric: &Fabric, target: DomainId, code: u64) -> Outbound {
        let spec = fabric.domain(target);
        Outbound {
            target,
            auth: fabric.bft_auth_client(target, code),
            client: Client::new(bft_client_id(code), spec.config.clone()),
            queue: VecDeque::new(),
            in_order: VecDeque::new(),
            accepted: VecDeque::new(),
        }
    }

    /// Sets the pipelining window: how many operations may be in flight
    /// concurrently (default 1, the strict §3.6 serialization).
    pub fn set_window(&mut self, window: usize) {
        self.client.set_window(window);
    }

    /// The target domain.
    pub fn target(&self) -> DomainId {
        self.target
    }

    /// Queues an operation for ordered submission.
    pub fn submit(&mut self, ctx: &mut Context<'_>, fabric: &Fabric, op: Vec<u8>) {
        self.submit_traced(ctx, fabric, op, 0);
    }

    /// Queues an operation carrying a causal trace id (0 = untraced); the
    /// id rides the BFT request so ordering work is attributable to the
    /// invocation that caused it.
    pub(crate) fn submit_traced(
        &mut self,
        ctx: &mut Context<'_>,
        fabric: &Fabric,
        op: Vec<u8>,
        trace: u64,
    ) {
        self.queue.push_back((op, trace));
        self.pump(ctx, fabric);
    }

    /// Drains the results of accepted operations, oldest first; dropping
    /// the iterator discards what it did not yield.
    pub(crate) fn take_accepted(&mut self) -> std::collections::vec_deque::Drain<'_, Bytes> {
        self.accepted.drain(..)
    }

    /// True when nothing is queued or in flight.
    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.client.in_flight() == 0
    }

    fn pump(&mut self, ctx: &mut Context<'_>, fabric: &Fabric) {
        let now = ctx.now().as_micros();
        while !self.client.busy() {
            let Some((op, trace)) = self.queue.pop_front() else {
                break;
            };
            // not busy, so the window has room
            let Some(request) = self.client.start_request_traced(op, trace, now) else {
                break;
            };
            self.in_order.push_back((request.timestamp(), None));
            self.broadcast(ctx, fabric, &Message::Request(request));
        }
        let delay = self
            .client
            .arm_retransmit(now, self.retransmit_timeout(fabric));
        self.set_retransmit_timer(ctx, delay);
    }

    /// Moves decided results into `accepted` in submission order.
    fn release(&mut self) {
        while self.in_order.front().is_some_and(|(_, r)| r.is_some()) {
            if let Some((_, Some(result))) = self.in_order.pop_front() {
                self.accepted.push_back(result);
            }
        }
    }

    /// The retransmission period in µs: 2 × `view_timeout`.
    fn retransmit_timeout(&self, fabric: &Fabric) -> u64 {
        let timeout = fabric.domain(self.target).config.view_timeout;
        timeout.saturating_mul(2).as_micros()
    }

    fn set_retransmit_timer(&self, ctx: &mut Context<'_>, delay: Option<u64>) {
        if let Some(delay) = delay {
            ctx.set_timer(
                SimDuration::from_micros(delay),
                pack_timer(TimerTag::Retransmit, self.target.0),
            );
        }
    }

    fn broadcast(&self, ctx: &mut Context<'_>, fabric: &Fabric, message: &Message) {
        let frame = bft_frame(&self.auth, self.target, message, None);
        for &node in fabric.domain(self.target).nodes {
            ctx.send_labeled(node, frame.bytes.clone(), "smiop-submit");
        }
    }

    /// Handles a BFT envelope from the target's group and the message it
    /// carries ([`Envelope::open`]): a reply addressed to this client once
    /// it verifies. Returns true if it completed the in-flight operation
    /// (its result is then available via [`Outbound::take_accepted`]).
    pub fn on_reply(
        &mut self,
        ctx: &mut Context<'_>,
        fabric: &Fabric,
        envelope: &Envelope,
        message: Message,
    ) -> bool {
        if !self.auth.verify(envelope, &message) {
            return false;
        }
        let Message::Reply(reply) = message else {
            return false;
        };
        if let Some((timestamp, result)) = self.client.on_reply(reply) {
            if let Some((_, slot)) = self.in_order.iter_mut().find(|(t, _)| *t == timestamp) {
                *slot = Some(result);
            }
            self.release();
            self.pump(ctx, fabric);
            return true;
        }
        false
    }

    /// Handles the retransmission timer: re-broadcasts the requests whose
    /// own deadline has passed and re-arms for the earliest remaining one,
    /// or not at all when nothing is undecided.
    pub(crate) fn on_retransmit_timer(&mut self, ctx: &mut Context<'_>, fabric: &Fabric) {
        let timeout = self.retransmit_timeout(fabric);
        let (due, next) = self.client.due(ctx.now().as_micros(), timeout);
        for request in due {
            self.broadcast(ctx, fabric, &Message::Request(request));
        }
        self.set_retransmit_timer(ctx, next);
    }
}

/// One endpoint's outbound channels, at most one per target domain. An
/// endpoint talks to few domains — the Group Manager and, most often, one
/// more: a client's target, an element's own domain — so they sit in a
/// short vector, searched in order, with room for two before it grows.
#[derive(Debug)]
pub struct Channels(Vec<Outbound>);

impl Default for Channels {
    /// No channel yet; room for two.
    fn default() -> Channels {
        Channels(Vec::with_capacity(2))
    }
}

impl Channels {
    /// The channel to `target`, if open.
    pub fn get(&self, target: DomainId) -> Option<&Outbound> {
        self.0.iter().find(|o| o.target == target)
    }

    /// The channel to `target`, if open, mutably.
    pub fn get_mut(&mut self, target: DomainId) -> Option<&mut Outbound> {
        self.0.iter_mut().find(|o| o.target == target)
    }

    /// The channel to `target`, opened by `open` if there is none yet.
    pub(crate) fn get_or_open(
        &mut self,
        target: DomainId,
        open: impl FnOnce() -> Outbound,
    ) -> Option<&mut Outbound> {
        let index = match self.0.iter().position(|o| o.target == target) {
            Some(index) => index,
            None => {
                self.0.push(open());
                self.0.len().saturating_sub(1)
            }
        };
        self.0.get_mut(index)
    }

    /// Every open channel, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Outbound> {
        self.0.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::tests::fabric;
    use crate::wire::CoreMsg;
    use simnet::NodeId;
    use xbytes::Bytes;

    /// A process that owns one Outbound and records accepted results.
    struct Harness {
        outbound: Outbound,
        fabric: Fabric,
    }

    impl simnet::Process for Harness {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: simnet::NodeId, payload: Bytes) {
            if from.is_external() {
                self.outbound.submit(ctx, &self.fabric, payload.to_vec());
            }
        }
    }

    #[test]
    fn submission_broadcasts_to_all_replicas() {
        let fabric = fabric();
        let mut sim = simnet::Simulator::new(1);
        // four sink nodes standing in for replicas (ids 0..3 as in fabric)
        struct Sink {
            got: u32,
        }
        impl simnet::Process for Sink {
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: simnet::NodeId, _p: Bytes) {
                self.got += 1;
            }
        }
        for _ in 0..4 {
            sim.add_process(Box::new(Sink { got: 0 }));
        }
        let h = sim.add_process(Box::new(Harness {
            outbound: Outbound::new(&fabric, DomainId(1), 9),
            fabric: fabric.clone(),
        }));
        sim.inject(h, Bytes::from_static(b"op"));
        sim.run_until(simnet::SimTime::from_micros(500));
        for i in 0..4 {
            assert_eq!(
                sim.process_ref::<Sink>(NodeId::from_raw(i)).got,
                1,
                "replica {i} got the request"
            );
        }
    }

    #[test]
    fn retransmission_rebroadcasts_until_acked() {
        let fabric = fabric();
        let mut sim = simnet::Simulator::new(3);
        struct Counter {
            got: u32,
        }
        impl simnet::Process for Counter {
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: simnet::NodeId, _p: Bytes) {
                self.got += 1;
            }
        }
        for _ in 0..4 {
            sim.add_process(Box::new(Counter { got: 0 }));
        }
        struct RetryHarness {
            outbound: Outbound,
            fabric: Fabric,
        }
        impl simnet::Process for RetryHarness {
            fn on_message(&mut self, ctx: &mut Context<'_>, from: simnet::NodeId, payload: Bytes) {
                if from.is_external() {
                    self.outbound.submit(ctx, &self.fabric, payload.to_vec());
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, timer: simnet::Timer) {
                if let Some((crate::codes::TimerTag::Retransmit, _)) =
                    crate::codes::unpack_timer(timer.kind)
                {
                    let fabric = self.fabric.clone();
                    self.outbound.on_retransmit_timer(ctx, &fabric);
                }
            }
        }
        let h = sim.add_process(Box::new(RetryHarness {
            outbound: Outbound::new(&fabric, DomainId(1), 9),
            fabric: fabric.clone(),
        }));
        sim.inject(h, Bytes::from_static(b"op"));
        // no replica ever ACKs, so the client keeps rebroadcasting on its
        // timer: after several timeout periods each sink saw > 1 copy
        sim.run_until(simnet::SimTime::from_micros(700_000));
        let got = sim.process_ref::<Counter>(NodeId::from_raw(0)).got;
        assert!(got >= 3, "rebroadcasts observed: {got}");
    }

    #[test]
    fn operations_serialize_one_at_a_time() {
        let fabric = fabric();
        let mut sim = simnet::Simulator::new(2);
        struct Counter {
            got: u32,
        }
        impl simnet::Process for Counter {
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: simnet::NodeId, _p: Bytes) {
                self.got += 1;
            }
        }
        for _ in 0..4 {
            sim.add_process(Box::new(Counter { got: 0 }));
        }
        let h = sim.add_process(Box::new(Harness {
            outbound: Outbound::new(&fabric, DomainId(1), 9),
            fabric: fabric.clone(),
        }));
        sim.inject(h, Bytes::from_static(b"op1"));
        sim.inject(h, Bytes::from_static(b"op2"));
        sim.run_until(simnet::SimTime::from_micros(300));
        // second op queued behind the un-acked first: only one broadcast
        assert_eq!(sim.process_ref::<Counter>(NodeId::from_raw(0)).got, 1);
    }

    /// A stand-in replica that (optionally) acknowledges every request.
    struct Replica {
        auth: AuthContext,
        index: u32,
        answers: bool,
    }

    impl simnet::Process for Replica {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: simnet::NodeId, payload: Bytes) {
            use itdos_bft::config::{ReplicaId, View};
            if !self.answers {
                return;
            }
            let Ok(CoreMsg::Bft { domain, envelope }) = CoreMsg::decode(&payload) else {
                return;
            };
            let envelope = itdos_bft::auth::Envelope::decode(&envelope).expect("envelope");
            let Ok(Message::Request(request)) = Message::decode(&envelope.payload) else {
                return;
            };
            let reply = Message::Reply(itdos_bft::message::Reply {
                view: View(0),
                timestamp: request.timestamp(),
                client: request.client(),
                replica: ReplicaId(self.index),
                result: Bytes::from_static(b"ok"),
            });
            let frame = bft_frame(&self.auth, domain, &reply, Some(request.client()));
            ctx.send(from, frame.bytes);
        }
    }

    /// An Outbound owner that also routes replies and the retransmit timer.
    struct TimedHarness {
        outbound: Outbound,
        fabric: Fabric,
    }

    impl simnet::Process for TimedHarness {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: simnet::NodeId, payload: Bytes) {
            if from.is_external() {
                self.outbound.submit(ctx, &self.fabric, payload.to_vec());
            } else if let Ok(CoreMsg::Bft { envelope, .. }) = CoreMsg::decode(&payload) {
                if let Ok((envelope, message)) = Envelope::open(&envelope) {
                    self.outbound
                        .on_reply(ctx, &self.fabric, &envelope, message);
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: simnet::Timer) {
            assert_eq!(
                crate::codes::unpack_timer(timer.kind),
                Some((TimerTag::Retransmit, 1))
            );
            self.outbound.on_retransmit_timer(ctx, &self.fabric);
        }
    }

    /// Four replicas (nodes 0..3 as in `fabric()`) and one harness whose
    /// channel has the given window.
    fn timed_setup(seed: u64, window: usize, answers: bool) -> (simnet::Simulator, NodeId) {
        let fabric = fabric();
        let mut sim = simnet::Simulator::new(seed);
        for index in 0..4 {
            sim.add_process(Box::new(Replica {
                auth: fabric.bft_auth_replica(DomainId(1), index),
                index: index as u32,
                answers,
            }));
        }
        let mut outbound = Outbound::new(&fabric, DomainId(1), 9);
        outbound.set_window(window);
        let h = sim.add_process(Box::new(TimedHarness { outbound, fabric }));
        (sim, h)
    }

    /// Runs to `micros` and returns the requests broadcast so far (four
    /// copies each); at no point is more than one timer pending.
    fn broadcasts_at(sim: &mut simnet::Simulator, h: NodeId, micros: u64) -> u64 {
        sim.run_until(simnet::SimTime::from_micros(micros));
        let timers = sim.pending_by_node().get(&h).map_or(0, |p| p.1);
        assert!(
            timers <= 1,
            "{timers} retransmit timers pending at {micros}"
        );
        sim.stats().label("smiop-submit").messages / 4
    }

    #[test]
    fn decided_request_lets_its_timer_die_without_sending() {
        let (mut sim, h) = timed_setup(4, 1, true);
        sim.inject(h, Bytes::from_static(b"op"));
        assert_eq!(broadcasts_at(&mut sim, h, 1_000), 1);
        assert!(
            sim.process_ref::<TimedHarness>(h).outbound.idle(),
            "decided"
        );
        assert_eq!(sim.pending_by_node().get(&h), Some(&(0, 1)), "timer armed");
        // the timer fires at 100 ms, sends nothing and does not re-arm:
        // the simulation runs dry
        sim.run();
        assert_eq!(sim.now(), simnet::SimTime::from_micros(100_000));
        assert_eq!(sim.stats().label("smiop-submit").messages, 4);
        assert!(sim.pending_by_node().is_empty(), "no event left");
    }

    /// Two unanswered requests `gap` µs apart: each is re-broadcast every
    /// 100 ms counted from its *own* start, through one timer.
    fn each_request_keeps_its_own_deadline(gap: u64) {
        let (mut sim, h) = timed_setup(5, 4, false);
        sim.inject(h, Bytes::from_static(b"op1"));
        assert_eq!(broadcasts_at(&mut sim, h, gap), 1);
        sim.inject(h, Bytes::from_static(b"op2"));
        assert_eq!(broadcasts_at(&mut sim, h, 99_999), 2);
        for period in 1..=3 {
            let first = period * 100_000;
            let sent = 2 * period;
            assert_eq!(broadcasts_at(&mut sim, h, first), sent + 1, "op1 due");
            assert_eq!(broadcasts_at(&mut sim, h, first + gap - 1), sent + 1);
            assert_eq!(broadcasts_at(&mut sim, h, first + gap), sent + 2, "op2 due");
            assert_eq!(broadcasts_at(&mut sim, h, first + 99_999), sent + 2);
        }
    }

    #[test]
    fn request_started_just_before_the_timer_fires_waits_for_its_own_deadline() {
        each_request_keeps_its_own_deadline(99_999);
    }

    #[test]
    fn requests_30ms_apart_are_rebroadcast_30ms_apart() {
        each_request_keeps_its_own_deadline(30_000);
    }
}
