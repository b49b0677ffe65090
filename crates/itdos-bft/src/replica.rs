//! The PBFT replica state machine.
//!
//! Pure protocol logic: inputs are received frames, which
//! [`Replica::receive`] opens, authenticates and dispatches for every host
//! (the [`crate::node`] adapter and the ITDOS elements), and timer
//! expirations; outputs are queued [`Output`] actions drained by the host.
//! Normal case, checkpointing, view changes, and state transfer follow
//! Castro–Liskov \[7\]; the ITDOS message-queue adaptation builds on top in
//! [`crate::queue`].

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use itdos_crypto::hash::Digest;
use itdos_obs::{LabelValue, Obs};
use simnet::SimDuration;
use xbytes::Bytes;

use crate::auth::{AuthContext, Envelope, Peer};
use crate::config::{ClientId, GroupConfig, ReplicaId, SeqNo, View};
use crate::log::Log;
use crate::message::{
    Batch, Checkpoint, ClientRequest, Commit, Message, NewView, PrePrepare, Prepare, PreparedProof,
    Reply, StateData, StateFetch, ViewChange,
};
use crate::state::StateMachine;
use crate::window::KeyWindow;
use crate::wire::{Reader, Wire, WireError, Writer};

/// Per-client exactly-once record: replies for the last
/// [`GroupConfig::client_reply_window`] executed timestamps, plus the
/// eviction floor (timestamps at or below it are ancient and dropped
/// outright). A pipelining client has several timestamps in flight at
/// once, so a single last-timestamp record would drop a slower request
/// that was ordered after a faster one; instead each replica keeps a
/// bounded window of executed timestamps with their cached replies.
/// Eviction is driven by the total order, so the window contents are
/// identical on all correct replicas.
#[derive(Debug, Clone, Default)]
struct ClientRecord {
    replies: KeyWindow<Reply>,
}

impl ClientRecord {
    /// True when `timestamp` already executed (cached or evicted).
    fn executed(&self, timestamp: u64) -> bool {
        timestamp <= self.replies.floor() || self.replies.get(timestamp).is_some()
    }

    /// Caches the reply for a timestamp not yet executed, evicting the
    /// oldest entries beyond the window.
    fn record(&mut self, timestamp: u64, reply: Reply, window: usize) {
        self.replies.insert(timestamp, reply, window);
        self.replies.evict(window);
    }
}

/// Whom a replica sends a protocol message to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum To {
    /// One replica.
    Replica(ReplicaId),
    /// Every other replica: the group's multicast.
    All,
    /// A client; the frame's MACs are addressed to it.
    Client(ClientId),
}

/// An action the protocol asks the transport adapter to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Send a message; [`crate::node::send`] puts it on the network.
    Send(To, Message),
    /// A request was executed at `seq` — the upper layer's delivery hook
    /// (in ITDOS this feeds the ORB thread).
    Executed {
        /// Order of execution.
        seq: SeqNo,
        /// The executed request.
        request: ClientRequest,
        /// Result bytes from the state machine, shared with the reply.
        result: Bytes,
    },
    /// (Re)arm the view-change timer with the given epoch.
    StartViewTimer {
        /// Epoch used to ignore stale expirations.
        epoch: u64,
        /// How long to wait: `view_timeout`, doubled per consecutive
        /// view-change attempt (PBFT's backoff), at most 2^16 times.
        timeout: SimDuration,
    },
    /// The replica moved to a new view.
    EnteredView(View),
    /// The replica fell behind and restored state from a transfer.
    StateTransferred(SeqNo),
}

/// What [`Replica::receive`] did with a received frame.
#[derive(Debug)]
pub enum Received {
    /// Malformed or not authenticated: dropped.
    Dropped,
    /// Authenticated and handed to the replica, under this
    /// [`crate::auth::AuthProof::kind`].
    Delivered(&'static str),
    /// A reply: addressed to a client, never to a replica, so it is handed
    /// back decoded and *unverified* for the host's client side to check.
    Reply(Envelope, Reply),
}

/// A PBFT replica wrapping an application state machine.
pub struct Replica<S> {
    config: GroupConfig,
    id: ReplicaId,
    app: S,
    log: Log,
    view: View,
    /// Highest contiguously executed sequence number.
    last_executed: SeqNo,
    /// Next sequence the primary will assign.
    next_seq: SeqNo,
    /// Recent replies per client (exactly-once semantics).
    client_table: BTreeMap<ClientId, ClientRecord>,
    /// Requests accepted but not yet executed (view-change trigger).
    pending: BTreeSet<Digest>,
    /// The accepted, unexecuted requests themselves, hashed, one per
    /// `(client, timestamp)` and sorted by it: a received copy equal to one
    /// recalls its digest instead of hashing its body again
    /// ([`Replica::receive`]). Released at execution and with `pending`;
    /// bounded by the in-flight window and allocated once, so holding a
    /// request allocates nothing.
    held: Vec<ClientRequest>,
    /// Digests this primary has assigned a sequence number in the current
    /// view and not yet executed (prevents double ordering; rebuilt on
    /// view entry). Released at execution — from then on the client table
    /// answers or drops every later copy before this set is read — so it
    /// holds at most `pipeline_depth × max_batch` digests.
    ordered: BTreeSet<Digest>,
    /// Requests a primary could not yet assign (window full).
    backlog: VecDeque<ClientRequest>,
    /// Highest per-client timestamp admitted to ordering (or executed).
    /// Client timestamps are consecutive from 1, so this is the FIFO
    /// admission floor for pipelined clients.
    admitted_ts: BTreeMap<ClientId, u64>,
    /// Requests that overtook an earlier timestamp of their own client on
    /// the network (multicast + relay paths reorder freely); a primary
    /// parks them until the gap fills so the total order preserves each
    /// client's submission order.
    reorder: BTreeMap<ClientId, BTreeMap<u64, ClientRequest>>,
    timer_epoch: u64,
    view_change_attempts: u32,
    in_view_change: bool,
    /// Collected view-change messages per target view.
    view_changes: BTreeMap<View, BTreeMap<ReplicaId, ViewChange>>,
    /// Outstanding state-transfer target, if any.
    fetching: Option<SeqNo>,
    /// StateData offers received while fetching: (seq, digest) → senders.
    /// `f+1` matching offers prove the snapshot without checkpoint votes
    /// (at least one offer is from a correct replica).
    state_offers: BTreeMap<(SeqNo, Digest), BTreeSet<ReplicaId>>,
    /// True during proactive recovery: the replica distrusts its own app
    /// state and accepts a trusted snapshot even at its current sequence.
    recovering: bool,
    /// True while onboarding as a fresh replacement: the replica stays
    /// quiescent (no votes, relays, or view changes) until a trusted state
    /// transfer lands it at the group's current state.
    joining: bool,
    /// Highest view observed per peer while joining, mined from messages
    /// that attest the sender operates in that view; on completion the
    /// joiner adopts the (f+1)-th highest — vouched for by at least one
    /// correct replica, so Byzantine peers cannot inflate it.
    peer_views: BTreeMap<ReplicaId, u64>,
    outputs: Vec<Output>,
    /// Instrumentation sink; a disabled handle (the default) makes every
    /// hook a no-op.
    obs: Obs,
}

impl<S: std::fmt::Debug> std::fmt::Debug for Replica<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("view", &self.view)
            .field("last_executed", &self.last_executed)
            .field("in_view_change", &self.in_view_change)
            .finish()
    }
}

impl<S: StateMachine> Replica<S> {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: GroupConfig, id: ReplicaId, app: S) -> Replica<S> {
        config.validate();
        let log = Log::new(&config);
        // at most this many requests are assigned and unexecuted at once
        let in_flight = config.pipeline_depth.min(config.watermark_window);
        let in_flight = usize::try_from(in_flight).unwrap_or(usize::MAX);
        let held = Vec::with_capacity(in_flight.saturating_mul(config.max_batch));
        Replica {
            config,
            id,
            app,
            log,
            view: View(0),
            last_executed: SeqNo(0),
            next_seq: SeqNo(0),
            client_table: BTreeMap::new(),
            pending: BTreeSet::new(),
            held,
            ordered: BTreeSet::new(),
            backlog: VecDeque::new(),
            admitted_ts: BTreeMap::new(),
            reorder: BTreeMap::new(),
            timer_epoch: 0,
            view_change_attempts: 0,
            in_view_change: false,
            view_changes: BTreeMap::new(),
            fetching: None,
            state_offers: BTreeMap::new(),
            recovering: false,
            joining: false,
            peer_views: BTreeMap::new(),
            outputs: Vec::new(),
            obs: Obs::disabled(),
        }
    }

    /// Installs an observability sink. Phase spans (`bft.prepare_us`,
    /// `bft.commit_us`, `bft.order_us`) and protocol events are recorded
    /// against the sink's injected clock; with the default disabled handle
    /// every hook is a zero-allocation no-op.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// This replica's metric label set.
    fn obs_label(&self) -> [itdos_obs::Label; 1] {
        [("replica", LabelValue::U64(u64::from(self.id.0)))]
    }

    /// Records event `kind` at `seq`, labelled with this replica's id.
    fn event_at(&self, kind: &'static str, seq: SeqNo) {
        let [replica] = self.obs_label();
        self.obs
            .event(kind, &[replica, ("seq", LabelValue::U64(seq.0))]);
    }

    /// Span id for a per-sequence phase: the replica id is mixed in so
    /// that replicas of one group sharing a single recorder cannot clobber
    /// each other's spans for the same sequence number. Cross-group
    /// separation comes from the scoped handle the wiring installs
    /// ([`itdos_obs::Obs::scoped`]).
    fn seq_span_id(&self, seq: SeqNo) -> u64 {
        (u64::from(self.id.0) << 48) ^ seq.0
    }

    /// Publishes queue-depth gauges (request backlog, accepted-but-
    /// unexecuted requests, and sequence numbers in flight).
    fn obs_depths(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        let labels = self.obs_label();
        self.obs
            .gauge("bft.backlog_depth", &labels, self.backlog.len() as i64);
        self.obs
            .gauge("bft.pending_depth", &labels, self.pending.len() as i64);
        self.obs.gauge(
            "bft.pipeline_depth",
            &labels,
            self.next_seq.0.saturating_sub(self.last_executed.0) as i64,
        );
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// True when this replica is the current primary.
    fn is_primary(&self) -> bool {
        self.config.primary_of(self.view) == self.id
    }

    /// Highest contiguously executed sequence number.
    pub fn last_executed(&self) -> SeqNo {
        self.last_executed
    }

    /// Access to the application state machine.
    pub fn app(&self) -> &S {
        &self.app
    }

    /// Mutable access to the application (tests / fault injection only).
    pub fn app_mut(&mut self) -> &mut S {
        &mut self.app
    }

    /// The protocol log (tests / diagnostics).
    pub fn log(&self) -> &Log {
        &self.log
    }

    /// Hands the queued outputs to the host, oldest first, appended to
    /// `drained`. A host that passes back the buffer it drained last time
    /// swaps it in: the replica queues into the host's spare buffer and
    /// the host drains this one, so neither allocates once both are warm.
    /// Outputs queued while the host drains wait for its next call.
    pub fn swap_outputs(&mut self, drained: &mut Vec<Output>) {
        self.obs_depths();
        if drained.is_empty() {
            std::mem::swap(&mut self.outputs, drained);
        } else {
            drained.append(&mut self.outputs);
        }
    }

    fn send(&mut self, to: To, message: Message) {
        self.outputs.push(Output::Send(to, message));
    }

    fn arm_timer(&mut self) {
        self.timer_epoch = self.timer_epoch.saturating_add(1);
        let backoff = 1 << self.view_change_attempts.min(16);
        self.outputs.push(Output::StartViewTimer {
            epoch: self.timer_epoch,
            timeout: self.config.view_timeout.saturating_mul(backoff),
        });
    }

    // ---------------------------------------------------------------- input

    /// The receive path of every replica host: opens `frame`
    /// ([`Envelope::open`]), recalls the digest of each request in it that
    /// equals one this replica holds, verifies it under `auth`, and
    /// dispatches it — a replica's message to [`Replica::on_message`], a
    /// client's request to [`Replica::on_request`].
    ///
    /// Recall runs before the MAC check, on unauthenticated bytes, and is
    /// safe there: a memo is taken only from a byte-equal request, so it is
    /// the digest hashing would give, and [`Message::mac_digest`] and the
    /// pre-prepare's batch-digest check read the same value either way.
    pub fn receive(&mut self, auth: &AuthContext, frame: &Bytes) -> Received {
        let Ok((envelope, message)) = Envelope::open(frame) else {
            return Received::Dropped;
        };
        if let Message::Reply(reply) = message {
            return Received::Reply(envelope, reply);
        }
        self.recall(&message);
        if !auth.verify(&envelope, &message) {
            return Received::Dropped; // forged or tampered: silently dropped
        }
        match envelope.sender {
            Peer::Replica(sender) => self.on_message(sender, message),
            Peer::Client(_) => {
                if let Message::Request(request) = message {
                    self.on_request(request);
                }
            }
        }
        Received::Delivered(envelope.auth.kind())
    }

    /// Fills the digest memo of each request `message` carries that equals
    /// a held one.
    fn recall(&self, message: &Message) {
        for request in carried(message) {
            let at = self.held.binary_search_by_key(&held_key(request), held_key);
            if let Some(held) = at.ok().and_then(|at| self.held.get(at)) {
                request.recall(held);
            }
        }
    }

    /// Records `request` as accepted and not yet executed; returns whether
    /// it was not already pending.
    fn accept(&mut self, request: &ClientRequest) -> bool {
        // hashed first, so the held clone carries the memo
        let newly_pending = self.pending.insert(request.digest());
        // a second request under a held (client, timestamp) is not held: the
        // first stays, and the newcomer is hashed like any other; a full
        // store holds nothing more rather than grow
        if let Err(at) = self.held.binary_search_by_key(&held_key(request), held_key) {
            if self.held.len() < self.held.capacity() {
                self.held.insert(at, request.clone());
            }
        }
        newly_pending
    }

    /// Releases the held request of an executed `(client, timestamp)`.
    fn release(&mut self, client: ClientId, timestamp: u64) {
        if let Ok(at) = self
            .held
            .binary_search_by_key(&(client, timestamp), held_key)
        {
            self.held.remove(at);
        }
    }

    /// Handles a verified protocol message from `sender`.
    pub fn on_message(&mut self, sender: ReplicaId, message: Message) {
        if self.joining {
            // quiescent onboarding: only checkpoint/state-transfer traffic
            // is acted on; ordering traffic is mined for the senders'
            // current views so the joiner can adopt one on completion
            match message {
                Message::Checkpoint(cp) => self.on_checkpoint(sender, cp),
                Message::StateData(sd) => self.on_state_data(sd),
                Message::PrePrepare(pp) if sender == self.config.primary_of(pp.view) => {
                    self.note_peer_view(sender, pp.view);
                }
                Message::Prepare(p) => self.note_peer_view(sender, p.view),
                Message::Commit(c) => self.note_peer_view(sender, c.view),
                Message::NewView(nv) if sender == nv.primary => {
                    self.note_peer_view(sender, nv.view);
                }
                _ => {}
            }
            return;
        }
        match message {
            Message::Request(req) => self.on_request(req),
            Message::PrePrepare(pp) => self.on_pre_prepare(sender, pp),
            Message::Prepare(p) => self.on_prepare(sender, p),
            Message::Commit(c) => self.on_commit(sender, c),
            Message::Checkpoint(cp) => self.on_checkpoint(sender, cp),
            Message::ViewChange(vc) => self.on_view_change(sender, vc),
            Message::NewView(nv) => self.on_new_view(sender, nv),
            Message::StateFetch(sf) => self.on_state_fetch(sender, sf),
            Message::StateData(sd) => self.on_state_data(sd),
            Message::Reply(_) => {} // replicas ignore replies
        }
    }

    /// Handles a client request (also called when a backup relays one).
    pub fn on_request(&mut self, request: ClientRequest) {
        self.obs.incr("bft.requests", &self.obs_label());
        if self.joining {
            // quiescent while onboarding: no relays, no ordering — the
            // client's retransmission finds us once we are caught up
            return;
        }
        // exactly-once: resend the cached reply for an executed timestamp
        if let Some(record) = self.client_table.get(&request.client()) {
            if request.timestamp() <= record.replies.floor() {
                return; // ancient: its reply window has passed
            }
            if let Some(reply) = record.replies.get(request.timestamp()) {
                self.send(To::Client(request.client()), Message::Reply(reply.clone()));
                return;
            }
        }
        let newly_pending = self.accept(&request);
        let digest = request.digest();
        if self.in_view_change {
            return; // ordered after the view change completes (client retransmits)
        }
        if self.is_primary() {
            // a request already ordered in this view or already backlogged
            // (client broadcast + backup relays deliver several copies)
            // must not be assigned a second sequence number
            let already_queued =
                self.ordered.contains(&digest) || self.backlog.iter().any(|r| r.digest() == digest);
            if !already_queued {
                // causal trace: the primary admitting a traced request is
                // the first ordering-side hop of the invocation
                if request.trace() != 0 {
                    self.obs.event(
                        "bft.admit",
                        &[
                            ("replica", LabelValue::U64(u64::from(self.id.0))),
                            ("client", LabelValue::U64(request.client().0)),
                            ("trace", LabelValue::U64(request.trace())),
                        ],
                    );
                }
                self.enqueue_in_client_order(request);
            }
        } else {
            // backup: relay to the primary and start the view-change timer
            let primary = self.config.primary_of(self.view);
            self.send(To::Replica(primary), Message::Request(request));
            if newly_pending {
                self.arm_timer();
            }
        }
    }

    /// Admits a deduplicated request to the backlog respecting per-client
    /// timestamp order. A pipelined client has several timestamps on the
    /// wire at once and the multicast + backup-relay paths reorder freely,
    /// so a later timestamp can reach the primary first; parking it until
    /// the gap fills keeps the total order aligned with each client's
    /// submission order.
    fn enqueue_in_client_order(&mut self, request: ClientRequest) {
        let client = request.client();
        let admitted = self.admitted_ts.get(&client).copied().unwrap_or(0);
        if request.timestamp() > admitted.saturating_add(1) {
            self.reorder
                .entry(client)
                .or_default()
                .insert(request.timestamp(), request);
            return;
        }
        if request.timestamp() <= admitted {
            // a view change ordered a later timestamp while this one fell
            // through (its slot lost its prepared proof); submission order
            // is already broken for it, so re-admit out of band rather
            // than starve the client's retransmissions
            self.backlog.push_back(request);
            self.drain_backlog();
            return;
        }
        self.admitted_ts.insert(client, request.timestamp());
        self.backlog.push_back(request);
        // the gap just filled: release consecutive parked successors
        while let Some(buf) = self.reorder.get_mut(&client) {
            let admitted = self.admitted_ts.get(&client).copied().unwrap_or(0);
            match buf.remove(&admitted.saturating_add(1)) {
                Some(parked) => {
                    self.admitted_ts.insert(client, parked.timestamp());
                    self.backlog.push_back(parked);
                }
                None => {
                    if buf.is_empty() {
                        self.reorder.remove(&client);
                    }
                    break;
                }
            }
        }
        self.drain_backlog();
    }

    /// Assigns backlogged requests to sequence numbers, one *batch* per
    /// sequence number. Flush policy: an open pipeline slot takes whatever
    /// is pending immediately (low load ⇒ batches of one, lowest latency);
    /// with all `pipeline_depth` slots occupied, requests accumulate in
    /// the backlog and the next slot to free (execution progress or a
    /// stabilized checkpoint re-opens the window) takes up to a full
    /// batch — so batch size adapts to load with no timer in the loop.
    fn drain_backlog(&mut self) {
        loop {
            let seq = SeqNo(self.next_seq.0.saturating_add(1));
            if !self.log.in_window(seq) {
                break; // window full until the next stable checkpoint
            }
            let in_flight = self.next_seq.0.saturating_sub(self.last_executed.0);
            if in_flight >= self.config.pipeline_depth {
                break; // all pipeline slots occupied: accumulate
            }
            if self.backlog.is_empty() {
                break;
            }
            // pack a batch bounded by max_batch requests / max_batch_bytes
            // (a batch always admits its first request, however large)
            let mut requests = Vec::new();
            let mut bytes = 0usize;
            while requests.len() < self.config.max_batch {
                let size = match self.backlog.front() {
                    Some(front) => front.operation().len(),
                    None => break,
                };
                if !requests.is_empty() && bytes.saturating_add(size) > self.config.max_batch_bytes
                {
                    break;
                }
                bytes = bytes.saturating_add(size);
                if let Some(front) = self.backlog.pop_front() {
                    requests.push(front);
                }
            }
            let batch = Batch { requests };
            self.next_seq = seq;
            for request in &batch.requests {
                self.ordered.insert(request.digest());
                // causal trace: bind each traced request to the sequence
                // number its batch agrees under
                if request.trace() != 0 {
                    self.obs.event(
                        "bft.batch",
                        &[
                            ("replica", LabelValue::U64(u64::from(self.id.0))),
                            ("seq", LabelValue::U64(seq.0)),
                            ("trace", LabelValue::U64(request.trace())),
                        ],
                    );
                }
            }
            self.obs
                .observe("bft.batch_size", &self.obs_label(), batch.len() as u64);
            // the primary's ordering phases start when it proposes
            self.obs.span_begin("bft.prepare_us", self.seq_span_id(seq));
            self.obs.span_begin("bft.order_us", self.seq_span_id(seq));
            let pp = PrePrepare {
                view: self.view,
                seq,
                digest: batch.digest(),
                batch,
            };
            let entry = self.log.entry(self.view, seq);
            entry.pre_prepare = Some(pp.clone());
            self.send(To::All, Message::PrePrepare(pp));
            // the primary's pre-prepare counts as its prepare; execution
            // still needs 2f prepares from backups
            self.try_commit(self.view, seq);
        }
    }

    fn on_pre_prepare(&mut self, sender: ReplicaId, pp: PrePrepare) {
        if self.in_view_change
            || pp.view != self.view
            || sender != self.config.primary_of(self.view)
            || !self.log.in_window(pp.seq)
        {
            return;
        }
        if pp.batch.is_empty() || pp.digest != pp.batch.digest() {
            // the primary is lying about its batch contents (or padding
            // the sequence space with empty batches): refuse, and put the
            // self-contradictory message on the flight record — like an
            // equivocation it is hard forensic evidence against the sender
            let labels = [
                ("replica", LabelValue::U64(u64::from(self.id.0))),
                ("seq", LabelValue::U64(pp.seq.0)),
                ("view", LabelValue::U64(pp.view.0)),
            ];
            self.obs.incr("bft.bad_batches", &self.obs_label());
            self.obs.event("bft.bad_batch_digest", &labels);
            return;
        }
        let view = self.view;
        let entry = self.log.entry(view, pp.seq);
        if let Some(existing) = &entry.pre_prepare {
            if existing.digest != pp.digest {
                // equivocating primary: refuse; the timer will expire and a
                // view change will remove it. The contradiction itself is
                // hard forensic evidence, so put it on the flight record.
                let labels = [
                    ("replica", LabelValue::U64(u64::from(self.id.0))),
                    ("seq", LabelValue::U64(pp.seq.0)),
                    ("view", LabelValue::U64(view.0)),
                ];
                self.obs.incr("bft.equivocations", &self.obs_label());
                self.obs.event("bft.equivocation", &labels);
                return;
            }
            return; // duplicate
        }
        let was_idle = self.pending.is_empty();
        for request in &pp.batch.requests {
            // a primary that fell behind can legitimately re-propose a
            // request this replica already executed (its new-view carry was
            // empty); marking it pending again would poison the view-change
            // trigger forever, because execution never revisits old seqs
            let executed = self
                .client_table
                .get(&request.client())
                .is_some_and(|r| r.executed(request.timestamp()));
            if !executed {
                self.accept(request);
            }
        }
        self.obs
            .observe("bft.batch_size", &self.obs_label(), pp.batch.len() as u64);
        // a backup's ordering phases start at pre-prepare acceptance
        self.obs
            .span_begin("bft.prepare_us", self.seq_span_id(pp.seq));
        self.obs
            .span_begin("bft.order_us", self.seq_span_id(pp.seq));
        let prepare = Prepare {
            view: self.view,
            seq: pp.seq,
            digest: pp.digest,
            replica: self.id,
        };
        // the log keeps the received pre-prepare itself
        let entry = self.log.entry(view, prepare.seq);
        entry.pre_prepare = Some(pp);
        entry.prepares.insert(self.id, prepare);
        self.send(To::All, Message::Prepare(prepare));
        if was_idle && !self.pending.is_empty() {
            self.arm_timer();
        }
        self.try_commit(view, prepare.seq);
    }

    fn on_prepare(&mut self, sender: ReplicaId, prepare: Prepare) {
        if sender != prepare.replica
            || prepare.view != self.view
            || !self.log.in_window(prepare.seq)
        {
            return;
        }
        self.log
            .entry(prepare.view, prepare.seq)
            .prepares
            .insert(prepare.replica, prepare);
        self.try_commit(prepare.view, prepare.seq);
    }

    fn try_commit(&mut self, view: View, seq: SeqNo) {
        let (is_prepared, has_own_commit, digest) = match self.log.entry_ref(view, seq) {
            Some(entry) => (
                entry.prepared(&self.config),
                entry.commits.contains_key(&self.id),
                entry.pre_prepare.as_ref().map(|pp| pp.digest),
            ),
            None => return,
        };
        if !is_prepared || has_own_commit {
            self.try_execute();
            return;
        }
        // prepared implies a pre-prepare digest; an inconsistent entry
        // simply does not advance to commit
        let Some(digest) = digest else {
            return;
        };
        // prepared for the first time: close the prepare phase, open commit
        self.obs
            .span_end("bft.prepare_us", self.seq_span_id(seq), &self.obs_label());
        self.obs.span_begin("bft.commit_us", self.seq_span_id(seq));
        self.obs.event(
            "bft.prepared",
            &[
                ("replica", LabelValue::U64(u64::from(self.id.0))),
                ("seq", LabelValue::U64(seq.0)),
                ("view", LabelValue::U64(view.0)),
            ],
        );
        let commit = Commit {
            view,
            seq,
            digest,
            replica: self.id,
        };
        self.log.entry(view, seq).commits.insert(self.id, commit);
        self.send(To::All, Message::Commit(commit));
        self.try_execute();
    }

    fn on_commit(&mut self, sender: ReplicaId, commit: Commit) {
        if sender != commit.replica {
            return;
        }
        // a commit far past our execution point means we missed traffic
        // (crash, partition): fetch the latest stable checkpoint instead
        // of waiting for requests that will never be retransmitted
        let interval = self.config.checkpoint_interval;
        if commit.seq.0 > self.last_executed.0.saturating_add(interval) {
            // the checkpoint at or below the commit (`validate` holds the
            // interval above zero)
            let past = commit.seq.0.checked_rem(interval).unwrap_or(0);
            let target = SeqNo(commit.seq.0.saturating_sub(past));
            if target > self.last_executed {
                self.request_state(target, Digest::default());
            }
        }
        if commit.view != self.view || !self.log.in_window(commit.seq) {
            return;
        }
        self.log
            .entry(commit.view, commit.seq)
            .commits
            .insert(commit.replica, commit);
        self.try_execute();
    }

    fn try_execute(&mut self) {
        let mut progressed = false;
        loop {
            let next = SeqNo(self.last_executed.0.saturating_add(1));
            let view = self.view;
            match self.log.entry_ref(view, next) {
                // committed implies a pre-prepare; stall rather than panic
                // on an inconsistent entry
                Some(entry)
                    if !entry.executed
                        && entry.committed_local(&self.config)
                        && entry.pre_prepare.is_some() => {}
                _ => break,
            }
            progressed = true;
            self.log.entry(view, next).executed = true;
            self.last_executed = next;
            let labels = self.obs_label();
            self.obs
                .span_end("bft.commit_us", self.seq_span_id(next), &labels);
            self.obs
                .span_end("bft.order_us", self.seq_span_id(next), &labels);
            // commit certificate reached and applied: the last ordering
            // phase this replica can attest for `next`
            self.event_at("bft.committed", next);
            // unpack the logged batch in its agreed order, one request at a
            // time (a clone shares the request's bytes); an empty batch
            // (the new-view null operation) executes nothing
            let mut barrier = false;
            for index in 0.. {
                let Some(request) = self
                    .log
                    .entry_ref(view, next)
                    .and_then(|entry| entry.pre_prepare.as_ref())
                    .and_then(|pp| pp.batch.requests.get(index))
                    .cloned()
                else {
                    break;
                };
                let request_digest = request.digest();
                self.pending.remove(&request_digest);
                self.ordered.remove(&request_digest);
                self.release(request.client(), request.timestamp());
                // keep the FIFO admission floor current on every replica,
                // so a backup elected primary later admits from the right
                // per-client position
                let floor = self.admitted_ts.entry(request.client()).or_insert(0);
                *floor = (*floor).max(request.timestamp());
                // exactly-once at execution: a replayed or doubly-ordered
                // request (Byzantine primary) is skipped, not re-executed
                let record = self.client_table.entry(request.client()).or_default();
                if record.executed(request.timestamp()) {
                    continue;
                }
                barrier |= self.app.is_barrier(request.operation());
                let result = Bytes::from(self.app.execute(request.operation(), request_digest));
                // one reply, shared by the cache, the send and the host
                let reply = Reply {
                    view,
                    timestamp: request.timestamp(),
                    client: request.client(),
                    replica: self.id,
                    result: result.clone(),
                };
                let window = self.config.client_reply_window;
                record.record(request.timestamp(), reply.clone(), window);
                self.obs.incr("bft.executed", &labels);
                self.send(To::Client(request.client()), Message::Reply(reply));
                self.outputs.push(Output::Executed {
                    seq: next,
                    request,
                    result,
                });
            }
            if barrier {
                // membership-change barrier: checkpoint immediately so a
                // joiner can state-transfer from a quorum at this exact seq
                self.emit_checkpoint(next);
            } else if next.0.is_multiple_of(self.config.checkpoint_interval) {
                self.emit_checkpoint(next);
            }
        }
        // progress resets the view-change timer; with no progress the
        // running timer keeps counting toward a view change
        if progressed {
            if self.pending.is_empty() {
                self.view_change_attempts = 0;
            } else {
                self.arm_timer();
            }
            if self.is_primary() {
                self.drain_backlog();
            }
        }
    }

    fn emit_checkpoint(&mut self, seq: SeqNo) {
        // checkpoint digests use the canonical snapshot digest so state
        // transfer can verify a received snapshot against checkpoint votes;
        // the payload carries the reply cache alongside the application
        // snapshot so a transferred replica keeps exactly-once semantics
        let payload = TransferPayload {
            app_snapshot: self.app.snapshot(),
            table: Cow::Borrowed(&self.client_table),
        }
        .encode();
        let state_digest = snapshot_digest(&payload);
        self.log.store_own_checkpoint(seq, state_digest, payload);
        self.obs.incr("bft.checkpoints", &self.obs_label());
        self.event_at("bft.checkpoint", seq);
        let checkpoint = Checkpoint {
            seq,
            state_digest,
            replica: self.id,
        };
        self.log.add_checkpoint(&checkpoint);
        self.send(To::All, Message::Checkpoint(checkpoint));
        self.maybe_stabilize(seq, state_digest);
    }

    fn on_checkpoint(&mut self, sender: ReplicaId, checkpoint: Checkpoint) {
        if sender != checkpoint.replica {
            return;
        }
        self.log.add_checkpoint(&checkpoint);
        self.maybe_stabilize(checkpoint.seq, checkpoint.state_digest);
    }

    fn maybe_stabilize(&mut self, seq: SeqNo, digest: Digest) {
        if self.log.checkpoint_votes(seq, digest) < self.config.quorum() {
            return;
        }
        if self.recovering && seq >= self.last_executed {
            // a fresh-enough stable checkpoint exists: re-issue the fetch
            self.fetching = Some(seq);
            self.fetch_state(seq);
            return;
        }
        if seq.0
            >= self
                .last_executed
                .0
                .saturating_add(self.config.checkpoint_interval)
        {
            // the group has provably moved a full checkpoint interval past
            // us: fetch state instead of waiting to catch up message by
            // message
            self.request_state(seq, digest);
            return;
        }
        if seq <= self.last_executed && seq > self.log.low() {
            self.log.stabilize(seq);
            self.event_at("bft.checkpoint_stable", seq);
            if self.is_primary() {
                self.drain_backlog();
            }
        }
    }

    fn request_state(&mut self, seq: SeqNo, _digest: Digest) {
        if self.fetching.is_some_and(|s| s >= seq) {
            return;
        }
        self.fetching = Some(seq);
        self.obs.incr("bft.state_fetches", &self.obs_label());
        self.obs
            .span_begin("bft.state_transfer_us", u64::from(self.id.0));
        self.event_at("bft.state_fetch", seq);
        self.fetch_state(seq);
    }

    /// Asks every replica for its state as of `seq` or later.
    fn fetch_state(&mut self, seq: SeqNo) {
        let fetch = StateFetch {
            seq,
            replica: self.id,
        };
        self.send(To::All, Message::StateFetch(fetch));
    }

    /// Serves a fetch with this replica's latest checkpoint, to its
    /// authenticated sender only: a fetch naming another replica is
    /// dropped, so no replica can aim snapshots at a third.
    fn on_state_fetch(&mut self, sender: ReplicaId, fetch: StateFetch) {
        if sender != fetch.replica {
            return;
        }
        let Some((seq, (digest, snapshot))) = self.log.latest_own_checkpoint() else {
            return;
        };
        if seq < fetch.seq {
            return; // we cannot help yet
        }
        let data = StateData {
            seq,
            snapshot: snapshot.clone(),
            proof: vec![Checkpoint {
                seq,
                state_digest: *digest,
                replica: self.id,
            }],
            replica: self.id,
        };
        self.send(To::Replica(sender), Message::StateData(data));
    }

    /// Begins proactive recovery \[6\]: the replica assumes its application
    /// state may have been silently corrupted by an undetected intrusion,
    /// discards trust in it, and restores a snapshot proved by its peers.
    /// (The paper's §3.2 notes Castro–Liskov keeps faulty replicas "in the
    /// system until they are proactively recovered" — this is that path.)
    pub fn start_recovery(&mut self) {
        self.recovering = true;
        self.obs.incr("bft.recoveries", &self.obs_label());
        self.obs
            .span_begin("bft.state_transfer_us", u64::from(self.id.0));
        self.fetching = Some(SeqNo(self.log.low().0.max(1)));
        self.state_offers.clear();
        self.fetch_state(self.log.low());
    }

    /// True while a proactive recovery is in flight.
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// Begins replacement onboarding: a fresh (empty-state) replica
    /// admitted into a running group stays quiescent — processing only
    /// checkpoint and state-transfer traffic — until a trusted transfer
    /// lands it at the group's current state; it then adopts the (f+1)-th
    /// highest view observed from peers and resumes normal participation.
    /// The admission barrier ([`StateMachine::is_barrier`]) guarantees a
    /// checkpoint quorum exists at the joiner's admission point, even when
    /// the group is still near genesis.
    pub fn begin_onboarding(&mut self) {
        self.joining = true;
        self.recovering = true;
        self.obs.incr("bft.onboardings", &self.obs_label());
        self.obs
            .span_begin("bft.state_transfer_us", u64::from(self.id.0));
        self.fetching = Some(SeqNo(self.log.low().0.max(1)));
        self.state_offers.clear();
        self.fetch_state(self.log.low());
    }

    fn note_peer_view(&mut self, sender: ReplicaId, view: View) {
        if sender.0 as usize >= self.config.n {
            return;
        }
        let entry = self.peer_views.entry(sender).or_insert(0);
        *entry = (*entry).max(view.0);
    }

    fn on_state_data(&mut self, data: StateData) {
        if self.fetching.is_none() {
            return;
        }
        if !self.recovering && data.seq <= self.last_executed {
            return;
        }
        if self.recovering && data.seq < self.last_executed {
            // too old to replace our claimed execution point: recovery
            // completes at the next checkpoint boundary (as in PBFT) —
            // `maybe_stabilize` re-issues the fetch when one stabilizes
            return;
        }
        // trust conditions (either suffices):
        //  (a) a 2f+1 checkpoint-vote quorum for the snapshot digest, or
        //  (b) f+1 distinct replicas offering byte-identical snapshots —
        //      at least one of them is correct
        let digest = snapshot_digest(&data.snapshot);
        // an offer is an implicit checkpoint attestation by its
        // envelope-verified sender; absorbing it as a vote keeps a
        // checkpoint certificate assemblable for a stable seq reached via
        // state transfer (the embedded proof field is NOT absorbed — its
        // entries carry no per-entry authentication at this layer)
        self.log.add_checkpoint(&Checkpoint {
            seq: data.seq,
            state_digest: digest,
            replica: data.replica,
        });
        let offers = self.state_offers.entry((data.seq, digest)).or_default();
        offers.insert(data.replica);
        let trusted = self.log.checkpoint_votes(data.seq, digest) >= self.config.quorum()
            || offers.len() > self.config.f;
        if !trusted {
            return;
        }
        // the payload is a correct replica's bytes (trust implies at least
        // one honest attester), so a decode failure means corruption below
        // the trust rules — refuse rather than restore garbage
        let Ok(payload) = TransferPayload::decode(&data.snapshot) else {
            return;
        };
        self.app.restore(&payload.app_snapshot);
        if self.joining {
            self.joining = false;
            // adopt the (f+1)-th highest view observed while quiescent:
            // at least one correct replica vouches for it
            let mut views: Vec<u64> = self.peer_views.values().copied().collect();
            views.sort_unstable_by(|a, b| b.cmp(a));
            if let Some(v) = views.get(self.config.f) {
                self.view = self.view.max(View(*v));
            }
            self.peer_views.clear();
            self.obs.event(
                "bft.onboarded",
                &[
                    ("replica", LabelValue::U64(u64::from(self.id.0))),
                    ("seq", LabelValue::U64(data.seq.0)),
                    ("view", LabelValue::U64(self.view.0)),
                ],
            );
        }
        // adopt the transferred duplicate-suppression table; view/replica
        // are local presentation fields on resend
        self.client_table = payload.table.into_owned();
        for record in self.client_table.values_mut() {
            for reply in record.replies.values_mut() {
                reply.view = self.view;
                reply.replica = self.id;
            }
        }
        self.last_executed = data.seq;
        self.next_seq = self.next_seq.max(data.seq);
        self.log.stabilize(data.seq);
        // own the restored checkpoint: retain the snapshot for serving
        // later transfers and vote for it so the stable certificate
        // survives garbage collection
        self.log
            .store_own_checkpoint(data.seq, digest, data.snapshot.clone());
        let own = Checkpoint {
            seq: data.seq,
            state_digest: digest,
            replica: self.id,
        };
        self.log.add_checkpoint(&own);
        self.send(To::All, Message::Checkpoint(own));
        self.fetching = None;
        self.state_offers.clear();
        self.recovering = false;
        self.pending.clear();
        self.held.clear();
        // rejoin normal operation: any lone view-change attempt we started
        // while stranded is abandoned with our stale state
        self.in_view_change = false;
        self.view_change_attempts = 0;
        let labels = self.obs_label();
        self.obs
            .span_end("bft.state_transfer_us", u64::from(self.id.0), &labels);
        self.event_at("bft.state_transferred", data.seq);
        self.outputs.push(Output::StateTransferred(data.seq));
    }

    // ---------------------------------------------------------- view change

    /// Handles a view-change timer expiration.
    pub fn on_view_timeout(&mut self, epoch: u64) {
        if epoch != self.timer_epoch || self.pending.is_empty() {
            return;
        }
        // A commit certificate beyond our next execution slot proves the
        // group is live and ordered past us: we crashed or were partitioned,
        // and the missing entries will never be retransmitted. A view change
        // cannot fill that gap — the primary is fine, *we* are the straggler
        // — and nobody would join it, so cascading one per timeout floods
        // the group forever. Go quiet (no timer re-arm) and re-announce a
        // state fetch; checkpoint traffic completes the transfer as soon as
        // a fresh-enough stable checkpoint exists.
        if self.log.committed_beyond(self.last_executed, &self.config) {
            self.fetching = None;
            self.request_state(
                SeqNo(self.last_executed.0.saturating_add(1)),
                Digest::default(),
            );
            return;
        }
        let skip = u64::from(self.view_change_attempts).saturating_add(1);
        self.start_view_change(View(self.view.0.saturating_add(skip)));
    }

    fn start_view_change(&mut self, target: View) {
        self.in_view_change = true;
        self.view_change_attempts = self.view_change_attempts.saturating_add(1);
        self.obs.incr("bft.view_changes", &self.obs_label());
        self.obs
            .span_begin("bft.view_change_us", u64::from(self.id.0));
        self.obs.event(
            "bft.view_change",
            &[
                ("replica", LabelValue::U64(u64::from(self.id.0))),
                ("target_view", LabelValue::U64(target.0)),
                (
                    "attempt",
                    LabelValue::U64(u64::from(self.view_change_attempts)),
                ),
            ],
        );
        let vc = ViewChange {
            new_view: target,
            stable_seq: self.log.low(),
            // the real f+1 checkpoint certificate proving stable_seq; at
            // genesis (stable_seq 0) there is no checkpoint and nothing to
            // prove, so the certificate is empty
            checkpoint_proof: self.log.stable_certificate(self.config.weak_quorum()),
            prepared: self.log.prepared_proofs(&self.config),
            replica: self.id,
        };
        self.send(To::All, Message::ViewChange(vc.clone()));
        self.collect_view_change(vc);
        self.arm_timer(); // cascade to the next view if this one stalls
    }

    fn on_view_change(&mut self, sender: ReplicaId, vc: ViewChange) {
        if sender != vc.replica || vc.new_view <= self.view {
            return;
        }
        if !validate_view_change(&vc, &self.config) {
            return;
        }
        self.collect_view_change(vc.clone());
        // liveness rule: if f+1 replicas are already in a higher view, join
        let target = vc.new_view;
        let count = self.view_changes.get(&target).map(|m| m.len()).unwrap_or(0);
        if count > self.config.f && !self.in_view_change {
            self.start_view_change(target);
        }
    }

    fn collect_view_change(&mut self, vc: ViewChange) {
        let target = vc.new_view;
        let set = self.view_changes.entry(target).or_default();
        set.insert(vc.replica, vc);
        if target > self.view
            && set.len() >= self.config.quorum()
            && self.config.primary_of(target) == self.id
        {
            let view_changes: Vec<ViewChange> = set.values().cloned().collect();
            let pre_prepares = compute_new_view_pre_prepares(&view_changes, target);
            let nv = NewView {
                view: target,
                view_changes,
                pre_prepares: pre_prepares.clone(),
                primary: self.id,
            };
            self.send(To::All, Message::NewView(nv));
            self.enter_view(target, pre_prepares);
        }
    }

    fn on_new_view(&mut self, sender: ReplicaId, nv: NewView) {
        if nv.view <= self.view
            || sender != nv.primary
            || self.config.primary_of(nv.view) != nv.primary
        {
            return;
        }
        if nv.view_changes.len() < self.config.quorum() {
            return;
        }
        for vc in &nv.view_changes {
            if vc.new_view != nv.view || !validate_view_change(vc, &self.config) {
                return;
            }
        }
        // recompute the pre-prepare set; a Byzantine primary cannot smuggle
        // in a different order
        let expected = compute_new_view_pre_prepares(&nv.view_changes, nv.view);
        if expected.len() != nv.pre_prepares.len()
            || expected
                .iter()
                .zip(&nv.pre_prepares)
                .any(|(a, b)| a.seq != b.seq || a.digest != b.digest)
        {
            return;
        }
        self.enter_view(nv.view, nv.pre_prepares);
    }

    fn enter_view(&mut self, view: View, pre_prepares: Vec<PrePrepare>) {
        self.view = view;
        self.in_view_change = false;
        self.view_change_attempts = 0;
        self.view_changes.retain(|v, _| *v > view);
        let labels = self.obs_label();
        self.obs
            .span_end("bft.view_change_us", u64::from(self.id.0), &labels);
        self.obs.event(
            "bft.view_entered",
            &[
                ("replica", LabelValue::U64(u64::from(self.id.0))),
                ("view", LabelValue::U64(view.0)),
            ],
        );
        self.outputs.push(Output::EnteredView(view));
        // ordering state is per-view: rebuilt from every request carried
        // inside the re-issued batches
        self.ordered = pre_prepares
            .iter()
            .flat_map(|pp| pp.batch.requests.iter().map(|r| r.digest()))
            .collect();
        // carried requests are (re-)assigned sequence numbers, so they
        // advance the FIFO admission floor; parked requests from the old
        // view are dropped — client retransmission re-delivers them
        self.reorder.clear();
        for pp in &pre_prepares {
            for request in &pp.batch.requests {
                let floor = self.admitted_ts.entry(request.client()).or_insert(0);
                *floor = (*floor).max(request.timestamp());
            }
        }
        let mut max_seq = self.log.low();
        for pp in pre_prepares {
            max_seq = max_seq.max(pp.seq);
            let already_executed = pp.seq <= self.last_executed;
            if !already_executed {
                for request in &pp.batch.requests {
                    self.accept(request);
                }
            }
            let prepare = Prepare {
                view,
                seq: pp.seq,
                digest: pp.digest,
                replica: self.id,
            };
            let entry = self.log.entry(view, pp.seq);
            entry.pre_prepare = Some(pp);
            if already_executed {
                // executed in a prior view: the flag stops local
                // re-execution, but agreement must still run so a peer
                // that missed the commit can assemble a quorum
                entry.executed = true;
            }
            entry.prepares.insert(self.id, prepare);
            if self.id != self.config.primary_of(view) {
                self.send(To::All, Message::Prepare(prepare));
            }
        }
        self.next_seq = max_seq.max(SeqNo(self.last_executed.0));
        if !self.pending.is_empty() {
            self.arm_timer();
        }
        if self.is_primary() {
            self.drain_backlog();
        }
    }
}

/// What a held request is found by: a client's timestamps are distinct.
fn held_key(request: &ClientRequest) -> (ClientId, u64) {
    (request.client(), request.timestamp())
}

/// The client requests a message carries whole: a request, or a
/// pre-prepare's batch.
fn carried(message: &Message) -> &[ClientRequest] {
    match message {
        Message::Request(request) => std::slice::from_ref(request),
        Message::PrePrepare(pp) => &pp.batch.requests,
        _ => &[],
    }
}

/// Structural validation of a view-change message.
fn validate_view_change(vc: &ViewChange, config: &GroupConfig) -> bool {
    // a claimed stable checkpoint must carry its certificate: f+1 distinct
    // in-group replicas checkpointing the same digest at stable_seq (at
    // least one is correct, so the watermark claim is real). Genesis
    // (stable_seq 0) is exempt — there is no checkpoint to prove.
    if vc.stable_seq.0 > 0 {
        let Some(digest) = vc.checkpoint_proof.first().map(|c| c.state_digest) else {
            return false;
        };
        let attesters = vc
            .checkpoint_proof
            .iter()
            .filter(|c| {
                c.seq == vc.stable_seq
                    && c.state_digest == digest
                    && (c.replica.0 as usize) < config.n
            })
            .map(|c| c.replica)
            .collect::<BTreeSet<_>>()
            .len();
        if attesters < config.weak_quorum() {
            return false;
        }
    }
    // Castro–Liskov bound the prepared set to the sender's window
    // (h, h + L]: a proof outside it is refused before anything walks the
    // range it would open, and a window that overflows is no window
    let Some(high) = vc.stable_seq.0.checked_add(config.watermark_window) else {
        return false;
    };
    for proof in &vc.prepared {
        let seq = proof.pre_prepare.seq;
        if seq <= vc.stable_seq || seq.0 > high {
            return false;
        }
        if proof.pre_prepare.digest != proof.pre_prepare.batch.digest() {
            return false;
        }
        let matching = proof
            .prepares
            .iter()
            .filter(|p| {
                p.digest == proof.pre_prepare.digest
                    && p.view == proof.pre_prepare.view
                    && p.seq == proof.pre_prepare.seq
            })
            .map(|p| p.replica)
            .collect::<BTreeSet<_>>()
            .len();
        if matching < config.prepare_quorum() {
            return false;
        }
    }
    true
}

/// Deterministically derives the new view's re-issued pre-prepares from a
/// set of view changes (used by the primary to build NEW-VIEW and by
/// backups to validate it).
fn compute_new_view_pre_prepares(view_changes: &[ViewChange], view: View) -> Vec<PrePrepare> {
    let min_s = view_changes
        .iter()
        .map(|vc| vc.stable_seq)
        .max()
        .unwrap_or(SeqNo(0));
    // for each seq above min_s, the prepared proof from the highest view wins
    let mut best: BTreeMap<SeqNo, &PreparedProof> = BTreeMap::new();
    for vc in view_changes {
        for proof in &vc.prepared {
            let seq = proof.pre_prepare.seq;
            if seq <= min_s {
                continue;
            }
            let replace = best
                .get(&seq)
                .map(|cur| proof.pre_prepare.view > cur.pre_prepare.view)
                .unwrap_or(true);
            if replace {
                best.insert(seq, proof);
            }
        }
    }
    let max_s = best.keys().next_back().copied().unwrap_or(min_s);
    // every proof is above `min_s`, so `min_s` has a successor whenever
    // there is anything to carry; validated proofs keep the walk within
    // one watermark window
    let Some(first) = min_s.0.checked_add(1) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for seq_raw in first..=max_s.0 {
        let seq = SeqNo(seq_raw);
        let pp = match best.get(&seq) {
            // the prepared batch is carried over *whole*: a view change
            // interrupting a partially-agreed batch re-proposes every
            // request in it, in the same order, under the same digest
            Some(proof) => PrePrepare {
                view,
                seq,
                digest: proof.pre_prepare.digest,
                batch: proof.pre_prepare.batch.clone(),
            },
            None => {
                // gap: the null (empty) batch
                let batch = Batch::default();
                PrePrepare {
                    view,
                    seq,
                    digest: batch.digest(),
                    batch,
                }
            }
        };
        out.push(pp);
    }
    out
}

/// Canonical digest rule binding checkpoints to snapshots: replicas
/// checkpoint `H("bft-snapshot" ‖ snapshot)` so state transfer can verify a
/// snapshot against checkpoint votes without re-executing. The digested
/// bytes are the full transfer payload (application snapshot plus reply
/// cache), so the duplicate-suppression table is covered by agreement too.
fn snapshot_digest(snapshot: &[u8]) -> Digest {
    Digest::of_parts(&[b"bft-snapshot", snapshot])
}

/// Bound on decoded table lengths (hostile-length defence).
const MAX_TABLE: u32 = 1 << 16;

/// The state-transfer payload: the application snapshot plus the
/// per-client reply cache, so a transferred replica keeps suppressing
/// duplicates and resending cached replies.
///
/// Hand-written because it is a projection of live state, encoded from the
/// replica's own table without copying it: only order-determined fields
/// (client, floor, timestamp, result) travel — `Reply::view` and
/// `Reply::replica` vary across correct replicas and would break
/// byte-identical checkpoints. A decoded payload holds placeholders there,
/// which the restoring replica overwrites with its own view and id.
#[derive(Debug, Clone)]
pub struct TransferPayload<'a> {
    app_snapshot: Vec<u8>,
    table: Cow<'a, BTreeMap<ClientId, ClientRecord>>,
}

impl Wire for TransferPayload<'_> {
    fn put(&self, w: &mut Writer) {
        self.app_snapshot.put(w);
        w.count(self.table.len());
        for (client, record) in self.table.iter() {
            client.put(w);
            record.replies.floor().put(w);
            w.count(record.replies.len());
            for (timestamp, reply) in record.replies.iter() {
                timestamp.put(w);
                reply.result.put(w);
            }
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let app_snapshot = Wire::take(r)?;
        let mut table = BTreeMap::new();
        for _ in 0..r.count(MAX_TABLE)? {
            let client = ClientId::take(r)?;
            let mut record = ClientRecord {
                replies: KeyWindow::with_floor(Wire::take(r)?),
            };
            for _ in 0..r.count(MAX_TABLE)? {
                let timestamp = Wire::take(r)?;
                let reply = Reply {
                    view: View(0),
                    timestamp,
                    client,
                    replica: ReplicaId(0),
                    result: Wire::take(r)?,
                };
                // the encoder writes each client's replies in ascending
                // timestamp order, once each
                if !record.replies.push_newest(timestamp, reply) {
                    return Err(WireError);
                }
            }
            table.insert(client, record);
        }
        Ok(TransferPayload {
            app_snapshot,
            table: Cow::Owned(table),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CounterMachine;

    fn replica(id: u32) -> Replica<CounterMachine> {
        Replica::new(GroupConfig::for_f(1), ReplicaId(id), CounterMachine::new())
    }

    /// Drains `replica`'s queued outputs into a fresh buffer.
    fn outputs<S: StateMachine>(replica: &mut Replica<S>) -> Vec<Output> {
        let mut outputs = Vec::new();
        replica.swap_outputs(&mut outputs);
        outputs
    }

    fn request(ts: u64, delta: i64) -> ClientRequest {
        ClientRequest::new(ClientId(1), ts, 0, CounterMachine::op(delta))
    }

    /// The encoder writes each client's replies in ascending timestamp
    /// order, once each; a payload that does not is refused, not sorted.
    #[test]
    fn transfer_payload_refuses_replies_out_of_order() {
        let encode = |timestamps: &[u64]| {
            let mut w = Writer::new();
            Vec::<u8>::new().put(&mut w);
            w.count(1);
            ClientId(7).put(&mut w);
            0u64.put(&mut w);
            w.count(timestamps.len());
            for &t in timestamps {
                t.put(&mut w);
                vec![t as u8].put(&mut w);
            }
            w.finish()
        };
        assert!(TransferPayload::decode(&encode(&[4, 6])).is_ok());
        assert!(
            TransferPayload::decode(&encode(&[6, 4])).is_err(),
            "descending"
        );
        assert!(
            TransferPayload::decode(&encode(&[4, 4])).is_err(),
            "duplicate"
        );
    }

    /// Drives a full in-memory group of 4 replicas by relaying outputs.
    struct Group {
        replicas: Vec<Replica<CounterMachine>>,
        replies: Vec<Reply>,
        executed: Vec<(u32, SeqNo, Bytes)>,
    }

    impl Group {
        fn new() -> Group {
            Group {
                replicas: (0..4).map(replica).collect(),
                replies: Vec::new(),
                executed: Vec::new(),
            }
        }

        /// Delivers every queued output until quiescent. `mute` crashes
        /// those replica ids: they neither send nor receive.
        fn pump(&mut self, mute: &[u32]) {
            loop {
                let mut moved = false;
                for i in 0..self.replicas.len() {
                    let drained = outputs(&mut self.replicas[i]);
                    let from = ReplicaId(i as u32);
                    for out in drained {
                        if mute.contains(&(i as u32)) {
                            continue;
                        }
                        moved = true;
                        match out {
                            Output::Send(To::Replica(to), msg) => {
                                if !mute.contains(&to.0) {
                                    self.replicas[to.0 as usize].on_message(from, msg);
                                }
                            }
                            Output::Send(To::All, msg) => {
                                for j in 0..self.replicas.len() {
                                    if j != i && !mute.contains(&(j as u32)) {
                                        let m = msg.clone();
                                        self.replicas[j].on_message(from, m);
                                    }
                                }
                            }
                            Output::Send(To::Client(_), Message::Reply(r)) => self.replies.push(r),
                            Output::Send(To::Client(_), _) => {}
                            Output::Executed { seq, result, .. } => {
                                self.executed.push((i as u32, seq, result));
                            }
                            Output::StartViewTimer { .. }
                            | Output::EnteredView(_)
                            | Output::StateTransferred(_) => {}
                        }
                    }
                }
                if !moved {
                    break;
                }
            }
        }
    }

    fn group_with(cfg: GroupConfig) -> Group {
        Group {
            replicas: (0..cfg.n as u32)
                .map(|i| Replica::new(cfg.clone(), ReplicaId(i), CounterMachine::new()))
                .collect(),
            replies: Vec::new(),
            executed: Vec::new(),
        }
    }

    #[test]
    fn normal_case_executes_on_all_replicas() {
        let mut g = Group::new();
        g.replicas[0].on_request(request(1, 5));
        g.pump(&[]);
        for r in &g.replicas {
            assert_eq!(r.last_executed(), SeqNo(1));
            assert_eq!(r.app().total(), 5);
        }
        // every replica replied to the client
        assert_eq!(g.replies.len(), 4);
        assert!(g.replies.iter().all(|r| r.result == 5i64.to_le_bytes()));
    }

    #[test]
    fn sequential_requests_execute_in_order() {
        let mut g = Group::new();
        for ts in 1..=5 {
            g.replicas[0].on_request(request(ts, 10));
            g.pump(&[]);
        }
        for r in &g.replicas {
            assert_eq!(r.last_executed(), SeqNo(5));
            assert_eq!(r.app().total(), 50);
        }
    }

    #[test]
    fn duplicate_request_resends_cached_reply() {
        let mut g = Group::new();
        g.replicas[0].on_request(request(1, 5));
        g.pump(&[]);
        let before = g.replies.len();
        g.replicas[0].on_request(request(1, 5));
        g.pump(&[]);
        assert_eq!(g.replies.len(), before + 1, "cached reply resent");
        assert_eq!(g.replicas[0].app().total(), 5, "no re-execution");
    }

    #[test]
    fn backup_relays_request_to_primary() {
        let mut g = Group::new();
        g.replicas[2].on_request(request(1, 7));
        g.pump(&[]);
        for r in &g.replicas {
            assert_eq!(r.app().total(), 7);
        }
    }

    #[test]
    fn one_crashed_backup_does_not_block() {
        let mut g = Group::new();
        g.replicas[0].on_request(request(1, 3));
        g.pump(&[3]); // replica 3 silent
        for r in &g.replicas[..3] {
            assert_eq!(r.app().total(), 3);
        }
        assert_eq!(g.replicas[3].app().total(), 0);
    }

    #[test]
    fn view_timeout_triggers_view_change_and_recovery() {
        let mut g = Group::new();
        // primary (0) is crashed: backups receive the request, relay it,
        // nothing happens, timers expire
        for i in 1..4 {
            g.replicas[i].on_request(request(1, 9));
        }
        g.pump(&[0]);
        assert_eq!(g.replicas[1].app().total(), 0, "stuck without primary");
        // timers fire on the three live backups
        for i in 1..4 {
            let epoch = g.replicas[i].timer_epoch;
            g.replicas[i].on_view_timeout(epoch);
        }
        g.pump(&[0]);
        for r in &g.replicas[1..4] {
            assert_eq!(r.view(), View(1), "moved to view 1");
        }
        // re-send the request to the new primary (client retransmission)
        g.replicas[1].on_request(request(1, 9));
        g.pump(&[0]);
        for r in &g.replicas[1..4] {
            assert_eq!(r.app().total(), 9, "executed in the new view");
        }
    }

    #[test]
    fn prepared_request_survives_view_change() {
        let mut g = Group::new();
        // primary 0 pre-prepares then crashes; backups exchange prepares
        // but all COMMITs are dropped, so the request is prepared-not-
        // committed when the view change starts
        g.replicas[0].on_request(request(1, 4));
        let outs = outputs(&mut g.replicas[0]);
        for out in outs {
            if let Output::Send(To::All, Message::PrePrepare(pp)) = out {
                for j in 1..4 {
                    g.replicas[j].on_message(ReplicaId(0), Message::PrePrepare(pp.clone()));
                }
            }
        }
        // deliver prepares between backups, drop everything else
        let mut prepares = Vec::new();
        for i in 1..4 {
            for out in outputs(&mut g.replicas[i]) {
                if let Output::Send(To::All, Message::Prepare(p)) = out {
                    prepares.push((i, p));
                }
            }
        }
        for (from, p) in prepares {
            for j in 1..4 {
                if j != from {
                    g.replicas[j].on_message(ReplicaId(from as u32), Message::Prepare(p));
                }
            }
        }
        // drop the resulting commits
        for i in 1..4 {
            let _ = outputs(&mut g.replicas[i]);
        }
        assert_eq!(g.replicas[1].app().total(), 0, "not yet executed");
        // view change
        for i in 1..4 {
            let epoch = g.replicas[i].timer_epoch;
            g.replicas[i].on_view_timeout(epoch);
        }
        g.pump(&[0]);
        // the prepared request must be re-executed in view 1 without the
        // client retransmitting
        for r in &g.replicas[1..4] {
            assert_eq!(r.view(), View(1));
            assert_eq!(r.app().total(), 4, "prepared request carried over");
        }
    }

    #[test]
    fn pipeline_depth_bounds_sequences_in_flight() {
        let mut cfg = GroupConfig::for_f(1);
        cfg.max_batch = 1;
        cfg.pipeline_depth = 2;
        let mut g = group_with(cfg);
        for ts in 1..=5 {
            g.replicas[0].on_request(request(ts, 1));
        }
        // with nothing delivered yet, only two sequence numbers may be
        // proposed; the rest wait in the backlog
        assert!(g.replicas[0].log().entry_ref(View(0), SeqNo(2)).is_some());
        assert!(g.replicas[0].log().entry_ref(View(0), SeqNo(3)).is_none());
        g.pump(&[]);
        for r in &g.replicas {
            assert_eq!(
                r.last_executed(),
                SeqNo(5),
                "backlog drained as slots freed"
            );
            assert_eq!(r.app().total(), 5);
        }
    }

    #[test]
    fn full_pipeline_accumulates_full_batches() {
        let mut cfg = GroupConfig::for_f(1);
        cfg.max_batch = 4;
        cfg.pipeline_depth = 1;
        let mut g = group_with(cfg);
        for ts in 1..=5 {
            g.replicas[0].on_request(request(ts, 1));
        }
        // the single slot was taken by ts=1 alone (open slot ⇒ immediate
        // flush); ts=2..=5 accumulate while it is in flight
        assert!(g.replicas[0].log().entry_ref(View(0), SeqNo(2)).is_none());
        g.pump(&[]);
        for r in &g.replicas {
            assert_eq!(r.app().total(), 5);
            assert_eq!(
                r.last_executed(),
                SeqNo(2),
                "five requests agreed as two batches"
            );
        }
        assert_eq!(g.replies.len(), 5 * 4, "one reply per request per replica");
    }

    #[test]
    fn primary_dedup_set_is_bounded_by_the_in_flight_window() {
        let mut cfg = GroupConfig::for_f(1);
        cfg.max_batch = 2;
        cfg.pipeline_depth = 3;
        let window = (cfg.pipeline_depth as usize) * cfg.max_batch;
        let mut g = group_with(cfg);
        let mut ts = 0;
        // ten in-flight windows' worth of requests, a window per wave
        for _ in 0..10 {
            for _ in 0..window {
                ts += 1;
                g.replicas[0].on_request(request(ts, 1));
                assert!(g.replicas[0].ordered.len() <= window);
            }
            g.pump(&[]);
            assert!(
                g.replicas[0].ordered.is_empty(),
                "executed digests released"
            );
        }
        for r in &g.replicas {
            assert_eq!(r.app().total(), ts as i64);
        }
        // a late copy of an executed request is answered from the client
        // table, never ordered a second time
        let replies = g.replies.len();
        g.replicas[0].on_request(request(ts, 1));
        g.pump(&[]);
        assert_eq!(g.replies.len(), replies + 1, "cached reply resent");
        assert!(g.replicas[0].ordered.is_empty());
        assert_eq!(g.replicas[0].app().total(), ts as i64, "no re-execution");
    }

    #[test]
    fn max_batch_bytes_splits_oversized_batches() {
        let mut cfg = GroupConfig::for_f(1);
        cfg.max_batch = 8;
        cfg.max_batch_bytes = 12; // each CounterMachine op is 8 bytes
        cfg.pipeline_depth = 1;
        let mut g = group_with(cfg);
        for ts in 1..=4 {
            g.replicas[0].on_request(request(ts, 1));
        }
        g.pump(&[]);
        for r in &g.replicas {
            assert_eq!(r.app().total(), 4);
            assert_eq!(
                r.last_executed(),
                SeqNo(4),
                "byte bound keeps every batch at one op"
            );
        }
    }

    #[test]
    fn out_of_order_timestamps_both_execute() {
        let mut g = Group::new();
        // ts=2 reaches the primary before ts=1 (network reorder under a
        // pipelining client): both must execute, in arrival order
        g.replicas[0].on_request(request(2, 10));
        g.replicas[0].on_request(request(1, 7));
        g.pump(&[]);
        for r in &g.replicas {
            assert_eq!(r.app().total(), 17);
        }
        assert_eq!(g.replies.iter().filter(|r| r.timestamp == 1).count(), 4);
        assert_eq!(g.replies.iter().filter(|r| r.timestamp == 2).count(), 4);
    }

    #[test]
    fn batch_interrupted_by_view_change_reproposed_intact() {
        let mut g = Group::new();
        // primary 0 proposes a batch of three requests, then crashes; the
        // backups prepare it but every COMMIT is dropped, so the batch is
        // prepared-not-committed when the view change starts
        let pp = pre_prepare_of(0, 1, vec![request(1, 5), request(2, 6), request(3, 7)]);
        for j in 1..4 {
            g.replicas[j].on_message(ReplicaId(0), Message::PrePrepare(pp.clone()));
        }
        let mut prepares = Vec::new();
        for i in 1..4 {
            for out in outputs(&mut g.replicas[i]) {
                if let Output::Send(To::All, Message::Prepare(p)) = out {
                    prepares.push((i, p));
                }
            }
        }
        for (from, p) in prepares {
            for j in 1..4 {
                if j != from {
                    g.replicas[j].on_message(ReplicaId(from as u32), Message::Prepare(p));
                }
            }
        }
        for i in 1..4 {
            let _ = outputs(&mut g.replicas[i]); // drop the commits
        }
        assert_eq!(g.replicas[1].app().total(), 0, "not yet executed");
        for i in 1..4 {
            let epoch = g.replicas[i].timer_epoch;
            g.replicas[i].on_view_timeout(epoch);
        }
        g.pump(&[0]);
        // the whole batch carried over: every request executed exactly
        // once, in the original order, with no client retransmission
        for r in &g.replicas[1..4] {
            assert_eq!(r.view(), View(1));
            assert_eq!(r.last_executed(), SeqNo(1));
            assert_eq!(r.app().total(), 18, "no request lost");
        }
        for ts in 1..=3u64 {
            assert_eq!(
                g.replies.iter().filter(|r| r.timestamp == ts).count(),
                3,
                "one reply per live replica for ts {ts}, none duplicated"
            );
        }
    }

    #[test]
    fn batches_straddling_checkpoint_boundary_gc_correctly() {
        let mut cfg = GroupConfig::for_f(1);
        cfg.max_batch = 2;
        cfg.pipeline_depth = 1;
        let mut g = group_with(cfg);
        // 36 requests agreed mostly as two-request batches: the sequence
        // numbers cross the checkpoints at 16 and beyond
        let mut ts = 0;
        for _round in 0..9 {
            for _ in 0..4 {
                ts += 1;
                g.replicas[0].on_request(request(ts, 1));
            }
            g.pump(&[]);
        }
        for r in &g.replicas {
            assert_eq!(r.app().total(), 36, "every request executed");
            assert!(
                r.log().low() >= SeqNo(16),
                "stable checkpoint advanced past batched entries"
            );
            let live = r.log().len() as u64;
            let above_checkpoint = r.last_executed().0 - r.log().low().0;
            assert!(
                live <= above_checkpoint,
                "entries at or below the checkpoint garbage-collected \
                 ({live} live, low {:?}, executed {:?})",
                r.log().low(),
                r.last_executed()
            );
        }
        for t in 1..=36u64 {
            assert_eq!(
                g.replies.iter().filter(|r| r.timestamp == t).count(),
                4,
                "ts {t} executed exactly once group-wide"
            );
        }
    }

    #[test]
    fn checkpoints_advance_watermarks() {
        let mut g = Group::new();
        for ts in 1..=17 {
            g.replicas[0].on_request(request(ts, 1));
            g.pump(&[]);
        }
        for r in &g.replicas {
            assert_eq!(r.log().low(), SeqNo(16), "stable checkpoint at 16");
        }
    }

    fn pre_prepare_of(view: u64, seq: u64, requests: Vec<ClientRequest>) -> PrePrepare {
        let batch = Batch { requests };
        PrePrepare {
            view: View(view),
            seq: SeqNo(seq),
            digest: batch.digest(),
            batch,
        }
    }

    #[test]
    fn equivocating_primary_is_refused() {
        let mut r1 = replica(1);
        let pp_a = pre_prepare_of(0, 1, vec![request(1, 1)]);
        let pp_b = pre_prepare_of(0, 1, vec![request(1, 2)]);
        r1.on_message(ReplicaId(0), Message::PrePrepare(pp_a.clone()));
        r1.on_message(ReplicaId(0), Message::PrePrepare(pp_b));
        let entry = r1.log().entry_ref(View(0), SeqNo(1)).unwrap();
        assert_eq!(
            entry.pre_prepare.as_ref().unwrap().digest,
            pp_a.digest,
            "first accepted, conflicting refused"
        );
    }

    #[test]
    fn pre_prepare_from_non_primary_ignored() {
        let mut r1 = replica(1);
        let pp = pre_prepare_of(0, 1, vec![request(1, 1)]);
        r1.on_message(ReplicaId(2), Message::PrePrepare(pp)); // 2 is not primary of view 0
        assert!(r1.log().entry_ref(View(0), SeqNo(1)).is_none());
    }

    #[test]
    fn mismatched_batch_digest_refused_and_audited() {
        let mut r1 = replica(1);
        let (obs, _clock) = Obs::manual();
        r1.set_obs(obs.clone());
        // the digest claims a different batch than the one embedded
        let mut pp = pre_prepare_of(0, 1, vec![request(1, 1)]);
        pp.digest = Digest::of(b"lie");
        r1.on_message(ReplicaId(0), Message::PrePrepare(pp));
        assert!(r1.log().entry_ref(View(0), SeqNo(1)).is_none(), "refused");
        let labels = [("replica", LabelValue::U64(1))];
        assert_eq!(obs.counter_value("bft.bad_batches", &labels), 1);
        let audited = obs
            .with_flight(|f| f.events().any(|e| e.kind == "bft.bad_batch_digest"))
            .unwrap_or(false);
        assert!(audited, "contradiction lands on the flight record");
        // an empty batch from a live primary is refused the same way
        let null = pre_prepare_of(0, 1, Vec::new());
        r1.on_message(ReplicaId(0), Message::PrePrepare(null));
        assert!(r1.log().entry_ref(View(0), SeqNo(1)).is_none());
        assert_eq!(obs.counter_value("bft.bad_batches", &labels), 2);
    }

    #[test]
    fn spoofed_prepare_sender_ignored() {
        let mut r1 = replica(1);
        let req = request(1, 1);
        let prepare = Prepare {
            view: View(0),
            seq: SeqNo(1),
            digest: req.digest(),
            replica: ReplicaId(3),
        };
        // claimed sender 2 != embedded replica 3
        r1.on_message(ReplicaId(2), Message::Prepare(prepare));
        assert!(r1
            .log()
            .entry_ref(View(0), SeqNo(1))
            .is_none_or(|e| e.prepares.is_empty()));
    }

    #[test]
    fn stale_view_timer_is_ignored() {
        let mut g = Group::new();
        g.replicas[1].on_request(request(1, 1));
        let stale = g.replicas[1].timer_epoch;
        g.pump(&[]); // executes; timer epoch advanced / pending cleared
        g.replicas[1].on_view_timeout(stale);
        assert!(!g.replicas[1].in_view_change, "stale epoch ignored");
        assert_eq!(g.replicas[1].view(), View(0));
    }

    #[test]
    fn proactive_recovery_restores_clean_state() {
        let mut g = Group::new();
        for ts in 1..=17 {
            g.replicas[0].on_request(request(ts, 3));
            g.pump(&[]);
        }
        // silent corruption of replica 2's application state
        g.replicas[2]
            .app_mut()
            .restore(&CounterMachine::new().snapshot());
        assert_ne!(g.replicas[2].app().digest(), g.replicas[0].app().digest());
        g.replicas[2].start_recovery();
        assert!(g.replicas[2].is_recovering());
        g.pump(&[]);
        // the stable checkpoint at 16 is older than replica 2's execution
        // point (17): recovery waits for the NEXT checkpoint
        for ts in 18..=33 {
            g.replicas[0].on_request(request(ts, 3));
            g.pump(&[]);
        }
        assert!(!g.replicas[2].is_recovering(), "recovered at checkpoint 32");
        assert_eq!(
            g.replicas[2].app().digest(),
            g.replicas[0].app().digest(),
            "clean state restored from peers"
        );
    }

    #[test]
    fn straggler_fetches_state_instead_of_cascading_view_changes() {
        let mut g = Group::new();
        // replica 3 misses requests 1..=5 (crashed / partitioned)
        for ts in 1..=5 {
            g.replicas[0].on_request(request(ts, 2));
            g.pump(&[3]);
        }
        // it rejoins and observes request 6 committed at seq 6, which it
        // cannot execute across the gap left by 1..=5
        g.replicas[0].on_request(request(6, 2));
        g.pump(&[]);
        assert_eq!(g.replicas[3].last_executed(), SeqNo(0), "stuck behind gap");
        // its view timer expires: a lone view change would never gather
        // joiners (the primary is live), so it must go quiet and ask for
        // state instead of flooding the group once per timeout
        let epoch = g.replicas[3].timer_epoch;
        g.replicas[3].on_view_timeout(epoch);
        assert!(!g.replicas[3].in_view_change, "no lone view change");
        let outs = outputs(&mut g.replicas[3]);
        assert!(
            outs.iter()
                .any(|o| matches!(o, Output::Send(To::All, Message::StateFetch(_)))),
            "state fetch announced"
        );
        assert!(
            !outs.iter().any(|o| matches!(
                o,
                Output::Send(To::All, Message::ViewChange(_)) | Output::StartViewTimer { .. }
            )),
            "no view-change flood, no timer re-arm"
        );
    }

    #[test]
    fn byzantine_new_view_is_rejected() {
        // the new primary (replica 1) sends a NEW-VIEW whose re-issued
        // pre-prepares do not match the view-change set: backups recompute
        // and refuse to enter the view
        let mut g = Group::new();
        // build a legitimate 2f+1 view-change set for view 1
        let vcs: Vec<ViewChange> = (1..4)
            .map(|i| ViewChange {
                new_view: View(1),
                stable_seq: SeqNo(0),
                checkpoint_proof: Vec::new(),
                prepared: Vec::new(),
                replica: ReplicaId(i),
            })
            .collect();
        // a forged pre-prepare smuggled into the new view
        let forged = pre_prepare_of(1, 1, vec![request(1, 999_999)]);
        let nv = NewView {
            view: View(1),
            view_changes: vcs,
            pre_prepares: vec![forged],
            primary: ReplicaId(1),
        };
        g.replicas[2].on_message(ReplicaId(1), Message::NewView(nv));
        assert_eq!(
            g.replicas[2].view(),
            View(0),
            "backup recomputed the pre-prepare set and refused the forgery"
        );
    }

    #[test]
    fn lagging_replica_catches_up_via_state_transfer() {
        let mut g = Group::new();
        // run 17 requests with replica 3 crashed (misses everything)
        for ts in 1..=17 {
            g.replicas[0].on_request(request(ts, 2));
            g.pump(&[3]);
        }
        assert_eq!(g.replicas[3].app().total(), 0);
        // replica 3 comes back and hears checkpoint messages from others:
        // replay checkpoint votes for seq 16 from replicas 0..2
        for i in 0..3u32 {
            let (seq, (digest, _)) = {
                let log = g.replicas[i as usize].log();
                let (s, d) = log.latest_own_checkpoint().expect("checkpointed");
                (s, (d.0, ()))
            };
            let cp = Checkpoint {
                seq,
                state_digest: digest,
                replica: ReplicaId(i),
            };
            g.replicas[3].on_message(ReplicaId(i), Message::Checkpoint(cp));
        }
        g.pump(&[]);
        assert_eq!(g.replicas[3].last_executed(), SeqNo(16));
        assert_eq!(g.replicas[3].app().total(), 32, "restored state at seq 16");
    }

    /// Catches replica 3 up to the group's stable checkpoint by replaying
    /// peer checkpoint votes and pumping the resulting state transfer.
    fn transfer_state_to_replica_3(g: &mut Group) {
        for i in 0..3u32 {
            let (seq, digest) = {
                let log = g.replicas[i as usize].log();
                let (s, d) = log.latest_own_checkpoint().expect("checkpointed");
                (s, d.0)
            };
            let cp = Checkpoint {
                seq,
                state_digest: digest,
                replica: ReplicaId(i),
            };
            g.replicas[3].on_message(ReplicaId(i), Message::Checkpoint(cp));
        }
        g.pump(&[]);
    }

    #[test]
    fn transferred_replica_answers_duplicates_from_its_reply_cache() {
        let mut g = Group::new();
        for ts in 1..=17 {
            g.replicas[0].on_request(request(ts, 2));
            g.pump(&[3]);
        }
        transfer_state_to_replica_3(&mut g);
        assert_eq!(g.replicas[3].last_executed(), SeqNo(16));
        // a duplicate of a timestamp executed BEFORE the transfer must be
        // answered from the transferred reply cache — not relayed, not
        // re-executed (the §10 regression: the table used to arrive empty)
        let total_before = g.replicas[3].app().total();
        g.replicas[3].on_request(request(16, 2));
        let outs = outputs(&mut g.replicas[3]);
        let cached = outs.iter().any(|o| {
            matches!(o, Output::Send(To::Client(_), Message::Reply(r))
                if r.timestamp == 16 && r.result == 32i64.to_le_bytes())
        });
        assert!(cached, "cached reply resent from transferred table");
        assert!(
            !outs
                .iter()
                .any(|o| matches!(o, Output::Send(To::Replica(_), Message::Request(_)))),
            "duplicate not relayed for re-ordering"
        );
        assert_eq!(g.replicas[3].app().total(), total_before, "no re-execution");
    }

    #[test]
    fn view_change_carries_a_real_checkpoint_certificate() {
        let mut g = Group::new();
        for ts in 1..=17 {
            g.replicas[0].on_request(request(ts, 1));
            g.pump(&[]);
        }
        // the primary goes dark with a request outstanding
        for i in 1..4 {
            g.replicas[i].on_request(request(18, 1));
        }
        g.pump(&[0]);
        let epoch = g.replicas[1].timer_epoch;
        g.replicas[1].on_view_timeout(epoch);
        let vc = outputs(&mut g.replicas[1])
            .into_iter()
            .find_map(|o| match o {
                Output::Send(To::All, Message::ViewChange(vc)) => Some(vc),
                _ => None,
            })
            .expect("view change started");
        assert_eq!(vc.stable_seq, SeqNo(16));
        assert!(
            vc.checkpoint_proof.len() >= 2,
            "f+1 checkpoint certificate attached, got {}",
            vc.checkpoint_proof.len()
        );
        assert!(vc.checkpoint_proof.iter().all(|c| c.seq == SeqNo(16)));
        let distinct: BTreeSet<ReplicaId> = vc.checkpoint_proof.iter().map(|c| c.replica).collect();
        assert!(distinct.len() >= 2, "distinct attesters");
        // and the certificate passes the receiver-side validation
        assert!(validate_view_change(&vc, &GroupConfig::for_f(1)));
    }

    #[test]
    fn unproven_stable_seq_claim_is_rejected() {
        let cfg = GroupConfig::for_f(1);
        // no certificate at all
        let bare = ViewChange {
            new_view: View(1),
            stable_seq: SeqNo(16),
            checkpoint_proof: Vec::new(),
            prepared: Vec::new(),
            replica: ReplicaId(3),
        };
        assert!(!validate_view_change(&bare, &cfg));
        // a certificate at the wrong seq
        let wrong_seq = ViewChange {
            checkpoint_proof: vec![
                Checkpoint {
                    seq: SeqNo(8),
                    state_digest: Digest::of(b"s"),
                    replica: ReplicaId(0),
                },
                Checkpoint {
                    seq: SeqNo(8),
                    state_digest: Digest::of(b"s"),
                    replica: ReplicaId(1),
                },
            ],
            ..bare.clone()
        };
        assert!(!validate_view_change(&wrong_seq, &cfg));
        // one attester repeated is not f+1 distinct replicas
        let repeated = ViewChange {
            checkpoint_proof: vec![
                Checkpoint {
                    seq: SeqNo(16),
                    state_digest: Digest::of(b"s"),
                    replica: ReplicaId(0),
                },
                Checkpoint {
                    seq: SeqNo(16),
                    state_digest: Digest::of(b"s"),
                    replica: ReplicaId(0),
                },
            ],
            ..bare.clone()
        };
        assert!(!validate_view_change(&repeated, &cfg));
        // out-of-group replica ids do not count
        let foreign = ViewChange {
            checkpoint_proof: vec![
                Checkpoint {
                    seq: SeqNo(16),
                    state_digest: Digest::of(b"s"),
                    replica: ReplicaId(7),
                },
                Checkpoint {
                    seq: SeqNo(16),
                    state_digest: Digest::of(b"s"),
                    replica: ReplicaId(9),
                },
            ],
            ..bare.clone()
        };
        assert!(!validate_view_change(&foreign, &cfg));
        // a receiving replica drops the unproven message entirely
        let mut r2 = replica(2);
        r2.on_message(ReplicaId(3), Message::ViewChange(bare.clone()));
        assert!(r2.view_changes.get(&View(1)).is_none_or(|m| m.is_empty()));
        // genesis claims need no certificate
        let genesis = ViewChange {
            stable_seq: SeqNo(0),
            ..bare
        };
        assert!(validate_view_change(&genesis, &cfg));
    }

    #[test]
    fn barrier_operation_forces_an_off_interval_checkpoint() {
        use crate::queue::{ElementId, QueueMachine, QueueOp};
        let queue = QueueMachine::new(1024, (0..4).map(ElementId));
        let mut r0 = Replica::new(GroupConfig::for_f(1), ReplicaId(0), queue);
        let req = ClientRequest::new(ClientId(1), 1, 0, QueueOp::Join(ElementId(9)).encode());
        r0.on_request(req);
        let digest = r0
            .log()
            .entry_ref(View(0), SeqNo(1))
            .and_then(|e| e.pre_prepare.as_ref())
            .map(|pp| pp.digest)
            .expect("primary proposed the join");
        for i in 1..=2u32 {
            r0.on_message(
                ReplicaId(i),
                Message::Prepare(Prepare {
                    view: View(0),
                    seq: SeqNo(1),
                    digest,
                    replica: ReplicaId(i),
                }),
            );
        }
        for i in 1..=2u32 {
            r0.on_message(
                ReplicaId(i),
                Message::Commit(Commit {
                    view: View(0),
                    seq: SeqNo(1),
                    digest,
                    replica: ReplicaId(i),
                }),
            );
        }
        assert_eq!(r0.last_executed(), SeqNo(1));
        // seq 1 is far from the checkpoint interval (16), yet the Join
        // forced a checkpoint right at the admission barrier
        assert!(r0.log().own_checkpoint(SeqNo(1)).is_some());
        assert!(outputs(&mut r0).iter().any(|o| {
            matches!(o, Output::Send(To::All, Message::Checkpoint(c)) if c.seq == SeqNo(1))
        }));
    }

    #[test]
    fn onboarding_replica_stays_quiescent_until_caught_up() {
        let mut g = Group::new();
        // exactly one checkpoint interval: the group head IS the stable
        // checkpoint, so the transferred joiner has no gap to re-order
        for ts in 1..=16 {
            g.replicas[0].on_request(request(ts, 2));
            g.pump(&[3]);
        }
        // slot 3 is replaced: a fresh, empty-state instance onboards
        g.replicas[3] = replica(3);
        g.replicas[3].begin_onboarding();
        assert!(g.replicas[3].joining);
        // ordering traffic is ignored while quiescent: no relay, no votes
        g.replicas[3].on_request(request(99, 1));
        let outs = outputs(&mut g.replicas[3]);
        assert!(
            !outs.iter().any(|o| matches!(
                o,
                Output::Send(To::Replica(_), _)
                    | Output::Send(To::All, Message::Prepare(_))
                    | Output::Send(To::All, Message::ViewChange(_))
            )),
            "joining replica neither relays nor votes"
        );
        transfer_state_to_replica_3(&mut g);
        assert!(!g.replicas[3].joining, "onboarding completed");
        assert_eq!(g.replicas[3].last_executed(), SeqNo(16));
        assert_eq!(g.replicas[3].app().total(), 32, "caught up at the barrier");
        // and it now participates normally
        g.replicas[0].on_request(request(17, 2));
        g.pump(&[]);
        assert_eq!(g.replicas[3].app().total(), 34);
    }

    #[test]
    fn onboarding_replica_adopts_a_vouched_view() {
        let mut r3 = replica(3);
        r3.begin_onboarding();
        let d = Digest::of(b"x");
        // two peers (f+1 for f=1) attest view 2; a lone Byzantine claims 9
        for (i, v) in [(0u32, 2u64), (1, 2), (2, 9)] {
            r3.on_message(
                ReplicaId(i),
                Message::Commit(Commit {
                    view: View(v),
                    seq: SeqNo(1),
                    digest: d,
                    replica: ReplicaId(i),
                }),
            );
        }
        // f+1 byte-identical offers complete the transfer
        let payload = TransferPayload {
            app_snapshot: CounterMachine::new().snapshot(),
            table: Cow::Owned(BTreeMap::new()),
        }
        .encode();
        for i in 0..2u32 {
            r3.on_message(
                ReplicaId(i),
                Message::StateData(StateData {
                    seq: SeqNo(4),
                    snapshot: payload.clone(),
                    proof: Vec::new(),
                    replica: ReplicaId(i),
                }),
            );
        }
        assert!(!r3.joining);
        assert_eq!(
            r3.view(),
            View(2),
            "adopts the (f+1)-th highest: the Byzantine outlier is discounted"
        );
    }

    #[test]
    fn byzantine_joiner_lying_about_catchup_cannot_stall_the_group() {
        let mut g = Group::new();
        for ts in 1..=17 {
            g.replicas[0].on_request(request(ts, 5));
            g.pump(&[3]);
        }
        // slot 3's replacement lies about its catch-up point: it claims a
        // state far ahead of the group instead of onboarding honestly
        g.replicas[3] = replica(3);
        let lie = StateFetch {
            seq: SeqNo(1_000_000),
            replica: ReplicaId(3),
        };
        for i in 0..3usize {
            g.replicas[i].on_message(ReplicaId(3), Message::StateFetch(lie));
            assert!(
                !outputs(&mut g.replicas[i]).iter().any(|o| matches!(
                    o,
                    Output::Send(To::Replica(ReplicaId(3)), Message::StateData(_))
                )),
                "no replica serves state it does not have"
            );
        }
        // and it votes garbage from its empty state: the live quorum is
        // unaffected
        for ts in 18..=20u64 {
            g.replicas[0].on_request(request(ts, 5));
            for i in 0..3usize {
                g.replicas[i].on_message(
                    ReplicaId(3),
                    Message::Prepare(Prepare {
                        view: View(0),
                        seq: SeqNo(ts),
                        digest: Digest::of(b"garbage"),
                        replica: ReplicaId(3),
                    }),
                );
            }
            g.pump(&[3]);
        }
        for r in &g.replicas[..3] {
            assert_eq!(r.app().total(), 100, "progress despite the lying joiner");
        }
    }

    /// Every replica hashes the client's multicast once. The three relays
    /// reaching the primary and the pre-prepare reaching each backup then
    /// arrive unhashed, recall the held request's digest before their MACs
    /// are checked, and are accepted; executing the request releases it.
    #[test]
    fn relays_and_pre_prepares_recall_the_held_digest() {
        use crate::auth::KeyProvisioner;
        let keys = KeyProvisioner::new([3u8; 32]);
        let auth: Vec<AuthContext> = (0..4)
            .map(|i| AuthContext::for_replica(keys.clone(), ReplicaId(i), 4))
            .collect();
        let client = AuthContext::for_client(keys, ClientId(1), 4);
        let mut g = Group::new();
        let multicast = client.frame(&Message::Request(request(1, 5)), None);
        for (replica, auth) in g.replicas.iter_mut().zip(&auth) {
            assert!(matches!(
                replica.receive(auth, &multicast),
                Received::Delivered("mac")
            ));
            assert_eq!(replica.held.len(), 1);
        }
        let digest = request(1, 5).digest();
        // what each replica sends next: three relays, one pre-prepare
        let mut sent = Vec::new();
        for (i, replica) in g.replicas.iter_mut().enumerate() {
            for output in outputs(replica) {
                match output {
                    Output::Send(To::Replica(to), message) => {
                        sent.push((i, vec![to.0 as usize], message))
                    }
                    Output::Send(To::All, message) => {
                        sent.push((i, (0..4).filter(|&j| j != i).collect(), message));
                    }
                    _ => {}
                }
            }
        }
        let relays = sent
            .iter()
            .filter(|(_, _, m)| matches!(m, Message::Request(_)))
            .count();
        assert_eq!(relays, 3);
        assert_eq!(sent.len(), 4, "three relays and the pre-prepare");
        for (from, to, message) in sent {
            let frame = auth[from].frame(&message, None);
            for j in to {
                let (_, opened) = Envelope::open(&frame).unwrap();
                assert!(carried(&opened).iter().all(|r| r.memo().is_none()));
                g.replicas[j].recall(&opened);
                for request in carried(&opened) {
                    assert_eq!(request.memo(), Some(digest), "{}", opened.label());
                }
                assert!(matches!(
                    g.replicas[j].receive(&auth[j], &frame),
                    Received::Delivered("mac")
                ));
            }
        }
        g.pump(&[]);
        for r in &g.replicas {
            assert_eq!(r.app().total(), 5);
            assert!(r.held.is_empty(), "released at execution");
        }
    }

    /// A client sending more distinct timestamps than the in-flight window
    /// (`pipeline_depth × max_batch`) never has more than that many
    /// requests held at any replica, and the store never grows.
    #[test]
    fn held_requests_never_exceed_the_in_flight_window() {
        let mut cfg = GroupConfig::for_f(1);
        cfg.max_batch = 2;
        cfg.pipeline_depth = 2;
        let mut g = group_with(cfg);
        for ts in 1..=12 {
            for r in g.replicas.iter_mut() {
                r.on_request(request(ts, 1));
                assert!(r.held.len() <= 4, "{} held", r.held.len());
                assert_eq!(r.held.capacity(), 4);
            }
        }
        g.pump(&[]);
        for r in &g.replicas {
            assert_eq!(r.app().total(), 12);
            assert!(r.held.is_empty());
            assert_eq!(r.held.capacity(), 4);
        }
    }

    /// Every output of every replica in `g`, by replica, as drained.
    fn drain_all(g: &mut Group) -> Vec<Vec<Output>> {
        g.replicas.iter_mut().map(outputs).collect()
    }

    /// A committed batch of several requests executes in batch order, and
    /// each request gets one reply, the very one its replica caches.
    #[test]
    fn a_committed_batch_executes_in_order_with_one_reply_each() {
        let mut cfg = GroupConfig::for_f(1);
        cfg.max_batch = 4;
        cfg.pipeline_depth = 1;
        let mut g = group_with(cfg);
        // ts 1 takes the one slot alone; ts 2..=5 wait and are agreed as
        // one batch at seq 2
        for ts in 1..=5 {
            g.replicas[0].on_request(request(ts, 10 * ts as i64));
        }
        let mut executed: Vec<Vec<(SeqNo, u64, Bytes)>> = vec![Vec::new(); 4];
        let mut replies: Vec<Vec<Reply>> = vec![Vec::new(); 4];
        loop {
            let mut sent = Vec::new();
            for (i, outs) in drain_all(&mut g).into_iter().enumerate() {
                for out in outs {
                    match out {
                        Output::Executed {
                            seq,
                            request,
                            result,
                        } => executed[i].push((seq, request.timestamp(), result)),
                        Output::Send(To::Client(_), Message::Reply(reply)) => {
                            replies[i].push(reply)
                        }
                        Output::Send(To::All, message) => sent.push((i, message)),
                        _ => {}
                    }
                }
            }
            if sent.is_empty() {
                break;
            }
            for (from, message) in sent {
                for j in (0..4).filter(|&j| j != from) {
                    g.replicas[j].on_message(ReplicaId(from as u32), message.clone());
                }
            }
        }
        let totals = |ts: u64| (1..=ts).map(|t| 10 * t as i64).sum::<i64>();
        for (i, r) in g.replicas.iter().enumerate() {
            assert_eq!(r.last_executed(), SeqNo(2), "two batches");
            let order: Vec<(SeqNo, u64)> = executed[i].iter().map(|e| (e.0, e.1)).collect();
            assert_eq!(
                order,
                [
                    (SeqNo(1), 1),
                    (SeqNo(2), 2),
                    (SeqNo(2), 3),
                    (SeqNo(2), 4),
                    (SeqNo(2), 5)
                ],
                "replica {i} executed the batch in its agreed order"
            );
            for (_, ts, result) in &executed[i] {
                assert_eq!(**result, totals(*ts).to_le_bytes());
            }
            let mut answered: Vec<u64> = replies[i].iter().map(|r| r.timestamp).collect();
            answered.sort_unstable();
            assert_eq!(answered, [1, 2, 3, 4, 5], "one reply per request");
            let record = &r.client_table[&ClientId(1)];
            for reply in &replies[i] {
                assert_eq!(record.replies.get(reply.timestamp), Some(reply));
                let executed = executed[i].iter().find(|e| e.1 == reply.timestamp);
                assert_eq!(executed.map(|e| &e.2), Some(&reply.result));
            }
        }
    }

    /// A host that drains one buffer while the replica queues into the
    /// other loses nothing: what is queued meanwhile comes with the next
    /// swap, after anything the host passes back undrained, in order.
    #[test]
    fn outputs_queued_while_the_host_drains_come_with_the_next_swap() {
        let relayed = |outputs: &[Output]| -> Vec<u64> {
            outputs
                .iter()
                .filter_map(|o| match o {
                    Output::Send(To::Replica(_), Message::Request(r)) => Some(r.timestamp()),
                    _ => None,
                })
                .collect()
        };
        // a backup relays each request to the primary
        let mut backup = replica(1);
        let mut drained = Vec::new();
        backup.on_request(request(1, 1));
        backup.swap_outputs(&mut drained);
        // the host works through `drained` while the replica queues more
        backup.on_request(request(2, 1));
        assert_eq!(relayed(&drained), [1]);
        drained.clear();
        backup.swap_outputs(&mut drained);
        assert_eq!(relayed(&drained), [2], "queued meanwhile, next swap");
        // the host passes back what it did not drain: new outputs follow it
        backup.on_request(request(3, 1));
        backup.on_request(request(4, 1));
        backup.swap_outputs(&mut drained);
        assert_eq!(relayed(&drained), [2, 3, 4]);
        drained.clear();
        backup.swap_outputs(&mut drained);
        assert!(drained.is_empty(), "nothing delivered twice");
        // once warm, the two buffers trade places without allocating
        backup.on_request(request(5, 1));
        let capacity = drained.capacity() + backup.outputs.capacity();
        backup.swap_outputs(&mut drained);
        assert_eq!(relayed(&drained), [5]);
        assert_eq!(drained.capacity() + backup.outputs.capacity(), capacity);
    }

    /// Log entries collected at a stable checkpoint are reused by later
    /// sequence numbers, in the view and after a view change, and carry
    /// none of their earlier votes.
    #[test]
    fn recycled_log_entries_hold_only_their_own_votes() {
        let mut g = Group::new();
        for ts in 1..=17 {
            g.replicas[0].on_request(request(ts, 1));
            g.pump(&[]);
        }
        for r in &g.replicas {
            assert_eq!(r.log().low(), SeqNo(16), "entries 1..=16 collected");
        }
        // seq 18 in view 0 reuses a collected entry
        g.replicas[0].on_request(request(18, 1));
        g.pump(&[]);
        let fresh = |r: &Replica<CounterMachine>, view: u64, seq: u64| {
            let entry = r.log().entry_ref(View(view), SeqNo(seq)).expect("entry");
            let pp = entry.pre_prepare.as_ref().expect("pre-prepare");
            assert!(entry.prepares.len() <= 4 && entry.commits.len() <= 4);
            assert!(entry
                .prepares
                .values()
                .all(|p| (p.view, p.seq, p.digest) == (View(view), SeqNo(seq), pp.digest)));
            assert!(entry
                .commits
                .values()
                .all(|c| (c.view, c.seq, c.digest) == (View(view), SeqNo(seq), pp.digest)));
        };
        for r in &g.replicas {
            assert_eq!(r.app().total(), 18);
            fresh(r, 0, 18);
        }
        // the primary goes dark with a request outstanding; the view
        // change re-issues and agrees on it in entries reused again
        for i in 1..4 {
            g.replicas[i].on_request(request(19, 1));
        }
        g.pump(&[0]);
        for i in 1..4 {
            let epoch = g.replicas[i].timer_epoch;
            g.replicas[i].on_view_timeout(epoch);
        }
        g.pump(&[0]);
        g.replicas[1].on_request(request(19, 1));
        g.pump(&[0]);
        for r in &g.replicas[1..] {
            assert_eq!(r.view(), View(1));
            assert_eq!(r.app().total(), 19, "ordered in the new view");
            fresh(r, 1, r.last_executed().0);
        }
    }
}
