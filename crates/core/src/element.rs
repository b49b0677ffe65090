//! The server replication domain element.
//!
//! One simulated process hosting the full Figure 2 stack: the
//! Castro–Liskov transport (a PBFT replica whose state machine is the
//! ITDOS message queue), the SMIOP layer (per-connection keys, sealing,
//! signing), a per-connection voter bank, the IT-ORB with its servants,
//! and the two-logical-threads execution model — the replica delivery
//! path feeds decided messages to the ORB path, which may suspend on
//! nested invocations (§3.1).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use itdos_bft::auth::{AuthContext, Envelope};
use itdos_bft::message::{ClientRequest, Message};
use itdos_bft::node::send;
use itdos_bft::queue::{deliver, delivered, ElementId, QueueMachine, QueueOp};
use itdos_bft::replica::{Fact as ReplicaFact, Output, Received, Replica};
use itdos_bft::window::KeyWindow;
use itdos_bft::wire::Wire;
use itdos_bft::SeqNo;
use itdos_giop::giop::{GiopMessage, ReplyBody, ReplyMessage, RequestMessage};
use itdos_giop::platform::PlatformProfile;
use itdos_giop::types::Value;
use itdos_groupmgr::manager::ConnectionId;
use itdos_groupmgr::membership::DomainId;
use itdos_obs::{fact, Fact, LabelValue, Obs};
use itdos_orb::object::ObjectKey;
use itdos_orb::orb::{Dispatch, Orb};
use itdos_orb::servant::{NestedCall, Servant, ServantException};
use itdos_vote::collator::{Accept, Collator};
use itdos_vote::vote::SenderId;
use simnet::{Context, NodeId, Process, Timer};
use xbytes::Bytes;

use crate::codes::{element_code, pack_timer, unpack_timer, TimerTag};
use crate::fabric::{DomainRoute, Fabric};
use crate::fault::Behavior;
use crate::outbound::{Channels, Outbound};
use crate::smiop::{notice_plaintext, Attestations, Smiop, Unopened};
use crate::wire::{AdmitNoticeMsg, ConnectionMeta, CoreMsg, FrameKind, GmOp, HealCmd, SmiopFrame};
use itdos_vote::folding::{
    fold_reply, fold_request, folded_comparator, value_to_reply, value_to_request,
};

/// Static configuration of one element.
#[derive(Debug, Clone)]
pub struct ElementConfig {
    /// The element's domain.
    pub domain: DomainId,
    /// Its replica index within the domain.
    pub index: usize,
    /// Its global element id.
    pub element: SenderId,
    /// The platform it "runs on" (endianness + float lane).
    pub platform: PlatformProfile,
    /// Its (mis)behaviour.
    pub behavior: Behavior,
    /// Queue-consumption acknowledgements are sent every this many
    /// delivered messages.
    pub ack_interval: u64,
    /// Capacity of the replicated message queue in payload bytes (§3.1:
    /// "the size of this message queue is limited by the size of the
    /// contiguous block of memory").
    pub queue_capacity: usize,
}

/// Rounds per (connection, frame kind) a voter bank retains. Pipelined
/// requests interleave their frames in the total order, so each request id
/// keeps its own quorum state; the bound keeps a byzantine sender from
/// growing the bank without limit, and eviction is driven purely by the
/// ordered delivery stream so every correct element evicts identically.
const VOTER_ROUND_WINDOW: usize = 32;

/// Early frames — for a connection not keyed here yet — held per
/// connection until its key arrives.
const STALL_PER_CONNECTION: usize = 64;

/// Early frames held per authenticated submitter (the BFT client that had
/// them ordered), across connections. An honest submitter's frames in one
/// domain's stream ride at most two connections, so they never reach it
/// (DESIGN.md, "Early frames and the submitter quota"); a Byzantine one
/// inventing connection ids stops here.
const STALL_QUOTA: usize = 2 * STALL_PER_CONNECTION;

/// One round of an element's voter. It keeps no senders' frames: an
/// element accuses by vote (`GmOp::ChangeVote`) and never builds a
/// signed-message proof, so it drops each decrypted frame once decoded.
struct VoterEntry {
    collator: Collator,
    /// Causal trace id recovered from the GIOP header at decode time.
    /// The folded vote value deliberately omits it, so the round keeps
    /// the first nonzero value seen and re-stamps the decided request.
    trace: u64,
}

/// One (connection, frame kind)'s voter rounds by request id; late
/// frames at or below the window's floor (the highest evicted request id)
/// are dropped.
type VoterBank = KeyWindow<VoterEntry>;

struct Current {
    meta: ConnectionMeta,
    request_id: u64,
    /// Causal trace id of the request being executed; nested requests
    /// issued while it runs inherit this id.
    trace: u64,
}

enum NestedPhase {
    AwaitingConnection {
        target: DomainId,
        call: NestedCall,
    },
    AwaitingReply {
        connection: ConnectionId,
        request_id: u64,
    },
}

/// A server replication domain element (one simnet process).
pub struct ServerElement {
    fabric: Fabric,
    cfg: ElementConfig,
    replica: Replica<QueueMachine>,
    /// The output buffer the element drains ([`Replica::swap_outputs`]).
    drained: Vec<Output>,
    bft_auth: AuthContext,
    orb: Orb,
    smiop: Smiop,
    /// Early frames by connection, each with its submitter's code.
    stalled: BTreeMap<ConnectionId, VecDeque<(u64, SmiopFrame)>>,
    voters: BTreeMap<(ConnectionId, FrameKind), VoterBank>,
    /// One channel to the Group Manager, one to the own domain, and one
    /// per domain this element calls or answers through its group.
    outbound: Channels,
    inbox: VecDeque<(ConnectionMeta, RequestMessage)>,
    current: Option<Current>,
    nested: Option<NestedPhase>,
    processed: u64,
    acked_index: u64,
    /// Expulsion and retirement notices about this domain, by element.
    notices: Attestations<SenderId>,
    /// Admission notices, by (admitted, epoch).
    admit_notices: Attestations<(SenderId, u64)>,
    /// Slot incumbent whose place this element should request from the GM
    /// on start (replica replacement).
    pending_admit: Option<SenderId>,
    reported: BTreeSet<SenderId>,
    /// Replies a slow element holds back, by timer slot.
    delayed: Vec<Option<(ConnectionMeta, SmiopFrame)>>,
    obs: Obs,
    /// Requests this element's ORB executed (observability).
    pub requests_handled: u64,
    /// Replies this element emitted.
    pub replies_sent: u64,
}

impl std::fmt::Debug for ServerElement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerElement")
            .field("element", &self.cfg.element)
            .field("domain", &self.cfg.domain)
            .field("connections", &self.smiop.connection_count())
            .field("handled", &self.requests_handled)
            .finish()
    }
}

impl ServerElement {
    /// Creates an element hosting the given servants.
    pub fn new(
        fabric: Fabric,
        cfg: ElementConfig,
        servants: Vec<(ObjectKey, Box<dyn Servant>)>,
    ) -> ServerElement {
        let spec = fabric.domain(cfg.domain);
        let members: Vec<ElementId> = spec.elements.iter().map(|e| ElementId(e.0)).collect();
        let queue = QueueMachine::new(cfg.queue_capacity, members);
        let replica = Replica::new(
            spec.config.clone(),
            itdos_bft::config::ReplicaId(cfg.index as u32),
            queue,
        );
        let bft_auth = fabric.bft_auth_replica(cfg.domain, cfg.index);
        let mut orb = Orb::new(fabric.repo().clone(), cfg.platform);
        for (key, servant) in servants {
            orb.activate(key, servant);
        }
        let my_code = element_code(cfg.element);
        let smiop = Smiop::new(
            &fabric,
            my_code,
            ("element", LabelValue::U64(u64::from(cfg.element.0))),
        );
        let mut outbound = Channels::default();
        let gm = fabric.gm_domain();
        outbound.get_or_open(gm, || Outbound::new(&fabric, gm, my_code));
        outbound.get_or_open(cfg.domain, || Outbound::new(&fabric, cfg.domain, my_code));
        ServerElement {
            fabric,
            cfg,
            replica,
            drained: Vec::with_capacity(16),
            bft_auth,
            orb,
            smiop,
            stalled: BTreeMap::new(),
            voters: BTreeMap::new(),
            outbound,
            inbox: VecDeque::new(),
            current: None,
            nested: None,
            processed: 0,
            acked_index: 0,
            notices: Attestations::new(my_code),
            admit_notices: Attestations::new(my_code),
            pending_admit: None,
            reported: BTreeSet::new(),
            delayed: Vec::new(),
            obs: Obs::disabled(),
            requests_handled: 0,
            replies_sent: 0,
        }
    }

    /// Installs an instrumentation sink on this element, which records its
    /// replica's facts, and on its key-share bank (new voters inherit it).
    pub fn set_obs(&mut self, obs: Obs) {
        self.smiop.set_obs(obs.clone());
        self.obs = obs;
    }

    fn obs_label(&self) -> [itdos_obs::Label; 1] {
        [(
            fact::ELEMENT,
            LabelValue::U64(u64::from(self.cfg.element.0)),
        )]
    }

    /// This element's global id.
    pub fn element(&self) -> SenderId {
        self.cfg.element
    }

    /// The wrapped replica (tests / benches).
    pub fn replica(&self) -> &Replica<QueueMachine> {
        &self.replica
    }

    /// Mutable replica access (fault injection / proactive recovery in
    /// tests and experiments).
    pub fn replica_mut(&mut self) -> &mut Replica<QueueMachine> {
        &mut self.replica
    }

    /// Established connections count (tests).
    pub fn connection_count(&self) -> usize {
        self.smiop.connection_count()
    }

    /// Overrides this element's (mis)behaviour at runtime — drills use it
    /// to script a fresh intrusion after a replacement restored the
    /// domain. Callers injecting a fault should also record it in the
    /// simulator's ground-truth fault ledger.
    pub fn set_behavior(&mut self, behavior: Behavior) {
        self.cfg.behavior = behavior;
    }

    /// Marks this element as a fresh replacement for `replaced`. On
    /// process start it asks the Group Manager group (as an ordinary BFT
    /// client) to admit it into `replaced`'s roster slot, and its replica
    /// enters its quiescent joining mode (so the state-fetch sends get a
    /// context); it onboards via state transfer and resumes normal
    /// operation once a trusted checkpoint is installed.
    pub(crate) fn join_replacing(&mut self, replaced: SenderId) {
        self.pending_admit = Some(replaced);
    }

    /// True while the element is a fresh replacement still catching up.
    pub fn is_onboarding(&self) -> bool {
        self.pending_admit.is_some() || self.replica.is_joining()
    }

    /// The element's endpoint code.
    fn my_code(&self) -> u64 {
        element_code(self.cfg.element)
    }

    // --------------------------------------------------------- bft plumbing

    fn route(&self) -> DomainRoute<'_> {
        DomainRoute {
            fabric: &self.fabric,
            domain: self.cfg.domain,
            auth: &self.bft_auth,
            obs: &self.obs,
        }
    }

    fn drain_replica(&mut self, ctx: &mut Context<'_>) {
        let mut outputs = std::mem::take(&mut self.drained);
        self.replica.swap_outputs(&mut outputs);
        self.route().record(&self.replica, &outputs);
        for output in outputs.drain(..) {
            match output {
                Output::Send(to, message) => send(&self.route(), ctx, to, &message),
                Output::Executed {
                    request, result, ..
                } => self.on_executed(ctx, &request, &result),
                Output::StartViewTimer { epoch, timeout } => {
                    ctx.set_timer(timeout, pack_timer(TimerTag::View, epoch));
                }
                Output::Fact(ReplicaFact::Onboarded(SeqNo(seq), _)) => {
                    let element = u64::from(self.cfg.element.0);
                    self.obs
                        .span_end("replica.onboarding_us", element, &self.obs_label());
                    self.obs.fact(Fact::ElementOnboarded { element, seq });
                }
                Output::Fact(_) => {}
            }
        }
        self.drained = outputs;
    }

    // ----------------------------------------------------- ordered delivery

    /// One executed queue op, ordered on behalf of `request`'s BFT client.
    fn on_executed(&mut self, ctx: &mut Context<'_>, request: &ClientRequest, result: &[u8]) {
        // only a delivered message concerns the element; the queue machine
        // has decoded the op already, so its payload is read in place
        let Some(frame_bytes) = delivered(request.operation()) else {
            return;
        };
        if result.first() == Some(&1) {
            // the bounded queue refused this message (§3.1): it was never
            // enqueued, so it must not reach the ORB either — identically
            // on every element
            self.check_laggards(ctx);
            return;
        }
        self.processed += 1;
        if let Ok(frame) = SmiopFrame::decode(frame_bytes) {
            self.process_frame(ctx, frame, request.client().0);
        }
        self.maybe_ack(ctx);
        self.check_laggards(ctx);
    }

    /// Acks are cumulative, so at most one per element is queued or in
    /// flight: a second one waiting behind the first on the window-1
    /// own-domain channel would be ordered with a stale `up_to`. The next
    /// is cut (with the head *then*) when the channel accepts an op.
    fn maybe_ack(&mut self, ctx: &mut Context<'_>) {
        let own_idle = self
            .outbound
            .get(self.cfg.domain)
            .is_none_or(Outbound::idle);
        let head = self.replica.app().next_index();
        if own_idle && head.saturating_sub(self.acked_index) >= self.cfg.ack_interval {
            self.acked_index = head;
            let op = QueueOp::Ack {
                element: ElementId(self.cfg.element.0),
                up_to: head,
            };
            let own = self.cfg.domain;
            self.submit_op(ctx, own, op.encode_shared());
        }
    }

    fn check_laggards(&mut self, ctx: &mut Context<'_>) {
        let window = self.cfg.ack_interval * 4;
        let laggards = self.replica.app().laggards(window);
        for laggard in laggards {
            let sender = SenderId(laggard.0);
            if sender != self.cfg.element && self.reported.insert(sender) {
                self.accuse(ctx, sender);
            }
        }
    }

    fn accuse(&mut self, ctx: &mut Context<'_>, accused: SenderId) {
        self.obs.incr("element.accusations", &self.obs_label());
        self.obs.fact(Fact::ElementAccuse {
            accuser: u64::from(self.cfg.element.0),
            accused: u64::from(accused.0),
        });
        let op = GmOp::ChangeVote {
            accuser: self.cfg.element,
            accused,
        };
        let gm = self.fabric.gm_domain();
        self.submit_op(ctx, gm, op.encode_shared());
    }

    fn submit_op(&mut self, ctx: &mut Context<'_>, target: DomainId, op: Bytes) {
        let code = self.my_code();
        let fabric = &self.fabric;
        let outbound = self
            .outbound
            .get_or_open(target, || Outbound::new(fabric, target, code));
        if let Some(outbound) = outbound {
            outbound.submit(ctx, fabric, op);
        }
    }

    // ------------------------------------------------------------ SMIOP rx

    fn process_frame(&mut self, ctx: &mut Context<'_>, frame: SmiopFrame, submitter: u64) {
        let (meta, signed, message) = match self.smiop.open(&self.fabric, &frame) {
            Ok(opened) => opened,
            Err(Unopened::Early) => return self.stall(submitter, frame),
            Err(Unopened::Refused) => return,
        };
        let (interface, trace) = match &message {
            GiopMessage::Request(r) if r.request_id == frame.request_id => (&r.interface, r.trace),
            GiopMessage::Reply(r) if r.request_id == frame.request_id => (&r.interface, 0),
            _ => return,
        };
        let (kind, request_id, sender) = (frame.kind, frame.request_id, signed.sender);
        let bank = self.voters.entry((meta.connection, kind)).or_default();
        // a round's comparator is resolved once, when the round opens
        let fabric = &self.fabric;
        let obs = &self.obs;
        let Some(entry) = bank.entry(request_id, VOTER_ROUND_WINDOW, || {
            let (thresholds, senders) = fabric.sender_thresholds(&meta, kind);
            let comparator =
                folded_comparator(fabric.comparators().for_interface(interface).clone());
            let mut collator = Collator::new(thresholds, senders, comparator);
            collator.set_obs(obs.clone());
            collator.begin(request_id);
            VoterEntry { collator, trace: 0 }
        }) else {
            return; // round already evicted (§3.6 GC)
        };
        if entry.trace == 0 {
            entry.trace = trace;
        }
        let round_trace = entry.trace;
        let value = match message {
            GiopMessage::Request(r) => fold_request(r),
            GiopMessage::Reply(r) => fold_reply(r),
            _ => return, // refused above
        };
        let accept = entry.collator.offer(request_id, sender, value);
        bank.evict(VOTER_ROUND_WINDOW);
        match accept {
            Accept::Decided(decision) => {
                let suspects = decision.dissenters.clone();
                self.on_decided(ctx, meta, kind, request_id, decision.value, round_trace);
                self.report_suspects(ctx, &suspects);
            }
            Accept::Late { suspect: Some(s) } => {
                self.report_suspects(ctx, &[s]);
            }
            _ => {}
        }
    }

    /// Holds an early frame until its connection is keyed here, within
    /// the per-connection bound and the submitter's quota; a frame over
    /// either is dropped and counted.
    fn stall(&mut self, submitter: u64, frame: SmiopFrame) {
        let held = self
            .stalled
            .values()
            .flatten()
            .filter(|(s, _)| *s == submitter)
            .count();
        let queued = self.stalled.get(&frame.connection).map_or(0, VecDeque::len);
        if held >= STALL_QUOTA || queued >= STALL_PER_CONNECTION {
            self.obs.incr("element.stall_drops", &self.obs_label());
            return;
        }
        self.stalled
            .entry(frame.connection)
            .or_default()
            .push_back((submitter, frame));
    }

    /// Early frames held here (tests).
    pub fn stalled_frames(&self) -> usize {
        self.stalled.values().map(VecDeque::len).sum()
    }

    fn report_suspects(&mut self, ctx: &mut Context<'_>, suspects: &[SenderId]) {
        for &s in suspects {
            // only accuse real domain elements (never singleton codes) and
            // only once per element
            if self.fabric.domain_of_element(s).is_some()
                && s != self.cfg.element
                && self.reported.insert(s)
            {
                self.accuse(ctx, s);
            }
        }
    }

    fn on_decided(
        &mut self,
        ctx: &mut Context<'_>,
        meta: ConnectionMeta,
        kind: FrameKind,
        request_id: u64,
        value: Value,
        trace: u64,
    ) {
        match kind {
            FrameKind::Request => {
                if let Some(mut request) = value_to_request(request_id, value) {
                    request.trace = trace;
                    self.inbox.push_back((meta, request));
                    self.try_process(ctx);
                }
            }
            FrameKind::Reply => {
                let awaiting = matches!(
                    self.nested,
                    Some(NestedPhase::AwaitingReply {
                        connection,
                        request_id: rid,
                    }) if connection == meta.connection && rid == request_id
                );
                if awaiting {
                    self.nested = None;
                    if let Some(reply) = value_to_reply(request_id, value) {
                        let result = match reply.body {
                            ReplyBody::Result(v) => Ok(v),
                            ReplyBody::UserException { name } => Err(ServantException::new(name)),
                            ReplyBody::SystemException { minor } => {
                                Err(ServantException::new(format!("SYSTEM:{minor}")))
                            }
                        };
                        let dispatch = self.orb.handle_nested_reply(result);
                        self.continue_dispatch(ctx, dispatch);
                    }
                }
            }
        }
    }

    // ----------------------------------------------------------- ORB thread

    fn try_process(&mut self, ctx: &mut Context<'_>) {
        while self.current.is_none() && !self.orb.is_suspended() {
            let Some((meta, request)) = self.inbox.pop_front() else {
                return;
            };
            self.current = Some(Current {
                meta,
                request_id: request.request_id,
                trace: request.trace,
            });
            self.requests_handled += 1;
            self.obs.incr("element.requests", &self.obs_label());
            self.obs.fact(Fact::ElementExecute {
                element: u64::from(self.cfg.element.0),
                request: request.request_id,
                trace: request.trace,
            });
            let dispatch = self.orb.handle_request(&request);
            self.continue_dispatch(ctx, dispatch);
        }
    }

    fn continue_dispatch(&mut self, ctx: &mut Context<'_>, dispatch: Dispatch) {
        match dispatch {
            Dispatch::Reply(reply) => {
                // a reply concludes the current request
                if let Some(current) = self.current.take() {
                    self.emit_reply(ctx, current, reply);
                }
                self.try_process(ctx);
            }
            Dispatch::Suspended(call) => {
                let target = DomainId(call.target.domain.0);
                let own = Some(self.cfg.domain);
                let existing = self
                    .smiop
                    .find(|meta| meta.server_domain == target && meta.client_domain == own);
                match existing {
                    Some(meta) => self.send_nested_request(ctx, meta.connection, call),
                    None => {
                        let op = GmOp::Open {
                            client: itdos_groupmgr::membership::Endpoint::Element(self.cfg.element),
                            client_domain: Some(self.cfg.domain),
                            target,
                        };
                        self.nested = Some(NestedPhase::AwaitingConnection { target, call });
                        let gm = self.fabric.gm_domain();
                        self.submit_op(ctx, gm, op.encode_shared());
                    }
                }
            }
        }
    }

    fn send_nested_request(
        &mut self,
        ctx: &mut Context<'_>,
        conn_id: ConnectionId,
        call: NestedCall,
    ) {
        let Some((meta, request_id)) = self.smiop.next_request(conn_id) else {
            return;
        };
        let request = RequestMessage {
            request_id,
            // a nested call is causally part of the request being executed
            trace: self.current.as_ref().map(|c| c.trace).unwrap_or(0),
            response_expected: true,
            object_key: call.target.key.0.clone(),
            interface: call.target.interface.clone(),
            operation: call.operation.clone(),
            args: call.args.clone(),
        };
        let Ok(giop_bytes) = self.orb.marshal(&GiopMessage::Request(request)) else {
            // a servant asked for an un-marshallable call: surface as a
            // nested system exception so the suspended request concludes
            let dispatch = self
                .orb
                .handle_nested_reply(Err(ServantException::new("SYSTEM:marshal")));
            self.continue_dispatch(ctx, dispatch);
            return;
        };
        let Some((_, frame)) = self
            .smiop
            .seal(conn_id, FrameKind::Request, request_id, giop_bytes)
        else {
            return;
        };
        self.nested = Some(NestedPhase::AwaitingReply {
            connection: conn_id,
            request_id,
        });
        let target = meta.server_domain;
        self.submit_op(ctx, target, deliver(&frame));
    }

    fn emit_reply(&mut self, ctx: &mut Context<'_>, current: Current, mut reply: ReplyMessage) {
        if self.cfg.behavior.is_silent() {
            return;
        }
        if let ReplyBody::Result(value) = &reply.body {
            if let Some(corrupted) = self.cfg.behavior.corrupt(current.request_id, value) {
                reply.body = ReplyBody::Result(corrupted);
            }
        }
        let Ok(giop_bytes) = self.orb.marshal(&GiopMessage::Reply(reply)) else {
            return;
        };
        // sealed under the connection's current epoch, which a rekey may
        // have moved past the request's
        let Some((meta, frame)) = self.smiop.seal(
            current.meta.connection,
            FrameKind::Reply,
            current.request_id,
            giop_bytes,
        ) else {
            return;
        };
        self.replies_sent += 1;
        self.obs.incr(fact::ELEMENT_REPLIES, &self.obs_label());
        match self.cfg.behavior.delay() {
            Some(delay) => {
                let slot = self.delayed.len() as u64;
                self.delayed.push(Some((meta, frame)));
                ctx.set_timer(delay, pack_timer(TimerTag::DelayedSend, slot));
            }
            None => self.send_reply(ctx, meta, frame),
        }
    }

    /// A client domain's reply goes through its ordering group; a singleton
    /// client gets it directly.
    fn send_reply(&mut self, ctx: &mut Context<'_>, meta: ConnectionMeta, frame: SmiopFrame) {
        match meta.client_domain {
            Some(target) => {
                self.submit_op(ctx, target, deliver(&frame));
            }
            None => {
                if let Some(node) = self.fabric.node_of(meta.client_code) {
                    let msg = CoreMsg::DirectReply(frame.into());
                    ctx.send_labeled(node, msg.encode_shared(), "smiop-reply");
                }
            }
        }
    }

    // ------------------------------------------------------------- keying

    fn handle_key_share(&mut self, ctx: &mut Context<'_>, msg: crate::wire::KeyShareMsg) {
        let Some(meta) = self.smiop.offer_share(&self.fabric, &msg) else {
            return;
        };
        // retry frames that arrived before the key
        if let Some(mut frames) = self.stalled.remove(&meta.connection) {
            while let Some((submitter, frame)) = frames.pop_front() {
                self.process_frame(ctx, frame, submitter);
            }
        }
        // fire a nested call waiting on this connection
        let ours = meta.client_domain == Some(self.cfg.domain);
        let waiting = self.nested.take_if(|phase| {
            ours && matches!(phase, NestedPhase::AwaitingConnection { target, .. } if *target == meta.server_domain)
        });
        if let Some(NestedPhase::AwaitingConnection { call, .. }) = waiting {
            self.send_nested_request(ctx, meta.connection, call);
        }
    }

    fn handle_notice(&mut self, ctx: &mut Context<'_>, msg: crate::wire::NoticeMsg) {
        if msg.domain != self.cfg.domain {
            return;
        }
        let expect = notice_plaintext(msg.domain, msg.expelled);
        if !self.notices.attest(
            &self.fabric,
            msg.gm_code,
            &msg.sealed,
            &expect,
            msg.expelled,
        ) {
            return;
        }
        // unblock queue GC: the expelled element no longer gates acks
        self.obs.incr("element.expels_applied", &self.obs_label());
        self.obs.fact(Fact::ElementExpelApplied {
            element: u64::from(self.cfg.element.0),
            expelled: u64::from(msg.expelled.0),
        });
        let op = QueueOp::Expel(ElementId(msg.expelled.0));
        let own = self.cfg.domain;
        self.submit_op(ctx, own, op.encode_shared());
    }

    fn handle_admit_notice(&mut self, ctx: &mut Context<'_>, msg: AdmitNoticeMsg) {
        // the new roster is adopted at f_gm+1 distinct GM elements (a no-op
        // on the joiner itself, whose fabric was built post-admission)
        if !self.admit_notices.admit(&mut self.fabric, &msg) {
            return;
        }
        self.obs
            .incr("element.admissions_applied", &self.obs_label());
        self.obs.fact(Fact::ElementAdmissionApplied {
            element: u64::from(self.cfg.element.0),
            admitted: u64::from(msg.admitted.0),
            replaced: u64::from(msg.replaced.0),
            epoch: msg.epoch,
        });
        if msg.domain == self.cfg.domain {
            // announce the joiner to our own ordered stream; the Join is
            // idempotent in the queue machine and forces a barrier
            // checkpoint at its sequence number, which the joiner's state
            // transfer latches onto
            let op = QueueOp::Join(ElementId(msg.admitted.0));
            let own = self.cfg.domain;
            self.submit_op(ctx, own, op.encode_shared());
        }
    }
}

impl Process for ServerElement {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.join(self.fabric.domain(self.cfg.domain).mcast);
        if let Some(replaced) = self.pending_admit.take() {
            // replica replacement, step 1 (Figure 3 adapted): ask the GM
            // ordering group to admit us into the expelled slot; key
            // shares and the peers' Join barrier follow from its decision
            self.obs
                .incr("element.admission_requests", &self.obs_label());
            let node = self
                .fabric
                .node_of(self.my_code())
                .map_or(0, |n| u64::from(n.as_raw()));
            let op = GmOp::Admit {
                domain: self.cfg.domain,
                replacement: self.cfg.element,
                replaced,
                node,
                verifying_key: self.fabric.verifying_key(self.cfg.element),
            };
            let gm = self.fabric.gm_domain();
            self.submit_op(ctx, gm, op.encode_shared());
            self.obs
                .span_begin("replica.onboarding_us", u64::from(self.cfg.element.0));
            self.replica.begin_onboarding();
            self.drain_replica(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        if from.is_external() {
            // healing-controller commands arrive as external injections, the
            // same pattern the singleton client uses for invocations; they
            // reuse the normal GM change/retire paths so peers cannot tell a
            // controller-driven action from an element-initiated one
            if let Ok(cmd) = HealCmd::decode(&payload) {
                match cmd {
                    HealCmd::Accuse { accused } => {
                        if accused != self.cfg.element && self.reported.insert(accused) {
                            self.accuse(ctx, accused);
                        }
                    }
                    HealCmd::Retire => {
                        self.obs.incr("element.retire_requests", &self.obs_label());
                        let op = GmOp::Retire {
                            domain: self.cfg.domain,
                            element: self.cfg.element,
                        };
                        let gm = self.fabric.gm_domain();
                        self.submit_op(ctx, gm, op.encode_shared());
                    }
                }
            }
            return;
        }
        let Ok(msg) = CoreMsg::decode_shared(&payload) else {
            return;
        };
        match msg {
            CoreMsg::Bft { domain, envelope } => {
                // own-group traffic is replica traffic, authenticated by the
                // replica's context, except the ACKs for our own control
                // ops, which the channel's context authenticates
                let (env, message) = if domain == self.cfg.domain {
                    match self.replica.receive(&self.bft_auth, &envelope) {
                        Received::Delivered(kind) => {
                            self.route().received(kind, envelope.len());
                            self.drain_replica(ctx);
                            return;
                        }
                        Received::Reply(env, reply) if reply.client.0 == self.my_code() => {
                            (env, Message::Reply(reply))
                        }
                        Received::Reply(..) | Received::Dropped => return,
                    }
                } else {
                    let Ok(opened) = Envelope::open(&envelope) else {
                        return;
                    };
                    opened
                };
                if let Some(outbound) = self.outbound.get_mut(domain) {
                    let accepted = outbound.on_reply(ctx, &self.fabric, &env, message);
                    outbound.take_accepted();
                    if accepted && domain == self.cfg.domain {
                        self.maybe_ack(ctx);
                    }
                }
            }
            CoreMsg::KeyShare(m) => self.handle_key_share(ctx, m),
            CoreMsg::Notice(m) => self.handle_notice(ctx, m),
            CoreMsg::AdmitNotice(m) => self.handle_admit_notice(ctx, m),
            CoreMsg::DirectReply(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        let Some((tag, param)) = unpack_timer(timer.kind) else {
            return;
        };
        match tag {
            TimerTag::View => {
                self.replica.on_view_timeout(param);
                self.drain_replica(ctx);
            }
            TimerTag::Retransmit => {
                if let Some(outbound) = self.outbound.get_mut(DomainId(param)) {
                    outbound.on_retransmit_timer(ctx, &self.fabric);
                }
            }
            TimerTag::DelayedSend => {
                if let Some((meta, frame)) =
                    self.delayed.get_mut(param as usize).and_then(Option::take)
                {
                    self.send_reply(ctx, meta, frame);
                }
            }
            TimerTag::ClientRetry => {}
        }
    }
}
