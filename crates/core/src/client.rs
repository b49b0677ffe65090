//! The singleton (unreplicated) CORBA client.
//!
//! The paper's nominal configuration (Figure 1): a singleton client
//! invokes on a replicated server. The client's stack: connection
//! establishment through the Group Manager (Figure 3), SMIOP framing over
//! the server's ordering group, a per-connection voter that decides on
//! `f+1` equivalent of ≥ `2f+1` direct replies, and — when it detects a
//! faulty value — a `change_request` carrying the signed-message proof
//! (§3.6).

use std::collections::{BTreeMap, VecDeque};

use itdos_bft::auth::Envelope;
use itdos_bft::wire::Wire;
use itdos_giop::cdr::Endianness;
use itdos_giop::giop::{
    decode_message, encode_message, encode_request, GiopError, GiopMessage, ReplyBody,
    RequestMessage,
};
use itdos_giop::platform::PlatformProfile;
use itdos_giop::types::Value;
use itdos_groupmgr::manager::ConnectionId;
use itdos_groupmgr::membership::{DomainId, Endpoint};
use itdos_obs::{LabelValue, Obs};
use itdos_vote::collator::{Accept, Collator};
use itdos_vote::detector::{FaultProof, SignedReply};
use itdos_vote::folding::{fold_reply, folded_comparator, value_to_reply};
use itdos_vote::vote::SenderId;
use simnet::{Context, NodeId, Process, Timer};
use xbytes::Bytes;

use crate::codes::{pack_timer, singleton_code, unpack_timer, TimerTag};
use crate::fabric::Fabric;
use crate::outbound::{Channels, Outbound};
use crate::smiop::{Attestations, Smiop};
use crate::wire::{CoreMsg, DirectReplyMsg, FrameKind, GmOp};

/// A finished invocation as observed by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct Completed {
    /// The per-connection request id.
    pub request_id: u64,
    /// The target domain.
    pub target: DomainId,
    /// The voted result (`Err` carries the exception name).
    pub result: Result<Value, String>,
    /// Elements whose reply dissented from the decided value.
    pub suspects: Vec<SenderId>,
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Singleton client id (also its endpoint code).
    pub id: u64,
    /// The platform the client runs on.
    pub platform: PlatformProfile,
    /// Whether detected faults trigger an automatic `change_request` with
    /// proof to the Group Manager.
    pub auto_proof: bool,
}

struct Outstanding {
    target: DomainId,
    connection: ConnectionId,
    request_id: u64,
    /// Causal trace id of this invocation (0 = untraced).
    trace: u64,
    collator: Collator,
    frames: BTreeMap<SenderId, SignedReply>,
    proof_sent: bool,
    decided: bool,
    /// The decided result, held until every older round has also decided
    /// so `completed` always lists invocations in submission order.
    completion: Option<Completed>,
}

/// Span id for one invocation: request ids are assigned per connection by
/// the GM, so the connection is mixed in (FNV-1a) — two connections whose
/// request ids overlap must not share a span slot.
fn invoke_span_id(connection: ConnectionId, request_id: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [connection.0, request_id] {
        h = (h ^ word).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Encodes an invocation command for [`simnet::Simulator::inject`]: the
/// target domain followed by a GIOP request frame carrying a causal trace
/// id (see `core::trace`); `System::invoke` mints one per invocation so
/// the whole causal path is reconstructable from the flight recorder.
///
/// # Errors
///
/// The encoder's error when the request does not match the repository.
pub(crate) fn encode_traced_command(
    fabric: &Fabric,
    target: DomainId,
    object_key: &[u8],
    interface: &str,
    operation: &str,
    args: Vec<Value>,
    trace: u64,
) -> Result<Bytes, GiopError> {
    let request = RequestMessage {
        request_id: 0, // assigned by the client when sent
        trace,
        response_expected: true,
        object_key: object_key.to_vec(),
        interface: interface.into(),
        operation: operation.into(),
        args,
    };
    let frame = encode_message(
        &GiopMessage::Request(request),
        fabric.repo(),
        Endianness::Little,
    )?;
    let mut out = Vec::with_capacity(frame.len().saturating_add(8));
    out.extend_from_slice(&target.0.to_le_bytes());
    out.extend_from_slice(&frame);
    Ok(Bytes::from(out))
}

/// A singleton client process.
pub struct SingletonClient {
    fabric: Fabric,
    cfg: ClientConfig,
    smiop: Smiop,
    /// One channel to the Group Manager and one per target domain.
    outbound: Channels,
    queue: VecDeque<(DomainId, RequestMessage)>,
    /// In-flight (and recently decided) invocation rounds, submission
    /// order. At most `pipeline` rounds are undecided at a time; decided
    /// rounds linger to flag late faulty stragglers until the next pump.
    rounds: VecDeque<Outstanding>,
    /// How many invocations may be undecided concurrently (default 1, the
    /// classic §3.6 one-outstanding-request-per-connection model).
    pipeline: usize,
    opens_requested: std::collections::BTreeSet<DomainId>,
    /// Admission notices, by (admitted, epoch).
    admit_notices: Attestations<(SenderId, u64)>,
    /// Targets of our in-flight GM submissions, oldest first (`Some` for
    /// an `Open`, `None` for other ops). The GM channel is a serialized
    /// FIFO, so accepted results pair with these in order — used to close
    /// out the `conn.open_us` span when the GM refuses an open.
    gm_pending: VecDeque<Option<DomainId>>,
    obs: Obs,
    /// Finished invocations, oldest first.
    pub completed: Vec<Completed>,
    /// Fault proofs submitted to the Group Manager.
    pub proofs_sent: u64,
}

impl std::fmt::Debug for SingletonClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingletonClient")
            .field("id", &self.cfg.id)
            .field("completed", &self.completed.len())
            .finish()
    }
}

impl SingletonClient {
    /// Creates a client.
    pub fn new(fabric: Fabric, cfg: ClientConfig) -> SingletonClient {
        let code = singleton_code(cfg.id);
        let smiop = Smiop::new(&fabric, code, ("client", LabelValue::U64(cfg.id)));
        let mut outbound = Channels::default();
        let gm = fabric.gm_domain();
        outbound.get_or_open(gm, || Outbound::new(&fabric, gm, code));
        SingletonClient {
            fabric,
            cfg,
            smiop,
            outbound,
            queue: VecDeque::new(),
            rounds: VecDeque::new(),
            pipeline: 1,
            opens_requested: std::collections::BTreeSet::new(),
            admit_notices: Attestations::new(code),
            gm_pending: VecDeque::new(),
            obs: Obs::disabled(),
            completed: Vec::new(),
            proofs_sent: 0,
        }
    }

    /// Installs an instrumentation sink (Figure 3 connection phases,
    /// per-invocation reply latency, fault-proof counters).
    pub fn set_obs(&mut self, obs: Obs) {
        self.smiop.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Sets how many invocations may be in flight concurrently (clamped to
    /// at least 1). Outbound BFT channels widen to match, so a batching
    /// primary can order several of this client's requests per sequence
    /// number; results still land in `completed` in submission order.
    pub(crate) fn set_pipeline(&mut self, pipeline: usize) {
        self.pipeline = pipeline.max(1);
        for outbound in self.outbound.iter_mut() {
            outbound.set_window(self.pipeline);
        }
    }

    /// The configured invocation pipeline depth.
    pub fn pipeline(&self) -> usize {
        self.pipeline
    }

    fn my_code(&self) -> u64 {
        singleton_code(self.cfg.id)
    }

    fn obs_label(&self) -> [itdos_obs::Label; 1] {
        [("client", LabelValue::U64(self.cfg.id))]
    }

    /// True when no invocation is queued or awaiting a decision (decided
    /// rounds retained for late-fault flagging count as idle).
    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.rounds.iter().all(|o| o.decided)
    }

    fn submit_gm(&mut self, ctx: &mut Context<'_>, op: GmOp) {
        let fabric = &self.fabric;
        let gm = fabric.gm_domain();
        let code = self.my_code();
        self.gm_pending.push_back(match &op {
            GmOp::Open { target, .. } => Some(*target),
            _ => None,
        });
        if let Some(outbound) = self
            .outbound
            .get_or_open(gm, || Outbound::new(fabric, gm, code))
        {
            outbound.submit(ctx, fabric, op.encode());
        }
    }

    fn on_command(&mut self, ctx: &mut Context<'_>, payload: &[u8]) {
        let Some((target, frame)) = payload.split_first_chunk::<8>() else {
            return;
        };
        let target = DomainId(u64::from_le_bytes(*target));
        let Ok(msg) = decode_message(frame, self.fabric.repo()) else {
            return;
        };
        crate::cost::account(
            &self.obs,
            "giop.decode",
            "giop.decode_bytes",
            &[("kind", LabelValue::Str(msg.kind_name()))],
            payload.len() - 8,
        );
        let GiopMessage::Request(request) = msg else {
            return;
        };
        self.queue.push_back((target, request));
        self.ensure_connection(ctx, target);
        self.pump(ctx);
    }

    fn ensure_connection(&mut self, ctx: &mut Context<'_>, target: DomainId) {
        if self.keyed(target).is_some() || !self.opens_requested.insert(target) {
            return;
        }
        // Figure 3 phase 1: open_request to the GM ordering group; the
        // span closes when the combined communication key arrives
        self.obs.incr("conn.opens", &self.obs_label());
        self.obs.span_begin("conn.open_us", target.0);
        self.obs.event(
            "conn.open_request",
            &[
                ("client", LabelValue::U64(self.cfg.id)),
                ("target", LabelValue::U64(target.0)),
            ],
        );
        let op = GmOp::Open {
            client: Endpoint::Singleton(self.cfg.id),
            client_domain: None,
            target,
        };
        self.submit_gm(ctx, op);
    }

    fn pump(&mut self, ctx: &mut Context<'_>) {
        loop {
            let undecided = self.rounds.iter().filter(|o| !o.decided).count();
            if undecided >= self.pipeline {
                return;
            }
            let Some((target, _)) = self.queue.front() else {
                return;
            };
            let target = *target;
            let Some(connection) = self.keyed(target) else {
                return; // waiting for keys
            };
            // decided rounds whose results were already released linger to
            // keep collating late straggler replies (the auditor's stall
            // evidence); they are garbage-collected only when new work
            // actually starts (§3.6 generalized to a bounded pipeline)
            while self
                .rounds
                .front()
                .is_some_and(|o| o.decided && o.completion.is_none())
            {
                self.rounds.pop_front();
            }
            let Some((_, mut request)) = self.queue.pop_front() else {
                return;
            };
            let Some((meta, request_id)) = self.smiop.next_request(connection) else {
                return;
            };
            request.request_id = request_id;
            let (thresholds, senders) = self.fabric.sender_thresholds(&meta, FrameKind::Reply);
            let comparator = folded_comparator(
                self.fabric
                    .comparators()
                    .for_interface(&request.interface)
                    .clone(),
            );
            let mut collator = Collator::new(thresholds, senders, comparator);
            collator.set_obs(self.obs.clone());
            collator.begin(request.request_id);
            self.rounds.push_back(Outstanding {
                target,
                connection: meta.connection,
                request_id: request.request_id,
                trace: request.trace,
                collator,
                frames: BTreeMap::new(),
                proof_sent: false,
                decided: false,
                completion: None,
            });
            self.obs.incr("client.requests", &self.obs_label());
            self.obs.span_begin(
                "invoke.reply_us",
                invoke_span_id(meta.connection, request.request_id),
            );
            self.obs.event(
                "client.send",
                &[
                    ("client", LabelValue::U64(self.cfg.id)),
                    ("request", LabelValue::U64(request.request_id)),
                    ("trace", LabelValue::U64(request.trace)),
                    ("target", LabelValue::U64(target.0)),
                ],
            );
            self.send_request(ctx, target, connection, &request);
            // keep-alive, not a retry: this timer sends nothing (the BFT
            // channel's own retransmission re-sends). It stays pending for
            // 8 × view_timeout after every request and re-arms while that
            // round is undecided, so `settle()` runs the sim clock that far
            // past the last reply — which the healing controller's decay
            // window and rejuvenation period observe. Removing it failed
            // 536 of 536 intrusion_campaign ops (ROADMAP item 1, cliff 3).
            ctx.set_timer(
                self.fabric
                    .domain(target)
                    .config
                    .view_timeout
                    .saturating_mul(8),
                pack_timer(TimerTag::ClientRetry, request.request_id),
            );
        }
    }

    /// Pushes decided results into `completed` in submission order.
    fn release(&mut self) {
        for round in self.rounds.iter_mut() {
            if !round.decided {
                break;
            }
            if let Some(completion) = round.completion.take() {
                self.completed.push(completion);
            }
        }
    }

    fn send_request(
        &mut self,
        ctx: &mut Context<'_>,
        target: DomainId,
        connection: ConnectionId,
        request: &RequestMessage,
    ) {
        let Ok(giop_bytes) =
            encode_request(request, self.fabric.repo(), self.cfg.platform.endianness)
        else {
            return;
        };
        let Some((_, frame)) = self.smiop.seal(
            connection,
            FrameKind::Request,
            request.request_id,
            giop_bytes,
        ) else {
            return;
        };
        let op = itdos_bft::queue::QueueOp::Deliver(frame.encode()).encode();
        let fabric = &self.fabric;
        let code = self.my_code();
        let pipeline = self.pipeline;
        let outbound = self.outbound.get_or_open(target, || {
            let mut o = Outbound::new(fabric, target, code);
            o.set_window(pipeline);
            o
        });
        if let Some(outbound) = outbound {
            outbound.submit_traced(ctx, fabric, op, request.trace);
        }
    }

    /// The connection keyed to `target`, if any.
    fn keyed(&self, target: DomainId) -> Option<ConnectionId> {
        self.smiop
            .find(|meta| meta.server_domain == target)
            .map(|meta| meta.connection)
    }

    fn handle_direct_reply(&mut self, ctx: &mut Context<'_>, msg: DirectReplyMsg) {
        let Ok((meta, signed, GiopMessage::Reply(reply))) =
            self.smiop.open(&self.fabric, &msg.into())
        else {
            return;
        };
        // route to the round this reply answers; an unmatched reply is a
        // late straggler for an already-collected round (§3.6: discarded
        // without penalty)
        let Some(idx) = self
            .rounds
            .iter()
            .position(|o| o.connection == meta.connection && o.request_id == reply.request_id)
        else {
            return;
        };
        let (request_id, sender) = (reply.request_id, signed.sender);
        let Some(round) = self.rounds.get_mut(idx) else {
            return;
        };
        // the first frame from each sender is the one its vote counts, and
        // so the one a proof must carry; a repeat is discarded by the vote
        round.frames.entry(sender).or_insert(signed);
        let accept = round.collator.offer(request_id, sender, fold_reply(reply));
        match accept {
            Accept::Decided(decision) => {
                let request_id = round.request_id;
                let connection = round.connection;
                let target = round.target;
                let trace = round.trace;
                let suspects = decision.dissenters.clone();
                let result = match value_to_reply(request_id, decision.value) {
                    Some(reply) => match reply.body {
                        ReplyBody::Result(v) => Ok(v),
                        ReplyBody::UserException { name } => Err(name),
                        ReplyBody::SystemException { minor } => Err(format!("SYSTEM:{minor}")),
                    },
                    None => Err("undecodable decision".into()),
                };
                round.decided = true;
                round.completion = Some(Completed {
                    request_id,
                    target,
                    result,
                    suspects: suspects.clone(),
                });
                self.obs.span_end(
                    "invoke.reply_us",
                    invoke_span_id(connection, request_id),
                    &self.obs_label(),
                );
                self.obs.incr("client.completed", &self.obs_label());
                self.obs.event(
                    "client.decided",
                    &[
                        ("client", LabelValue::U64(self.cfg.id)),
                        ("request", LabelValue::U64(request_id)),
                        ("trace", LabelValue::U64(trace)),
                        ("suspects", LabelValue::U64(suspects.len() as u64)),
                    ],
                );
                if self.cfg.auto_proof && !suspects.is_empty() {
                    self.send_proof(ctx, idx, &suspects);
                }
                // decided rounds keep collecting late replies for fault
                // flagging; their results release strictly in submission
                // order so `completed` stays FIFO under pipelining
                self.release();
                self.pump(ctx);
            }
            Accept::Late { suspect: Some(s) } if self.cfg.auto_proof => {
                // a slow faulty value arrived after the decision
                self.send_proof(ctx, idx, &[s]);
            }
            _ => {}
        }
    }

    fn send_proof(&mut self, ctx: &mut Context<'_>, round_idx: usize, accused: &[SenderId]) {
        let Some(round) = self.rounds.get_mut(round_idx) else {
            return;
        };
        if round.proof_sent {
            return;
        }
        round.proof_sent = true;
        let request_id = round.request_id;
        let messages: Vec<SignedReply> = round.frames.values().cloned().collect();
        self.obs
            .incr("client.proofs", &[("client", LabelValue::U64(self.cfg.id))]);
        self.obs.event(
            "client.proof",
            &[
                ("client", LabelValue::U64(self.cfg.id)),
                ("request", LabelValue::U64(request_id)),
                ("accused", LabelValue::U64(accused.len() as u64)),
            ],
        );
        // one record per accused sender: the count above sizes the proof,
        // these name its targets so an offline auditor can correlate the
        // client's signed-message evidence with voter dissents
        for s in accused {
            self.obs.event(
                "client.accused",
                &[
                    ("client", LabelValue::U64(self.cfg.id)),
                    ("request", LabelValue::U64(request_id)),
                    ("accused", LabelValue::U64(u64::from(s.0))),
                ],
            );
        }
        let proof = FaultProof {
            accused: accused.to_vec(),
            request_id,
            messages,
        };
        self.proofs_sent += 1;
        self.submit_gm(ctx, GmOp::ChangeProof(proof));
    }

    /// Handles the ordered result of one of our GM submissions (paired
    /// with `gm_pending` in FIFO order). A refused `Open` will never key:
    /// cancel its Figure-3 span instead of leaking it, and forget the
    /// attempt so a later command may retry.
    fn on_gm_result(&mut self, result: &[u8]) {
        let pending_open = self.gm_pending.pop_front().flatten();
        let Ok(directives) = crate::wire::decode_directives(result) else {
            return;
        };
        let refused = directives
            .iter()
            .any(|d| matches!(d, crate::wire::Directive::Refused(_)));
        if refused {
            if let Some(target) = pending_open {
                self.obs.span_cancel("conn.open_us", target.0);
                self.obs.incr("conn.refused", &self.obs_label());
                self.obs.event(
                    "conn.open_refused",
                    &[
                        ("client", LabelValue::U64(self.cfg.id)),
                        ("target", LabelValue::U64(target.0)),
                    ],
                );
                self.opens_requested.remove(&target);
            }
        }
    }

    fn handle_key_share(&mut self, ctx: &mut Context<'_>, msg: crate::wire::KeyShareMsg) {
        let Some(meta) = self.smiop.offer_share(&self.fabric, &msg) else {
            return;
        };
        let target = meta.server_domain;
        // Figure 3 phases 2–4 complete: the key is combined and the
        // virtual connection is usable
        self.obs.span_end(
            "conn.open_us",
            target.0,
            &[
                ("client", LabelValue::U64(self.cfg.id)),
                ("target", LabelValue::U64(target.0)),
            ],
        );
        self.obs.event(
            "conn.keyed",
            &[
                ("client", LabelValue::U64(self.cfg.id)),
                ("target", LabelValue::U64(target.0)),
                ("epoch", LabelValue::U64(u64::from(meta.epoch))),
            ],
        );
        self.pump(ctx);
    }

    /// A GM element vouches for a replica replacement on a domain we talk
    /// to. At `f_gm + 1` distinct attestations at least one correct GM
    /// element agrees, so the roster change was really ordered: swap the
    /// slot in our fabric copy so reply voting and routing follow the new
    /// roster.
    fn handle_admit_notice(&mut self, msg: crate::wire::AdmitNoticeMsg) {
        if !self.admit_notices.admit(&mut self.fabric, &msg) {
            return;
        }
        self.obs
            .incr("client.admissions_applied", &self.obs_label());
        self.obs.event(
            "client.admission_applied",
            &[
                ("client", LabelValue::U64(self.cfg.id)),
                ("admitted", LabelValue::U64(u64::from(msg.admitted.0))),
                ("replaced", LabelValue::U64(u64::from(msg.replaced.0))),
                ("epoch", LabelValue::U64(msg.epoch)),
            ],
        );
    }
}

impl Process for SingletonClient {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        if from.is_external() {
            self.on_command(ctx, &payload);
            return;
        }
        let Ok(msg) = CoreMsg::decode_shared(&payload) else {
            return;
        };
        match msg {
            CoreMsg::Bft { domain, envelope } => {
                if let Some(outbound) = self.outbound.get_mut(domain) {
                    if let Ok((envelope, message)) = Envelope::open(&envelope) {
                        outbound.on_reply(ctx, &self.fabric, &envelope, message);
                    }
                    // only the Group Manager's results are read, and rarely
                    if domain == self.fabric.gm_domain() {
                        let results: Vec<Vec<u8>> = outbound.take_accepted().collect();
                        for result in results {
                            self.on_gm_result(&result);
                        }
                    } else {
                        outbound.take_accepted();
                    }
                }
            }
            CoreMsg::KeyShare(m) => self.handle_key_share(ctx, m),
            CoreMsg::DirectReply(m) => self.handle_direct_reply(ctx, m),
            CoreMsg::Notice(_) => {}
            CoreMsg::AdmitNotice(m) => self.handle_admit_notice(m),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        let Some((tag, param)) = unpack_timer(timer.kind) else {
            return;
        };
        match tag {
            TimerTag::Retransmit => {
                if let Some(outbound) = self.outbound.get_mut(DomainId(param)) {
                    outbound.on_retransmit_timer(ctx, &self.fabric);
                }
            }
            TimerTag::ClientRetry => {
                // sends nothing (see `pump`): while the round is undecided
                // the keep-alive re-arms so the sim clock keeps running
                let undecided = self
                    .rounds
                    .iter()
                    .find(|o| o.request_id == param && !o.decided);
                if let Some(round) = undecided {
                    let target = round.target;
                    ctx.set_timer(
                        self.fabric
                            .domain(target)
                            .config
                            .view_timeout
                            .saturating_mul(8),
                        pack_timer(TimerTag::ClientRetry, param),
                    );
                }
            }
            _ => {}
        }
    }
}
