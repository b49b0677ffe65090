//! The Group Manager element process.
//!
//! GM elements form their own replication domain (§3.3): every element
//! processes the same totally-ordered stream of [`GmOp`]s through a PBFT
//! replica whose state machine is the deterministic
//! [`itdos_groupmgr::GroupManager`]. The *only* per-element divergence is
//! each element's private DPRF share: when the ordered state machine emits
//! a [`Directive::KeyDist`], each element evaluates **its own** share on
//! the common input and sends it, over its pairwise-secure channel, to
//! every recipient (§3.5 — no element ever sees a whole key).

use itdos_bft::auth::AuthContext;
use itdos_bft::node::send;
use itdos_bft::replica::{Output, Received, Replica};
use itdos_bft::state::StateMachine;
use itdos_bft::wire::{decode_seq, encode_seq, Wire};
use itdos_crypto::dprf::Shareholder;
use itdos_crypto::hash::Digest;
use itdos_crypto::symmetric::seal;
use itdos_giop::giop::{decode_message, GiopMessage};
use itdos_giop::idl::InterfaceRepository;
use itdos_groupmgr::manager::GroupManager;
use itdos_groupmgr::membership::{DomainId, Membership};
use itdos_obs::{LabelValue, Obs};
use itdos_vote::vote::SenderId;
use simnet::{Context, NodeId, Process, Timer};
use xbytes::Bytes;

use crate::codes::{element_code, endpoint_code, pack_timer, unpack_timer, TimerTag};
use crate::fabric::{DomainRoute, Fabric};
use crate::registry::ComparatorRegistry;
use crate::smiop::{admit_notice_plaintext, nonce, notice_plaintext};
use crate::wire::{
    encode_directives, AdmitNoticeMsg, ConnectionMeta, CoreMsg, Directive, GmOp, KeyShareMsg,
    NoticeMsg,
};

/// Most operations one snapshot's log may claim (hostile-length defence).
pub const MAX_OPLOG: u32 = 1 << 20;

/// Refusal reason codes carried in [`Directive::Refused`].
pub mod refusal {
    /// Operation bytes were malformed.
    pub const MALFORMED: u32 = 0;
    /// Connection open refused (unknown client or target).
    pub const OPEN: u32 = 1;
    /// A change proof failed validation.
    pub const PROOF: u32 = 2;
    /// A change vote was invalid (foreign accuser / inactive accused).
    pub const VOTE: u32 = 3;
    /// An admission was invalid (unknown domain, slot not vacant, or the
    /// replacement id already taken).
    pub const ADMIT: u32 = 4;
    /// A retirement was invalid (unknown or already-inactive element, or
    /// a domain that does not match the element's).
    pub const RETIRE: u32 = 5;
}

/// The deterministic replicated state machine of the GM domain.
pub struct GmMachine {
    manager: GroupManager,
    initial_membership: Membership,
    seed: [u8; 32],
    repo: InterfaceRepository,
    comparators: ComparatorRegistry,
    oplog: Vec<Vec<u8>>,
    chain: Digest,
}

impl std::fmt::Debug for GmMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GmMachine")
            .field("ops_applied", &self.oplog.len())
            .finish()
    }
}

impl GmMachine {
    /// Creates the machine over an initial membership registry.
    pub fn new(
        membership: Membership,
        seed: [u8; 32],
        repo: InterfaceRepository,
        comparators: ComparatorRegistry,
    ) -> GmMachine {
        GmMachine {
            manager: GroupManager::new(membership.clone(), seed),
            initial_membership: membership,
            seed,
            repo,
            comparators,
            oplog: Vec::new(),
            chain: Digest::of(b"gm-genesis"),
        }
    }

    /// The wrapped manager (tests / observability).
    pub fn manager(&self) -> &GroupManager {
        &self.manager
    }

    fn apply(&mut self, op: &GmOp) -> Vec<Directive> {
        match op {
            GmOp::Open {
                client,
                client_domain,
                target,
            } => match self.manager.open_request(*client, *client_domain, *target) {
                Ok(dist) => self
                    .key_dist_directive(dist)
                    .map_or_else(Vec::new, |d| vec![d]),
                Err(_) => vec![Directive::Refused(refusal::OPEN)],
            },
            GmOp::ChangeProof(proof) => {
                // the comparator comes from the interface named inside the
                // proof's frames — reachable outside an ORB only because
                // the ITDOS GIOP extension carries the interface name
                let comparator = proof
                    .messages
                    .first()
                    .and_then(|m| decode_message(&m.frame, &self.repo).ok())
                    .and_then(|m| match m {
                        GiopMessage::Reply(r) => Some(itdos_vote::folding::folded_comparator(
                            self.comparators.for_interface(&r.interface).clone(),
                        )),
                        _ => None,
                    });
                let Some(comparator) = comparator else {
                    return vec![Directive::Refused(refusal::PROOF)];
                };
                // proof frames hold raw replies; the detector unmarshals and
                // votes on folded values
                match self
                    .manager
                    .change_request_with_proof(proof, &self.repo, &comparator)
                {
                    Ok(expulsions) => expulsions
                        .into_iter()
                        .flat_map(|e| self.removal(e, false))
                        .collect(),
                    Err(_) => vec![Directive::Refused(refusal::PROOF)],
                }
            }
            GmOp::ChangeVote { accuser, accused } => {
                match self.manager.change_request_from_domain(*accuser, *accused) {
                    Ok(Some(expulsion)) => self.removal(expulsion, false),
                    Ok(None) => vec![Directive::VoteRecorded],
                    Err(_) => vec![Directive::Refused(refusal::VOTE)],
                }
            }
            GmOp::Close(id) => {
                self.manager.close_connection(*id);
                Vec::new()
            }
            GmOp::Admit {
                domain,
                replacement,
                replaced,
                node,
                verifying_key,
            } => {
                let record = itdos_groupmgr::membership::ElementRecord {
                    id: *replacement,
                    verifying_key: *verifying_key,
                };
                match self.manager.admit(*domain, record, *replaced) {
                    Ok(admission) => {
                        // Admitted goes FIRST: recipients must apply the
                        // roster update before the rekeying key shares
                        // naming the newcomer arrive
                        let mut out = vec![Directive::Admitted {
                            domain: admission.domain,
                            element: admission.admitted,
                            replaced: admission.replaced,
                            slot: admission.slot as u32,
                            node: *node,
                            epoch: admission.epoch,
                            verifying_key: *verifying_key,
                        }];
                        for rekey in admission.rekeys {
                            out.extend(self.key_dist_directive(rekey));
                        }
                        out
                    }
                    Err(_) => vec![Directive::Refused(refusal::ADMIT)],
                }
            }
            GmOp::Retire { domain, element } => {
                // the op's domain is a claim; the membership registry is
                // the authority — refuse a mismatch before touching any
                // state rather than retire from a domain the submitter
                // did not name
                let actual = self.manager.membership().domain_of(*element).map(|d| d.id);
                if actual != Some(*domain) {
                    return vec![Directive::Refused(refusal::RETIRE)];
                }
                match self.manager.retire(*element) {
                    Ok(retirement) => self.removal(retirement, true),
                    Err(_) => vec![Directive::Refused(refusal::RETIRE)],
                }
            }
        }
    }

    /// `None` when the distribution names no live connection.
    fn key_dist_directive(
        &self,
        dist: itdos_groupmgr::manager::KeyDistribution,
    ) -> Option<Directive> {
        let rec = self.manager.connection(dist.connection)?;
        Some(Directive::KeyDist {
            meta: ConnectionMeta {
                connection: dist.connection,
                epoch: dist.epoch,
                client_code: endpoint_code(rec.client),
                client_domain: rec.client_domain,
                server_domain: rec.server,
            },
            input: dist.input,
            recipients: dist.recipients.iter().map(|e| endpoint_code(*e)).collect(),
        })
    }

    /// The directives of an expulsion, or of a retirement when `retired`:
    /// the roster change, then the key distributions of its rekeys.
    fn removal(
        &self,
        removal: itdos_groupmgr::manager::Expulsion,
        retired: bool,
    ) -> Vec<Directive> {
        let (domain, element) = (removal.domain, removal.expelled);
        let mut out = vec![if retired {
            Directive::Retired { domain, element }
        } else {
            Directive::Expelled { domain, element }
        }];
        for rekey in removal.rekeys {
            out.extend(self.key_dist_directive(rekey));
        }
        out
    }
}

impl GmMachine {
    /// Logs, chains and applies one operation. The chain hashes the
    /// operation bytes themselves (they are short), so [`restore`] can
    /// rebuild it from the op log alone.
    ///
    /// [`restore`]: StateMachine::restore
    fn run(&mut self, operation: &[u8]) -> Vec<u8> {
        self.oplog.push(operation.to_vec());
        self.chain = Digest::of_parts(&[b"gm-link", self.chain.as_bytes(), operation]);
        let directives = match GmOp::decode(operation) {
            Ok(op) => self.apply(&op),
            Err(_) => vec![Directive::Refused(refusal::MALFORMED)],
        };
        encode_directives(&directives)
    }
}

impl StateMachine for GmMachine {
    fn execute(&mut self, operation: &[u8], _request_digest: Digest) -> Vec<u8> {
        self.run(operation)
    }

    fn digest(&self) -> Digest {
        self.chain
    }

    fn snapshot(&self) -> Vec<u8> {
        // the op log *is* the state: deterministic replay reconstructs the
        // manager exactly (the GM equivalent of the message-queue model)
        encode_seq(&self.oplog)
    }

    fn restore(&mut self, snapshot: &[u8]) {
        let Ok(ops) = decode_seq::<Vec<u8>>(snapshot, MAX_OPLOG) else {
            return;
        };
        self.manager = GroupManager::new(self.initial_membership.clone(), self.seed);
        self.oplog.clear();
        self.chain = Digest::of(b"gm-genesis");
        for op in ops {
            self.run(&op);
        }
    }
}

/// One Group Manager element (a simnet process).
pub struct GmElement {
    fabric: Fabric,
    domain: DomainId,
    index: usize,
    element: SenderId,
    replica: Replica<GmMachine>,
    /// The output buffer the element drains ([`Replica::swap_outputs`]).
    drained: Vec<Output>,
    bft_auth: AuthContext,
    shareholder: Shareholder,
    obs: Obs,
    /// Set true to model a *compromised* GM element that leaks its share
    /// (experiment E7/E11 reads [`GmElement::leaked_share`]).
    pub compromised: bool,
    /// Set true to make this element distribute **corrupt key shares**
    /// (evaluated on a tampered input while claiming the real one) — the
    /// §3.5 attack the per-share verification information defeats.
    pub corrupt_shares: bool,
}

impl std::fmt::Debug for GmElement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GmElement")
            .field("element", &self.element)
            .field("index", &self.index)
            .finish()
    }
}

impl GmElement {
    /// Creates a GM element.
    pub fn new(
        fabric: Fabric,
        domain: DomainId,
        index: usize,
        element: SenderId,
        machine: GmMachine,
        shareholder: Shareholder,
    ) -> GmElement {
        let spec = fabric.domain(domain);
        let replica = Replica::new(
            spec.config.clone(),
            itdos_bft::config::ReplicaId(index as u32),
            machine,
        );
        let bft_auth = fabric.bft_auth_replica(domain, index);
        GmElement {
            fabric,
            domain,
            index,
            element,
            replica,
            drained: Vec::with_capacity(16),
            bft_auth,
            shareholder,
            obs: Obs::disabled(),
            compromised: false,
            corrupt_shares: false,
        }
    }

    /// Installs an instrumentation sink on this element, which records
    /// its replica's facts.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The wrapped replica (tests / observability).
    pub fn replica(&self) -> &Replica<GmMachine> {
        &self.replica
    }

    /// What an attacker controlling this element learns: its DPRF share.
    /// Meaningful only when [`GmElement::compromised`] is set by the
    /// experiment harness.
    pub fn leaked_share(&self) -> itdos_crypto::shamir::Share {
        self.shareholder.leak_share()
    }

    fn my_code(&self) -> u64 {
        element_code(self.element)
    }

    fn route(&self) -> DomainRoute<'_> {
        DomainRoute {
            fabric: &self.fabric,
            domain: self.domain,
            auth: &self.bft_auth,
            obs: &self.obs,
        }
    }

    fn drain(&mut self, ctx: &mut Context<'_>) {
        let mut outputs = std::mem::take(&mut self.drained);
        self.replica.swap_outputs(&mut outputs);
        self.route().record(&self.replica, &outputs);
        for output in outputs.drain(..) {
            match output {
                Output::Send(to, message) => send(&self.route(), ctx, to, &message),
                Output::Executed { result, .. } => self.act_on_directives(ctx, &result),
                Output::StartViewTimer { epoch, timeout } => {
                    ctx.set_timer(timeout, pack_timer(TimerTag::View, epoch));
                }
                Output::Fact(_) => {}
            }
        }
        self.drained = outputs;
    }

    fn act_on_directives(&mut self, ctx: &mut Context<'_>, result: &[u8]) {
        let Ok(directives) = crate::wire::decode_directives(result) else {
            return;
        };
        for directive in directives {
            match directive {
                Directive::KeyDist {
                    meta,
                    input,
                    recipients,
                } => {
                    self.obs.incr("gm.keydists", &[]);
                    self.obs.add("gm.shares_sent", &[], recipients.len() as u64);
                    self.obs.event(
                        "gm.keydist",
                        &[
                            ("connection", LabelValue::U64(meta.connection.0)),
                            ("epoch", LabelValue::U64(u64::from(meta.epoch))),
                            ("recipients", LabelValue::U64(recipients.len() as u64)),
                        ],
                    );
                    let share = if self.corrupt_shares {
                        // Byzantine GM element: a share for a different
                        // input, claimed as the real one — the recipient's
                        // DLEQ check against the Feldman commitment fails
                        let mut tampered = input;
                        tampered[0] ^= 0xFF;
                        self.shareholder.evaluate(&tampered)
                    } else {
                        self.shareholder.evaluate(&input)
                    };
                    let mut plain = Vec::with_capacity(60);
                    plain.extend_from_slice(&input);
                    plain.extend_from_slice(&share.to_bytes());
                    let gm_code = self.my_code();
                    let connection = meta.connection.0.to_le_bytes();
                    let nonce = [b"share-nonce", &connection[..], &meta.epoch.to_le_bytes()];
                    self.seal_to_each(ctx, &recipients, &plain, nonce, |sealed| {
                        let msg = KeyShareMsg {
                            meta,
                            gm_code,
                            sealed,
                        };
                        (CoreMsg::KeyShare(msg), "gm-keyshare")
                    });
                }
                Directive::Expelled { domain, element }
                | Directive::Retired { domain, element } => {
                    let (counter, event) = match directive {
                        Directive::Expelled { .. } => ("gm.expulsions", "gm.expelled"),
                        _ => ("gm.retirements", "gm.retired"),
                    };
                    self.obs.incr(counter, &[]);
                    self.obs.event(
                        event,
                        &[
                            ("domain", LabelValue::U64(domain.0)),
                            ("element", LabelValue::U64(u64::from(element.0))),
                        ],
                    );
                    // a retirement sends the notice an expulsion does: peers
                    // run the one roster-removal path, and the benign cause
                    // is recorded by the directive's event alone
                    let plain = notice_plaintext(domain, element);
                    let gm_code = self.my_code();
                    let nonce = [b"notice-nonce", &element.0.to_le_bytes()[..], &[]];
                    let codes = self.fabric.element_codes(domain);
                    self.seal_to_each(ctx, &codes, &plain, nonce, |sealed| {
                        let msg = NoticeMsg {
                            gm_code,
                            domain,
                            expelled: element,
                            sealed,
                        };
                        (CoreMsg::Notice(msg), "gm-notice")
                    });
                }
                Directive::Refused(reason) => {
                    self.obs.incr(
                        "gm.refused",
                        &[("reason", LabelValue::U64(u64::from(reason)))],
                    );
                }
                Directive::VoteRecorded => {
                    self.obs.incr("gm.votes_recorded", &[]);
                }
                Directive::Admitted {
                    domain,
                    element,
                    replaced,
                    slot,
                    node,
                    epoch,
                    verifying_key,
                } => {
                    self.obs.incr("gm.admissions", &[]);
                    self.obs.event(
                        "gm.admitted",
                        &[
                            ("domain", LabelValue::U64(domain.0)),
                            ("element", LabelValue::U64(u64::from(element.0))),
                            ("replaced", LabelValue::U64(u64::from(replaced.0))),
                            ("epoch", LabelValue::U64(epoch)),
                        ],
                    );
                    // apply the roster update to our own wiring first so
                    // the rekey KeyDists following in this directive list
                    // resolve the newcomer's node
                    self.fabric.apply_admission(
                        domain,
                        element,
                        replaced,
                        slot as usize,
                        NodeId::from_raw(node as u32),
                    );
                    // notify the domain's elements (newcomer included) and
                    // every client whose connections touch the domain —
                    // each applies the update at f_gm+1 distinct GM notices
                    let mut codes: Vec<u64> = self.fabric.element_codes(domain);
                    for (_, rec) in self.replica.app().manager().connections() {
                        if rec.server != domain && rec.client_domain != Some(domain) {
                            continue;
                        }
                        match rec.client_domain {
                            Some(cd) if cd != domain => {
                                codes.extend(self.fabric.element_codes(cd));
                            }
                            None => codes.push(endpoint_code(rec.client)),
                            _ => {}
                        }
                    }
                    codes.sort_unstable();
                    codes.dedup();
                    let plain = admit_notice_plaintext(
                        domain,
                        element,
                        replaced,
                        slot,
                        node,
                        epoch,
                        &verifying_key,
                    );
                    let gm_code = self.my_code();
                    let admitted = element.0.to_le_bytes();
                    let nonce = [b"admit-nonce", &admitted[..], &epoch.to_le_bytes()];
                    self.seal_to_each(ctx, &codes, &plain, nonce, |sealed| {
                        let msg = AdmitNoticeMsg {
                            gm_code,
                            domain,
                            admitted: element,
                            replaced,
                            slot,
                            node,
                            epoch,
                            verifying_key,
                            sealed,
                        };
                        (CoreMsg::AdmitNotice(msg), "gm-admit-notice")
                    });
                }
            }
        }
    }

    /// Seals `plain` to each recipient code that has a node, over this
    /// element's pairwise channel to it, and sends the message `wrap` makes
    /// of the sealed bytes under its label. `[tag, a, b]` name the nonce:
    /// `nonce(tag ‖ this element ‖ recipient ‖ a ‖ b)`.
    fn seal_to_each(
        &self,
        ctx: &mut Context<'_>,
        recipients: &[u64],
        plain: &[u8],
        [tag, a, b]: [&[u8]; 3],
        wrap: impl Fn(Vec<u8>) -> (CoreMsg, &'static str),
    ) {
        let me = self.my_code();
        for &code in recipients {
            let Some(node) = self.fabric.node_of(code) else {
                continue;
            };
            let nonce = nonce(&[tag, &me.to_le_bytes(), &code.to_le_bytes(), a, b]);
            let (msg, label) = wrap(seal(&self.fabric.pairwise(me, code), nonce, plain));
            ctx.send_labeled(node, msg.encode().into(), label);
        }
    }
}

impl Process for GmElement {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.join(self.fabric.domain(self.domain).mcast);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        let Ok(CoreMsg::Bft { domain, envelope }) = CoreMsg::decode_shared(&payload) else {
            return;
        };
        if domain != self.domain {
            return;
        }
        if let Received::Delivered(kind) = self.replica.receive(&self.bft_auth, &envelope) {
            self.route().received(kind, envelope.len());
            self.drain(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        if let Some((TimerTag::View, epoch)) = unpack_timer(timer.kind) {
            self.replica.on_view_timeout(epoch);
            self.drain(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdos_bft::state::StateMachine;
    use itdos_crypto::sign::SigningKey;
    use itdos_groupmgr::manager::ConnectionId;
    use itdos_groupmgr::membership::{DomainRecord, ElementRecord, Endpoint};

    fn membership() -> Membership {
        let mut m = Membership::new();
        m.register_domain(DomainRecord::new(
            DomainId(1),
            1,
            (0..4)
                .map(|i| ElementRecord {
                    id: SenderId(i),
                    verifying_key: SigningKey::from_seed(&i.to_le_bytes()).verifying_key(),
                })
                .collect(),
        ));
        m.register_singleton(9, SigningKey::from_seed(b"c").verifying_key());
        m
    }

    fn machine() -> GmMachine {
        GmMachine::new(
            membership(),
            [5u8; 32],
            InterfaceRepository::new(),
            ComparatorRegistry::new(),
        )
    }

    fn open_op() -> Vec<u8> {
        GmOp::Open {
            client: Endpoint::Singleton(9),
            client_domain: None,
            target: DomainId(1),
        }
        .encode()
    }

    #[test]
    fn open_emits_key_distribution() {
        let mut m = machine();
        let out = m.run(&open_op());
        let directives = crate::wire::decode_directives(&out).unwrap();
        assert_eq!(directives.len(), 1);
        let Directive::KeyDist {
            meta, recipients, ..
        } = &directives[0]
        else {
            panic!("expected key distribution, got {directives:?}");
        };
        assert_eq!(meta.connection, ConnectionId(0));
        assert_eq!(recipients.len(), 5, "4 elements + the client");
    }

    #[test]
    fn reopen_reuses_connection_and_input() {
        let mut m = machine();
        let first = m.run(&open_op());
        let second = m.run(&open_op());
        let d1 = crate::wire::decode_directives(&first).unwrap();
        let d2 = crate::wire::decode_directives(&second).unwrap();
        assert_eq!(d1, d2, "same association, same connection, same input");
    }

    #[test]
    fn change_votes_expel_at_threshold() {
        let mut m = machine();
        m.run(&open_op());
        let vote = |a: u32, b: u32| {
            GmOp::ChangeVote {
                accuser: SenderId(a),
                accused: SenderId(b),
            }
            .encode()
        };
        let out = m.run(&vote(0, 3));
        assert_eq!(
            crate::wire::decode_directives(&out).unwrap(),
            vec![Directive::VoteRecorded]
        );
        let out = m.run(&vote(1, 3));
        let directives = crate::wire::decode_directives(&out).unwrap();
        assert!(matches!(
            directives[0],
            Directive::Expelled {
                element: SenderId(3),
                ..
            }
        ));
        // the rekey excludes the expelled element and bumps the epoch
        let Directive::KeyDist {
            meta, recipients, ..
        } = &directives[1]
        else {
            panic!("expected rekey");
        };
        assert_eq!(meta.epoch, 1);
        assert!(!recipients.contains(&crate::codes::element_code(SenderId(3))));
    }

    #[test]
    fn malformed_op_is_refused_deterministically() {
        let mut a = machine();
        let mut b = machine();
        assert_eq!(a.run(&[99, 99]), b.run(&[99, 99]));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(
            crate::wire::decode_directives(&a.run(&[1, 2, 3])).unwrap(),
            vec![Directive::Refused(refusal::MALFORMED)]
        );
    }

    #[test]
    fn snapshot_restore_replays_the_op_log() {
        let mut a = machine();
        a.run(&open_op());
        a.run(
            &GmOp::ChangeVote {
                accuser: SenderId(0),
                accused: SenderId(3),
            }
            .encode(),
        );
        let snap = a.snapshot();
        let mut b = machine();
        b.restore(&snap);
        assert_eq!(a.digest(), b.digest(), "replayed state converges");
        // both continue identically
        let va = a.run(
            &GmOp::ChangeVote {
                accuser: SenderId(1),
                accused: SenderId(3),
            }
            .encode(),
        );
        let vb = b.run(
            &GmOp::ChangeVote {
                accuser: SenderId(1),
                accused: SenderId(3),
            }
            .encode(),
        );
        assert_eq!(va, vb);
    }

    #[test]
    fn retire_vacates_the_slot_rekeys_and_replays() {
        let mut m = machine();
        m.run(&open_op());
        let retire = GmOp::Retire {
            domain: DomainId(1),
            element: SenderId(2),
        }
        .encode();
        let out = m.run(&retire);
        let directives = crate::wire::decode_directives(&out).unwrap();
        assert!(matches!(
            directives[0],
            Directive::Retired {
                domain: DomainId(1),
                element: SenderId(2),
            }
        ));
        // the retiree is keyed out exactly as an expelled element would be
        let Directive::KeyDist {
            meta, recipients, ..
        } = &directives[1]
        else {
            panic!("expected rekey, got {directives:?}");
        };
        assert_eq!(meta.epoch, 1);
        assert!(!recipients.contains(&crate::codes::element_code(SenderId(2))));
        assert!(!m
            .manager()
            .membership()
            .domain(DomainId(1))
            .unwrap()
            .is_active(SenderId(2)));
        // a second retirement of the same element is refused
        assert_eq!(
            crate::wire::decode_directives(&m.run(&retire)).unwrap(),
            vec![Directive::Refused(refusal::RETIRE)]
        );
        // a domain mismatch is refused without touching state
        let mismatched = GmOp::Retire {
            domain: DomainId(9),
            element: SenderId(1),
        }
        .encode();
        assert_eq!(
            crate::wire::decode_directives(&m.run(&mismatched)).unwrap(),
            vec![Directive::Refused(refusal::RETIRE)]
        );
        assert!(m
            .manager()
            .membership()
            .domain(DomainId(1))
            .unwrap()
            .is_active(SenderId(1)));
        // the op log replays retirements deterministically
        let snap = m.snapshot();
        let mut b = machine();
        b.restore(&snap);
        assert_eq!(m.digest(), b.digest());
    }

    #[test]
    fn close_drops_the_connection() {
        let mut m = machine();
        m.run(&open_op());
        assert_eq!(m.manager().connections().count(), 1);
        m.run(&GmOp::Close(ConnectionId(0)).encode());
        assert_eq!(m.manager().connections().count(), 0);
    }

    #[test]
    fn corrupt_restore_is_a_noop_for_bad_bytes() {
        let mut m = machine();
        m.run(&open_op());
        let digest = m.digest();
        m.restore(&[1, 2, 3]);
        assert_eq!(m.digest(), digest, "garbage snapshot rejected");
    }
}
