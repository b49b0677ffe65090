//! The fabric: one process's view of the deployment wiring.
//!
//! A deployment is fixed at configuration time (the paper's §2.2
//! assumption that "authentication tokens for each process are adequately
//! protected" plus "ITDOS relies upon configuration inputs for its
//! pseudo-random functions"): which domains exist, which simulated node
//! hosts which endpoint, every group's BFT provisioning seed, the global
//! pairwise-key seed, element signing keys, the DPRF verifier, the
//! interface repository, and the comparator registry.
//!
//! Almost all of it never changes, so every process shares one copy of
//! it behind an `Arc` ([`Wiring`] plus each domain's group settings). The
//! one part that does change is the roster — which element holds each
//! replica slot on which node, and which elements a replacement retired —
//! and each process keeps its own, because each applies a Group Manager
//! admission at its own `f_gm + 1` notices ([`Fabric::apply_admission`]).

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use itdos_audit::{ElementInfo, Topology};
use itdos_bft::auth::{AuthContext, KeyProvisioner};
use itdos_bft::config::{ClientId, GroupConfig, ReplicaId};
use itdos_bft::message::Message;
use itdos_bft::node::Route;
use itdos_crypto::dprf::Verifier;
use itdos_crypto::keys::SymmetricKey;
use itdos_crypto::sign::{SigningKey, VerifyingKey};
use itdos_giop::idl::InterfaceRepository;
use itdos_groupmgr::membership::{DomainId, Endpoint};
use itdos_obs::{LabelValue, Obs};
use itdos_vote::vote::{SenderId, Thresholds};
use simnet::{GroupId, NodeId};
use xbytes::Bytes;

use crate::codes::{bft_client_id, code_endpoint, element_code};
use crate::registry::ComparatorRegistry;
use crate::wire::{bft_frame, ConnectionMeta};

/// One replication domain's wiring, as [`Fabric::new`] takes it.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// Domain id.
    pub id: DomainId,
    /// Faults tolerated.
    pub f: usize,
    /// BFT group configuration.
    pub config: GroupConfig,
    /// BFT key-provisioning seed for this group.
    pub seed: [u8; 32],
    /// The domain's multicast group (one address per domain, §3.4).
    pub mcast: GroupId,
    /// Hosting node per replica index.
    pub nodes: Vec<NodeId>,
    /// Global element id per replica index.
    pub elements: Vec<SenderId>,
}

/// The wiring no admission changes, besides the domains' group settings.
#[derive(Debug)]
pub struct Wiring {
    /// The Group Manager's domain id.
    pub gm_domain: DomainId,
    /// The shared interface repository.
    pub repo: InterfaceRepository,
    /// Voting comparator programs.
    pub comparators: ComparatorRegistry,
    /// Public verifier for GM key shares.
    pub dprf_verifier: Verifier,
    /// Seed for pairwise keys and element signing keys.
    pub global_seed: [u8; 32],
    /// Singleton endpoint code → hosting node.
    pub singleton_nodes: BTreeMap<u64, NodeId>,
}

/// A domain's group settings; its roster slots are `slots` of
/// [`Roster`]'s vectors.
#[derive(Debug)]
struct Group {
    id: DomainId,
    f: usize,
    config: GroupConfig,
    seed: [u8; 32],
    mcast: GroupId,
    slots: Range<usize>,
}

/// The static part, shared by every process.
#[derive(Debug)]
struct Shared {
    wiring: Wiring,
    /// Sorted by domain id.
    groups: Vec<Group>,
}

/// An element retired by replica replacement. Kept so forensic tooling
/// can still attribute its pre-replacement traffic, and so straggler
/// traffic to it still routes (and gets dropped by its receiver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Its domain.
    pub domain: DomainId,
    /// The retired element.
    pub element: SenderId,
    /// The replica slot it held.
    pub slot: usize,
    /// The node that hosted it.
    pub node: NodeId,
}

/// One process's roster: every domain's slots, laid end to end in domain
/// order, and the elements replacements retired, in admission order.
#[derive(Debug, Clone)]
struct Roster {
    elements: Vec<SenderId>,
    nodes: Vec<NodeId>,
    retired: Vec<Retired>,
}

/// One domain as a process currently sees it.
#[derive(Debug, Clone, Copy)]
pub struct Domain<'a> {
    /// Domain id.
    pub id: DomainId,
    /// Faults tolerated.
    pub f: usize,
    /// BFT group configuration.
    pub config: &'a GroupConfig,
    /// BFT key-provisioning seed for this group.
    pub seed: &'a [u8; 32],
    /// The domain's multicast group (one address per domain, §3.4).
    pub mcast: GroupId,
    /// Hosting node per replica index.
    pub nodes: &'a [NodeId],
    /// Global element id per replica index.
    pub elements: &'a [SenderId],
}

impl Domain<'_> {
    /// The replica index of a global element id, if it belongs here.
    pub fn replica_index(&self, element: SenderId) -> Option<usize> {
        self.elements.iter().position(|e| *e == element)
    }
}

/// The full wiring as one process sees it: the shared static part and
/// this process's roster. Cloning it clones the roster only.
#[derive(Debug, Clone)]
pub struct Fabric {
    shared: Arc<Shared>,
    roster: Roster,
}

impl Fabric {
    /// Wires `domains` (any order; ids unique) around `wiring`.
    ///
    /// # Panics
    ///
    /// Panics if a domain does not list one node per element.
    pub fn new(wiring: Wiring, mut domains: Vec<DomainSpec>) -> Fabric {
        domains.sort_by_key(|d| d.id);
        let mut roster = Roster {
            elements: Vec::new(),
            nodes: Vec::new(),
            retired: Vec::new(),
        };
        let mut groups = Vec::with_capacity(domains.len());
        for spec in domains {
            assert_eq!(spec.nodes.len(), spec.elements.len(), "one node per slot");
            let start = roster.elements.len();
            roster.elements.extend(spec.elements);
            roster.nodes.extend(spec.nodes);
            groups.push(Group {
                id: spec.id,
                f: spec.f,
                config: spec.config,
                seed: spec.seed,
                mcast: spec.mcast,
                slots: start..roster.elements.len(),
            });
        }
        Fabric {
            shared: Arc::new(Shared { wiring, groups }),
            roster,
        }
    }

    fn view<'a>(&'a self, group: &'a Group) -> Domain<'a> {
        let roster = &self.roster;
        Domain {
            id: group.id,
            f: group.f,
            config: &group.config,
            seed: &group.seed,
            mcast: group.mcast,
            nodes: roster.nodes.get(group.slots.clone()).unwrap_or_default(),
            elements: roster.elements.get(group.slots.clone()).unwrap_or_default(),
        }
    }

    fn group(&self, id: DomainId) -> Option<&Group> {
        let groups = &self.shared.groups;
        groups
            .binary_search_by_key(&id, |g| g.id)
            .ok()
            .and_then(|i| groups.get(i))
    }

    /// The spec of a domain.
    ///
    /// # Panics
    ///
    /// Panics on an unknown domain — fabric wiring is static, so an
    /// unknown id is a deployment bug.
    #[expect(
        clippy::expect_used,
        reason = "callers name their own domain, a target the local caller chose, or one a GM quorum agreed; no field a single Byzantine sender writes reaches it"
    )]
    pub fn domain(&self, id: DomainId) -> Domain<'_> {
        self.get(id).expect("domain wired in fabric")
    }

    /// The spec of a domain, if it is wired.
    pub fn get(&self, id: DomainId) -> Option<Domain<'_>> {
        self.group(id).map(|g| self.view(g))
    }

    /// Every domain (servers, clients-as-domains, and the GM domain), in
    /// id order.
    pub fn domains(&self) -> impl Iterator<Item = Domain<'_>> + Clone {
        self.shared.groups.iter().map(|g| self.view(g))
    }

    /// The domain containing a global element id.
    pub fn domain_of_element(&self, element: SenderId) -> Option<Domain<'_>> {
        self.domains().find(|d| d.elements.contains(&element))
    }

    /// The Group Manager's domain id.
    pub fn gm_domain(&self) -> DomainId {
        self.shared.wiring.gm_domain
    }

    /// The shared interface repository.
    pub fn repo(&self) -> &InterfaceRepository {
        &self.shared.wiring.repo
    }

    /// Voting comparator programs.
    pub fn comparators(&self) -> &ComparatorRegistry {
        &self.shared.wiring.comparators
    }

    /// Public verifier for GM key shares.
    pub(crate) fn dprf_verifier(&self) -> &Verifier {
        &self.shared.wiring.dprf_verifier
    }

    /// Elements retired by replica replacement, in admission order.
    pub fn retired(&self) -> &[Retired] {
        &self.roster.retired
    }

    /// The deployment map the forensic auditor runs against: every
    /// domain's fault bound, every element's domain/index/scope, and every
    /// singleton client's scope.
    pub fn topology(&self) -> Topology {
        let info = |element: SenderId, domain: DomainId, slot: usize| ElementInfo {
            domain: domain.0,
            index: slot as u64,
            scope: element_code(element),
        };
        let mut topology = Topology {
            gm_domain: self.gm_domain().0,
            ..Topology::default()
        };
        for spec in self.domains() {
            topology.domain_f.insert(spec.id.0, spec.f as u64);
            for (slot, &element) in spec.elements.iter().enumerate() {
                let id = u64::from(element.0);
                topology.elements.insert(id, info(element, spec.id, slot));
            }
        }
        // retired (replaced) elements stay in the map: their signed
        // pre-replacement traffic must remain attributable to a slot —
        // but they are *marked* retired so slot resolution hands the
        // membership view to their replacement and a rejoined slot does
        // not inherit its predecessor's findings
        for retired in self.retired() {
            let id = u64::from(retired.element.0);
            let placed = info(retired.element, retired.domain, retired.slot);
            topology.elements.entry(id).or_insert(placed);
            topology.retired.insert(id);
        }
        for &code in self.shared.wiring.singleton_nodes.keys() {
            if let Some(Endpoint::Singleton(id)) = code_endpoint(code) {
                topology.clients.insert(id, code);
            }
        }
        topology
    }

    /// The node hosting an endpoint code: a singleton, an element on the
    /// roster, or an element a replacement retired.
    pub fn node_of(&self, code: u64) -> Option<NodeId> {
        if let Some(&node) = self.shared.wiring.singleton_nodes.get(&code) {
            return Some(node);
        }
        let roster = &self.roster;
        match roster
            .elements
            .iter()
            .position(|&e| element_code(e) == code)
        {
            Some(slot) => roster.nodes.get(slot).copied(),
            None => roster
                .retired
                .iter()
                .find(|r| element_code(r.element) == code)
                .map(|r| r.node),
        }
    }

    /// The symmetric pairwise key between two endpoint codes (used for GM
    /// share distribution and notices).
    pub fn pairwise(&self, a: u64, b: u64) -> SymmetricKey {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        SymmetricKey::derive_parts(
            &self.shared.wiring.global_seed,
            &[b"pairwise", &lo.to_le_bytes(), &hi.to_le_bytes()],
        )
    }

    /// The signing key of any endpoint code (elements and singletons).
    pub(crate) fn signing_key_code(&self, code: u64) -> SigningKey {
        let seed = &self.shared.wiring.global_seed;
        SigningKey::from_seed_parts(&[seed, b"sign", &code.to_le_bytes()])
    }

    /// The verifying key of any endpoint code.
    pub(crate) fn verifying_key_code(&self, code: u64) -> VerifyingKey {
        self.signing_key_code(code).verifying_key()
    }

    /// The signing key of a global element.
    pub fn signing_key(&self, element: SenderId) -> SigningKey {
        self.signing_key_code(element_code(element))
    }

    /// The verifying key of a global element.
    pub fn verifying_key(&self, element: SenderId) -> VerifyingKey {
        self.signing_key(element).verifying_key()
    }

    /// BFT auth context for replica `index` of `domain`.
    pub fn bft_auth_replica(&self, domain: DomainId, index: usize) -> AuthContext {
        let spec = self.domain(domain);
        AuthContext::for_replica(
            KeyProvisioner::new(*spec.seed),
            itdos_bft::config::ReplicaId(index as u32),
            spec.config.n,
        )
    }

    /// BFT auth context for endpoint `code` acting as a client of
    /// `domain`'s ordering group.
    pub fn bft_auth_client(&self, domain: DomainId, code: u64) -> AuthContext {
        let spec = self.domain(domain);
        AuthContext::for_client(
            KeyProvisioner::new(*spec.seed),
            bft_client_id(code),
            spec.config.n,
        )
    }

    /// Voting thresholds for traffic arriving over `meta` in the given
    /// direction, with how many senders may vote: requests come from the
    /// *client side* (one singleton, f = 0, or a client domain's
    /// elements), replies from the *server side's* elements (§3.6 — the
    /// voter masks faults of the sending domain).
    pub(crate) fn sender_thresholds(
        &self,
        meta: &ConnectionMeta,
        kind: crate::wire::FrameKind,
    ) -> (Thresholds, usize) {
        let side = match (kind, meta.client_domain) {
            (crate::wire::FrameKind::Request, None) => return (Thresholds::new(0), 1),
            (crate::wire::FrameKind::Request, Some(client_domain)) => client_domain,
            (crate::wire::FrameKind::Reply, _) => meta.server_domain,
        };
        let domain = self.domain(side);
        (Thresholds::new(domain.f), domain.elements.len())
    }

    /// The endpoint codes of a domain's elements, in replica order.
    pub fn element_codes(&self, domain: DomainId) -> Vec<u64> {
        self.domain(domain)
            .elements
            .iter()
            .map(|e| element_code(*e))
            .collect()
    }

    /// Applies a GM-ordered admission to this process's roster: the fresh
    /// element takes the replaced element's slot and node. Returns false
    /// (and changes nothing) unless `replaced` currently holds `slot` —
    /// which also makes re-application a no-op, so peers can apply the
    /// same notice-threshold event at most once.
    pub(crate) fn apply_admission(
        &mut self,
        domain: DomainId,
        admitted: SenderId,
        replaced: SenderId,
        slot: usize,
        node: NodeId,
    ) -> bool {
        let Some(slots) = self.group(domain).map(|g| g.slots.clone()) else {
            return false;
        };
        let index = slots.start.saturating_add(slot);
        let held = (
            self.roster.elements.get_mut(index),
            self.roster.nodes.get_mut(index),
        );
        let (Some(element), Some(host)) = held else {
            return false;
        };
        if !slots.contains(&index) || *element != replaced {
            return false;
        }
        let retired = Retired {
            domain,
            element: replaced,
            slot,
            node: *host,
        };
        *element = admitted;
        *host = node;
        self.roster.retired.push(retired);
        true
    }
}

/// The [`Route`] of the replica an element of `domain` hosts: frames go
/// behind a `CoreMsg::Bft` head ([`bft_frame`]), ids resolve through the
/// fabric, and each frame sent counts as `bft.wire_tx*`.
pub(crate) struct DomainRoute<'a> {
    pub fabric: &'a Fabric,
    pub domain: DomainId,
    pub auth: &'a AuthContext,
    pub obs: &'a Obs,
}

impl DomainRoute<'_> {
    /// Counts a frame the replica received and accepted as `bft.wire_rx*`.
    pub fn received(&self, auth: &'static str, len: usize) {
        let labels = [("auth", LabelValue::Str(auth))];
        crate::cost::account(self.obs, "bft.wire_rx", "bft.wire_rx_bytes", &labels, len);
    }
}

impl Route for DomainRoute<'_> {
    fn frame(&self, message: &Message, client: Option<ClientId>) -> Bytes {
        let frame = bft_frame(self.auth, self.domain, message, client);
        let labels = [("auth", LabelValue::Str(frame.auth))];
        let len = frame.envelope_len;
        crate::cost::account(self.obs, "bft.wire_tx", "bft.wire_tx_bytes", &labels, len);
        frame.bytes
    }

    fn replica(&self, replica: ReplicaId) -> Option<NodeId> {
        let nodes = &self.fabric.domain(self.domain).nodes;
        nodes.get(replica.0 as usize).copied()
    }

    fn client(&self, client: ClientId) -> Option<NodeId> {
        self.fabric.node_of(client.0)
    }

    fn group(&self) -> GroupId {
        self.fabric.domain(self.domain).mcast
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codes::bft_client_id;
    use itdos_bft::auth::Envelope;
    use itdos_bft::message::{ClientRequest, Message};
    use itdos_crypto::dprf::Dprf;
    use xrand::rngs::SmallRng;
    use xrand::SeedableRng;

    /// Domain 1: f = 1, elements 0–3 on nodes 0–3.
    pub(crate) fn domain_spec() -> DomainSpec {
        DomainSpec {
            id: DomainId(1),
            f: 1,
            config: GroupConfig::for_f(1),
            seed: [1u8; 32],
            mcast: GroupId::from_raw(0),
            nodes: (0..4).map(NodeId::from_raw).collect(),
            elements: (0..4).map(SenderId).collect(),
        }
    }

    /// Domain 1 (also the Group Manager's) plus `extra` domains, singleton
    /// 9, and `repo`.
    pub(crate) fn fabric_with(repo: InterfaceRepository, extra: Vec<DomainSpec>) -> Fabric {
        let dprf = Dprf::deal(1, 4, &mut SmallRng::seed_from_u64(1));
        let wiring = Wiring {
            gm_domain: DomainId(1),
            repo,
            comparators: ComparatorRegistry::new(),
            dprf_verifier: dprf.verifier().clone(),
            global_seed: [9u8; 32],
            singleton_nodes: BTreeMap::from([(9, NodeId::from_raw(9))]),
        };
        let mut domains = vec![domain_spec()];
        domains.extend(extra);
        Fabric::new(wiring, domains)
    }

    /// One f = 1 domain (elements 0–3, also the Group Manager's) and
    /// singleton 9.
    pub(crate) fn fabric() -> Fabric {
        fabric_with(InterfaceRepository::new(), Vec::new())
    }

    #[test]
    fn pairwise_is_symmetric_and_distinct() {
        let f = fabric();
        assert_eq!(f.pairwise(1, 2), f.pairwise(2, 1));
        assert_ne!(f.pairwise(1, 2), f.pairwise(1, 3));
    }

    /// Key bytes captured at the parent commit (7cbcef7), whose labels were
    /// built on the heap: hashing the parts in place derives the same keys.
    #[test]
    fn pairwise_and_signing_keys_match_parent_commit() {
        let f = fabric();
        let key = itdos_crypto::hash::Digest(*f.pairwise(1_000_002, 9).as_bytes());
        let golden = "2014bd90db175a0b93e4ec20b5818712b00005a137e6dc32a9755eb2ed8c5e1f";
        assert_eq!(key.to_hex(), golden);
        let signing = f.verifying_key_code(9).to_bytes();
        assert_eq!(signing, [195, 39, 74, 3, 27, 197, 151, 21]);
    }

    #[test]
    fn element_lookup() {
        let f = fabric();
        assert_eq!(f.domain_of_element(SenderId(2)).unwrap().id, DomainId(1));
        assert!(f.domain_of_element(SenderId(99)).is_none());
        assert_eq!(f.domain(DomainId(1)).replica_index(SenderId(3)), Some(3));
    }

    #[test]
    fn signing_keys_are_per_element() {
        let f = fabric();
        assert_ne!(f.verifying_key(SenderId(0)), f.verifying_key(SenderId(1)));
        // deterministic
        assert_eq!(f.verifying_key(SenderId(0)), f.verifying_key(SenderId(0)));
    }

    #[test]
    fn thresholds_follow_sender_side() {
        let f = fabric();
        let meta = ConnectionMeta {
            connection: itdos_groupmgr::manager::ConnectionId(0),
            epoch: 0,
            client_code: 9,
            client_domain: None,
            server_domain: DomainId(1),
        };
        assert_eq!(
            f.sender_thresholds(&meta, crate::wire::FrameKind::Request),
            (Thresholds::new(0), 1),
            "singleton client"
        );
        assert_eq!(
            f.sender_thresholds(&meta, crate::wire::FrameKind::Reply),
            (Thresholds::new(1), 4),
            "replicated server"
        );
    }

    #[test]
    fn apply_admission_swaps_the_slot() {
        let mut f = fabric();
        // wrong slot or wrong incumbent: refused, nothing changes
        assert!(!f.apply_admission(
            DomainId(1),
            SenderId(14),
            SenderId(3),
            2,
            NodeId::from_raw(8)
        ));
        assert!(!f.apply_admission(
            DomainId(9),
            SenderId(14),
            SenderId(3),
            3,
            NodeId::from_raw(8)
        ));
        assert!(f.apply_admission(
            DomainId(1),
            SenderId(14),
            SenderId(3),
            3,
            NodeId::from_raw(8)
        ));
        let spec = f.domain(DomainId(1));
        assert_eq!(spec.elements[3], SenderId(14));
        assert_eq!(spec.nodes[3], NodeId::from_raw(8));
        assert_eq!(spec.replica_index(SenderId(14)), Some(3));
        assert_eq!(spec.replica_index(SenderId(3)), None);
        assert_eq!(
            f.node_of(element_code(SenderId(14))),
            Some(NodeId::from_raw(8))
        );
        assert_eq!(
            f.node_of(element_code(SenderId(3))),
            Some(NodeId::from_raw(3)),
            "retired element still routable for stragglers"
        );
        let retired = Retired {
            domain: DomainId(1),
            element: SenderId(3),
            slot: 3,
            node: NodeId::from_raw(3),
        };
        assert_eq!(f.retired(), [retired]);
        // a second application of the same notice is a no-op
        assert!(!f.apply_admission(
            DomainId(1),
            SenderId(14),
            SenderId(3),
            3,
            NodeId::from_raw(8)
        ));
        assert_eq!(f.retired().len(), 1);
    }

    /// Processes share one copy of the static wiring; an admission changes
    /// only the roster of the process that applies it.
    #[test]
    fn clones_share_the_wiring_and_keep_their_own_roster() {
        let mut a = fabric();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.shared, &b.shared));
        assert!(a.apply_admission(
            DomainId(1),
            SenderId(14),
            SenderId(3),
            3,
            NodeId::from_raw(8)
        ));
        assert!(Arc::ptr_eq(&a.shared, &b.shared));
        assert_eq!(a.domain(DomainId(1)).elements[3], SenderId(14));
        assert_eq!(b.domain(DomainId(1)).elements[3], SenderId(3));
        assert!(b.retired().is_empty());
        assert_eq!(b.node_of(element_code(SenderId(14))), None);
        assert_eq!(b.node_of(9), Some(NodeId::from_raw(9)), "singleton");
    }

    #[test]
    fn auth_contexts_interoperate() {
        let f = fabric();
        let replica = f.bft_auth_replica(DomainId(1), 2);
        let client = f.bft_auth_client(DomainId(1), 9);
        let request = ClientRequest::new(bft_client_id(9), 1, 0, vec![1, 2, 3]);
        let (env, message) =
            Envelope::open(&client.frame(&Message::Request(request), None)).expect("decodes");
        assert!(replica.verify(&env, &message));
    }
}
