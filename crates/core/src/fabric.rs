//! The fabric: static deployment wiring shared by every process.
//!
//! A deployment is fixed at configuration time (the paper's §2.2
//! assumption that "authentication tokens for each process are adequately
//! protected" plus "ITDOS relies upon configuration inputs for its
//! pseudo-random functions"): which domains exist, which simulated node
//! hosts which element, every group's BFT provisioning seed, the global
//! pairwise-key seed, element signing keys, the DPRF verifier, the
//! interface repository, and the comparator registry.

use std::collections::BTreeMap;

use itdos_bft::auth::{AuthContext, KeyProvisioner};
use itdos_bft::config::{ClientId, GroupConfig, ReplicaId};
use itdos_bft::message::Message;
use itdos_bft::node::Route;
use itdos_crypto::dprf::Verifier;
use itdos_crypto::keys::SymmetricKey;
use itdos_crypto::sign::{SigningKey, VerifyingKey};
use itdos_giop::idl::InterfaceRepository;
use itdos_groupmgr::membership::DomainId;
use itdos_obs::{LabelValue, Obs};
use itdos_vote::vote::{SenderId, Thresholds};
use simnet::{GroupId, NodeId};
use xbytes::Bytes;

use crate::codes::{bft_client_id, element_code};
use crate::registry::ComparatorRegistry;
use crate::wire::{bft_frame, ConnectionMeta};

/// One replication domain's wiring.
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

impl DomainSpec {
    /// The replica index of a global element id, if it belongs here.
    pub fn replica_index(&self, element: SenderId) -> Option<usize> {
        self.elements.iter().position(|e| *e == element)
    }
}

/// The full static wiring.
#[derive(Debug, Clone)]
pub struct Fabric {
    /// All domains (servers, clients-as-domains, and the GM domain).
    pub domains: BTreeMap<DomainId, DomainSpec>,
    /// Endpoint code → hosting node (covers singletons and all elements).
    pub endpoint_nodes: BTreeMap<u64, NodeId>,
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
    /// Elements retired by replica replacement: `(domain, element, slot)`
    /// in admission order. Kept so forensic tooling can still attribute a
    /// retired element's pre-replacement traffic.
    pub retired: Vec<(DomainId, SenderId, usize)>,
}

impl Fabric {
    /// The spec of a domain.
    ///
    /// # Panics
    ///
    /// Panics on an unknown domain — fabric wiring is static, so an
    /// unknown id is a deployment bug.
    pub fn domain(&self, id: DomainId) -> &DomainSpec {
        self.domains.get(&id).expect("domain wired in fabric")
    }

    /// The domain containing a global element id.
    pub fn domain_of_element(&self, element: SenderId) -> Option<&DomainSpec> {
        self.domains
            .values()
            .find(|d| d.elements.contains(&element))
    }

    /// The node hosting an endpoint code.
    pub fn node_of(&self, code: u64) -> Option<NodeId> {
        self.endpoint_nodes.get(&code).copied()
    }

    /// The symmetric pairwise key between two endpoint codes (used for GM
    /// share distribution and notices).
    pub fn pairwise(&self, a: u64, b: u64) -> SymmetricKey {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        SymmetricKey::derive_parts(
            &self.global_seed,
            &[b"pairwise", &lo.to_le_bytes(), &hi.to_le_bytes()],
        )
    }

    /// The signing key of any endpoint code (elements and singletons).
    pub fn signing_key_code(&self, code: u64) -> SigningKey {
        SigningKey::from_seed_parts(&[&self.global_seed, b"sign", &code.to_le_bytes()])
    }

    /// The verifying key of any endpoint code.
    pub fn verifying_key_code(&self, code: u64) -> VerifyingKey {
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
            KeyProvisioner::new(spec.seed),
            itdos_bft::config::ReplicaId(index as u32),
            spec.config.n,
        )
    }

    /// BFT auth context for endpoint `code` acting as a client of
    /// `domain`'s ordering group.
    pub fn bft_auth_client(&self, domain: DomainId, code: u64) -> AuthContext {
        let spec = self.domain(domain);
        AuthContext::for_client(
            KeyProvisioner::new(spec.seed),
            bft_client_id(code),
            spec.config.n,
        )
    }

    /// Voting thresholds for traffic arriving over `meta` in the given
    /// direction: requests carry the *client side's* f, replies the
    /// *server side's* (§3.6 — the voter masks faults of the sending
    /// domain).
    pub fn sender_thresholds(
        &self,
        meta: &ConnectionMeta,
        kind: crate::wire::FrameKind,
    ) -> Thresholds {
        let f = match kind {
            crate::wire::FrameKind::Request => {
                meta.client_domain.map(|d| self.domain(d).f).unwrap_or(0)
            }
            crate::wire::FrameKind::Reply => self.domain(meta.server_domain).f,
        };
        Thresholds::new(f)
    }

    /// The endpoint codes of a domain's elements, in replica order.
    pub fn element_codes(&self, domain: DomainId) -> Vec<u64> {
        self.domain(domain)
            .elements
            .iter()
            .map(|e| element_code(*e))
            .collect()
    }

    /// Applies a GM-ordered admission to this process's wiring copy: the
    /// fresh element takes the replaced element's roster slot and node.
    /// Returns false (and changes nothing) unless `replaced` currently
    /// holds `slot` — which also makes re-application a no-op, so peers
    /// can apply the same notice-threshold event at most once.
    pub fn apply_admission(
        &mut self,
        domain: DomainId,
        admitted: SenderId,
        replaced: SenderId,
        slot: usize,
        node: NodeId,
    ) -> bool {
        let Some(spec) = self.domains.get_mut(&domain) else {
            return false;
        };
        if spec.elements.get(slot) != Some(&replaced) || spec.nodes.len() <= slot {
            return false;
        }
        spec.elements[slot] = admitted;
        spec.nodes[slot] = node;
        // the retired element keeps its endpoint_nodes entry so straggler
        // traffic still routes (and gets dropped by its receiver)
        self.endpoint_nodes.insert(element_code(admitted), node);
        self.retired.push((domain, replaced, slot));
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

    /// One f = 1 domain (elements 0–3, also the Group Manager's) and
    /// singleton 9.
    pub(crate) fn fabric() -> Fabric {
        let mut domains = BTreeMap::new();
        let spec = DomainSpec {
            id: DomainId(1),
            f: 1,
            config: GroupConfig::for_f(1),
            seed: [1u8; 32],
            mcast: GroupId::from_raw(0),
            nodes: (0..4).map(NodeId::from_raw).collect(),
            elements: (0..4).map(SenderId).collect(),
        };
        domains.insert(DomainId(1), spec);
        let mut endpoint_nodes = BTreeMap::new();
        for i in 0..4u32 {
            endpoint_nodes.insert(element_code(SenderId(i)), NodeId::from_raw(i));
        }
        endpoint_nodes.insert(9, NodeId::from_raw(9));
        let dprf = Dprf::deal(1, 4, &mut SmallRng::seed_from_u64(1));
        Fabric {
            domains,
            endpoint_nodes,
            gm_domain: DomainId(1),
            repo: InterfaceRepository::new(),
            comparators: ComparatorRegistry::new(),
            dprf_verifier: dprf.verifier().clone(),
            global_seed: [9u8; 32],
            retired: Vec::new(),
        }
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
            f.sender_thresholds(&meta, crate::wire::FrameKind::Request)
                .f,
            0,
            "singleton client"
        );
        assert_eq!(
            f.sender_thresholds(&meta, crate::wire::FrameKind::Reply).f,
            1,
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
        assert_eq!(f.retired, vec![(DomainId(1), SenderId(3), 3)]);
        // a second application of the same notice is a no-op
        assert!(!f.apply_admission(
            DomainId(1),
            SenderId(14),
            SenderId(3),
            3,
            NodeId::from_raw(8)
        ));
        assert_eq!(f.retired.len(), 1);
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
