//! The Group Manager state machine.
//!
//! The Group Manager is itself a replication domain (§3.3) whose elements
//! process the same totally-ordered operation stream, so this state
//! machine is deterministic; the only per-element divergence is each
//! element's private DPRF share. It implements:
//!
//! * **connection establishment** (Figure 3): validate client and target,
//!   allocate a connection, emit the common input from which every GM
//!   element derives its key share for the client and server elements;
//! * **change_request from a singleton** (§3.6): validate the signed-
//!   message proof — signatures, replay watermarks, unmarshal via the
//!   marshalling engine, re-vote — then expel and rekey;
//! * **change_request from a replication domain**: no proof needed, but
//!   the GM "must receive the necessary number of messages to perform a
//!   vote" — `f+1` matching accusations from distinct elements;
//! * **rekeying**: bump the epoch of every connection touching the
//!   expelled element's domain, excluding the expelled element from the
//!   new key distribution.

use std::collections::BTreeMap;

use itdos_crypto::hash::Digest;
use itdos_giop::idl::InterfaceRepository;
use itdos_vote::comparator::Comparator;
use itdos_vote::detector::{verify_proof, FaultProof, ProofError};
use itdos_vote::vote::{SenderId, Thresholds};

use crate::membership::{DomainId, ElementRecord, Endpoint, Membership};

/// Identifies an established virtual connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionId(pub u64);

xbytes::wire_struct!(ConnectionId(id));

/// One established connection's record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionRecord {
    /// The client side (singleton or a whole client domain).
    pub client: Endpoint,
    /// The client's domain when the client is replicated.
    pub client_domain: Option<DomainId>,
    /// The serving domain.
    pub server: DomainId,
    /// Rekey epoch: bumped on every expulsion affecting this connection.
    pub epoch: u32,
}

/// A key distribution the GM elements must perform: each element evaluates
/// its DPRF share on `input` and sends it (over its secure pairwise
/// channel) to every recipient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyDistribution {
    /// The connection being (re)keyed.
    pub connection: ConnectionId,
    /// Epoch of this keying.
    pub epoch: u32,
    /// The common DPRF input all GM elements use.
    pub input: [u8; 32],
    /// Everyone who must receive key shares.
    pub recipients: Vec<Endpoint>,
}

/// Why a connection request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenError {
    /// The requesting client is unknown or expelled.
    BadClient,
    /// The target domain is unknown.
    UnknownDomain(DomainId),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::BadClient => write!(f, "client is unknown or expelled"),
            OpenError::UnknownDomain(d) => write!(f, "unknown target {d}"),
        }
    }
}

impl std::error::Error for OpenError {}

/// Why a change request was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeError {
    /// The singleton's proof failed validation.
    BadProof(ProofError),
    /// The accused element is unknown or already expelled.
    NotActive(SenderId),
    /// A domain-originated accusation from an element outside that domain.
    ForeignAccuser(SenderId),
}

impl std::fmt::Display for ChangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChangeError::BadProof(e) => write!(f, "proof rejected: {e}"),
            ChangeError::NotActive(s) => write!(f, "element {} is not active", s.0),
            ChangeError::ForeignAccuser(s) => {
                write!(f, "accuser {} is not a member of the accused domain", s.0)
            }
        }
    }
}

impl std::error::Error for ChangeError {}

/// Result of a successful expulsion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expulsion {
    /// The expelled element.
    pub expelled: SenderId,
    /// Its domain.
    pub domain: DomainId,
    /// Rekeyings to perform (one per affected connection).
    pub rekeys: Vec<KeyDistribution>,
}

/// Why an admission request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The named domain is not registered.
    UnknownDomain(DomainId),
    /// The element to replace is not an expelled member of the domain, or
    /// its slot was already refilled.
    NotReplaceable(SenderId),
    /// The replacement's id is already known (member, retired, or in
    /// another domain).
    AlreadyKnown(SenderId),
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::UnknownDomain(d) => write!(f, "unknown {d}"),
            AdmitError::NotReplaceable(s) => {
                write!(f, "element {} has no vacant expelled slot", s.0)
            }
            AdmitError::AlreadyKnown(s) => write!(f, "element id {} is already taken", s.0),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Result of a successful admission: a fresh element now holds the
/// expelled element's slot and every touching connection is rekeyed so the
/// newcomer can participate (and so pre-admission keys are retired).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admission {
    /// The freshly admitted element.
    pub admitted: SenderId,
    /// The expelled element it replaces.
    pub replaced: SenderId,
    /// The domain rejoined.
    pub domain: DomainId,
    /// The slot index reused within the domain's roster.
    pub slot: usize,
    /// The domain's new membership epoch.
    pub epoch: u64,
    /// Rekeyings to perform (one per affected connection), each including
    /// the admitted element among its recipients.
    pub rekeys: Vec<KeyDistribution>,
}

/// The deterministic Group Manager state.
#[derive(Debug, Clone)]
pub struct GroupManager {
    membership: Membership,
    seed: [u8; 32],
    connections: BTreeMap<ConnectionId, ConnectionRecord>,
    next_connection: u64,
    /// Replay watermarks per element, advanced by every accepted proof.
    watermarks: BTreeMap<SenderId, u64>,
    /// Votes for domain-originated change requests: (accused) → voters.
    change_votes: BTreeMap<SenderId, Vec<SenderId>>,
}

impl GroupManager {
    /// Creates a Group Manager over a membership registry. `seed` is the
    /// agreed output of the distributed RNG round
    /// ([`itdos_crypto::rngshare`]) from which connection inputs derive.
    pub fn new(membership: Membership, seed: [u8; 32]) -> GroupManager {
        GroupManager {
            membership,
            seed,
            connections: BTreeMap::new(),
            next_connection: 0,
            watermarks: BTreeMap::new(),
            change_votes: BTreeMap::new(),
        }
    }

    /// The membership registry.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Established connections.
    pub fn connections(&self) -> impl Iterator<Item = (ConnectionId, &ConnectionRecord)> {
        self.connections.iter().map(|(k, v)| (*k, v))
    }

    /// Looks up one connection.
    pub fn connection(&self, id: ConnectionId) -> Option<&ConnectionRecord> {
        self.connections.get(&id)
    }

    /// The common DPRF input for `(connection, epoch)` — "a common
    /// non-repeating value" (§3.5): unique per connection and per rekey.
    pub fn connection_input(&self, connection: ConnectionId, epoch: u32) -> [u8; 32] {
        Digest::of_parts(&[
            b"itdos-conn-input",
            &self.seed,
            &connection.0.to_le_bytes(),
            &epoch.to_le_bytes(),
        ])
        .0
    }

    /// Handles an `open_request` (Figure 3 steps 1–3): validates both
    /// sides and returns the key distribution for the new connection.
    ///
    /// # Errors
    ///
    /// [`OpenError`] when either side is unknown or expelled.
    pub fn open_request(
        &mut self,
        client: Endpoint,
        client_domain: Option<DomainId>,
        target: DomainId,
    ) -> Result<KeyDistribution, OpenError> {
        if !self.membership.endpoint_valid(client) {
            return Err(OpenError::BadClient);
        }
        let Some(server) = self.membership.domain(target) else {
            return Err(OpenError::UnknownDomain(target));
        };
        // connection reuse (§3.4): a second open for the same association
        // re-distributes keys for the existing connection instead of
        // creating a new one (also dedups the n parallel opens a client
        // replication domain's elements submit)
        let logical_client = match client_domain {
            Some(_) => None, // domain-as-client: match by domain
            None => Some(client),
        };
        let existing = self.connections.iter().find(|(_, rec)| {
            rec.server == target
                && rec.client_domain == client_domain
                && (client_domain.is_some() || Some(rec.client) == logical_client)
        });
        if let Some((&id, rec)) = existing {
            let epoch = rec.epoch;
            let mut recipients: Vec<Endpoint> = server
                .active_elements()
                .map(|e| Endpoint::Element(e.id))
                .collect();
            match (rec.client, rec.client_domain) {
                (_, Some(cd)) => {
                    if let Some(cd_rec) = self.membership.domain(cd) {
                        recipients
                            .extend(cd_rec.active_elements().map(|e| Endpoint::Element(e.id)));
                    }
                }
                (c, None) => recipients.push(c),
            }
            return Ok(KeyDistribution {
                connection: id,
                epoch,
                input: self.connection_input(id, epoch),
                recipients,
            });
        }
        let mut recipients: Vec<Endpoint> = server
            .active_elements()
            .map(|e| Endpoint::Element(e.id))
            .collect();
        match (client, client_domain) {
            (_, Some(cd)) => {
                let Some(cd_rec) = self.membership.domain(cd) else {
                    return Err(OpenError::BadClient);
                };
                recipients.extend(cd_rec.active_elements().map(|e| Endpoint::Element(e.id)));
            }
            (c, None) => recipients.push(c),
        }
        let connection = ConnectionId(self.next_connection);
        self.next_connection += 1;
        self.connections.insert(
            connection,
            ConnectionRecord {
                client,
                client_domain,
                server: target,
                epoch: 0,
            },
        );
        Ok(KeyDistribution {
            connection,
            epoch: 0,
            input: self.connection_input(connection, 0),
            recipients,
        })
    }

    /// Closes a connection (client shutdown / GC).
    pub fn close_connection(&mut self, id: ConnectionId) {
        self.connections.remove(&id);
    }

    /// Handles a `change_request` from a **singleton client**, which must
    /// carry a proof (§3.6). On success the accused elements are expelled
    /// and every affected connection is rekeyed.
    ///
    /// # Errors
    ///
    /// [`ChangeError::BadProof`] when the proof fails; a malicious client
    /// cannot expel a correct element.
    pub fn change_request_with_proof(
        &mut self,
        proof: &FaultProof,
        repo: &InterfaceRepository,
        comparator: &Comparator,
    ) -> Result<Vec<Expulsion>, ChangeError> {
        // all accused must be in one (active) domain; thresholds come from it
        let first = *proof
            .accused
            .first()
            .ok_or(ChangeError::BadProof(ProofError::NothingAccused))?;
        let domain = self
            .membership
            .domain_of(first)
            .ok_or(ChangeError::NotActive(first))?;
        let domain_id = domain.id;
        let thresholds = Thresholds::new(domain.f);
        let mut keys = BTreeMap::new();
        for element in domain.all_elements() {
            keys.insert(element.id, element.verifying_key);
        }
        let verdict = verify_proof(proof, &keys, &self.watermarks, repo, comparator, thresholds)
            .map_err(ChangeError::BadProof)?;
        for (sender, sequence) in verdict.sequences {
            let mark = self.watermarks.entry(sender).or_insert(0);
            *mark = (*mark).max(sequence);
        }
        let mut out = Vec::new();
        for accused in verdict.confirmed {
            out.push(self.expel(domain_id, accused)?);
        }
        Ok(out)
    }

    /// Handles a `change_request` from a **replication domain element**:
    /// "proof here is not necessary since the request originated from a
    /// trustworthy source" — but the GM votes: expulsion happens once
    /// `f+1` distinct elements of the accused's own domain concur.
    ///
    /// Returns `Ok(Some(..))` when the vote threshold is reached.
    ///
    /// # Errors
    ///
    /// [`ChangeError`] when the accuser is foreign or the accused inactive.
    pub fn change_request_from_domain(
        &mut self,
        accuser: SenderId,
        accused: SenderId,
    ) -> Result<Option<Expulsion>, ChangeError> {
        let domain = self
            .membership
            .domain_of(accused)
            .ok_or(ChangeError::NotActive(accused))?;
        if !domain.is_active(accused) {
            return Err(ChangeError::NotActive(accused));
        }
        let domain_id = domain.id;
        // the accuser may belong to any replication domain — its own (the
        // accused's peers see faulty requests) or another (servers see
        // faulty requests, clients see faulty replies); the vote threshold
        // is the *accuser's* domain's f+1 so one corrupt domain member
        // cannot trigger an expulsion alone
        let accuser_domain = self
            .membership
            .domain_of(accuser)
            .ok_or(ChangeError::ForeignAccuser(accuser))?;
        if !accuser_domain.is_active(accuser) || accuser == accused {
            return Err(ChangeError::ForeignAccuser(accuser));
        }
        let threshold = accuser_domain.f + 1;
        let votes = self.change_votes.entry(accused).or_default();
        if !votes.contains(&accuser) {
            votes.push(accuser);
        }
        // count votes from the accuser's domain toward its threshold
        let from_same: usize = votes
            .iter()
            .filter(|v| accuser_domain.contains(**v))
            .count();
        if from_same >= threshold {
            self.change_votes.remove(&accused);
            return Ok(Some(self.expel(domain_id, accused)?));
        }
        Ok(None)
    }

    /// Voluntarily retires an active element — the proactive-rejuvenation
    /// path. The roster and keying consequences are *identical* to an
    /// expulsion (slot vacated, votes dropped, every touching connection
    /// rekeyed so the retiree is keyed out), so a patient attacker gains
    /// nothing from a rejuvenated element's old keys; only the recorded
    /// cause differs, and the caller reports it as benign.
    ///
    /// # Errors
    ///
    /// [`ChangeError::NotActive`] when the element is unknown or already
    /// out of its domain's active roster.
    pub fn retire(&mut self, element: SenderId) -> Result<Expulsion, ChangeError> {
        let domain = self
            .membership
            .domain_of(element)
            .ok_or(ChangeError::NotActive(element))?;
        if !domain.is_active(element) {
            return Err(ChangeError::NotActive(element));
        }
        let domain_id = domain.id;
        self.expel(domain_id, element)
    }

    /// Expels an element and rekeys affected connections: the element is
    /// "keyed out of all communication groups of which they are part".
    fn expel(&mut self, domain_id: DomainId, element: SenderId) -> Result<Expulsion, ChangeError> {
        let domain = self
            .membership
            .domain_mut(domain_id)
            .ok_or(ChangeError::NotActive(element))?;
        if !domain.expel(element) {
            return Err(ChangeError::NotActive(element));
        }
        self.change_votes.remove(&element);
        // rekey every connection touching this domain (as server or client)
        let rekeys = self.rekey_touching(domain_id, Some(Endpoint::Element(element)));
        Ok(Expulsion {
            expelled: element,
            domain: domain_id,
            rekeys,
        })
    }

    /// Handles an admission request: a fresh element (new key, empty
    /// state) takes the slot vacated by the expelled `replaced`, restoring
    /// the domain to full strength. The domain's membership epoch is
    /// bumped and every connection touching the domain is rekeyed with the
    /// newcomer among the recipients — the distributed-PRF path hands it
    /// the per-association keys it was never given at enrollment.
    ///
    /// # Errors
    ///
    /// [`AdmitError`] when the domain is unknown, `replaced` has no vacant
    /// expelled slot, or the replacement id is already taken.
    pub fn admit(
        &mut self,
        domain_id: DomainId,
        replacement: ElementRecord,
        replaced: SenderId,
    ) -> Result<Admission, AdmitError> {
        // the id must be globally fresh: an id seen anywhere (any domain's
        // roster or retired history) could alias an existing key holder
        if self.membership.element_key(replacement.id).is_some() {
            return Err(AdmitError::AlreadyKnown(replacement.id));
        }
        let Some(domain) = self.membership.domain_mut(domain_id) else {
            return Err(AdmitError::UnknownDomain(domain_id));
        };
        let Some(slot) = domain.admit(replacement, replaced) else {
            return Err(AdmitError::NotReplaceable(replaced));
        };
        let epoch = domain.epoch();
        // drop any expulsion votes the retired element had cast or drawn
        self.change_votes.remove(&replaced);
        for votes in self.change_votes.values_mut() {
            votes.retain(|v| *v != replaced);
        }
        let rekeys = self.rekey_touching(domain_id, None);
        Ok(Admission {
            admitted: replacement.id,
            replaced,
            domain: domain_id,
            slot,
            epoch,
            rekeys,
        })
    }

    /// Bumps the epoch of, and rebuilds the key distribution for, every
    /// connection touching `domain_id` (as server or client domain), plus
    /// any connection whose singleton-style client endpoint is
    /// `extra_client` — the recipient lists reflect the *current* active
    /// roster, so expelled elements are keyed out and admitted elements
    /// keyed in.
    fn rekey_touching(
        &mut self,
        domain_id: DomainId,
        extra_client: Option<Endpoint>,
    ) -> Vec<KeyDistribution> {
        let affected: Vec<ConnectionId> = self
            .connections
            .iter()
            .filter(|(_, rec)| {
                rec.server == domain_id
                    || rec.client_domain == Some(domain_id)
                    || extra_client.is_some_and(|c| rec.client == c)
            })
            .map(|(id, _)| *id)
            .collect();
        let mut rekeys = Vec::with_capacity(affected.len());
        for id in affected {
            let input = {
                let rec = &self.connections[&id];
                self.connection_input(id, rec.epoch + 1)
            };
            // `id` was just collected from self.connections, but a missing
            // record must drop the rekey, not crash the Group Manager
            let Some(rec) = self.connections.get_mut(&id) else {
                continue;
            };
            rec.epoch += 1;
            let epoch = rec.epoch;
            let rec = rec.clone();
            // the server domain can only vanish through a concurrent
            // membership change; skip the connection rather than panic
            let Some(server_domain) = self.membership.domain(rec.server) else {
                continue;
            };
            let mut recipients: Vec<Endpoint> = server_domain
                .active_elements()
                .map(|e| Endpoint::Element(e.id))
                .collect();
            match (rec.client, rec.client_domain) {
                (_, Some(cd)) => {
                    if let Some(cd_rec) = self.membership.domain(cd) {
                        recipients
                            .extend(cd_rec.active_elements().map(|e| Endpoint::Element(e.id)));
                    }
                }
                (c, None) => recipients.push(c),
            }
            rekeys.push(KeyDistribution {
                connection: id,
                epoch,
                input,
                recipients,
            });
        }
        rekeys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::{DomainRecord, ElementRecord};
    use itdos_crypto::sign::SigningKey;
    use itdos_giop::cdr::Endianness;
    use itdos_giop::giop::{encode_message, GiopMessage, ReplyBody, ReplyMessage};
    use itdos_giop::idl::{InterfaceDef, OperationDef};
    use itdos_giop::types::{TypeDesc, Value};
    use itdos_vote::detector::SignedReply;

    fn signing_key(id: u32) -> SigningKey {
        SigningKey::from_seed(&id.to_le_bytes())
    }

    fn element(id: u32) -> ElementRecord {
        ElementRecord {
            id: SenderId(id),
            verifying_key: signing_key(id).verifying_key(),
        }
    }

    fn manager() -> GroupManager {
        let mut m = Membership::new();
        // server domain 1: elements 0..3; client domain 2: elements 10..13
        m.register_domain(DomainRecord::new(
            DomainId(1),
            1,
            (0..4).map(element).collect(),
        ));
        m.register_domain(DomainRecord::new(
            DomainId(2),
            1,
            (10..14).map(element).collect(),
        ));
        m.register_singleton(100, signing_key(100).verifying_key());
        m.register_singleton(101, signing_key(101).verifying_key());
        GroupManager::new(m, [3u8; 32])
    }

    fn repo() -> InterfaceRepository {
        let mut repo = InterfaceRepository::new();
        repo.register(InterfaceDef::new("Acct").with_operation(OperationDef::new(
            "balance",
            vec![],
            TypeDesc::LongLong,
        )));
        repo
    }

    fn reply_frame(request_id: u64, value: i64) -> Vec<u8> {
        encode_message(
            &GiopMessage::Reply(ReplyMessage {
                request_id,
                interface: "Acct".into(),
                operation: "balance".into(),
                body: ReplyBody::Result(Value::LongLong(value)),
            }),
            &repo(),
            Endianness::Little,
        )
        .expect("encode")
    }

    /// Proof that element 3 returned `bad` while 0..2 returned `good`.
    fn proof(good: i64, bad: i64, seq_base: u64) -> FaultProof {
        let messages = (0..4u32)
            .map(|i| {
                let value = if i == 3 { bad } else { good };
                SignedReply::sign(
                    &signing_key(i),
                    SenderId(i),
                    seq_base + i as u64,
                    reply_frame(7, value),
                )
            })
            .collect();
        FaultProof {
            accused: vec![SenderId(3)],
            request_id: 7,
            messages,
        }
    }

    #[test]
    fn open_request_keys_client_and_server() {
        let mut gm = manager();
        let dist = gm
            .open_request(Endpoint::Singleton(100), None, DomainId(1))
            .unwrap();
        assert_eq!(dist.connection, ConnectionId(0));
        assert_eq!(dist.epoch, 0);
        assert_eq!(dist.recipients.len(), 5, "4 server elements + client");
        assert!(dist.recipients.contains(&Endpoint::Singleton(100)));
    }

    #[test]
    fn open_request_replicated_client_keys_both_domains() {
        let mut gm = manager();
        let dist = gm
            .open_request(
                Endpoint::Element(SenderId(10)),
                Some(DomainId(2)),
                DomainId(1),
            )
            .unwrap();
        assert_eq!(dist.recipients.len(), 8, "both domains' elements");
    }

    #[test]
    fn open_request_validates_both_sides() {
        let mut gm = manager();
        assert_eq!(
            gm.open_request(Endpoint::Singleton(999), None, DomainId(1)),
            Err(OpenError::BadClient)
        );
        assert_eq!(
            gm.open_request(Endpoint::Singleton(100), None, DomainId(9)),
            Err(OpenError::UnknownDomain(DomainId(9)))
        );
    }

    #[test]
    fn connection_inputs_never_repeat() {
        let mut gm = manager();
        let a = gm
            .open_request(Endpoint::Singleton(100), None, DomainId(1))
            .unwrap();
        let b = gm
            .open_request(Endpoint::Singleton(101), None, DomainId(1))
            .unwrap();
        assert_ne!(a.input, b.input, "distinct connections");
        assert_ne!(
            gm.connection_input(a.connection, 0),
            gm.connection_input(a.connection, 1),
            "distinct epochs"
        );
    }

    #[test]
    fn reopen_reuses_the_connection() {
        let mut gm = manager();
        let a = gm
            .open_request(Endpoint::Singleton(100), None, DomainId(1))
            .unwrap();
        let b = gm
            .open_request(Endpoint::Singleton(100), None, DomainId(1))
            .unwrap();
        assert_eq!(a, b, "same association reuses the connection (§3.4)");
        // the n parallel opens from a client domain's elements dedup too
        let c1 = gm
            .open_request(
                Endpoint::Element(SenderId(10)),
                Some(DomainId(2)),
                DomainId(1),
            )
            .unwrap();
        let c2 = gm
            .open_request(
                Endpoint::Element(SenderId(11)),
                Some(DomainId(2)),
                DomainId(1),
            )
            .unwrap();
        assert_eq!(c1.connection, c2.connection);
    }

    #[test]
    fn valid_proof_expels_and_rekeys() {
        let mut gm = manager();
        let dist = gm
            .open_request(Endpoint::Singleton(100), None, DomainId(1))
            .unwrap();
        let expulsions = gm
            .change_request_with_proof(&proof(100, 666, 1), &repo(), &Comparator::Exact)
            .unwrap();
        assert_eq!(expulsions.len(), 1);
        let e = &expulsions[0];
        assert_eq!(e.expelled, SenderId(3));
        assert_eq!(e.rekeys.len(), 1, "one affected connection");
        let rekey = &e.rekeys[0];
        assert_eq!(rekey.connection, dist.connection);
        assert_eq!(rekey.epoch, 1);
        assert_ne!(rekey.input, dist.input);
        assert!(
            !rekey.recipients.contains(&Endpoint::Element(SenderId(3))),
            "expelled element keyed out"
        );
        assert!(!gm
            .membership()
            .domain(DomainId(1))
            .unwrap()
            .is_active(SenderId(3)));
    }

    #[test]
    fn malicious_client_proof_rejected() {
        let mut gm = manager();
        // all replicas agreed on 100; accusing 3 is bogus
        let err = gm
            .change_request_with_proof(&proof(100, 100, 1), &repo(), &Comparator::Exact)
            .unwrap_err();
        assert!(matches!(
            err,
            ChangeError::BadProof(ProofError::AccusedNotFaulty(_))
        ));
        assert!(gm
            .membership()
            .domain(DomainId(1))
            .unwrap()
            .is_active(SenderId(3)));
    }

    #[test]
    fn replayed_proof_rejected_second_time() {
        let mut gm = manager();
        gm.change_request_with_proof(&proof(100, 666, 1), &repo(), &Comparator::Exact)
            .unwrap();
        // re-register element 3 cannot happen; accuse element 2 instead with
        // REPLAYED sequence numbers (same as before)
        let mut p = proof(100, 666, 1);
        p.accused = vec![SenderId(3)];
        let err = gm
            .change_request_with_proof(&p, &repo(), &Comparator::Exact)
            .unwrap_err();
        assert!(
            matches!(err, ChangeError::BadProof(ProofError::Replayed { .. })),
            "watermarks advanced by the first proof: {err:?}"
        );
    }

    #[test]
    fn domain_change_request_needs_f_plus_1_votes() {
        let mut gm = manager();
        assert_eq!(
            gm.change_request_from_domain(SenderId(0), SenderId(3))
                .unwrap(),
            None,
            "one vote insufficient for f=1"
        );
        let expulsion = gm
            .change_request_from_domain(SenderId(1), SenderId(3))
            .unwrap()
            .expect("second vote reaches f+1");
        assert_eq!(expulsion.expelled, SenderId(3));
    }

    #[test]
    fn retire_vacates_the_slot_and_rekeys_like_an_expulsion() {
        let mut gm = manager();
        let dist = gm
            .open_request(Endpoint::Singleton(100), None, DomainId(1))
            .unwrap();
        let retirement = gm.retire(SenderId(2)).unwrap();
        assert_eq!(retirement.expelled, SenderId(2));
        assert_eq!(retirement.domain, DomainId(1));
        assert_eq!(retirement.rekeys.len(), 1, "one affected connection");
        let rekey = &retirement.rekeys[0];
        assert_eq!(rekey.connection, dist.connection);
        assert_eq!(rekey.epoch, 1);
        assert!(
            !rekey.recipients.contains(&Endpoint::Element(SenderId(2))),
            "retiree keyed out of its old connections"
        );
        assert!(!gm
            .membership()
            .domain(DomainId(1))
            .unwrap()
            .is_active(SenderId(2)));
        // idempotence: a retired element cannot retire (or be expelled) again
        assert!(matches!(
            gm.retire(SenderId(2)),
            Err(ChangeError::NotActive(SenderId(2)))
        ));
        // the vacated slot admits a replacement exactly like an expulsion
        let record = ElementRecord {
            id: SenderId(40),
            verifying_key: SigningKey::from_seed(b"fresh").verifying_key(),
        };
        let admission = gm.admit(DomainId(1), record, SenderId(2)).unwrap();
        assert_eq!(admission.replaced, SenderId(2));
    }

    #[test]
    fn duplicate_votes_do_not_count_twice() {
        let mut gm = manager();
        assert_eq!(
            gm.change_request_from_domain(SenderId(0), SenderId(3))
                .unwrap(),
            None
        );
        assert_eq!(
            gm.change_request_from_domain(SenderId(0), SenderId(3))
                .unwrap(),
            None,
            "same voter repeated"
        );
    }

    #[test]
    fn cross_domain_accusations_allowed_with_own_threshold() {
        // elements of domain 2 (clients) detected a faulty reply from
        // domain 1's element 3: f(domain 2)+1 = 2 votes expel it
        let mut gm = manager();
        assert_eq!(
            gm.change_request_from_domain(SenderId(10), SenderId(3))
                .unwrap(),
            None
        );
        let expulsion = gm
            .change_request_from_domain(SenderId(11), SenderId(3))
            .unwrap()
            .expect("two domain-2 votes expel");
        assert_eq!(expulsion.expelled, SenderId(3));
    }

    #[test]
    fn unknown_and_self_accusations_rejected() {
        let mut gm = manager();
        assert_eq!(
            gm.change_request_from_domain(SenderId(99), SenderId(3)),
            Err(ChangeError::ForeignAccuser(SenderId(99))),
            "accuser must belong to a registered domain"
        );
        assert_eq!(
            gm.change_request_from_domain(SenderId(3), SenderId(3)),
            Err(ChangeError::ForeignAccuser(SenderId(3)))
        );
    }

    #[test]
    fn expelled_element_cannot_be_expelled_again() {
        let mut gm = manager();
        gm.change_request_from_domain(SenderId(0), SenderId(3))
            .unwrap();
        gm.change_request_from_domain(SenderId(1), SenderId(3))
            .unwrap();
        assert_eq!(
            gm.change_request_from_domain(SenderId(0), SenderId(3)),
            Err(ChangeError::NotActive(SenderId(3)))
        );
    }

    #[test]
    fn rekey_covers_replicated_client_connections() {
        let mut gm = manager();
        gm.open_request(
            Endpoint::Element(SenderId(10)),
            Some(DomainId(2)),
            DomainId(1),
        )
        .unwrap();
        // expel an element of the CLIENT domain; the connection must rekey
        gm.change_request_from_domain(SenderId(10), SenderId(13))
            .unwrap();
        let expulsion = gm
            .change_request_from_domain(SenderId(11), SenderId(13))
            .unwrap()
            .expect("expelled");
        assert_eq!(expulsion.rekeys.len(), 1);
        assert!(!expulsion.rekeys[0]
            .recipients
            .contains(&Endpoint::Element(SenderId(13))));
    }

    #[test]
    fn admission_restores_the_domain_and_rekeys_with_the_newcomer() {
        let mut gm = manager();
        let dist = gm
            .open_request(Endpoint::Singleton(100), None, DomainId(1))
            .unwrap();
        gm.change_request_from_domain(SenderId(0), SenderId(3))
            .unwrap();
        gm.change_request_from_domain(SenderId(1), SenderId(3))
            .unwrap();
        assert_eq!(
            gm.membership().domain(DomainId(1)).unwrap().active_count(),
            3
        );
        let admission = gm.admit(DomainId(1), element(50), SenderId(3)).unwrap();
        assert_eq!(admission.admitted, SenderId(50));
        assert_eq!(admission.replaced, SenderId(3));
        assert_eq!(admission.slot, 3);
        assert_eq!(admission.epoch, 1);
        let domain = gm.membership().domain(DomainId(1)).unwrap();
        assert_eq!(domain.active_count(), 4, "restored to n elements");
        assert_eq!(domain.max_tolerable_faults(), 1, "tolerates f again");
        // the touching connection rekeyed past both the expulsion epoch
        // and with the newcomer keyed in
        assert_eq!(admission.rekeys.len(), 1);
        let rekey = &admission.rekeys[0];
        assert_eq!(rekey.connection, dist.connection);
        assert_eq!(rekey.epoch, 2, "expulsion bumped to 1, admission to 2");
        assert!(rekey.recipients.contains(&Endpoint::Element(SenderId(50))));
        assert!(
            !rekey.recipients.contains(&Endpoint::Element(SenderId(3))),
            "replaced element stays keyed out"
        );
    }

    #[test]
    fn admission_validation() {
        let mut gm = manager();
        assert_eq!(
            gm.admit(DomainId(9), element(50), SenderId(3)),
            Err(AdmitError::UnknownDomain(DomainId(9)))
        );
        assert_eq!(
            gm.admit(DomainId(1), element(50), SenderId(3)),
            Err(AdmitError::NotReplaceable(SenderId(3))),
            "element 3 is not expelled"
        );
        gm.change_request_from_domain(SenderId(0), SenderId(3))
            .unwrap();
        gm.change_request_from_domain(SenderId(1), SenderId(3))
            .unwrap();
        assert_eq!(
            gm.admit(DomainId(1), element(10), SenderId(3)),
            Err(AdmitError::AlreadyKnown(SenderId(10))),
            "id 10 belongs to domain 2"
        );
        gm.admit(DomainId(1), element(50), SenderId(3)).unwrap();
        assert_eq!(
            gm.admit(DomainId(1), element(51), SenderId(3)),
            Err(AdmitError::NotReplaceable(SenderId(3))),
            "slot already refilled"
        );
        assert_eq!(
            gm.admit(DomainId(1), element(3), SenderId(3)),
            Err(AdmitError::AlreadyKnown(SenderId(3))),
            "a retired id can never rejoin"
        );
    }

    #[test]
    fn admitted_element_participates_in_later_votes_and_expulsions() {
        let mut gm = manager();
        gm.change_request_from_domain(SenderId(0), SenderId(3))
            .unwrap();
        gm.change_request_from_domain(SenderId(1), SenderId(3))
            .unwrap();
        gm.admit(DomainId(1), element(50), SenderId(3)).unwrap();
        // the replacement's accusations count toward its new domain's f+1
        assert_eq!(
            gm.change_request_from_domain(SenderId(50), SenderId(2))
                .unwrap(),
            None
        );
        let expulsion = gm
            .change_request_from_domain(SenderId(0), SenderId(2))
            .unwrap()
            .expect("newcomer's vote counted");
        assert_eq!(expulsion.expelled, SenderId(2));
        // and if the replacement itself turns faulty it can be expelled —
        // and replaced again, each admission bumping the epoch
        gm.change_request_from_domain(SenderId(0), SenderId(50))
            .unwrap();
        let e = gm
            .change_request_from_domain(SenderId(1), SenderId(50))
            .unwrap()
            .expect("replacement expelled in turn");
        assert_eq!(e.expelled, SenderId(50));
        let again = gm.admit(DomainId(1), element(51), SenderId(50)).unwrap();
        assert_eq!(again.epoch, 2);
        assert_eq!(again.slot, 3, "the same physical slot cycles");
    }

    #[test]
    fn stale_votes_from_a_replaced_element_are_discarded() {
        let mut gm = manager();
        // element 3 accuses element 2 (one vote), then is itself expelled
        // and replaced: its pending vote must not linger
        gm.change_request_from_domain(SenderId(3), SenderId(2))
            .unwrap();
        gm.change_request_from_domain(SenderId(0), SenderId(3))
            .unwrap();
        gm.change_request_from_domain(SenderId(1), SenderId(3))
            .unwrap();
        gm.admit(DomainId(1), element(50), SenderId(3)).unwrap();
        assert_eq!(
            gm.change_request_from_domain(SenderId(0), SenderId(2))
                .unwrap(),
            None,
            "the retired element's vote no longer counts toward f+1"
        );
    }

    #[test]
    fn close_connection_stops_rekeys() {
        let mut gm = manager();
        let dist = gm
            .open_request(Endpoint::Singleton(100), None, DomainId(1))
            .unwrap();
        gm.close_connection(dist.connection);
        gm.change_request_from_domain(SenderId(0), SenderId(3))
            .unwrap();
        let expulsion = gm
            .change_request_from_domain(SenderId(1), SenderId(3))
            .unwrap()
            .unwrap();
        assert!(expulsion.rekeys.is_empty());
    }
}
