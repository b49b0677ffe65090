//! Replication domain membership registry.
//!
//! The Group Manager "handles replication domain membership and virtual
//! connection management" (§2): which domains exist, which elements belong
//! to them, which have been expelled, and the public keys under which
//! their messages verify.

use std::collections::{BTreeMap, BTreeSet};

use itdos_crypto::sign::VerifyingKey;
use itdos_vote::vote::SenderId;
use xbytes::wire::{Reader, Wire, WireError, Writer};
use xbytes::wire_struct;

/// Identifies a replication domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u64);

wire_struct!(DomainId(id));

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "domain:{}", self.0)
    }
}

/// A communication endpoint: a singleton client or one element of a
/// domain. (Globally unique element ids double as vote sender ids.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// A singleton (unreplicated) client process.
    Singleton(u64),
    /// An element of a replication domain.
    Element(SenderId),
}

/// Offset separating element codes from singleton-client codes.
pub const ELEMENT_CODE_BASE: u64 = 1_000_000;

/// The endpoint code for a singleton client id.
pub fn singleton_code(id: u64) -> u64 {
    debug_assert!(
        id < ELEMENT_CODE_BASE,
        "singleton ids must stay below the element base"
    );
    id
}

/// The endpoint code for a domain element.
pub fn element_code(id: SenderId) -> u64 {
    // cannot saturate: the base leaves room for every u32 id
    ELEMENT_CODE_BASE.saturating_add(u64::from(id.0))
}

/// The endpoint code of any [`Endpoint`]: the globally unique `u64` that
/// names it in BFT client identities, pairwise key derivation, fabric
/// addressing and on the wire.
pub fn endpoint_code(endpoint: Endpoint) -> u64 {
    match endpoint {
        Endpoint::Singleton(id) => singleton_code(id),
        Endpoint::Element(e) => element_code(e),
    }
}

/// Decodes an endpoint code; `None` for a code past every element's.
pub fn code_endpoint(code: u64) -> Option<Endpoint> {
    match code.checked_sub(ELEMENT_CODE_BASE) {
        Some(element) => u32::try_from(element)
            .ok()
            .map(|e| Endpoint::Element(SenderId(e))),
        None => Some(Endpoint::Singleton(code)),
    }
}

/// An endpoint travels as its endpoint code.
impl Wire for Endpoint {
    fn put(&self, w: &mut Writer) {
        endpoint_code(*self).put(w);
    }

    fn take(r: &mut Reader<'_>) -> Result<Endpoint, WireError> {
        code_endpoint(u64::take(r)?).ok_or(WireError)
    }
}

/// One element's registration record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementRecord {
    /// Globally unique element id (also its vote sender id).
    pub id: SenderId,
    /// Public key its signed messages verify under.
    pub verifying_key: VerifyingKey,
}

/// One replication domain's record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainRecord {
    /// Domain id.
    pub id: DomainId,
    /// Faults the domain is sized to tolerate.
    pub f: usize,
    elements: Vec<ElementRecord>,
    expelled: BTreeSet<SenderId>,
    /// Membership epoch: bumped once per admission. Carried on the wire so
    /// peers, clients, and voters can order roster updates.
    epoch: u64,
    /// Elements replaced by an admission, kept for forensic lookup.
    retired: Vec<ElementRecord>,
}

impl DomainRecord {
    /// Creates a record.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `3f + 1` elements are supplied (§2).
    pub fn new(id: DomainId, f: usize, elements: Vec<ElementRecord>) -> DomainRecord {
        assert!(
            f.checked_mul(3).is_some_and(|bound| elements.len() > bound),
            "replication domain needs at least 3f+1 elements"
        );
        DomainRecord {
            id,
            f,
            elements,
            expelled: BTreeSet::new(),
            epoch: 0,
            retired: Vec::new(),
        }
    }

    /// The current membership epoch (number of admissions so far).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Elements replaced by past admissions (forensic history).
    pub fn retired(&self) -> &[ElementRecord] {
        &self.retired
    }

    /// Admits `replacement` into the slot vacated by the expelled element
    /// `replaced`, bumping the membership epoch. Returns the reused slot
    /// index, or `None` when `replaced` is not an expelled member here or
    /// `replacement` is already known to this domain (member or retired).
    pub fn admit(&mut self, replacement: ElementRecord, replaced: SenderId) -> Option<usize> {
        if !self.expelled.contains(&replaced) {
            return None;
        }
        let known = |id: SenderId| {
            self.elements.iter().any(|e| e.id == id) || self.retired.iter().any(|e| e.id == id)
        };
        if known(replacement.id) {
            return None;
        }
        let slot = self.elements.iter().position(|e| e.id == replaced)?;
        let old = std::mem::replace(self.elements.get_mut(slot)?, replacement);
        self.retired.push(old);
        self.epoch = self.epoch.wrapping_add(1);
        Some(slot)
    }

    /// All originally registered elements.
    pub(crate) fn all_elements(&self) -> &[ElementRecord] {
        &self.elements
    }

    /// Elements not yet expelled.
    pub fn active_elements(&self) -> impl Iterator<Item = &ElementRecord> {
        self.elements
            .iter()
            .filter(move |e| !self.expelled.contains(&e.id))
    }

    /// True if `element` belongs to this domain and is not expelled.
    pub fn is_active(&self, element: SenderId) -> bool {
        !self.expelled.contains(&element) && self.elements.iter().any(|e| e.id == element)
    }

    /// True if `element` was registered here (active or expelled).
    pub fn contains(&self, element: SenderId) -> bool {
        self.elements.iter().any(|e| e.id == element)
    }

    /// Marks an element expelled. Returns false if it was not active.
    pub fn expel(&mut self, element: SenderId) -> bool {
        if !self.is_active(element) {
            return false;
        }
        self.expelled.insert(element);
        true
    }

    /// Elements expelled so far.
    pub fn expelled(&self) -> impl Iterator<Item = SenderId> + '_ {
        self.expelled.iter().copied()
    }

    /// Number of still-active elements.
    pub fn active_count(&self) -> usize {
        // replaced elements stay in `expelled` (they are still expelled)
        // but no longer occupy a slot, so count the live roster directly
        self.elements
            .iter()
            .filter(|e| !self.expelled.contains(&e.id))
            .count()
    }

    /// The number of *further* faults the shrunken domain can mask:
    /// `⌊(active − 1) / 3⌋`. The paper left replacement unimplemented, so
    /// its domains only shrink; here [`DomainRecord::admit`] restores the
    /// count, and with it the original fault tolerance.
    pub fn max_tolerable_faults(&self) -> usize {
        self.active_count().saturating_sub(1) / 3
    }
}

/// The registry of domains and singleton clients.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Membership {
    domains: BTreeMap<DomainId, DomainRecord>,
    singletons: BTreeMap<u64, VerifyingKey>,
}

impl Membership {
    /// Creates an empty registry.
    pub fn new() -> Membership {
        Membership::default()
    }

    /// Registers a domain.
    pub fn register_domain(&mut self, record: DomainRecord) {
        self.domains.insert(record.id, record);
    }

    /// Registers a singleton client.
    pub fn register_singleton(&mut self, id: u64, key: VerifyingKey) {
        self.singletons.insert(id, key);
    }

    /// Looks up a domain.
    pub fn domain(&self, id: DomainId) -> Option<&DomainRecord> {
        self.domains.get(&id)
    }

    /// Mutable domain access.
    pub(crate) fn domain_mut(&mut self, id: DomainId) -> Option<&mut DomainRecord> {
        self.domains.get_mut(&id)
    }

    /// Finds the domain containing `element`.
    pub fn domain_of(&self, element: SenderId) -> Option<&DomainRecord> {
        self.domains.values().find(|d| d.contains(element))
    }

    /// The verifying key of an element, searched across domains. Retired
    /// (replaced) elements are included so pre-replacement signatures can
    /// still be verified forensically.
    pub(crate) fn element_key(&self, element: SenderId) -> Option<VerifyingKey> {
        self.domains.values().find_map(|d| {
            d.elements
                .iter()
                .chain(d.retired.iter())
                .find(|e| e.id == element)
                .map(|e| e.verifying_key)
        })
    }

    /// True when the endpoint is known and active.
    pub(crate) fn endpoint_valid(&self, endpoint: Endpoint) -> bool {
        match endpoint {
            Endpoint::Singleton(id) => self.singletons.contains_key(&id),
            Endpoint::Element(e) => self.domain_of(e).is_some_and(|d| d.is_active(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdos_crypto::sign::SigningKey;

    fn element(id: u32) -> ElementRecord {
        ElementRecord {
            id: SenderId(id),
            verifying_key: SigningKey::from_seed(&id.to_le_bytes()).verifying_key(),
        }
    }

    fn domain(id: u64, f: usize, first_element: u32) -> DomainRecord {
        let n = 3 * f + 1;
        DomainRecord::new(
            DomainId(id),
            f,
            (first_element..first_element + n as u32)
                .map(element)
                .collect(),
        )
    }

    #[test]
    fn active_elements_excludes_expelled() {
        let mut d = domain(1, 1, 0);
        assert_eq!(d.active_count(), 4);
        assert!(d.expel(SenderId(2)));
        assert_eq!(d.active_count(), 3);
        assert!(!d.is_active(SenderId(2)));
        assert!(d.contains(SenderId(2)), "expelled but still known");
        let active: Vec<u32> = d.active_elements().map(|e| e.id.0).collect();
        assert_eq!(active, vec![0, 1, 3]);
    }

    #[test]
    fn double_expulsion_fails() {
        let mut d = domain(1, 1, 0);
        assert!(d.expel(SenderId(1)));
        assert!(!d.expel(SenderId(1)));
        assert!(!d.expel(SenderId(99)), "unknown element");
    }

    #[test]
    #[should_panic(expected = "3f+1")]
    fn undersized_domain_rejected() {
        DomainRecord::new(DomainId(1), 1, (0..3).map(element).collect());
    }

    #[test]
    fn membership_lookups() {
        let mut m = Membership::new();
        m.register_domain(domain(1, 1, 0));
        m.register_domain(domain(2, 1, 10));
        m.register_singleton(77, SigningKey::from_seed(b"c").verifying_key());
        assert_eq!(m.domain_of(SenderId(11)).unwrap().id, DomainId(2));
        assert!(m.domain_of(SenderId(99)).is_none());
        assert!(m.element_key(SenderId(3)).is_some());
        assert!(m.endpoint_valid(Endpoint::Singleton(77)));
        assert!(!m.endpoint_valid(Endpoint::Singleton(78)));
        assert!(m.endpoint_valid(Endpoint::Element(SenderId(0))));
    }

    #[test]
    fn admission_reuses_the_expelled_slot_and_bumps_the_epoch() {
        let mut d = domain(1, 1, 0);
        assert!(d.expel(SenderId(2)));
        assert_eq!(d.active_count(), 3);
        assert_eq!(d.max_tolerable_faults(), 0, "degraded: no margin left");
        let slot = d.admit(element(9), SenderId(2)).expect("admitted");
        assert_eq!(slot, 2, "replacement takes the vacated slot");
        assert_eq!(d.epoch(), 1);
        assert_eq!(d.active_count(), 4, "back to full strength");
        assert_eq!(d.max_tolerable_faults(), 1, "tolerates f faults again");
        assert!(d.is_active(SenderId(9)));
        assert!(!d.is_active(SenderId(2)), "replaced stays expelled");
        assert_eq!(d.retired().len(), 1);
        assert_eq!(d.retired()[0].id, SenderId(2));
        let active: Vec<u32> = d.active_elements().map(|e| e.id.0).collect();
        assert_eq!(active, vec![0, 1, 9, 3]);
    }

    #[test]
    fn admission_requires_an_expelled_slot_and_a_fresh_id() {
        let mut d = domain(1, 1, 0);
        assert!(
            d.admit(element(9), SenderId(2)).is_none(),
            "cannot replace an element that was never expelled"
        );
        d.expel(SenderId(2));
        assert!(
            d.admit(element(1), SenderId(2)).is_none(),
            "replacement id already a member"
        );
        assert!(d.admit(element(9), SenderId(2)).is_some());
        assert!(
            d.admit(element(9), SenderId(2)).is_none(),
            "slot already refilled"
        );
        // the new element can itself be expelled and replaced, but the
        // retired id can never rejoin
        d.expel(SenderId(9));
        assert!(
            d.admit(element(2), SenderId(9)).is_none(),
            "retired ids never come back"
        );
        assert!(d.admit(element(10), SenderId(9)).is_some());
        assert_eq!(d.epoch(), 2);
    }

    #[test]
    fn retired_element_keys_remain_resolvable() {
        let mut m = Membership::new();
        m.register_domain(domain(1, 1, 0));
        let old_key = m.element_key(SenderId(2)).unwrap();
        m.domain_mut(DomainId(1)).unwrap().expel(SenderId(2));
        m.domain_mut(DomainId(1))
            .unwrap()
            .admit(element(9), SenderId(2))
            .unwrap();
        assert_eq!(
            m.element_key(SenderId(2)),
            Some(old_key),
            "forensic verification of pre-replacement signatures"
        );
        assert!(m.element_key(SenderId(9)).is_some());
        assert!(
            !m.endpoint_valid(Endpoint::Element(SenderId(2))),
            "retired endpoint stays invalid"
        );
        assert!(m.endpoint_valid(Endpoint::Element(SenderId(9))));
    }

    #[test]
    fn expelled_endpoint_is_invalid() {
        let mut m = Membership::new();
        m.register_domain(domain(1, 1, 0));
        m.domain_mut(DomainId(1)).unwrap().expel(SenderId(0));
        assert!(!m.endpoint_valid(Endpoint::Element(SenderId(0))));
    }
}
