//! Deployment topology, self-described inside the dump.
//!
//! The auditor needs to know which scopes are replicas of which domain,
//! what each domain's fault bound `f` is, and which scopes are clients —
//! none of which the raw telemetry carries. Rather than requiring an
//! out-of-band process map, `System::audit_jsonl` appends a few
//! `{"type":"topology",…}` lines to the dump; [`Topology::from_dump`]
//! reads them back, so a dump file is a complete, portable forensic
//! artifact.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use itdos_obs::jsonl::{Dump, JsonValue};

/// One replica's place in the deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElementInfo {
    /// Replication domain the element belongs to.
    pub domain: u64,
    /// Replica index within the domain (0-based construction order).
    pub index: u64,
    /// The element's observability scope (its endpoint code).
    pub scope: u64,
}

/// The deployment map the analyzers run against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Topology {
    /// The Group Manager's domain id.
    pub gm_domain: u64,
    /// Fault bound `f` per domain (GM domain included).
    pub domain_f: BTreeMap<u64, u64>,
    /// Every element, keyed by global element id.
    pub elements: BTreeMap<u64, ElementInfo>,
    /// Singleton clients: client id → scope.
    pub clients: BTreeMap<u64, u64>,
    /// Elements no longer in their domain's active roster (expelled or
    /// voluntarily retired). They stay in [`Topology::elements`] — their
    /// findings and health history must survive a replacement — but
    /// `Topology::domain_members` resolves their slot to the current
    /// occupant so rosters and primary rotation match the live groups.
    pub retired: BTreeSet<u64>,
}

impl Topology {
    /// The element whose telemetry carries `scope`, if any.
    pub(crate) fn element_of_scope(&self, scope: u64) -> Option<u64> {
        self.elements
            .iter()
            .find(|(_, info)| info.scope == scope)
            .map(|(&id, _)| id)
    }

    /// Element ids of one domain, one per roster slot, ordered by replica
    /// index. A slot that saw a replacement resolves to its *current*
    /// (non-retired) occupant, so the list length always equals the
    /// domain's slot count — a retired id never shadows its replacement,
    /// and primary rotation stays modulo the BFT group's fixed `n`.
    fn domain_members(&self, domain: u64) -> Vec<u64> {
        let mut members: Vec<(u64, u64)> = self
            .elements
            .iter()
            .filter(|(_, info)| info.domain == domain)
            .map(|(&id, info)| (info.index, id))
            .collect();
        members.sort_unstable();
        let mut by_slot: BTreeMap<u64, u64> = BTreeMap::new();
        for (index, id) in members {
            match by_slot.entry(index) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(id);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    if self.retired.contains(slot.get()) && !self.retired.contains(&id) {
                        slot.insert(id);
                    }
                }
            }
        }
        by_slot.into_values().collect()
    }

    /// Every element that ever held a slot in `domain` (retired ids
    /// included), in id order. The participation analyzer judges this
    /// full roster so a culprit's silence record survives its expulsion
    /// and replacement. Its order is not observable: the analyzer sums
    /// over the roster and judges each member once, into a finding that
    /// `sort_findings` orders by element.
    pub(crate) fn domain_roster(&self, domain: u64) -> impl Iterator<Item = u64> + '_ {
        self.elements
            .iter()
            .filter(move |(_, info)| info.domain == domain)
            .map(|(&id, _)| id)
    }

    /// The primary element of `domain` in `view` (round-robin rotation,
    /// matching `itdos_bft::config::GroupConfig::primary_of`).
    pub fn primary_of(&self, domain: u64, view: u64) -> Option<u64> {
        let members = self.domain_members(domain);
        let at = view.checked_rem(members.len() as u64)?;
        members.get(usize::try_from(at).ok()?).copied()
    }

    /// Server (non-GM) domain ids in ascending order.
    pub fn server_domains(&self) -> impl Iterator<Item = u64> + '_ {
        self.domain_f
            .keys()
            .copied()
            .filter(|&d| d != self.gm_domain)
    }

    /// Serializes the topology as JSONL records appended to a dump.
    pub fn to_jsonl(&self, out: &mut String) {
        for (&domain, &f) in &self.domain_f {
            let gm = u64::from(domain == self.gm_domain);
            let _ = writeln!(
                out,
                "{{\"type\":\"topology\",\"kind\":\"domain\",\"domain\":{domain},\"f\":{f},\"gm\":{gm}}}"
            );
        }
        for (&element, info) in &self.elements {
            let _ = writeln!(
                out,
                "{{\"type\":\"topology\",\"kind\":\"element\",\"element\":{element},\"domain\":{},\"index\":{},\"scope\":{}}}",
                info.domain, info.index, info.scope
            );
        }
        for (&client, &scope) in &self.clients {
            let _ = writeln!(
                out,
                "{{\"type\":\"topology\",\"kind\":\"client\",\"client\":{client},\"scope\":{scope}}}"
            );
        }
        for &element in &self.retired {
            let _ = writeln!(
                out,
                "{{\"type\":\"topology\",\"kind\":\"retired\",\"element\":{element}}}"
            );
        }
    }

    /// Reconstructs a topology from the `{"type":"topology",…}` records a
    /// parsed dump preserved in [`Dump::extras`]. `None` when the dump
    /// carries no topology at all.
    pub fn from_dump(dump: &Dump) -> Option<Topology> {
        let mut topo = Topology::default();
        let mut seen = false;
        for extra in &dump.extras {
            if extra.get("type").and_then(JsonValue::as_str) != Some("topology") {
                continue;
            }
            match extra.get("kind").and_then(JsonValue::as_str) {
                Some("domain") => {
                    let domain = extra.get("domain")?.as_u64()?;
                    let f = extra.get("f")?.as_u64()?;
                    topo.domain_f.insert(domain, f);
                    if extra.get("gm")?.as_u64()? == 1 {
                        topo.gm_domain = domain;
                    }
                    seen = true;
                }
                Some("element") => {
                    let element = extra.get("element")?.as_u64()?;
                    topo.elements.insert(
                        element,
                        ElementInfo {
                            domain: extra.get("domain")?.as_u64()?,
                            index: extra.get("index")?.as_u64()?,
                            scope: extra.get("scope")?.as_u64()?,
                        },
                    );
                    seen = true;
                }
                Some("client") => {
                    let client = extra.get("client")?.as_u64()?;
                    let scope = extra.get("scope")?.as_u64()?;
                    topo.clients.insert(client, scope);
                    seen = true;
                }
                Some("retired") => {
                    let element = extra.get("element")?.as_u64()?;
                    topo.retired.insert(element);
                    seen = true;
                }
                _ => {}
            }
        }
        seen.then_some(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdos_obs::jsonl::parse_dump;

    fn sample() -> Topology {
        let mut t = Topology {
            gm_domain: 0,
            ..Topology::default()
        };
        t.domain_f.insert(0, 1);
        t.domain_f.insert(1, 1);
        for (element, domain, index) in [(0, 0, 0), (1, 0, 1), (4, 1, 0), (5, 1, 1)] {
            t.elements.insert(
                element,
                ElementInfo {
                    domain,
                    index,
                    scope: 1_000_000 + element,
                },
            );
        }
        t.clients.insert(7, 7);
        t
    }

    #[test]
    fn round_trips_through_jsonl() {
        let topo = sample();
        let mut out = String::new();
        topo.to_jsonl(&mut out);
        let dump = parse_dump(&out).expect("topology lines parse");
        assert_eq!(Topology::from_dump(&dump), Some(topo));
    }

    #[test]
    fn lookups_and_primary_rotation() {
        let topo = sample();
        assert_eq!(topo.element_of_scope(1_000_004), Some(4));
        assert_eq!(topo.element_of_scope(99), None);
        assert_eq!(topo.domain_members(1), vec![4, 5]);
        assert_eq!(topo.primary_of(1, 0), Some(4));
        assert_eq!(topo.primary_of(1, 3), Some(5));
        assert_eq!(topo.primary_of(9, 0), None);
        assert_eq!(topo.server_domains().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn retired_slots_resolve_to_their_replacement() {
        let mut topo = sample();
        // element 9 replaces retired element 5 in domain 1, slot 1
        topo.elements.insert(
            9,
            ElementInfo {
                domain: 1,
                index: 1,
                scope: 1_000_009,
            },
        );
        topo.retired.insert(5);
        // active view: one id per slot, the replacement holding slot 1
        assert_eq!(topo.domain_members(1), vec![4, 9]);
        // rotation stays modulo the slot count, resolved to occupants
        assert_eq!(topo.primary_of(1, 1), Some(9));
        assert_eq!(topo.primary_of(1, 2), Some(4));
        // the roster keeps the retired id for forensic continuity
        assert_eq!(topo.domain_roster(1).collect::<Vec<_>>(), vec![4, 5, 9]);
        // a retired slot nobody refilled still counts (BFT n is fixed)
        topo.retired.insert(4);
        assert_eq!(topo.domain_members(1), vec![4, 9]);
        // and the whole shape round-trips through the dump format
        let mut out = String::new();
        topo.to_jsonl(&mut out);
        let dump = parse_dump(&out).expect("topology lines parse");
        assert_eq!(Topology::from_dump(&dump), Some(topo));
    }

    #[test]
    fn from_dump_is_none_without_topology_records() {
        let dump = parse_dump("{\"type\":\"other\"}\n").unwrap();
        assert_eq!(Topology::from_dump(&dump), None);
    }
}
