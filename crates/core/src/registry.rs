//! Per-interface voting comparator registry.
//!
//! §3.6: the voter "can employ much more flexible voting algorithms" since
//! it sees unmarshalled data — e.g. inexact voting for interfaces that
//! return measured floats. The registry maps a full interface name to the
//! Voting Virtual Machine program used by every voter (and by the Group
//! Manager when validating proofs) for that interface's traffic.

use std::collections::BTreeMap;

use itdos_vote::comparator::Comparator;

/// Registry of comparator programs, keyed by full interface name.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparatorRegistry {
    default: Comparator,
    by_interface: BTreeMap<String, Comparator>,
}

impl Default for ComparatorRegistry {
    fn default() -> Self {
        ComparatorRegistry {
            default: Comparator::Exact,
            by_interface: BTreeMap::new(),
        }
    }
}

impl ComparatorRegistry {
    /// Creates a registry with [`Comparator::Exact`] as the default.
    pub fn new() -> ComparatorRegistry {
        ComparatorRegistry::default()
    }

    /// Registers a comparator for an interface.
    pub fn register(&mut self, interface: impl Into<String>, comparator: Comparator) {
        self.by_interface.insert(interface.into(), comparator);
    }

    /// The comparator for an interface (falls back to the default).
    pub(crate) fn for_interface(&self, interface: &str) -> &Comparator {
        self.by_interface.get(interface).unwrap_or(&self.default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn falls_back_to_default() {
        let r = ComparatorRegistry::new();
        assert_eq!(r.for_interface("Any"), &Comparator::Exact);
    }

    #[test]
    fn registered_interface_wins() {
        let mut r = ComparatorRegistry::new();
        r.register("Sensor", Comparator::InexactRel(1e-6));
        assert_eq!(r.for_interface("Sensor"), &Comparator::InexactRel(1e-6));
        assert_eq!(r.for_interface("Bank"), &Comparator::Exact);
    }

    #[test]
    fn default_is_replaceable() {
        let mut r = ComparatorRegistry::new();
        r.default = Comparator::InexactAbs(0.5);
        assert_eq!(r.for_interface("X"), &Comparator::InexactAbs(0.5));
    }
}
