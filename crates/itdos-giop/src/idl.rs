//! IDL-lite interface repository.
//!
//! A minimal stand-in for the CORBA Interface Repository: it maps a *full
//! interface name* to its operations' signatures. ITDOS extends GIOP to
//! carry the full interface name in each message precisely so the Group
//! Manager — which does not run in an ORB — can look up signatures and
//! unmarshal values when validating fault proofs (§3.6).

// L5 hostile arithmetic: a decoded length never wraps or truncates (the
// crate's one other module, `platform`, reads no bytes)
#![cfg_attr(
    not(test),
    deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)
)]

use std::collections::BTreeMap;

use crate::types::TypeDesc;

/// One operation's signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationDef {
    /// Operation name (unique within its interface).
    pub name: String,
    /// Parameter names and types, in declaration order (all `in` params —
    /// `inout`/`out` add nothing to the reproduction).
    pub params: Vec<(String, TypeDesc)>,
    /// Result type ([`TypeDesc::Void`] for void operations).
    pub result: TypeDesc,
}

impl OperationDef {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        params: Vec<(String, TypeDesc)>,
        result: TypeDesc,
    ) -> OperationDef {
        OperationDef {
            name: name.into(),
            params,
            result,
        }
    }
}

/// One interface: a named set of operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceDef {
    /// Full interface name, e.g. `"Bank::Account"`.
    pub name: String,
    operations: BTreeMap<String, OperationDef>,
}

impl InterfaceDef {
    /// Creates an empty interface.
    pub fn new(name: impl Into<String>) -> InterfaceDef {
        InterfaceDef {
            name: name.into(),
            operations: BTreeMap::new(),
        }
    }

    /// Adds an operation (builder style).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate operation name — IDL would not compile either.
    pub fn with_operation(mut self, op: OperationDef) -> InterfaceDef {
        let prev = self.operations.insert(op.name.clone(), op);
        assert!(prev.is_none(), "duplicate operation name");
        self
    }

    /// Looks up an operation.
    pub fn operation(&self, name: &str) -> Option<&OperationDef> {
        self.operations.get(name)
    }

    /// Iterates operations in name order.
    pub fn operations(&self) -> impl Iterator<Item = &OperationDef> {
        self.operations.values()
    }
}

/// The repository: full interface name → definition.
///
/// # Examples
///
/// ```
/// use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
/// use itdos_giop::types::TypeDesc;
///
/// let mut repo = InterfaceRepository::new();
/// repo.register(
///     InterfaceDef::new("Bank::Account").with_operation(OperationDef::new(
///         "balance",
///         vec![],
///         TypeDesc::LongLong,
///     )),
/// );
/// let op = repo.lookup("Bank::Account", "balance").unwrap();
/// assert_eq!(op.result, TypeDesc::LongLong);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterfaceRepository {
    interfaces: BTreeMap<String, InterfaceDef>,
}

impl InterfaceRepository {
    /// Creates an empty repository.
    pub fn new() -> InterfaceRepository {
        InterfaceRepository::default()
    }

    /// Registers (or replaces) an interface.
    pub fn register(&mut self, interface: InterfaceDef) {
        self.interfaces.insert(interface.name.clone(), interface);
    }

    /// Looks up an interface by full name.
    pub fn interface(&self, name: &str) -> Option<&InterfaceDef> {
        self.interfaces.get(name)
    }

    /// Looks up an operation by interface and operation name.
    pub fn lookup(&self, interface: &str, operation: &str) -> Option<&OperationDef> {
        self.interface(interface)?.operation(operation)
    }

    /// Number of registered interfaces.
    pub fn len(&self) -> usize {
        self.interfaces.len()
    }

    /// True when no interface is registered.
    pub fn is_empty(&self) -> bool {
        self.interfaces.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn account() -> InterfaceDef {
        InterfaceDef::new("Bank::Account")
            .with_operation(OperationDef::new(
                "deposit",
                vec![("amount".into(), TypeDesc::LongLong)],
                TypeDesc::LongLong,
            ))
            .with_operation(OperationDef::new("balance", vec![], TypeDesc::LongLong))
    }

    #[test]
    fn lookup_finds_operations() {
        let mut repo = InterfaceRepository::new();
        repo.register(account());
        assert!(repo.lookup("Bank::Account", "deposit").is_some());
        assert!(repo.lookup("Bank::Account", "missing").is_none());
        assert!(repo.lookup("Nope", "deposit").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate operation")]
    fn duplicate_operation_panics() {
        let _ = InterfaceDef::new("I")
            .with_operation(OperationDef::new("f", vec![], TypeDesc::Void))
            .with_operation(OperationDef::new("f", vec![], TypeDesc::Void));
    }

    #[test]
    fn register_replaces() {
        let mut repo = InterfaceRepository::new();
        repo.register(InterfaceDef::new("I"));
        repo.register(InterfaceDef::new("I").with_operation(OperationDef::new(
            "f",
            vec![],
            TypeDesc::Void,
        )));
        assert_eq!(repo.len(), 1);
        assert!(repo.lookup("I", "f").is_some());
    }

    #[test]
    fn operations_iterate_in_name_order() {
        let i = account();
        let names: Vec<&str> = i.operations().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["balance", "deposit"]);
    }
}
