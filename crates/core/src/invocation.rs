//! Typed invocation descriptions and completion tickets.
//!
//! [`Invocation`] replaces the positional `(target, object_key,
//! interface, operation, args)` argument list on [`crate::system::System`]
//! with a builder, so call sites read like the CORBA request they
//! describe:
//!
//! ```ignore
//! let inv = Invocation::of(DomainId(1))
//!     .object(b"calc")
//!     .interface("Calc")
//!     .operation("add")
//!     .arg(Value::Long(2))
//!     .arg(Value::Long(40));
//! let completed = system.invoke(7, inv);
//! ```
//!
//! [`Ticket`] is the handle returned by `invoke_async`: invocations on one
//! client complete in submission order (the pipelining client releases
//! results FIFO), so a ticket is simply `(client, completion index)` and
//! stays valid across any number of later submissions.

use itdos_giop::types::Value;
use itdos_groupmgr::membership::DomainId;

/// A described (not yet submitted) CORBA invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    pub(crate) target: DomainId,
    pub(crate) object_key: Vec<u8>,
    pub(crate) interface: String,
    pub(crate) operation: String,
    pub(crate) args: Vec<Value>,
}

impl Invocation {
    /// Starts describing an invocation on `target`'s replication domain.
    pub fn of(target: DomainId) -> Invocation {
        Invocation {
            target,
            object_key: Vec::new(),
            interface: String::new(),
            operation: String::new(),
            args: Vec::new(),
        }
    }

    /// Sets the object key the request addresses.
    pub fn object(mut self, key: impl AsRef<[u8]>) -> Invocation {
        self.object_key = key.as_ref().to_vec();
        self
    }

    /// Sets the IDL interface name.
    pub fn interface(mut self, interface: impl Into<String>) -> Invocation {
        self.interface = interface.into();
        self
    }

    /// Sets the operation name.
    pub fn operation(mut self, operation: impl Into<String>) -> Invocation {
        self.operation = operation.into();
        self
    }

    /// Appends one argument.
    pub fn arg(mut self, value: Value) -> Invocation {
        self.args.push(value);
        self
    }

    /// Appends several arguments at once.
    pub fn args(mut self, values: impl IntoIterator<Item = Value>) -> Invocation {
        self.args.extend(values);
        self
    }

    /// The target domain.
    pub fn target(&self) -> DomainId {
        self.target
    }
}

/// Handle for one asynchronously submitted invocation: the `index`-th
/// that `client` was given through `System::invoke_async`, named by the
/// trace id minted from the pair. Valid forever — completions accumulate
/// on the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket {
    /// The submitting client's id.
    pub client: u64,
    /// Position of this invocation among the client's submissions through
    /// `System::invoke_async`; its completion's position too, unless
    /// commands reached the client another way.
    pub index: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_fields() {
        let inv = Invocation::of(DomainId(3))
            .object(b"acct")
            .interface("Account")
            .operation("deposit")
            .arg(Value::Long(5))
            .args([Value::Long(6), Value::Long(7)]);
        assert_eq!(inv.target(), DomainId(3));
        assert_eq!(inv.object_key, b"acct");
        assert_eq!(inv.interface, "Account");
        assert_eq!(inv.operation, "deposit");
        assert_eq!(
            inv.args,
            vec![Value::Long(5), Value::Long(6), Value::Long(7)]
        );
    }

    #[test]
    fn tickets_order_by_client_then_index() {
        let a = Ticket {
            client: 1,
            index: 2,
        };
        let b = Ticket {
            client: 1,
            index: 3,
        };
        assert!(a < b);
    }
}
