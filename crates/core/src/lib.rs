//! # itdos — Intrusion Tolerant Distributed Object System middleware
//!
//! The integrated reproduction of the DSN 2002 ITDOS architecture: CORBA
//! middleware whose transport is a Byzantine-fault-tolerant totally
//! ordered multicast, with voting on unmarshalled messages so replicas may
//! run on heterogeneous platforms, and threshold-cryptographic key
//! generation by a replicated Group Manager.
//!
//! The protocol stack (paper Figure 2), bottom-up:
//!
//! 1. **IP multicast** — [`simnet`]'s multicast groups;
//! 2. **Secure Reliable Multicast** — [`itdos_bft`]'s PBFT with the
//!    message-queue state machine;
//! 3. **ITDOS sockets / SMIOP** — [`wire::SmiopFrame`]s: per-connection
//!    symmetric encryption and endpoint signatures over GIOP frames,
//!    submitted as queue operations; one SMIOP endpoint (`smiop`) serves
//!    both [`element`] and [`client`];
//! 4. **Voter** — per-connection collation of unmarshalled values
//!    ([`itdos_vote`], folded via [`itdos_vote::folding`]);
//! 5. **Marshalling** — [`itdos_giop`]'s CDR in each replica's native
//!    byte order;
//! 6. **IT-ORB** — [`itdos_orb`] with continuation-based servants for
//!    nested invocations.
//!
//! Plus the **Group Manager** replication domain ([`gm`]) handling
//! connection establishment (Figure 3), threshold keying, and expulsion,
//! and the **firewall proxy** ([`firewall`]) at enclave boundaries.
//!
//! # Examples
//!
//! A singleton client invoking a heterogeneous replicated counter
//! (Figure 1 end to end):
//!
//! ```
//! use itdos::system::SystemBuilder;
//! use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
//! use itdos_giop::types::{TypeDesc, Value};
//! use itdos_groupmgr::membership::DomainId;
//! use itdos_orb::object::ObjectKey;
//! use itdos_orb::servant::FnServant;
//!
//! let mut repo = InterfaceRepository::new();
//! repo.register(InterfaceDef::new("Counter").with_operation(OperationDef::new(
//!     "add",
//!     vec![("delta".into(), TypeDesc::Long)],
//!     TypeDesc::Long,
//! )));
//!
//! let mut builder = SystemBuilder::new(42);
//! builder.repository(repo);
//! builder.add_domain(
//!     DomainId(1),
//!     1, // tolerate one Byzantine element among 4 replicas
//!     Box::new(|_replica| {
//!         let mut total = 0i32;
//!         vec![(
//!             ObjectKey::from_name("counter"),
//!             Box::new(FnServant::new("Counter", move |_, args| {
//!                 if let Value::Long(d) = args[0] {
//!                     total += d;
//!                 }
//!                 Ok(Value::Long(total))
//!             })) as Box<dyn itdos_orb::servant::Servant>,
//!         )]
//!     }),
//! );
//! builder.add_client(1);
//! let mut system = builder.build();
//!
//! let done = system.invoke(
//!     1,
//!     itdos::Invocation::of(DomainId(1))
//!         .object(b"counter")
//!         .interface("Counter")
//!         .operation("add")
//!         .arg(Value::Long(5)),
//! );
//! assert_eq!(done.result, Ok(Value::Long(5)));
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod codes;
pub(crate) mod cost;
pub mod element;
pub mod fabric;
pub mod fault;
pub mod firewall;
pub mod gm;
pub mod heal;
pub mod invocation;
pub mod keying;
pub mod outbound;
pub mod registry;
pub(crate) mod smiop;
pub mod system;
pub mod trace;
pub mod wire;

pub use client::{ClientConfig, Completed, SingletonClient};
pub use element::{ElementConfig, ServerElement};
pub use fabric::Fabric;
pub use fault::Behavior;
pub use heal::{HealConfig, HealStats};
pub use invocation::{Invocation, Ticket};
pub use itdos_obs::ObsConfig;
pub use system::{System, SystemBuilder, GM_DOMAIN};
pub use wire::HealCmd;
