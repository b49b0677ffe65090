//! # itdos-orb — a miniature CORBA ORB
//!
//! The substrate standing in for TAO \[38\]: object references that address
//! *replication domains* rather than hosts, servants with
//! continuation-based dispatch (so the single-threaded execution model can
//! suspend on nested invocations, §3.1), a process-granularity object
//! adapter (§3.4), and an ORB core that validates and dispatches requests
//! and marshals in the host platform's byte order. The ORB has no
//! transport seam of its own: the SMIOP stack (§3.3) feeds it decoded
//! requests at the simulated-process boundary.
//!
//! # Examples
//!
//! ```
//! use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
//! use itdos_giop::giop::{ReplyBody, RequestMessage};
//! use itdos_giop::platform::PlatformProfile;
//! use itdos_giop::types::{TypeDesc, Value};
//! use itdos_orb::object::ObjectKey;
//! use itdos_orb::orb::{Dispatch, Orb};
//! use itdos_orb::servant::FnServant;
//!
//! let mut repo = InterfaceRepository::new();
//! repo.register(InterfaceDef::new("Echo").with_operation(OperationDef::new(
//!     "echo",
//!     vec![("v".into(), TypeDesc::Long)],
//!     TypeDesc::Long,
//! )));
//! let mut orb = Orb::new(repo, PlatformProfile::X86_LINUX);
//! orb.activate(
//!     ObjectKey::from_name("e"),
//!     Box::new(FnServant::new("Echo", |_, args| Ok(args[0].clone()))),
//! );
//! let request = RequestMessage {
//!     request_id: 1,
//!     trace: 0,
//!     response_expected: true,
//!     object_key: b"e".to_vec(),
//!     interface: "Echo".into(),
//!     operation: "echo".into(),
//!     args: vec![Value::Long(7)],
//! };
//! match orb.handle_request(&request) {
//!     Dispatch::Reply(reply) => assert_eq!(reply.body, ReplyBody::Result(Value::Long(7))),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod adapter;
pub mod object;
pub mod orb;
pub mod servant;

pub use adapter::ObjectAdapter;
pub use object::{DomainAddr, ObjectKey, ObjectRef};
pub use orb::{Dispatch, Orb};
pub use servant::{FnServant, NestedCall, Outcome, Servant, ServantException};
