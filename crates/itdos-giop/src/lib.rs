//! # itdos-giop — CDR marshalling, GIOP messages, and platform profiles
//!
//! The ORB-independent data plane of the ITDOS reproduction:
//!
//! * [`types`] — the CORBA value model ([`types::Value`]) and type
//!   descriptions ([`types::TypeDesc`]);
//! * [`cdr`] — CDR marshalling with real GIOP alignment rules and
//!   sender-chosen byte order;
//! * [`idl`] — an IDL-lite interface repository (full interface name →
//!   operation signatures), which the ITDOS GIOP extension makes reachable
//!   from *outside* an ORB (§3.6);
//! * [`giop`] — GIOP Request/Reply framing plus the ITDOS extension
//!   carrying the full interface name in every message;
//! * [`platform`] — heterogeneity profiles (endianness + deterministic
//!   float divergence) emulating the paper's mixed Solaris/Linux,
//!   C++/Java deployments.
//!
//! The design premise reproduced here: two *correct* replicas on different
//! platforms emit different bytes for the same logical reply, so voting
//! must happen on unmarshalled [`types::Value`]s, not raw frames.
//!
//! # Examples
//!
//! ```
//! use itdos_giop::cdr::Endianness;
//! use itdos_giop::cdr::{Decoder, Encoder};
//! use itdos_giop::types::{TypeDesc, Value};
//!
//! // A big-endian replica and a little-endian replica marshal 1.0:
//! let t = TypeDesc::Double;
//! let v = Value::Double(1.0);
//! let mut be = Encoder::new(Endianness::Big);
//! be.encode(&v, &t)?;
//! let mut le = Encoder::new(Endianness::Little);
//! le.encode(&v, &t)?;
//! assert_ne!(be.clone().into_bytes(), le.clone().into_bytes());
//!
//! // Unmarshalling restores identical values on both sides.
//! let b = Decoder::new(&be.into_bytes(), Endianness::Big).decode(&t)?;
//! let l = Decoder::new(&le.into_bytes(), Endianness::Little).decode(&t)?;
//! assert_eq!(b, l);
//! # Ok::<(), itdos_giop::cdr::CdrError>(())
//! ```

#![warn(missing_docs)]
// L3 panic-freedom: hostile input surfaces as a typed error or a drop,
// never as a panic (DESIGN.md §8)
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod cdr;
pub mod giop;
pub mod idl;
pub mod platform;
pub mod types;

pub use cdr::Endianness;
pub use giop::{GiopMessage, ReplyBody, ReplyMessage, RequestMessage};
pub use idl::{InterfaceDef, InterfaceRepository, OperationDef};
pub use platform::PlatformProfile;
pub use types::{TypeDesc, Value};
