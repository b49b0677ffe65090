//! Compact binary codec for BFT protocol messages.
//!
//! The codec lives in [`xbytes::wire`], the leaf crate every wire-bearing
//! crate can see, so each type implements [`Wire`] where it is defined;
//! this module keeps the historical path.

pub use xbytes::wire::*;
