//! How this crate's values travel in the compact wire format.
//!
//! [`Digest`] is declared; the other three convert through the byte forms
//! they already own, so their layout stays where their tests pin it.

use xbytes::wire::{Reader, Wire, WireError, Writer};
use xbytes::{wire_struct, Bytes};

use crate::hash::Digest;
use crate::mac::Authenticator;
use crate::sign::{Signature, VerifyingKey};

wire_struct!(Digest(bytes));

impl Wire for Signature {
    fn put(&self, w: &mut Writer) {
        self.to_bytes().put(w);
    }

    fn take(r: &mut Reader<'_>) -> Result<Signature, WireError> {
        Wire::take(r).map(Signature::from_bytes)
    }
}

impl Wire for VerifyingKey {
    fn put(&self, w: &mut Writer) {
        self.to_bytes().put(w);
    }

    fn take(r: &mut Reader<'_>) -> Result<VerifyingKey, WireError> {
        Wire::take(r).map(VerifyingKey::from_bytes)
    }
}

/// [`Authenticator::to_bytes`] nested as length-prefixed bytes (written in
/// place), which the parsed authenticator must fill exactly. Under
/// `decode_shared` its tags stay a slice of the received buffer.
impl Wire for Authenticator {
    fn put(&self, w: &mut Writer) {
        w.framed(|w| self.put_bytes(w));
    }

    fn take(r: &mut Reader<'_>) -> Result<Authenticator, WireError> {
        Authenticator::from_shared(&Bytes::take(r)?).ok_or(WireError)
    }
}
