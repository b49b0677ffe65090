//! Message authentication: envelopes, key provisioning, and verification.
//!
//! Normal-case messages use MAC authenticators \[8\] (one MAC per receiver
//! under pairwise keys); view-change/checkpoint/state messages are signed
//! so they remain verifiable when embedded in third-party proofs.
//!
//! Key provisioning is deterministic from a per-domain seed — the paper
//! assumes "authentication tokens for each process are adequately
//! protected" (§2.2) and does not describe a key-exchange protocol, so we
//! provision pairwise keys at configuration time.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use itdos_crypto::keys::SymmetricKey;
use itdos_crypto::mac::Authenticator;
use itdos_crypto::sign::{Signature, SigningKey, VerifyingKey};

use crate::config::{ClientId, ReplicaId};
use crate::message::Message;
use crate::wire::{Reader, Wire, WireError, Writer};
use xbytes::{wire_enum, wire_frame, Bytes};

/// A protocol participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Peer {
    /// A group replica.
    Replica(ReplicaId),
    /// An external client.
    Client(ClientId),
}

/// Authentication attached to an envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum AuthProof {
    /// MAC authenticator: entry `i` verifies under the pairwise key between
    /// the sender and replica `i`.
    Macs(Authenticator),
    /// Digital signature over the payload.
    Signature(Signature),
}

/// An authenticated protocol envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Who sent it (claimed; verified via `auth`).
    pub sender: Peer,
    /// Encoded [`crate::message::Message`] (a slice of the received frame).
    pub payload: Bytes,
    /// MAC authenticator or signature.
    pub auth: AuthProof,
}

impl AuthProof {
    /// Static name of the scheme (`"mac"` or `"signature"`) — the label
    /// instrumentation attaches to BFT wire cost series without allocating.
    pub fn kind(&self) -> &'static str {
        match self {
            AuthProof::Macs(_) => "mac",
            AuthProof::Signature(_) => "signature",
        }
    }
}

/// Hand-written: a replica id is a `u32` that travels in a `u64` slot, the
/// same width as a client id, and one too wide for a `u32` is refused.
impl Wire for Peer {
    fn put(&self, w: &mut Writer) {
        match self {
            Peer::Replica(id) => w.u8(0).u64(u64::from(id.0)),
            Peer::Client(id) => w.u8(1).u64(id.0),
        };
    }

    fn take(r: &mut Reader<'_>) -> Result<Peer, WireError> {
        Ok(match r.u8()? {
            0 => Peer::Replica(ReplicaId(u32::try_from(r.u64()?).map_err(|_| WireError)?)),
            1 => Peer::Client(ClientId(r.u64()?)),
            _ => return Err(WireError),
        })
    }
}

wire_enum!(AuthProof {
    0 => Macs(authenticator),
    1 => Signature(signature),
});

/// The envelope layout, spelled once for [`Envelope`] and for
/// [`AuthContext::put_envelope`]: the sender, the payload as length-prefixed
/// bytes, then the proof — made over the payload where it was just written.
fn put_envelope_with<P: Borrow<AuthProof>>(
    w: &mut Writer,
    sender: Peer,
    payload: impl FnOnce(&mut Writer),
    proof: impl FnOnce(&[u8]) -> P,
) -> &'static str {
    sender.put(w);
    let proof = proof(w.framed(payload));
    proof.borrow().put(w);
    proof.borrow().kind()
}

/// Hand-written around `put_envelope_with`, which outgoing frames share.
impl Wire for Envelope {
    fn put(&self, w: &mut Writer) {
        put_envelope_with(w, self.sender, |w| _ = w.raw(&self.payload), |_| &self.auth);
    }

    fn take(r: &mut Reader<'_>) -> Result<Envelope, WireError> {
        Ok(Envelope {
            sender: Wire::take(r)?,
            payload: Wire::take(r)?,
            auth: Wire::take(r)?,
        })
    }
}
wire_frame!(Envelope);

/// How an outgoing message is authenticated: MACs for every replica, one
/// MAC for one client, or the sender's signature.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    Replicas,
    Client(ClientId),
    Signed,
}

/// Deterministic key provisioning for one BFT group.
#[derive(Debug, Clone)]
pub struct KeyProvisioner {
    seed: [u8; 32],
}

impl KeyProvisioner {
    /// Creates a provisioner from a group seed.
    pub fn new(seed: [u8; 32]) -> KeyProvisioner {
        KeyProvisioner { seed }
    }

    /// Pairwise key between two replicas (symmetric in the pair).
    pub fn replica_pair(&self, a: ReplicaId, b: ReplicaId) -> SymmetricKey {
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        SymmetricKey::derive_parts(
            &self.seed,
            &[b"rr-pair", &lo.to_le_bytes(), &hi.to_le_bytes()],
        )
    }

    /// Pairwise key between a client and a replica.
    pub fn client_pair(&self, client: ClientId, replica: ReplicaId) -> SymmetricKey {
        SymmetricKey::derive_parts(
            &self.seed,
            &[
                b"cr-pair",
                &client.0.to_le_bytes(),
                &replica.0.to_le_bytes(),
            ],
        )
    }

    /// A replica's signing key.
    pub fn signing_key(&self, replica: ReplicaId) -> SigningKey {
        SigningKey::from_seed_parts(&[&self.seed, &replica.0.to_le_bytes()])
    }

    /// All replicas' verifying keys for a group of size `n`.
    pub fn verifying_keys(&self, n: usize) -> BTreeMap<ReplicaId, VerifyingKey> {
        (0u32..)
            .take(n)
            .map(|i| (ReplicaId(i), self.signing_key(ReplicaId(i)).verifying_key()))
            .collect()
    }
}

/// Per-process authentication state (one replica's or client's view).
#[derive(Debug, Clone)]
pub struct AuthContext {
    me: Peer,
    provisioner: KeyProvisioner,
    n: usize,
    signing: SigningKey,
    verifying: BTreeMap<ReplicaId, VerifyingKey>,
}

impl AuthContext {
    /// Builds the context for replica `id` in a group of `n`.
    pub fn for_replica(provisioner: KeyProvisioner, id: ReplicaId, n: usize) -> AuthContext {
        let signing = provisioner.signing_key(id);
        let verifying = provisioner.verifying_keys(n);
        AuthContext {
            me: Peer::Replica(id),
            provisioner,
            n,
            signing,
            verifying,
        }
    }

    /// Builds the context for an external client.
    pub fn for_client(provisioner: KeyProvisioner, id: ClientId, n: usize) -> AuthContext {
        // clients do not sign protocol messages; derive an unused key
        let signing = SigningKey::from_seed_parts(&[b"client", &id.0.to_le_bytes()]);
        let verifying = provisioner.verifying_keys(n);
        AuthContext {
            me: Peer::Client(id),
            provisioner,
            n,
            signing,
            verifying,
        }
    }

    /// This participant's identity.
    pub fn me(&self) -> Peer {
        self.me
    }

    fn pair_with_replica(&self, replica: ReplicaId) -> SymmetricKey {
        match self.me {
            Peer::Replica(id) => self.provisioner.replica_pair(id, replica),
            Peer::Client(id) => self.provisioner.client_pair(id, replica),
        }
    }

    /// The proof `scheme` attaches to `payload` (each MAC key derived as its
    /// tag is computed).
    fn proof(&self, scheme: Scheme, payload: &[u8]) -> AuthProof {
        match scheme {
            Scheme::Replicas => AuthProof::Macs(Authenticator::generate_from(
                (0..self.n as u32).map(|i| self.pair_with_replica(ReplicaId(i))),
                payload,
            )),
            Scheme::Client(client) => {
                let Peer::Replica(me) = self.me else {
                    // itdos-lint: allow(panic-freedom) -- guards our own identity (a local construction invariant), never attacker input; clients are wired without this path
                    panic!("only replicas address clients");
                };
                let key = self.provisioner.client_pair(client, me);
                AuthProof::Macs(Authenticator::generate_from(std::iter::once(key), payload))
            }
            Scheme::Signed => AuthProof::Signature(self.signing.sign(payload)),
        }
    }

    /// Writes `message` into `w` as an envelope from this participant —
    /// the one way a protocol message is framed for sending: encoded where
    /// the envelope holds it and authenticated there. Returns the
    /// [`AuthProof::kind`] used.
    pub fn put_envelope(
        &self,
        w: &mut Writer,
        message: &Message,
        client: Option<ClientId>,
    ) -> &'static str {
        // a reply carries its client's MAC; the messages that serve inside
        // third-party proofs are signed; the rest carry every replica's MAC
        let scheme = match (client, message) {
            (Some(client), _) => Scheme::Client(client),
            (
                None,
                Message::ViewChange(_)
                | Message::NewView(_)
                | Message::Checkpoint(_)
                | Message::StateData(_),
            ) => Scheme::Signed,
            (None, _) => Scheme::Replicas,
        };
        put_envelope_with(
            w,
            self.me,
            |w| message.put(w),
            |payload| self.proof(scheme, payload),
        )
    }

    /// Room for `message`'s envelope and a header of up to 16 bytes.
    pub fn frame_capacity(&self, message: &Message) -> usize {
        message.wire_len() + 48 + 8 * self.n
    }

    /// `message`'s envelope alone, in one buffer.
    pub fn frame(&self, message: &Message, client: Option<ClientId>) -> Bytes {
        let mut w = Writer::with_capacity(self.frame_capacity(message));
        self.put_envelope(&mut w, message, client);
        Bytes::from(w.finish())
    }

    fn envelope(&self, scheme: Scheme, payload: impl Into<Bytes>) -> Envelope {
        let payload = payload.into();
        Envelope {
            sender: self.me,
            auth: self.proof(scheme, &payload),
            payload,
        }
    }

    /// Wraps encoded bytes with a MAC authenticator addressed to all
    /// replicas.
    pub fn mac_envelope(&self, payload: impl Into<Bytes>) -> Envelope {
        self.envelope(Scheme::Replicas, payload)
    }

    /// Wraps encoded bytes addressed to a single client (one-entry
    /// authenticator under the client-replica pair key).
    pub fn mac_envelope_for_client(&self, client: ClientId, payload: impl Into<Bytes>) -> Envelope {
        self.envelope(Scheme::Client(client), payload)
    }

    /// Wraps encoded bytes with this replica's signature.
    pub fn signed_envelope(&self, payload: impl Into<Bytes>) -> Envelope {
        self.envelope(Scheme::Signed, payload)
    }

    /// Verifies an incoming envelope at this receiver.
    ///
    /// Returns true when the authenticator entry (or signature) verifies
    /// under the claimed sender's key material.
    pub fn verify(&self, envelope: &Envelope) -> bool {
        match (&envelope.auth, envelope.sender, self.me) {
            (AuthProof::Macs(a), sender, Peer::Replica(me)) => {
                let key = match sender {
                    Peer::Replica(s) => self.provisioner.replica_pair(s, me),
                    Peer::Client(c) => self.provisioner.client_pair(c, me),
                };
                a.verify(me.0 as usize, &key, &envelope.payload)
            }
            (AuthProof::Macs(a), Peer::Replica(s), Peer::Client(me)) => {
                // reply addressed to this client: single-entry authenticator
                let key = self.provisioner.client_pair(me, s);
                a.verify(0, &key, &envelope.payload)
            }
            (AuthProof::Macs(_), Peer::Client(_), Peer::Client(_)) => false,
            (AuthProof::Signature(sig), Peer::Replica(s), _) => self
                .verifying
                .get(&s)
                .is_some_and(|vk| vk.verify(&envelope.payload, sig)),
            (AuthProof::Signature(_), Peer::Client(_), _) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provisioner() -> KeyProvisioner {
        KeyProvisioner::new([7u8; 32])
    }

    #[test]
    fn replica_pairs_are_symmetric() {
        let p = provisioner();
        assert_eq!(
            p.replica_pair(ReplicaId(1), ReplicaId(3)),
            p.replica_pair(ReplicaId(3), ReplicaId(1))
        );
        assert_ne!(
            p.replica_pair(ReplicaId(1), ReplicaId(3)),
            p.replica_pair(ReplicaId(1), ReplicaId(2))
        );
    }

    #[test]
    fn replica_to_replica_mac_verifies() {
        let p = provisioner();
        let sender = AuthContext::for_replica(p.clone(), ReplicaId(0), 4);
        let receiver = AuthContext::for_replica(p, ReplicaId(2), 4);
        let env = sender.mac_envelope(vec![1, 2, 3]);
        assert!(receiver.verify(&env));
    }

    #[test]
    fn tampered_payload_fails_mac() {
        let p = provisioner();
        let sender = AuthContext::for_replica(p.clone(), ReplicaId(0), 4);
        let receiver = AuthContext::for_replica(p, ReplicaId(2), 4);
        let mut env = sender.mac_envelope(vec![1, 2, 3]);
        // the payload is immutable: tamper with a rebuilt copy
        let mut tampered = env.payload.to_vec();
        tampered[0] ^= 1;
        env.payload = tampered.into();
        assert!(!receiver.verify(&env));
    }

    #[test]
    fn impersonation_fails_mac() {
        let p = provisioner();
        let sender = AuthContext::for_replica(p.clone(), ReplicaId(0), 4);
        let receiver = AuthContext::for_replica(p, ReplicaId(2), 4);
        let mut env = sender.mac_envelope(vec![1, 2, 3]);
        env.sender = Peer::Replica(ReplicaId(1)); // claim to be replica 1
        assert!(!receiver.verify(&env));
    }

    #[test]
    fn client_request_verifies_at_each_replica() {
        let p = provisioner();
        let client = AuthContext::for_client(p.clone(), ClientId(42), 4);
        let env = client.mac_envelope(vec![9]);
        for i in 0..4 {
            let r = AuthContext::for_replica(p.clone(), ReplicaId(i), 4);
            assert!(r.verify(&env), "replica {i}");
        }
    }

    #[test]
    fn reply_to_client_verifies_only_at_that_client() {
        let p = provisioner();
        let replica = AuthContext::for_replica(p.clone(), ReplicaId(1), 4);
        let env = replica.mac_envelope_for_client(ClientId(42), vec![5]);
        let right = AuthContext::for_client(p.clone(), ClientId(42), 4);
        let wrong = AuthContext::for_client(p, ClientId(43), 4);
        assert!(right.verify(&env));
        assert!(!wrong.verify(&env));
    }

    #[test]
    fn signed_envelope_verifies_and_rejects_tampering() {
        let p = provisioner();
        let sender = AuthContext::for_replica(p.clone(), ReplicaId(3), 4);
        let receiver = AuthContext::for_replica(p, ReplicaId(0), 4);
        let env = sender.signed_envelope(vec![1, 1, 2, 3, 5]);
        assert!(receiver.verify(&env));
        let mut bad = env.clone();
        let mut extended = bad.payload.to_vec();
        extended.push(0);
        bad.payload = extended.into();
        assert!(!receiver.verify(&bad));
        let mut forged = env;
        forged.sender = Peer::Replica(ReplicaId(1));
        assert!(!receiver.verify(&forged));
    }

    #[test]
    fn client_cannot_sign() {
        let p = provisioner();
        let client = AuthContext::for_client(p.clone(), ClientId(1), 4);
        let receiver = AuthContext::for_replica(p, ReplicaId(0), 4);
        let env = client.signed_envelope(vec![1]);
        assert!(!receiver.verify(&env), "client signatures are not trusted");
    }

    #[test]
    fn envelope_bytes_round_trip() {
        let p = provisioner();
        let sender = AuthContext::for_replica(p.clone(), ReplicaId(0), 4);
        for env in [
            sender.mac_envelope(vec![1, 2]),
            sender.signed_envelope(vec![3]),
            AuthContext::for_client(p, ClientId(5), 4).mac_envelope(vec![4]),
        ] {
            assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
        }
    }

    #[test]
    fn malformed_envelope_rejected() {
        assert!(Envelope::decode(&[]).is_err());
        assert!(Envelope::decode(&[9]).is_err());
        let p = provisioner();
        let env = AuthContext::for_replica(p, ReplicaId(0), 4).mac_envelope(vec![1]);
        let bytes = env.encode();
        assert!(Envelope::decode(&bytes[..bytes.len() - 1]).is_err());
    }
}
