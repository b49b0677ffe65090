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

use std::collections::BTreeMap;

use itdos_crypto::keys::SymmetricKey;
use itdos_crypto::mac::Authenticator;
use itdos_crypto::sign::{Signature, SigningKey, VerifyingKey};

use crate::config::{ClientId, ReplicaId};
use crate::message::Message;
use crate::wire::{Reader, Wire, WireError, Writer};
use xbytes::{wire_enum, wire_frame, wire_struct, Bytes};

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
wire_struct!(Envelope {
    sender,
    payload,
    auth
});
wire_frame!(Envelope);

impl Envelope {
    /// Decodes a received envelope and the message it carries, both
    /// reading `frame` in place: what [`AuthContext::verify`] checks and,
    /// once it has, what the receiver acts on. Both decoders run before
    /// authentication, on bytes anyone can send (`decode_fuzz.rs` drives
    /// them with hostile input).
    ///
    /// # Errors
    ///
    /// [`WireError`] when either layer is malformed.
    pub fn open(frame: &Bytes) -> Result<(Envelope, Message), WireError> {
        let envelope = Envelope::decode_shared(frame)?;
        let message = Message::decode_shared(&envelope.payload)?;
        Ok((envelope, message))
    }
}

/// How an outgoing message is authenticated: MACs for every replica (or
/// the one MAC `Some(client)` reads), or the sender's signature.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    Macs(Option<ClientId>),
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

    /// The pairwise keys of a MAC authenticator: one per replica, or the
    /// one shared with `client` — each derived as its tag is computed.
    fn mac_keys(
        &self,
        client: Option<ClientId>,
    ) -> impl ExactSizeIterator<Item = SymmetricKey> + '_ {
        let count = if client.is_some() { 1 } else { self.n as u32 };
        (0..count).map(move |i| match client {
            None => self.pair_with_replica(ReplicaId(i)),
            Some(client) => {
                let Peer::Replica(me) = self.me else {
                    // itdos-lint: allow(panic-freedom) -- guards our own identity (a local construction invariant), never attacker input; clients are wired without this path
                    panic!("only replicas address clients");
                };
                self.provisioner.client_pair(client, me)
            }
        })
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
            (
                None,
                Message::ViewChange(_)
                | Message::NewView(_)
                | Message::Checkpoint(_)
                | Message::StateData(_),
            ) => Scheme::Signed,
            (client, _) => Scheme::Macs(client),
        };
        self.put_envelope_as(w, message, scheme)
    }

    /// [`Envelope`]'s layout, written in place: the sender, the message as
    /// the length-prefixed payload, then the proof made over it where it
    /// lies — its signature, or each MAC tag over
    /// [`Message::mac_digest`], written straight into `w`.
    fn put_envelope_as(&self, w: &mut Writer, message: &Message, scheme: Scheme) -> &'static str {
        self.me.put(w);
        let payload = w.framed(|w| message.put(w));
        match scheme {
            Scheme::Signed => {
                let proof = AuthProof::Signature(self.signing.sign(payload));
                proof.put(w);
                proof.kind()
            }
            Scheme::Macs(client) => {
                let digest = message.mac_digest(payload);
                // the head of `AuthProof::Macs` as declared above; the
                // authenticator follows, tag by tag
                w.u8(0);
                Authenticator::put_for_digest(w, self.mac_keys(client), &digest);
                "mac"
            }
        }
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

    /// `message` in an [`Envelope`] value, authenticated by `scheme`
    /// whatever its kind: byte for byte what `put_envelope_as` writes.
    fn envelope(&self, scheme: Scheme, message: &Message) -> Envelope {
        let payload = Bytes::from(message.encode());
        let auth = match scheme {
            Scheme::Signed => AuthProof::Signature(self.signing.sign(&payload)),
            Scheme::Macs(client) => AuthProof::Macs(Authenticator::for_digest(
                self.mac_keys(client),
                &message.mac_digest(&payload),
            )),
        };
        Envelope {
            sender: self.me,
            payload,
            auth,
        }
    }

    /// `message` with a MAC authenticator addressed to all replicas.
    pub fn mac_envelope(&self, message: &Message) -> Envelope {
        self.envelope(Scheme::Macs(None), message)
    }

    /// `message` addressed to a single client (one-entry authenticator
    /// under the client-replica pair key).
    pub fn mac_envelope_for_client(&self, client: ClientId, message: &Message) -> Envelope {
        self.envelope(Scheme::Macs(Some(client)), message)
    }

    /// `message` with this replica's signature.
    pub fn signed_envelope(&self, message: &Message) -> Envelope {
        self.envelope(Scheme::Signed, message)
    }

    /// Verifies an incoming envelope at this receiver; `message` is its
    /// payload decoded ([`Envelope::open`]), whose
    /// [`Message::mac_digest`] a MAC entry covers.
    ///
    /// Returns true when the authenticator entry (or signature) verifies
    /// under the claimed sender's key material.
    pub fn verify(&self, envelope: &Envelope, message: &Message) -> bool {
        let mac_digest = || message.mac_digest(&envelope.payload);
        match (&envelope.auth, envelope.sender, self.me) {
            (AuthProof::Macs(a), sender, Peer::Replica(me)) => {
                let key = match sender {
                    Peer::Replica(s) => self.provisioner.replica_pair(s, me),
                    Peer::Client(c) => self.provisioner.client_pair(c, me),
                };
                a.verify_digest(me.0 as usize, &key, &mac_digest())
            }
            (AuthProof::Macs(a), Peer::Replica(s), Peer::Client(me)) => {
                // reply addressed to this client: single-entry authenticator
                let key = self.provisioner.client_pair(me, s);
                a.verify_digest(0, &key, &mac_digest())
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

    /// One message of each MAC coverage: a request (by its digest), a
    /// pre-prepare (by its fields and batch digest), a prepare (by its
    /// bytes).
    fn messages() -> Vec<Message> {
        use crate::config::{SeqNo, View};
        use crate::message::{Batch, ClientRequest, PrePrepare, Prepare};
        let request = ClientRequest::new(ClientId(42), 7, 0, vec![1, 2, 3]);
        let batch = Batch::single(request.clone());
        vec![
            Message::Request(request),
            Message::PrePrepare(PrePrepare {
                view: View(0),
                seq: SeqNo(1),
                digest: batch.digest(),
                batch,
            }),
            Message::Prepare(Prepare {
                view: View(0),
                seq: SeqNo(1),
                digest: itdos_crypto::hash::Digest::of(b"batch"),
                replica: ReplicaId(0),
            }),
        ]
    }

    /// What a receiver does with an envelope: encode it as sent, open the
    /// frame, verify the decoded pair.
    fn accepts(receiver: &AuthContext, envelope: &Envelope) -> bool {
        Envelope::open(&Bytes::from(envelope.encode()))
            .is_ok_and(|(envelope, message)| receiver.verify(&envelope, &message))
    }

    #[test]
    fn replica_to_replica_mac_verifies() {
        let p = provisioner();
        let sender = AuthContext::for_replica(p.clone(), ReplicaId(0), 4);
        let receiver = AuthContext::for_replica(p, ReplicaId(2), 4);
        for message in messages() {
            assert!(
                accepts(&receiver, &sender.mac_envelope(&message)),
                "{message:?}"
            );
        }
    }

    #[test]
    fn tampered_payload_fails_mac() {
        let p = provisioner();
        let sender = AuthContext::for_replica(p.clone(), ReplicaId(0), 4);
        let receiver = AuthContext::for_replica(p, ReplicaId(2), 4);
        for message in messages() {
            let mut env = sender.mac_envelope(&message);
            // the payload is immutable: tamper with a rebuilt copy
            let mut tampered = env.payload.to_vec();
            *tampered.last_mut().unwrap() ^= 1;
            env.payload = tampered.into();
            assert!(!accepts(&receiver, &env), "{message:?}");
        }
    }

    #[test]
    fn impersonation_fails_mac() {
        let p = provisioner();
        let sender = AuthContext::for_replica(p.clone(), ReplicaId(0), 4);
        let receiver = AuthContext::for_replica(p, ReplicaId(2), 4);
        for message in messages() {
            let mut env = sender.mac_envelope(&message);
            env.sender = Peer::Replica(ReplicaId(1)); // claim to be replica 1
            assert!(!accepts(&receiver, &env));
        }
    }

    #[test]
    fn client_request_verifies_at_each_replica() {
        let p = provisioner();
        let client = AuthContext::for_client(p.clone(), ClientId(42), 4);
        let env = client.mac_envelope(&messages()[0]);
        for i in 0..4 {
            let r = AuthContext::for_replica(p.clone(), ReplicaId(i), 4);
            assert!(accepts(&r, &env), "replica {i}");
        }
    }

    #[test]
    fn reply_to_client_verifies_only_at_that_client() {
        let p = provisioner();
        let replica = AuthContext::for_replica(p.clone(), ReplicaId(1), 4);
        let env = replica.mac_envelope_for_client(ClientId(42), &messages()[2]);
        let right = AuthContext::for_client(p.clone(), ClientId(42), 4);
        let wrong = AuthContext::for_client(p, ClientId(43), 4);
        assert!(accepts(&right, &env));
        assert!(!accepts(&wrong, &env));
    }

    #[test]
    fn signed_envelope_verifies_and_rejects_tampering() {
        let p = provisioner();
        let sender = AuthContext::for_replica(p.clone(), ReplicaId(3), 4);
        let receiver = AuthContext::for_replica(p, ReplicaId(0), 4);
        let env = sender.signed_envelope(&messages()[2]);
        assert!(accepts(&receiver, &env));
        let mut bad = env.clone();
        bad.payload = sender.signed_envelope(&messages()[0]).payload;
        assert!(!accepts(&receiver, &bad));
        let mut forged = env;
        forged.sender = Peer::Replica(ReplicaId(1));
        assert!(!accepts(&receiver, &forged));
    }

    #[test]
    fn client_cannot_sign() {
        let p = provisioner();
        let client = AuthContext::for_client(p.clone(), ClientId(1), 4);
        let receiver = AuthContext::for_replica(p, ReplicaId(0), 4);
        let env = client.signed_envelope(&messages()[0]);
        assert!(
            !accepts(&receiver, &env),
            "client signatures are not trusted"
        );
    }

    /// The `Envelope` value the layered constructors build is, byte for
    /// byte, what `put_envelope` writes in place for the same scheme.
    #[test]
    fn layered_envelopes_equal_the_frames_written_in_place() {
        let p = provisioner();
        let sender = AuthContext::for_replica(p, ReplicaId(1), 4);
        for message in messages() {
            let frame = |client| Envelope::decode(&sender.frame(&message, client)).unwrap();
            assert_eq!(frame(None), sender.mac_envelope(&message));
            let client = ClientId(42);
            assert_eq!(
                frame(Some(client)),
                sender.mac_envelope_for_client(client, &message)
            );
        }
    }

    #[test]
    fn envelope_bytes_round_trip() {
        let p = provisioner();
        let sender = AuthContext::for_replica(p.clone(), ReplicaId(0), 4);
        let [request, pre_prepare, prepare] = <[Message; 3]>::try_from(messages()).unwrap();
        for env in [
            sender.mac_envelope(&pre_prepare),
            sender.signed_envelope(&prepare),
            AuthContext::for_client(p, ClientId(5), 4).mac_envelope(&request),
        ] {
            assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
        }
    }

    #[test]
    fn malformed_envelope_rejected() {
        assert!(Envelope::decode(&[]).is_err());
        assert!(Envelope::decode(&[9]).is_err());
        let p = provisioner();
        let env = AuthContext::for_replica(p, ReplicaId(0), 4).mac_envelope(&messages()[2]);
        let bytes = env.encode();
        assert!(Envelope::decode(&bytes[..bytes.len() - 1]).is_err());
    }
}
