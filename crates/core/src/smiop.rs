//! The SMIOP endpoint (Figure 2's "ITDOS sockets"), shared by the singleton
//! client and the server element.
//!
//! A [`Smiop`] holds what every endpoint on a virtual connection needs: the
//! connection table (one keyed [`ConnState`] per connection, assembled from
//! the Group Manager's key shares), the endpoint's signing identity and
//! sequence, and the two directions of the frame path — sign then seal
//! ([`Smiop::seal`]) and open then verify then decode ([`Smiop::open`]).
//!
//! Opening enforces the **side rule**. Both sides of a connection hold its
//! key, so the key alone does not say who spoke: a `Request` frame is
//! accepted only from the connection's client side (the singleton itself,
//! or an element of the client domain) and a `Reply` only from an element
//! of the server domain. Senders are compared by endpoint code, never by
//! vote-sender id, which maps singleton `n` and element `n` alike.
//!
//! [`Attestations`] is §3.5's rule for Group Manager notices: act once
//! `f_gm + 1` distinct GM elements sealed the same plaintext, so at least
//! one correct GM element vouches for it.

use std::collections::{BTreeMap, BTreeSet};

use itdos_crypto::hash::Digest;
use itdos_crypto::keys::CommunicationKey;
use itdos_crypto::sign::{SigningKey, VerifyingKey};
use itdos_crypto::symmetric::{open, SealKey};
use itdos_giop::giop::{decode_message, GiopMessage};
use itdos_groupmgr::manager::ConnectionId;
use itdos_groupmgr::membership::DomainId;
use itdos_obs::{Label, LabelValue, Obs};
use itdos_vote::detector::SignedReply;
use itdos_vote::vote::SenderId;
use simnet::NodeId;

use crate::codes::{element_code, vote_sender};
use crate::cost::account;
use crate::fabric::Fabric;
use crate::keying::ShareBank;
use crate::wire::{
    AdmitNoticeMsg, ConnectionMeta, DirectReplyMsg, FrameKind, KeyShareMsg, SmiopFrame,
};

/// The nonce of every sealed message, SMIOP frames and the Group Manager's
/// pairwise sends alike: the first 16 bytes of the hash of `parts`, whose
/// first part is the caller's domain-separation tag.
pub(crate) fn nonce(parts: &[&[u8]]) -> [u8; 16] {
    let d = Digest::of_parts(parts);
    d.0[..16].try_into().expect("16 bytes")
}

/// One keyed connection.
struct ConnState {
    meta: ConnectionMeta,
    /// The communication key, prepared once when the connection is keyed.
    key: SealKey,
    /// The id of the next request sent on this connection; a rekey keeps it.
    next_request_id: u64,
}

/// Why [`Smiop::open`] returned no frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unopened {
    /// The connection is not keyed here yet, or the frame is from a newer
    /// epoch: it may open once that key arrives.
    Early,
    /// The frame never opens here.
    Refused,
}

/// One endpoint's SMIOP layer.
pub(crate) struct Smiop {
    code: u64,
    signing: SigningKey,
    sequence: u64,
    /// Keyed connections sorted by id. A client holds one, an element one
    /// per client, so the first is given one slot and later ones double.
    conns: Vec<ConnState>,
    shares: ShareBank,
    obs: Obs,
    /// The owner's label on its `crypto.seal` and `crypto.open` counts.
    label: Label,
}

impl Smiop {
    /// The endpoint with code `code`, labelling its crypto costs `label`.
    pub(crate) fn new(fabric: &Fabric, code: u64, label: Label) -> Smiop {
        Smiop {
            code,
            signing: fabric.signing_key_code(code),
            sequence: 0,
            conns: Vec::new(),
            shares: ShareBank::default(),
            obs: Obs::disabled(),
            label,
        }
    }

    /// Installs an instrumentation sink.
    pub(crate) fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Keyed connections.
    pub(crate) fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// The first keyed connection whose metadata satisfies `pred`.
    pub(crate) fn find(&self, pred: impl Fn(&ConnectionMeta) -> bool) -> Option<ConnectionMeta> {
        self.conns.iter().map(|c| c.meta).find(pred)
    }

    /// Assigns the next request id on `connection`.
    pub(crate) fn next_request(
        &mut self,
        connection: ConnectionId,
    ) -> Option<(ConnectionMeta, u64)> {
        let conn = self.conn_mut(connection)?;
        let request_id = conn.next_request_id;
        conn.next_request_id += 1;
        Some((conn.meta, request_id))
    }

    /// Offers one Group Manager key share. Returns the connection it keyed
    /// when it completed a key this endpoint installed.
    pub(crate) fn offer_share(
        &mut self,
        fabric: &Fabric,
        msg: &KeyShareMsg,
    ) -> Option<ConnectionMeta> {
        let (meta, CommunicationKey(key)) = self.shares.offer(fabric, self.code, &self.obs, msg)?;
        self.install(meta, SealKey::new(&key)).then_some(meta)
    }

    fn conn(&self, connection: ConnectionId) -> Option<&ConnState> {
        let i = self.position(connection).ok()?;
        self.conns.get(i)
    }

    fn conn_mut(&mut self, connection: ConnectionId) -> Option<&mut ConnState> {
        let i = self.position(connection).ok()?;
        self.conns.get_mut(i)
    }

    fn position(&self, connection: ConnectionId) -> Result<usize, usize> {
        self.conns
            .binary_search_by_key(&connection, |c| c.meta.connection)
    }

    /// Keys `meta`'s connection with `key` unless it already holds a newer
    /// epoch; a rekey keeps the connection's request ids running.
    fn install(&mut self, meta: ConnectionMeta, key: SealKey) -> bool {
        let at = self.position(meta.connection);
        let next_request_id = match at.ok().and_then(|i| self.conns.get(i)) {
            Some(c) if meta.epoch < c.meta.epoch => return false,
            Some(c) => c.next_request_id,
            None => 1,
        };
        let conn = ConnState {
            meta,
            key,
            next_request_id,
        };
        match at {
            Ok(i) => self.conns[i] = conn,
            Err(i) => {
                if self.conns.capacity() == 0 {
                    self.conns.reserve_exact(1);
                }
                self.conns.insert(i, conn);
            }
        }
        true
    }

    /// Signs `giop` as this endpoint and seals it under `connection`'s
    /// current key as the `kind` frame of `request_id`. Returns the frame
    /// with the metadata it was sealed under.
    pub(crate) fn seal(
        &mut self,
        connection: ConnectionId,
        kind: FrameKind,
        request_id: u64,
        giop: Vec<u8>,
    ) -> Option<(ConnectionMeta, SmiopFrame)> {
        let conn = self.conn(connection)?;
        let (meta, key) = (conn.meta, conn.key);
        let kind_name = match kind {
            FrameKind::Request => "request",
            FrameKind::Reply => "reply",
        };
        account(
            &self.obs,
            "giop.encode",
            "giop.encode_bytes",
            &[("kind", LabelValue::Str(kind_name))],
            giop.len(),
        );
        self.sequence += 1;
        let sequence = self.sequence;
        let signed = SignedReply::sign(&self.signing, vote_sender(self.code), sequence, giop);
        let nonce = nonce(&[
            b"itdos-nonce",
            &self.code.to_le_bytes(),
            &meta.connection.0.to_le_bytes(),
            &meta.epoch.to_le_bytes(),
            &request_id.to_le_bytes(),
            &sequence.to_le_bytes(),
        ]);
        let sealed = key.seal(nonce, &signed.frame);
        account(
            &self.obs,
            "crypto.seal",
            "crypto.seal_bytes",
            &[self.label],
            sealed.len(),
        );
        let frame = SmiopFrame {
            connection: meta.connection,
            epoch: meta.epoch,
            kind,
            sender_code: self.code,
            request_id,
            sequence,
            sealed,
            signature: signed.signature,
        };
        Some((meta, frame))
    }

    /// Opens `frame`: it must be for a keyed connection at its current
    /// epoch, from a sender on the side that may send its kind, seal under
    /// the connection's key, carry its sender's signature, and decode to a
    /// GIOP message of its kind. Returns the connection, the GIOP bytes
    /// with their verified signature, and the message.
    pub(crate) fn open(
        &self,
        fabric: &Fabric,
        frame: &SmiopFrame,
    ) -> Result<(ConnectionMeta, SignedReply, GiopMessage), Unopened> {
        let conn = self.conn(frame.connection).ok_or(Unopened::Early)?;
        if frame.epoch != conn.meta.epoch {
            // an older epoch's sender was keyed out (§3.5 expulsion)
            return Err(if frame.epoch > conn.meta.epoch {
                Unopened::Early
            } else {
                Unopened::Refused
            });
        }
        if !may_send(fabric, &conn.meta, frame.kind, frame.sender_code) {
            return Err(Unopened::Refused);
        }
        let giop = conn
            .key
            .open(&frame.sealed)
            .map_err(|_| Unopened::Refused)?;
        account(
            &self.obs,
            "crypto.open",
            "crypto.open_bytes",
            &[self.label],
            frame.sealed.len(),
        );
        let signed = SignedReply {
            sender: vote_sender(frame.sender_code),
            sequence: frame.sequence,
            frame: giop,
            signature: frame.signature,
        };
        if !signed.verify(&fabric.verifying_key_code(frame.sender_code)) {
            return Err(Unopened::Refused);
        }
        let message =
            decode_message(&signed.frame, fabric.repo()).map_err(|_| Unopened::Refused)?;
        if !matches!(
            (frame.kind, &message),
            (FrameKind::Request, GiopMessage::Request(_))
                | (FrameKind::Reply, GiopMessage::Reply(_))
        ) {
            return Err(Unopened::Refused);
        }
        account(
            &self.obs,
            "giop.decode",
            "giop.decode_bytes",
            &[("kind", LabelValue::Str(message.kind_name()))],
            signed.frame.len(),
        );
        Ok((conn.meta, signed, message))
    }
}

/// The side rule: whether endpoint `sender` may send `kind` frames on
/// `meta`'s connection, as this endpoint's fabric knows the domains.
fn may_send(fabric: &Fabric, meta: &ConnectionMeta, kind: FrameKind, sender: u64) -> bool {
    let side = match (kind, meta.client_domain) {
        (FrameKind::Request, None) => return sender == meta.client_code,
        (FrameKind::Request, Some(client_domain)) => client_domain,
        (FrameKind::Reply, _) => meta.server_domain,
    };
    is_element_of(fabric, side, sender)
}

fn is_element_of(fabric: &Fabric, domain: DomainId, code: u64) -> bool {
    fabric
        .get(domain)
        .is_some_and(|d| d.elements.iter().any(|&e| element_code(e) == code))
}

/// A server element's reply to a singleton client is its `Reply` frame
/// without the fields the client does not need.
impl From<SmiopFrame> for DirectReplyMsg {
    fn from(frame: SmiopFrame) -> DirectReplyMsg {
        DirectReplyMsg {
            connection: frame.connection,
            epoch: frame.epoch,
            sender: vote_sender(frame.sender_code),
            sequence: frame.sequence,
            sealed: frame.sealed,
            signature: frame.signature,
        }
    }
}

/// The `Reply` frame a direct reply was cut from; its request id travels
/// inside the sealed GIOP reply, so the frame's is left 0.
impl From<DirectReplyMsg> for SmiopFrame {
    fn from(msg: DirectReplyMsg) -> SmiopFrame {
        SmiopFrame {
            connection: msg.connection,
            epoch: msg.epoch,
            kind: FrameKind::Reply,
            sender_code: element_code(msg.sender),
            request_id: 0,
            sequence: msg.sequence,
            sealed: msg.sealed,
            signature: msg.signature,
        }
    }
}

/// One recipient's count of Group Manager notices of one kind, keyed by
/// what each notice is about.
pub(crate) struct Attestations<K> {
    /// The recipient's endpoint code (one end of each pairwise channel).
    me: u64,
    votes: BTreeMap<K, BTreeSet<u64>>,
    fired: BTreeSet<K>,
}

impl<K: Ord + Copy> Attestations<K> {
    /// An empty count at endpoint `me`.
    pub(crate) fn new(me: u64) -> Attestations<K> {
        Attestations {
            me,
            votes: BTreeMap::new(),
            fired: BTreeSet::new(),
        }
    }

    /// Counts GM element `gm`'s notice about `key` when `sealed` opens on
    /// their pairwise channel to `expect`. True exactly once per key: when
    /// the `f_gm + 1`-th distinct GM element attests it.
    pub(crate) fn attest(
        &mut self,
        fabric: &Fabric,
        gm: u64,
        sealed: &[u8],
        expect: &[u8],
        key: K,
    ) -> bool {
        if !is_element_of(fabric, fabric.gm_domain(), gm) {
            return false;
        }
        let Ok(plain) = open(&fabric.pairwise(gm, self.me), sealed) else {
            return false;
        };
        if plain != expect {
            return false;
        }
        let votes = self.votes.entry(key).or_default();
        votes.insert(gm);
        votes.len() > fabric.domain(fabric.gm_domain()).f && self.fired.insert(key)
    }
}

impl Attestations<(SenderId, u64)> {
    /// Counts one admission notice, keyed by (admitted, epoch). At its
    /// `f_gm + 1`-th GM element the GM group really ordered the admission:
    /// applies it to `fabric` and returns true.
    pub(crate) fn admit(&mut self, fabric: &mut Fabric, msg: &AdmitNoticeMsg) -> bool {
        let expect = admit_notice_plaintext(
            msg.domain,
            msg.admitted,
            msg.replaced,
            msg.slot,
            msg.node,
            msg.epoch,
            &msg.verifying_key,
        );
        let key = (msg.admitted, msg.epoch);
        if !self.attest(fabric, msg.gm_code, &msg.sealed, &expect, key) {
            return false;
        }
        let node = NodeId::from_raw(msg.node as u32);
        fabric.apply_admission(
            msg.domain,
            msg.admitted,
            msg.replaced,
            msg.slot as usize,
            node,
        );
        true
    }
}

/// Canonical plaintext of an expulsion (or retirement) notice, sealed
/// pairwise per GM element → recipient.
pub(crate) fn notice_plaintext(domain: DomainId, expelled: SenderId) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(b"expel");
    out.extend_from_slice(&domain.0.to_le_bytes());
    out.extend_from_slice(&expelled.0.to_le_bytes());
    out
}

/// Canonical plaintext of an admission notice (sealed pairwise per GM
/// element → recipient). Binds every roster-relevant field so a byzantine
/// GM element cannot splice values between admissions.
pub(crate) fn admit_notice_plaintext(
    domain: DomainId,
    admitted: SenderId,
    replaced: SenderId,
    slot: u32,
    node: u64,
    epoch: u64,
    verifying_key: &VerifyingKey,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    out.extend_from_slice(b"admit");
    out.extend_from_slice(&domain.0.to_le_bytes());
    out.extend_from_slice(&admitted.0.to_le_bytes());
    out.extend_from_slice(&replaced.0.to_le_bytes());
    out.extend_from_slice(&slot.to_le_bytes());
    out.extend_from_slice(&node.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&verifying_key.to_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdos_crypto::keys::SymmetricKey;
    use itdos_crypto::symmetric::seal;
    use itdos_giop::cdr::Endianness;
    use itdos_giop::giop::{encode_message, ReplyBody, ReplyMessage, RequestMessage};
    use itdos_giop::idl::{InterfaceDef, OperationDef};
    use itdos_giop::types::{TypeDesc, Value};

    const SERVER: DomainId = DomainId(1);
    const CLIENT_DOMAIN: DomainId = DomainId(2);
    /// The test fabric's singleton client.
    const CLIENT: u64 = 9;

    /// The shared test fabric (server domain 1, which also stands in for
    /// the Group Manager, and singleton 9) plus client domain 2 of
    /// elements 4–7 and a `Counter` interface.
    fn fabric() -> Fabric {
        let mut repo = itdos_giop::idl::InterfaceRepository::new();
        repo.register(
            InterfaceDef::new("Counter").with_operation(OperationDef::new(
                "add",
                vec![("delta".into(), TypeDesc::Long)],
                TypeDesc::Long,
            )),
        );
        let client_domain = crate::fabric::DomainSpec {
            id: CLIENT_DOMAIN,
            elements: (4..8).map(SenderId).collect(),
            ..crate::fabric::tests::domain_spec()
        };
        crate::fabric::tests::fabric_with(repo, vec![client_domain])
    }

    fn element(id: u32) -> u64 {
        element_code(SenderId(id))
    }

    /// Singleton 9's connection to the server domain at `epoch`.
    fn singleton(epoch: u32) -> ConnectionMeta {
        ConnectionMeta {
            connection: ConnectionId(3),
            epoch,
            client_code: CLIENT,
            client_domain: None,
            server_domain: SERVER,
        }
    }

    /// Client domain 2's connection to the server domain, opened by its
    /// element 4.
    fn nested() -> ConnectionMeta {
        ConnectionMeta {
            connection: ConnectionId(4),
            epoch: 0,
            client_code: element(4),
            client_domain: Some(CLIENT_DOMAIN),
            server_domain: SERVER,
        }
    }

    fn key(seed: u8) -> SealKey {
        SealKey::new(&SymmetricKey::from_bytes([seed; 32]))
    }

    /// Endpoint `code`, keyed on `meta` with key `seed`.
    fn endpoint(f: &Fabric, code: u64, meta: ConnectionMeta, seed: u8) -> Smiop {
        let mut endpoint = Smiop::new(f, code, ("endpoint", LabelValue::U64(code)));
        assert!(endpoint.install(meta, key(seed)));
        endpoint
    }

    fn giop(message: GiopMessage, f: &Fabric) -> Vec<u8> {
        encode_message(&message, f.repo(), Endianness::Little).expect("matches the repository")
    }

    fn request(f: &Fabric, request_id: u64) -> Vec<u8> {
        let request = RequestMessage {
            request_id,
            trace: 0,
            response_expected: true,
            object_key: b"counter".to_vec(),
            interface: "Counter".into(),
            operation: "add".into(),
            args: vec![Value::Long(5)],
        };
        giop(GiopMessage::Request(request), f)
    }

    fn reply(f: &Fabric, request_id: u64) -> Vec<u8> {
        let reply = ReplyMessage {
            request_id,
            interface: "Counter".into(),
            operation: "add".into(),
            body: ReplyBody::Result(Value::Long(5)),
        };
        giop(GiopMessage::Reply(reply), f)
    }

    /// `sender` keyed on `meta` seals `kind` frame 1 of it.
    fn frame(f: &Fabric, sender: u64, meta: ConnectionMeta, kind: FrameKind) -> SmiopFrame {
        let giop = match kind {
            FrameKind::Request => request(f, 1),
            FrameKind::Reply => reply(f, 1),
        };
        let mut endpoint = endpoint(f, sender, meta, 1);
        let (sealed_under, frame) = endpoint.seal(meta.connection, kind, 1, giop).unwrap();
        assert_eq!(sealed_under, meta);
        frame
    }

    #[test]
    fn seal_then_open_across_two_endpoints_returns_the_signed_frame() {
        let f = fabric();
        let meta = singleton(0);
        let mut client = endpoint(&f, CLIENT, meta, 1);
        let mut server = endpoint(&f, element(2), meta, 1);

        let (_, request_id) = client.next_request(meta.connection).unwrap();
        let sent = request(&f, request_id);
        let (_, frame) = client
            .seal(
                meta.connection,
                FrameKind::Request,
                request_id,
                sent.clone(),
            )
            .unwrap();
        assert_eq!((frame.sender_code, frame.request_id), (CLIENT, 1));
        let (opened_on, signed, message) = server.open(&f, &frame).unwrap();
        assert_eq!(opened_on, meta);
        assert_eq!(
            (signed.sender, signed.sequence),
            (vote_sender(CLIENT), frame.sequence)
        );
        assert_eq!(signed.frame, sent);
        assert!(signed.verify(&f.verifying_key_code(CLIENT)));
        assert!(matches!(message, GiopMessage::Request(r) if r.request_id == 1));

        // the element's reply reaches the singleton as a direct reply
        let answer = reply(&f, request_id);
        let (_, frame) = server
            .seal(
                meta.connection,
                FrameKind::Reply,
                request_id,
                answer.clone(),
            )
            .unwrap();
        let direct = DirectReplyMsg::from(frame);
        assert_eq!(direct.sender, SenderId(2));
        let (_, signed, message) = client.open(&f, &SmiopFrame::from(direct)).unwrap();
        assert_eq!(signed.sender, SenderId(2));
        assert_eq!(signed.frame, answer);
        assert!(matches!(message, GiopMessage::Reply(r) if r.request_id == 1));

        // each endpoint signs under its own running sequence
        let (_, next) = client
            .seal(meta.connection, FrameKind::Request, 2, request(&f, 2))
            .unwrap();
        assert_eq!(next.sequence, 2);
    }

    #[test]
    fn open_refuses_a_frame_it_cannot_trust() {
        let f = fabric();
        let sent = frame(&f, CLIENT, singleton(0), FrameKind::Request);
        let at = |meta, seed| endpoint(&f, element(0), meta, seed).open(&f, &sent);
        assert!(at(singleton(0), 1).is_ok());

        // another epoch: an older frame is refused, a newer one waits
        assert_eq!(at(singleton(1), 1).unwrap_err(), Unopened::Refused);
        let ahead = frame(&f, CLIENT, singleton(1), FrameKind::Request);
        let receiver = endpoint(&f, element(0), singleton(0), 1);
        assert_eq!(receiver.open(&f, &ahead).unwrap_err(), Unopened::Early);
        let unkeyed = Smiop::new(&f, element(0), ("endpoint", LabelValue::U64(0)));
        assert_eq!(unkeyed.open(&f, &sent).unwrap_err(), Unopened::Early);

        // another key
        assert_eq!(at(singleton(0), 2).unwrap_err(), Unopened::Refused);

        // any flipped bit of nonce, ciphertext or tag
        for bit in 0..sent.sealed.len() * 8 {
            let mut flipped = sent.clone();
            flipped.sealed[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                receiver.open(&f, &flipped).unwrap_err(),
                Unopened::Refused,
                "bit {bit}"
            );
        }

        // a signature by another sender: element 2's reply claimed by 3
        let mut claimed = frame(&f, element(2), singleton(0), FrameKind::Reply);
        let client = endpoint(&f, CLIENT, singleton(0), 1);
        assert!(client.open(&f, &claimed).is_ok());
        claimed.sender_code = element(3);
        assert_eq!(client.open(&f, &claimed).unwrap_err(), Unopened::Refused);
    }

    /// Both sides hold a connection's key; only the side that may send a
    /// kind is heard on it, by endpoint code.
    #[test]
    fn open_refuses_a_sender_on_the_wrong_side() {
        let f = fabric();
        let heard = |sender, meta: ConnectionMeta, kind| {
            let frame = frame(&f, sender, meta, kind);
            endpoint(&f, element(0), meta, 1).open(&f, &frame).is_ok()
        };
        // singleton connection: requests from the singleton itself only;
        // element 9 shares its vote-sender id but not its code
        assert!(heard(CLIENT, singleton(0), FrameKind::Request));
        assert_eq!(vote_sender(element(9)), vote_sender(CLIENT));
        for sender in [element(3), element(9), 8] {
            assert!(!heard(sender, singleton(0), FrameKind::Request));
        }
        // domain connection: requests from the client domain's elements
        assert!(heard(element(4), nested(), FrameKind::Request));
        assert!(heard(element(7), nested(), FrameKind::Request));
        assert!(!heard(element(3), nested(), FrameKind::Request));
        // replies only from the server domain's elements
        assert!(heard(element(3), singleton(0), FrameKind::Reply));
        assert!(heard(element(1), nested(), FrameKind::Reply));
        assert!(!heard(CLIENT, singleton(0), FrameKind::Reply));
        assert!(!heard(element(5), nested(), FrameKind::Reply));
    }

    #[test]
    fn a_rekey_keeps_request_ids_and_an_older_epoch_is_refused() {
        let f = fabric();
        let connection = singleton(0).connection;
        let mut client = endpoint(&f, CLIENT, singleton(0), 1);
        assert_eq!(client.next_request(connection), Some((singleton(0), 1)));
        assert_eq!(client.next_request(connection), Some((singleton(0), 2)));
        assert!(client.install(singleton(2), key(2)));
        assert_eq!(client.next_request(connection), Some((singleton(2), 3)));
        assert!(!client.install(singleton(1), key(1)), "older epoch");
        assert_eq!(client.find(|_| true), Some(singleton(2)));
        assert_eq!(client.next_request(connection), Some((singleton(2), 4)));
        // a frame sealed after the rekey carries the new epoch, under the new key
        let (_, frame) = client
            .seal(connection, FrameKind::Request, 4, request(&f, 4))
            .unwrap();
        assert_eq!(frame.epoch, 2);
        assert!(endpoint(&f, element(0), singleton(2), 2)
            .open(&f, &frame)
            .is_ok());
        assert_eq!(client.next_request(ConnectionId(99)), None);
    }

    #[test]
    fn attestations_fire_once_at_f_gm_plus_one_distinct_gm_elements() {
        let f = fabric();
        assert_eq!(f.domain(f.gm_domain()).f, 1);
        let expelled = SenderId(3);
        let plain = notice_plaintext(SERVER, expelled);
        let notice = |gm: u64, plain: &[u8]| seal(&f.pairwise(gm, CLIENT), [gm as u8; 16], plain);
        let mut count = Attestations::new(CLIENT);
        let mut attest = |gm, sealed: Vec<u8>| count.attest(&f, gm, &sealed, &plain, expelled);
        assert!(!attest(element(0), notice(element(0), &plain)));
        // a repeated GM code, a mismatched plaintext, a seal on another
        // GM element's channel and a code outside the GM domain: none counts
        assert!(!attest(element(0), notice(element(0), &plain)));
        let other = notice_plaintext(SERVER, SenderId(2));
        assert!(!attest(element(1), notice(element(1), &other)));
        assert!(!attest(element(1), notice(element(2), &plain)));
        assert!(!attest(element(5), notice(element(5), &plain)));
        // the second distinct GM element fires it, and nothing fires it again
        assert!(attest(element(1), notice(element(1), &plain)));
        assert!(!attest(element(2), notice(element(2), &plain)));
        assert!(!attest(element(3), notice(element(3), &plain)));
    }
}
