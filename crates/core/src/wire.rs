//! Core wire formats: fabric-level messages, SMIOP frames, Group Manager
//! operations and directives, and fault-proof serialization.

use itdos_bft::auth::AuthContext;
use itdos_bft::config::ClientId;
use itdos_bft::message::Message;
use itdos_bft::wire::{decode_seq, encode_seq, Wire, WireError, Writer};
use itdos_crypto::sign::{Signature, VerifyingKey};
use itdos_groupmgr::manager::ConnectionId;
use itdos_groupmgr::membership::{DomainId, Endpoint};
use itdos_vote::detector::{FaultProof, MAX_PROOF_ITEMS};
use itdos_vote::vote::SenderId;
use xbytes::{wire_enum, wire_frame, wire_struct, Bytes};

/// A message traveling on the simulated network between core processes.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreMsg {
    /// A BFT protocol envelope belonging to `domain`'s group.
    Bft {
        /// Whose ordering group this envelope belongs to.
        domain: DomainId,
        /// Encoded [`itdos_bft::auth::Envelope`]; decoded from a received
        /// frame it is a slice of that frame.
        envelope: Bytes,
    },
    /// One Group Manager element's key share for a connection keying.
    KeyShare(KeyShareMsg),
    /// A reply sent directly from a server element to a singleton client.
    DirectReply(DirectReplyMsg),
    /// A Group Manager notice (e.g. expulsion), authenticated per GM
    /// element via the pairwise channel.
    Notice(NoticeMsg),
    /// A Group Manager admission notice: a fresh element replaced an
    /// expelled one; carries the roster update every endpoint applies.
    AdmitNotice(AdmitNoticeMsg),
}

/// Connection metadata carried with every key distribution so endpoints
/// can configure their voters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionMeta {
    /// Connection id.
    pub connection: ConnectionId,
    /// Keying epoch.
    pub epoch: u32,
    /// Endpoint code of the client side.
    pub client_code: u64,
    /// The client's domain when replicated.
    pub client_domain: Option<DomainId>,
    /// The serving domain.
    pub server_domain: DomainId,
}

/// One GM element's (encrypted) key share delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyShareMsg {
    /// Connection metadata.
    pub meta: ConnectionMeta,
    /// Which GM element sent this (its endpoint code).
    pub gm_code: u64,
    /// `seal(pairwise(gm, recipient), nonce, share.to_bytes())`.
    pub sealed: Vec<u8>,
}

/// A server element's reply to a singleton client.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectReplyMsg {
    /// Connection the reply belongs to.
    pub connection: ConnectionId,
    /// Keying epoch used for the seal.
    pub epoch: u32,
    /// Sending element.
    pub sender: SenderId,
    /// Per-sender signing sequence (replay protection in proofs).
    pub sequence: u64,
    /// `seal(conn_key, nonce, giop_frame)`.
    pub sealed: Vec<u8>,
    /// Signature over `(sender, sequence, giop_frame)` (the raw frame, so
    /// the client can forward it in a fault proof).
    pub signature: Signature,
}

/// Group Manager notices pushed to domain elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoticeMsg {
    /// Which GM element sent it.
    pub gm_code: u64,
    /// The affected domain.
    pub domain: DomainId,
    /// The expelled element.
    pub expelled: SenderId,
    /// `seal(pairwise(gm, recipient), nonce, notice-bytes)` — integrity tag.
    pub sealed: Vec<u8>,
}

/// A Group Manager admission notice pushed to domain elements and clients:
/// the roster update for a replacement, applied once `f_gm + 1` distinct GM
/// elements concur.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmitNoticeMsg {
    /// Which GM element sent it.
    pub gm_code: u64,
    /// The domain regaining an element.
    pub domain: DomainId,
    /// The freshly admitted element.
    pub admitted: SenderId,
    /// The expelled element it replaces.
    pub replaced: SenderId,
    /// The roster slot (replica index) being reused.
    pub slot: u32,
    /// The node the replacement runs on.
    pub node: u64,
    /// The domain's new membership epoch.
    pub epoch: u64,
    /// The replacement's verifying key, for roster updates.
    pub verifying_key: VerifyingKey,
    /// `seal(pairwise(gm, recipient), nonce, notice-bytes)` — integrity tag.
    pub sealed: Vec<u8>,
}

/// The kind of GIOP traffic inside an SMIOP frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FrameKind {
    /// A CORBA request flowing client → server domain.
    Request,
    /// A CORBA reply flowing server domain → client domain (nested
    /// invocations; singleton clients get [`DirectReplyMsg`] instead).
    Reply,
}

/// An SMIOP frame: what travels as the BFT operation payload
/// (`QueueOp::Deliver` bytes) through a domain's ordering group.
#[derive(Debug, Clone, PartialEq)]
pub struct SmiopFrame {
    /// Connection id.
    pub connection: ConnectionId,
    /// Keying epoch.
    pub epoch: u32,
    /// Request or reply.
    pub kind: FrameKind,
    /// Endpoint code of the logical sender.
    pub sender_code: u64,
    /// Per-connection request id (strictly increasing, §3.6).
    pub request_id: u64,
    /// Per-sender signing sequence.
    pub sequence: u64,
    /// `seal(conn_key, nonce, giop_frame)`.
    pub sealed: Vec<u8>,
    /// Signature over `(sender, sequence, giop_frame)`.
    pub signature: Signature,
}

/// Operations submitted to the Group Manager's ordering group.
#[derive(Debug, Clone, PartialEq)]
pub enum GmOp {
    /// Open (or reuse) a connection (Figure 3 step 1).
    Open {
        /// Requesting endpoint.
        client: Endpoint,
        /// The client's domain when replicated.
        client_domain: Option<DomainId>,
        /// Target domain.
        target: DomainId,
    },
    /// A singleton's change_request with proof (§3.6).
    ChangeProof(FaultProof),
    /// A domain element's change_request (no proof; GM votes).
    ChangeVote {
        /// Accusing element.
        accuser: SenderId,
        /// Accused element.
        accused: SenderId,
    },
    /// Close a connection.
    Close(ConnectionId),
    /// A fresh element's request to replace an expelled one (the joiner
    /// submits this as a GM client; the GM's ordering group totally orders
    /// the admission so every GM element applies it identically).
    Admit {
        /// The degraded domain to rejoin.
        domain: DomainId,
        /// The fresh element's id.
        replacement: SenderId,
        /// The expelled element whose slot it takes.
        replaced: SenderId,
        /// The node the replacement runs on.
        node: u64,
        /// The replacement's verifying key.
        verifying_key: VerifyingKey,
    },
    /// A voluntary retirement (proactive rejuvenation, no fault implied):
    /// the element leaves its domain's active roster exactly as an
    /// expulsion does — rekeys, notices, vacated slot — so a fresh
    /// replacement can take over, but the audit records it as benign.
    Retire {
        /// The element's domain.
        domain: DomainId,
        /// The element stepping down.
        element: SenderId,
    },
}

/// Directives the deterministic GM state machine emits; every GM element
/// acts on them identically (plus its private share evaluation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// Distribute key shares for a connection keying.
    KeyDist {
        /// Connection metadata for the recipients.
        meta: ConnectionMeta,
        /// The common DPRF input.
        input: [u8; 32],
        /// Recipient endpoint codes.
        recipients: Vec<u64>,
    },
    /// The request was refused (reason code for diagnostics).
    Refused(u32),
    /// An element was expelled.
    Expelled {
        /// Its domain.
        domain: DomainId,
        /// The element.
        element: SenderId,
    },
    /// A change vote was recorded but the threshold is not yet reached.
    VoteRecorded,
    /// A fresh element was admitted into an expelled slot; emitted before
    /// the rekeying [`Directive::KeyDist`]s so recipients update their
    /// rosters before new key shares arrive.
    Admitted {
        /// The domain regaining an element.
        domain: DomainId,
        /// The freshly admitted element.
        element: SenderId,
        /// The expelled element it replaces.
        replaced: SenderId,
        /// The roster slot (replica index) being reused.
        slot: u32,
        /// The node the replacement runs on.
        node: u64,
        /// The domain's new membership epoch.
        epoch: u64,
        /// The replacement's verifying key.
        verifying_key: VerifyingKey,
    },
    /// An element voluntarily retired (rejuvenation) — same roster and
    /// rekey consequences as [`Directive::Expelled`], different cause.
    Retired {
        /// Its domain.
        domain: DomainId,
        /// The element.
        element: SenderId,
    },
}

/// An out-of-band command to a server element from the in-process healing
/// controller (delivered via the simulator's external injection channel,
/// the same path clients receive their invocation commands on). These are
/// control-plane nudges: the element still goes through the GM's ordered,
/// voted paths — `Accuse` drives the normal `ChangeVote` accusation and
/// `Retire` submits a [`GmOp::Retire`] — so a command never bypasses the
/// group's f+1 thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealCmd {
    /// Accuse a domain peer (the element submits a GM `ChangeVote`).
    Accuse {
        /// The peer to accuse.
        accused: SenderId,
    },
    /// Step down for rejuvenation (the element submits a GM `Retire`).
    Retire,
}

// ------------------------------------------------------------ wire layout
//
// One declaration per type: both directions are generated from it (see
// `xbytes::wire`). `DomainId`, `ConnectionId`, `SenderId`, `Endpoint`,
// `SignedReply` and `FaultProof` are declared beside their definitions.

wire_struct!(ConnectionMeta {
    connection,
    epoch,
    client_code,
    client_domain,
    server_domain,
});
wire_struct!(KeyShareMsg {
    meta,
    gm_code,
    sealed
});
wire_struct!(DirectReplyMsg {
    connection,
    epoch,
    sender,
    sequence,
    sealed,
    signature,
});
wire_struct!(NoticeMsg {
    gm_code,
    domain,
    expelled,
    sealed
});
wire_struct!(AdmitNoticeMsg {
    gm_code,
    domain,
    admitted,
    replaced,
    slot,
    node,
    epoch,
    verifying_key,
    sealed,
});
wire_enum!(CoreMsg {
    1 => Bft { domain, envelope },
    2 => KeyShare(m),
    3 => DirectReply(m),
    4 => Notice(m),
    5 => AdmitNotice(m),
});
wire_enum!(FrameKind {
    0 => Request,
    1 => Reply,
});
wire_struct!(SmiopFrame {
    connection,
    epoch,
    kind,
    sender_code,
    request_id,
    sequence,
    sealed,
    signature,
});
wire_enum!(GmOp {
    1 => Open { client, client_domain, target },
    2 => ChangeProof(proof as framed),
    3 => ChangeVote { accuser, accused },
    4 => Close(connection),
    5 => Admit { domain, replacement, replaced, node, verifying_key },
    6 => Retire { domain, element },
});
wire_enum!(Directive {
    1 => KeyDist { meta, input, recipients <= MAX_PROOF_ITEMS },
    2 => Refused(code),
    3 => Expelled { domain, element },
    4 => VoteRecorded,
    5 => Admitted { domain, element, replaced, slot, node, epoch, verifying_key },
    6 => Retired { domain, element },
});
wire_enum!(HealCmd {
    1 => Accuse { accused },
    2 => Retire,
});
wire_frame!(CoreMsg, SmiopFrame, GmOp, HealCmd);

/// A BFT message framed for the fabric by [`bft_frame`].
#[derive(Debug)]
pub struct BftFrame {
    /// The whole `CoreMsg`, ready to send (and to fan out: clones share it).
    pub bytes: Bytes,
    /// The envelope's authentication label (`"mac"` or `"signature"`).
    pub auth: &'static str,
    /// The encoded envelope's length (what `bft.wire_*_bytes` count).
    pub envelope_len: usize,
}

/// Frames `message` into `domain`'s ordering group in one buffer — the
/// one send path for BFT traffic, byte for byte the layered
/// `CoreMsg::Bft { domain, envelope: envelope.encode() }.encode()`.
pub fn bft_frame(
    auth: &AuthContext,
    domain: DomainId,
    message: &Message,
    client: Option<ClientId>,
) -> BftFrame {
    let mut w = Writer::with_capacity(auth.frame_capacity(message));
    // the head of `CoreMsg::Bft` as declared above: its tag, then `domain`;
    // the envelope is written in place behind it
    w.u8(1);
    domain.put(&mut w);
    let mut kind = "";
    let envelope_len = w
        .framed(|w| kind = auth.put_envelope(w, message, client))
        .len();
    BftFrame {
        envelope_len,
        bytes: Bytes::from(w.finish()),
        auth: kind,
    }
}

/// Encodes a directive list (the GM state machine's execution result).
pub fn encode_directives(directives: &[Directive]) -> Vec<u8> {
    encode_seq(directives)
}

/// Decodes a directive list.
///
/// # Errors
///
/// [`WireError`] on malformed bytes or a list of more than
/// [`MAX_PROOF_ITEMS`] directives.
pub fn decode_directives(bytes: &[u8]) -> Result<Vec<Directive>, WireError> {
    decode_seq(bytes, MAX_PROOF_ITEMS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdos_bft::wire::{Wire, Writer};
    use itdos_crypto::sign::SigningKey;
    use itdos_vote::detector::SignedReply;

    fn sig() -> Signature {
        SigningKey::from_seed(b"s").sign(b"m")
    }

    fn meta() -> ConnectionMeta {
        ConnectionMeta {
            connection: ConnectionId(7),
            epoch: 2,
            client_code: 42,
            client_domain: Some(DomainId(3)),
            server_domain: DomainId(1),
        }
    }

    #[test]
    fn core_msgs_round_trip() {
        let msgs = vec![
            CoreMsg::Bft {
                domain: DomainId(1),
                envelope: vec![1, 2, 3].into(),
            },
            CoreMsg::KeyShare(KeyShareMsg {
                meta: meta(),
                gm_code: 1_000_050,
                sealed: vec![9; 60],
            }),
            CoreMsg::DirectReply(DirectReplyMsg {
                connection: ConnectionId(7),
                epoch: 0,
                sender: SenderId(3),
                sequence: 11,
                sealed: vec![8; 50],
                signature: sig(),
            }),
            CoreMsg::Notice(NoticeMsg {
                gm_code: 1_000_051,
                domain: DomainId(1),
                expelled: SenderId(3),
                sealed: vec![2; 48],
            }),
            CoreMsg::AdmitNotice(AdmitNoticeMsg {
                gm_code: 1_000_051,
                domain: DomainId(1),
                admitted: SenderId(14),
                replaced: SenderId(3),
                slot: 3,
                node: 22,
                epoch: 1,
                verifying_key: SigningKey::from_seed(b"r").verifying_key(),
                sealed: vec![6; 48],
            }),
        ];
        for m in msgs {
            assert_eq!(CoreMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn smiop_frame_round_trips() {
        for kind in [FrameKind::Request, FrameKind::Reply] {
            let f = SmiopFrame {
                connection: ConnectionId(1),
                epoch: 3,
                kind,
                sender_code: 1_000_002,
                request_id: 5,
                sequence: 77,
                sealed: vec![1, 2, 3],
                signature: sig(),
            };
            assert_eq!(SmiopFrame::decode(&f.encode()).unwrap(), f);
        }
    }

    #[test]
    fn gm_ops_round_trip() {
        let proof = FaultProof {
            accused: vec![SenderId(3)],
            request_id: 9,
            messages: vec![SignedReply {
                sender: SenderId(0),
                sequence: 1,
                frame: vec![5, 5],
                signature: sig(),
            }],
        };
        let ops = vec![
            GmOp::Open {
                client: Endpoint::Singleton(9),
                client_domain: None,
                target: DomainId(1),
            },
            GmOp::Open {
                client: Endpoint::Element(SenderId(4)),
                client_domain: Some(DomainId(2)),
                target: DomainId(1),
            },
            GmOp::ChangeProof(proof),
            GmOp::ChangeVote {
                accuser: SenderId(0),
                accused: SenderId(3),
            },
            GmOp::Close(ConnectionId(2)),
            GmOp::Admit {
                domain: DomainId(1),
                replacement: SenderId(14),
                replaced: SenderId(3),
                node: 22,
                verifying_key: SigningKey::from_seed(b"r").verifying_key(),
            },
            GmOp::Retire {
                domain: DomainId(1),
                element: SenderId(2),
            },
        ];
        for op in ops {
            assert_eq!(GmOp::decode(&op.encode()).unwrap(), op);
        }
    }

    #[test]
    fn heal_cmds_round_trip_and_reject_malformed() {
        let cmds = vec![
            HealCmd::Accuse {
                accused: SenderId(7),
            },
            HealCmd::Retire,
        ];
        for cmd in cmds {
            let bytes = cmd.encode();
            assert_eq!(HealCmd::decode(&bytes).unwrap(), cmd);
            for cut in 0..bytes.len() {
                assert!(HealCmd::decode(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            let mut garbage = bytes.clone();
            garbage.push(0);
            assert!(HealCmd::decode(&garbage).is_err(), "trailing garbage");
        }
        assert!(HealCmd::decode(&[99]).is_err(), "unknown tag");
    }

    #[test]
    fn directives_round_trip() {
        let ds = vec![
            Directive::KeyDist {
                meta: meta(),
                input: [7u8; 32],
                recipients: vec![1, 1_000_000],
            },
            Directive::Refused(2),
            Directive::Expelled {
                domain: DomainId(1),
                element: SenderId(3),
            },
            Directive::VoteRecorded,
            Directive::Admitted {
                domain: DomainId(1),
                element: SenderId(14),
                replaced: SenderId(3),
                slot: 3,
                node: 22,
                epoch: 1,
                verifying_key: SigningKey::from_seed(b"r").verifying_key(),
            },
            Directive::Retired {
                domain: DomainId(1),
                element: SenderId(2),
            },
        ];
        assert_eq!(decode_directives(&encode_directives(&ds)).unwrap(), ds);
    }

    #[test]
    fn truncated_admission_messages_rejected() {
        let full = GmOp::Admit {
            domain: DomainId(1),
            replacement: SenderId(14),
            replaced: SenderId(3),
            node: 22,
            verifying_key: SigningKey::from_seed(b"r").verifying_key(),
        }
        .encode();
        for cut in 1..full.len() {
            assert!(GmOp::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
        let notice = CoreMsg::AdmitNotice(AdmitNoticeMsg {
            gm_code: 1_000_051,
            domain: DomainId(1),
            admitted: SenderId(14),
            replaced: SenderId(3),
            slot: 3,
            node: 22,
            epoch: 1,
            verifying_key: SigningKey::from_seed(b"r").verifying_key(),
            sealed: vec![6; 48],
        })
        .encode();
        for cut in 1..notice.len() {
            assert!(CoreMsg::decode(&notice[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(CoreMsg::decode(&[]).is_err());
        assert!(CoreMsg::decode(&[99]).is_err());
        assert!(SmiopFrame::decode(&[1]).is_err());
        assert!(GmOp::decode(&[9]).is_err());
        assert!(decode_directives(&[0, 0, 0]).is_err());
        // hostile length
        let mut w = Writer::new();
        w.u32(u32::MAX);
        assert!(FaultProof::decode(&w.finish()).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = GmOp::Close(ConnectionId(1)).encode();
        bytes.push(0);
        assert!(GmOp::decode(&bytes).is_err());
    }
}
