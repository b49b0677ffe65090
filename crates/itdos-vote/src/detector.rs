//! Fault detection and signed-message proofs.
//!
//! §3.6: when a *singleton* client detects a faulty value it must convince
//! the Group Manager — otherwise a malicious client could expel correct
//! replicas. "The proof is the set of signed messages through which the
//! faulty value was detected. Since each message contains a sequence number
//! to protect against replay, and each message is signed, the Group Manager
//! can determine the validity of the proof. The Group Manager must perform
//! a vote on the values just as the client did — on unmarshalled data."
//!
//! This module builds proofs on the client side and validates them on the
//! Group Manager side, re-running the vote via the marshalling engine
//! (GIOP + interface repository — possible outside an ORB only because the
//! ITDOS GIOP extension carries the full interface name).

use std::collections::BTreeMap;

use itdos_crypto::sign::{Signature, SigningKey, VerifyingKey};
use itdos_giop::giop::{decode_message, GiopMessage};
use itdos_giop::idl::InterfaceRepository;
use itdos_giop::types::Value;
use xbytes::wire_struct;

use crate::comparator::Comparator;
use crate::vote::{vote, Candidate, SenderId, Thresholds, VoteOutcome};

/// A signed reply frame as relayed in a fault proof.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedReply {
    /// The replication domain element that produced the reply.
    pub sender: SenderId,
    /// Anti-replay sequence number, strictly increasing per sender.
    pub sequence: u64,
    /// The raw GIOP Reply frame exactly as the element sent it.
    pub frame: Vec<u8>,
    /// Signature over `(sender, sequence, frame)`.
    pub signature: Signature,
}

wire_struct!(SignedReply {
    sender,
    sequence,
    frame,
    signature
});

/// Runs `with` on the signed message `"itdos-reply:" ‖ sender ‖ sequence ‖
/// frame`, given as its parts: the frame is signed where it lies.
fn signed_parts<R>(
    sender: SenderId,
    sequence: u64,
    frame: &[u8],
    with: impl FnOnce(&[&[u8]]) -> R,
) -> R {
    with(&[
        b"itdos-reply:",
        &sender.0.to_le_bytes(),
        &sequence.to_le_bytes(),
        frame,
    ])
}

impl SignedReply {
    /// Signs a reply frame (done by each replica for every reply it emits).
    pub fn sign(key: &SigningKey, sender: SenderId, sequence: u64, frame: Vec<u8>) -> SignedReply {
        let signature = signed_parts(sender, sequence, &frame, |parts| key.sign_parts(parts));
        SignedReply {
            sender,
            sequence,
            frame,
            signature,
        }
    }

    /// Verifies the signature with the sender's public key.
    pub fn verify(&self, key: &VerifyingKey) -> bool {
        signed_parts(self.sender, self.sequence, &self.frame, |parts| {
            key.verify_parts(parts, &self.signature)
        })
    }
}

/// A fault proof assembled by a singleton client for the Group Manager.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProof {
    /// Elements the sender accuses of Byzantine values.
    pub accused: Vec<SenderId>,
    /// The request these replies answered.
    pub request_id: u64,
    /// The signed replies through which the fault was detected.
    pub messages: Vec<SignedReply>,
}

/// Most accused elements, and most signed replies, one proof may carry.
pub const MAX_PROOF_ITEMS: u32 = 1024;

wire_struct!(FaultProof {
    accused <= MAX_PROOF_ITEMS,
    request_id,
    messages <= MAX_PROOF_ITEMS,
});

/// Why a proof was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ProofError {
    /// A message's signature did not verify.
    BadSignature(SenderId),
    /// A sender has no registered public key.
    UnknownSender(SenderId),
    /// A message's sequence number was at or below the replay watermark.
    Replayed {
        /// The offending sender.
        sender: SenderId,
        /// The stale sequence number.
        sequence: u64,
    },
    /// A frame failed to decode as a GIOP reply.
    Undecodable(SenderId),
    /// A frame's request id did not match the proof's request id.
    RequestIdMismatch(SenderId),
    /// Two messages from the same sender.
    DuplicateSender(SenderId),
    /// The re-vote over the supplied messages did not reach a decision.
    VoteInconclusive,
    /// An accused element's value actually supported the winning value —
    /// the accusation is bogus (malicious or confused client).
    AccusedNotFaulty(SenderId),
    /// The accused list was empty.
    NothingAccused,
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::BadSignature(s) => write!(f, "bad signature from element {}", s.0),
            ProofError::UnknownSender(s) => write!(f, "unknown element {}", s.0),
            ProofError::Replayed { sender, sequence } => {
                write!(
                    f,
                    "replayed message from element {} (seq {sequence})",
                    sender.0
                )
            }
            ProofError::Undecodable(s) => write!(f, "undecodable frame from element {}", s.0),
            ProofError::RequestIdMismatch(s) => {
                write!(f, "request id mismatch in frame from element {}", s.0)
            }
            ProofError::DuplicateSender(s) => {
                write!(f, "duplicate message from element {}", s.0)
            }
            ProofError::VoteInconclusive => write!(f, "proof messages do not decide a vote"),
            ProofError::AccusedNotFaulty(s) => {
                write!(f, "accused element {} supported the winning value", s.0)
            }
            ProofError::NothingAccused => write!(f, "proof accuses no element"),
        }
    }
}

impl std::error::Error for ProofError {}

/// A validated verdict: which accused elements are confirmed faulty.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Accused elements confirmed faulty by the re-vote.
    pub confirmed: Vec<SenderId>,
    /// The value the re-vote decided.
    pub decided_value: Value,
    /// Per-sender sequence numbers consumed (callers advance their replay
    /// watermarks with these).
    pub sequences: Vec<(SenderId, u64)>,
}

/// Extracts the folded, votable reply value from a signed frame — the
/// *same* folding ([`crate::folding::reply_to_value`]) the live voters
/// use, so the Group Manager "must perform a vote on the values just as
/// the client did" holds literally.
fn reply_value(
    message: &SignedReply,
    repo: &InterfaceRepository,
    request_id: u64,
) -> Result<Value, ProofError> {
    let decoded = decode_message(&message.frame, repo)
        .map_err(|_| ProofError::Undecodable(message.sender))?;
    let GiopMessage::Reply(reply) = decoded else {
        return Err(ProofError::Undecodable(message.sender));
    };
    if reply.request_id != request_id {
        return Err(ProofError::RequestIdMismatch(message.sender));
    }
    Ok(crate::folding::reply_to_value(&reply))
}

/// Validates a fault proof exactly as the Group Manager does (§3.6):
/// signatures, replay watermarks, unmarshalling via the repository, and a
/// re-vote with the connection's comparator.
///
/// # Errors
///
/// Any [`ProofError`]; a rejected proof must not trigger expulsion.
pub fn verify_proof(
    proof: &FaultProof,
    keys: &BTreeMap<SenderId, VerifyingKey>,
    watermarks: &BTreeMap<SenderId, u64>,
    repo: &InterfaceRepository,
    comparator: &Comparator,
    thresholds: Thresholds,
) -> Result<Verdict, ProofError> {
    if proof.accused.is_empty() {
        return Err(ProofError::NothingAccused);
    }
    let mut candidates = Vec::with_capacity(proof.messages.len());
    let mut sequences = Vec::with_capacity(proof.messages.len());
    for (k, message) in proof.messages.iter().enumerate() {
        if proof
            .messages
            .iter()
            .take(k)
            .any(|m| m.sender == message.sender)
        {
            return Err(ProofError::DuplicateSender(message.sender));
        }
        let key = keys
            .get(&message.sender)
            .ok_or(ProofError::UnknownSender(message.sender))?;
        if !message.verify(key) {
            return Err(ProofError::BadSignature(message.sender));
        }
        if let Some(&mark) = watermarks.get(&message.sender) {
            if message.sequence <= mark {
                return Err(ProofError::Replayed {
                    sender: message.sender,
                    sequence: message.sequence,
                });
            }
        }
        sequences.push((message.sender, message.sequence));
        candidates.push(Candidate {
            sender: message.sender,
            value: reply_value(message, repo, proof.request_id)?,
        });
    }
    let VoteOutcome::Decided(decision) = vote(&candidates, comparator, thresholds.decide()) else {
        return Err(ProofError::VoteInconclusive);
    };
    for accused in &proof.accused {
        if decision.supporters.contains(accused) {
            return Err(ProofError::AccusedNotFaulty(*accused));
        }
        if !decision.dissenters.contains(accused) {
            // accused element not even present in the evidence
            return Err(ProofError::AccusedNotFaulty(*accused));
        }
    }
    Ok(Verdict {
        confirmed: proof.accused.clone(),
        decided_value: decision.value,
        sequences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdos_giop::cdr::Endianness;
    use itdos_giop::giop::{encode_message, ReplyBody, ReplyMessage};
    use itdos_giop::idl::{InterfaceDef, OperationDef};
    use itdos_giop::types::TypeDesc;

    fn repo() -> InterfaceRepository {
        let mut repo = InterfaceRepository::new();
        repo.register(InterfaceDef::new("Acct").with_operation(OperationDef::new(
            "balance",
            vec![],
            TypeDesc::LongLong,
        )));
        repo
    }

    fn keyring(n: u32) -> (Vec<SigningKey>, BTreeMap<SenderId, VerifyingKey>) {
        let sks: Vec<SigningKey> = (0..n)
            .map(|i| SigningKey::from_seed(&i.to_le_bytes()))
            .collect();
        let vks = sks
            .iter()
            .enumerate()
            .map(|(i, sk)| (SenderId(i as u32), sk.verifying_key()))
            .collect();
        (sks, vks)
    }

    fn reply_frame(request_id: u64, value: i64, endianness: Endianness) -> Vec<u8> {
        encode_message(
            &GiopMessage::Reply(ReplyMessage {
                request_id,
                interface: "Acct".into(),
                operation: "balance".into(),
                body: ReplyBody::Result(Value::LongLong(value)),
            }),
            &repo(),
            endianness,
        )
        .expect("encode")
    }

    /// Builds a proof where replicas 0,1,2 said `good` and replica 3 said
    /// `bad`, accusing replica 3.
    fn sample_proof(good: i64, bad: i64) -> (FaultProof, BTreeMap<SenderId, VerifyingKey>) {
        let (sks, vks) = keyring(4);
        let mut messages = Vec::new();
        for (i, sk) in sks.iter().enumerate() {
            let value = if i == 3 { bad } else { good };
            // heterogeneity: alternate endianness per replica
            let e = if i % 2 == 0 {
                Endianness::Big
            } else {
                Endianness::Little
            };
            let frame = reply_frame(7, value, e);
            messages.push(SignedReply::sign(
                sk,
                SenderId(i as u32),
                100 + i as u64,
                frame,
            ));
        }
        (
            FaultProof {
                accused: vec![SenderId(3)],
                request_id: 7,
                messages,
            },
            vks,
        )
    }

    fn verify(
        proof: &FaultProof,
        vks: &BTreeMap<SenderId, VerifyingKey>,
    ) -> Result<Verdict, ProofError> {
        verify_proof(
            proof,
            vks,
            &BTreeMap::new(),
            &repo(),
            &Comparator::Exact,
            Thresholds::new(1),
        )
    }

    #[test]
    fn valid_proof_confirms_accused() {
        let (proof, vks) = sample_proof(100, 666);
        let verdict = verify(&proof, &vks).unwrap();
        assert_eq!(verdict.confirmed, vec![SenderId(3)]);
        // the decided value is the folded reply (headers + body)
        assert_eq!(
            verdict.decided_value,
            Value::Struct(vec![
                Value::String("Acct".into()),
                Value::String("balance".into()),
                Value::ULong(0),
                Value::LongLong(100),
            ])
        );
        assert_eq!(verdict.sequences.len(), 4);
    }

    #[test]
    fn heterogeneous_frames_vote_correctly() {
        // frames in the proof use mixed endianness; the GM's marshalling
        // engine must still unify them
        let (proof, vks) = sample_proof(42, 43);
        assert!(verify(&proof, &vks).is_ok());
    }

    #[test]
    fn malicious_client_cannot_expel_correct_replica() {
        // all four replicas agree; client accuses replica 3 anyway
        let (mut proof, vks) = sample_proof(100, 100);
        proof.accused = vec![SenderId(3)];
        assert_eq!(
            verify(&proof, &vks),
            Err(ProofError::AccusedNotFaulty(SenderId(3)))
        );
    }

    #[test]
    fn forged_signature_rejected() {
        let (mut proof, vks) = sample_proof(100, 666);
        proof.messages[1].frame = reply_frame(7, 999, Endianness::Big);
        assert_eq!(
            verify(&proof, &vks),
            Err(ProofError::BadSignature(SenderId(1)))
        );
    }

    #[test]
    fn replayed_message_rejected() {
        let (proof, vks) = sample_proof(100, 666);
        let mut marks = BTreeMap::new();
        marks.insert(SenderId(0), 100u64); // watermark at the message's seq
        let err = verify_proof(
            &proof,
            &vks,
            &marks,
            &repo(),
            &Comparator::Exact,
            Thresholds::new(1),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ProofError::Replayed {
                sender: SenderId(0),
                sequence: 100
            }
        );
    }

    #[test]
    fn unknown_sender_rejected() {
        let (proof, mut vks) = sample_proof(100, 666);
        vks.remove(&SenderId(2));
        assert_eq!(
            verify(&proof, &vks),
            Err(ProofError::UnknownSender(SenderId(2)))
        );
    }

    #[test]
    fn duplicate_sender_rejected() {
        let (mut proof, vks) = sample_proof(100, 666);
        let dup = proof.messages[0].clone();
        proof.messages.push(dup);
        assert_eq!(
            verify(&proof, &vks),
            Err(ProofError::DuplicateSender(SenderId(0)))
        );
    }

    #[test]
    fn mismatched_request_id_rejected() {
        let (sks, vks) = keyring(4);
        let mut messages = Vec::new();
        for (i, sk) in sks.iter().enumerate() {
            let rid = if i == 2 { 8 } else { 7 }; // replica 2's frame answers another request
            let frame = reply_frame(rid, 100, Endianness::Big);
            messages.push(SignedReply::sign(sk, SenderId(i as u32), 1, frame));
        }
        let proof = FaultProof {
            accused: vec![SenderId(3)],
            request_id: 7,
            messages,
        };
        assert_eq!(
            verify(&proof, &vks),
            Err(ProofError::RequestIdMismatch(SenderId(2)))
        );
    }

    #[test]
    fn inconclusive_evidence_rejected() {
        // two messages only, all distinct values: no f+1 cluster
        let (sks, vks) = keyring(4);
        let messages = vec![
            SignedReply::sign(&sks[0], SenderId(0), 1, reply_frame(7, 1, Endianness::Big)),
            SignedReply::sign(&sks[1], SenderId(1), 1, reply_frame(7, 2, Endianness::Big)),
        ];
        let proof = FaultProof {
            accused: vec![SenderId(1)],
            request_id: 7,
            messages,
        };
        assert_eq!(verify(&proof, &vks), Err(ProofError::VoteInconclusive));
    }

    #[test]
    fn empty_accusation_rejected() {
        let (mut proof, vks) = sample_proof(100, 666);
        proof.accused.clear();
        assert_eq!(verify(&proof, &vks), Err(ProofError::NothingAccused));
    }

    #[test]
    fn garbage_frame_rejected() {
        let (mut proof, vks) = sample_proof(100, 666);
        // re-sign a garbage frame so the signature verifies but decode fails
        let sk = SigningKey::from_seed(&0u32.to_le_bytes());
        proof.messages[0] = SignedReply::sign(&sk, SenderId(0), 200, vec![1, 2, 3]);
        assert_eq!(
            verify(&proof, &vks),
            Err(ProofError::Undecodable(SenderId(0)))
        );
    }

    #[test]
    fn exception_reply_counts_as_distinct_value() {
        let (sks, vks) = keyring(4);
        let exception_frame = encode_message(
            &GiopMessage::Reply(ReplyMessage {
                request_id: 7,
                interface: "Acct".into(),
                operation: "balance".into(),
                body: ReplyBody::SystemException { minor: 2 },
            }),
            &repo(),
            Endianness::Big,
        )
        .unwrap();
        let mut messages: Vec<SignedReply> = (0..3)
            .map(|i| {
                SignedReply::sign(
                    &sks[i],
                    SenderId(i as u32),
                    1,
                    reply_frame(7, 100, Endianness::Big),
                )
            })
            .collect();
        messages.push(SignedReply::sign(&sks[3], SenderId(3), 1, exception_frame));
        let proof = FaultProof {
            accused: vec![SenderId(3)],
            request_id: 7,
            messages,
        };
        let verdict = verify(&proof, &vks).unwrap();
        assert_eq!(verdict.confirmed, vec![SenderId(3)]);
    }
}
