//! GIOP messages with the ITDOS extension.
//!
//! Standard GIOP frames carry a 12-byte header (magic, version, flags,
//! message type, body size) followed by a CDR body in the sender's byte
//! order. ITDOS extends the Request *and* Reply headers with the **full
//! interface name** and operation, "which GIOP doesn't normally provide"
//! (§3.6) — the Group Manager needs them to unmarshal and vote on proof
//! messages without running inside an ORB.

use crate::cdr::{CdrError, Decoder, Encoder, Endianness};
use crate::idl::InterfaceRepository;
use crate::types::Value;

/// GIOP magic bytes.
pub const MAGIC: [u8; 4] = *b"GIOP";

/// Protocol version advertised in the header (GIOP 1.2 + ITDOS extension).
pub const VERSION: (u8, u8) = (1, 2);

/// The body of a reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody {
    /// Normal completion with the operation result.
    Result(Value),
    /// The servant raised a declared (user) exception.
    UserException {
        /// Exception repository id.
        name: String,
    },
    /// The ORB or transport raised a system exception.
    SystemException {
        /// Minor code.
        minor: u32,
    },
}

/// A GIOP Request with ITDOS extensions.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMessage {
    /// Strictly increasing per-connection request identifier (§3.6).
    pub request_id: u64,
    /// ITDOS extension: causal trace id minted at `System::invoke`.
    /// Propagated end-to-end (GIOP → BFT batch → execution) so
    /// `System::trace` can reconstruct one invocation's causal path;
    /// 0 means untraced (GM/control traffic, legacy callers).
    pub trace: u64,
    /// Whether the client expects a reply (oneway operations do not).
    pub response_expected: bool,
    /// Opaque key naming the target object within its server.
    pub object_key: Vec<u8>,
    /// ITDOS extension: full interface name.
    pub interface: String,
    /// Operation name.
    pub operation: String,
    /// Unmarshalled arguments (marshalled per the interface repository).
    pub args: Vec<Value>,
}

/// A GIOP Reply with ITDOS extensions.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyMessage {
    /// Matches the originating request's id.
    pub request_id: u64,
    /// ITDOS extension: full interface name (lets a non-ORB voter find the
    /// result schema).
    pub interface: String,
    /// ITDOS extension: operation name.
    pub operation: String,
    /// Completion status and payload.
    pub body: ReplyBody,
}

/// Any GIOP message.
#[derive(Debug, Clone, PartialEq)]
pub enum GiopMessage {
    /// An invocation.
    Request(RequestMessage),
    /// An invocation result.
    Reply(ReplyMessage),
    /// Orderly connection shutdown.
    CloseConnection,
    /// The peer sent an unintelligible message.
    MessageError,
}

impl GiopMessage {
    /// Static name of the message kind — the label instrumentation
    /// attaches to codec cost series without allocating.
    pub fn kind_name(&self) -> &'static str {
        match self {
            GiopMessage::Request(_) => "request",
            GiopMessage::Reply(_) => "reply",
            GiopMessage::CloseConnection => "close",
            GiopMessage::MessageError => "error",
        }
    }
}

const MSG_REQUEST: u8 = 0;
const MSG_REPLY: u8 = 1;
const MSG_CLOSE: u8 = 5;
const MSG_ERROR: u8 = 6;

const STATUS_NO_EXCEPTION: u32 = 0;
const STATUS_USER_EXCEPTION: u32 = 1;
const STATUS_SYSTEM_EXCEPTION: u32 = 2;

/// GIOP encode/decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GiopError {
    /// Underlying CDR failure.
    Cdr(CdrError),
    /// Header magic was not `GIOP`.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8, u8),
    /// Unknown message type octet.
    BadMessageType(u8),
    /// Frame shorter than its declared size.
    Truncated,
    /// Interface not present in the repository.
    UnknownInterface(String),
    /// Operation not present on the interface.
    UnknownOperation {
        /// Interface searched.
        interface: String,
        /// Operation requested.
        operation: String,
    },
    /// Unknown reply status discriminant.
    BadReplyStatus(u32),
}

impl std::fmt::Display for GiopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GiopError::Cdr(e) => write!(f, "cdr error: {e}"),
            GiopError::BadMagic => write!(f, "bad GIOP magic"),
            GiopError::BadVersion(major, minor) => {
                write!(f, "unsupported GIOP version {major}.{minor}")
            }
            GiopError::BadMessageType(t) => write!(f, "unknown GIOP message type {t}"),
            GiopError::Truncated => write!(f, "truncated GIOP frame"),
            GiopError::UnknownInterface(i) => write!(f, "unknown interface {i:?}"),
            GiopError::UnknownOperation {
                interface,
                operation,
            } => write!(f, "unknown operation {operation:?} on {interface:?}"),
            GiopError::BadReplyStatus(s) => write!(f, "unknown reply status {s}"),
        }
    }
}

impl std::error::Error for GiopError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GiopError::Cdr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CdrError> for GiopError {
    fn from(e: CdrError) -> GiopError {
        GiopError::Cdr(e)
    }
}

/// Encodes a message into a framed GIOP byte stream in the given byte
/// order.
///
/// # Errors
///
/// Fails when the repository lacks the interface/operation or a value does
/// not conform to its declared type.
///
/// # Examples
///
/// ```
/// use itdos_giop::cdr::Endianness;
/// use itdos_giop::giop::{decode_message, encode_message, GiopMessage, RequestMessage};
/// use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
/// use itdos_giop::types::{TypeDesc, Value};
///
/// let mut repo = InterfaceRepository::new();
/// repo.register(InterfaceDef::new("Echo").with_operation(OperationDef::new(
///     "echo",
///     vec![("s".into(), TypeDesc::String)],
///     TypeDesc::String,
/// )));
/// let msg = GiopMessage::Request(RequestMessage {
///     request_id: 1,
///     trace: 0,
///     response_expected: true,
///     object_key: b"obj".to_vec(),
///     interface: "Echo".into(),
///     operation: "echo".into(),
///     args: vec![Value::String("hi".into())],
/// });
/// let bytes = encode_message(&msg, &repo, Endianness::Little)?;
/// assert_eq!(decode_message(&bytes, &repo)?, msg);
/// # Ok::<(), itdos_giop::giop::GiopError>(())
/// ```
pub fn encode_message(
    message: &GiopMessage,
    repo: &InterfaceRepository,
    endianness: Endianness,
) -> Result<Vec<u8>, GiopError> {
    match message {
        GiopMessage::Request(req) => encode_request(req, repo, endianness),
        GiopMessage::Reply(rep) => Ok(frame(
            MSG_REPLY,
            reply_body(rep, repo, endianness)?,
            endianness,
        )),
        GiopMessage::CloseConnection => Ok(frame(MSG_CLOSE, Vec::new(), endianness)),
        GiopMessage::MessageError => Ok(frame(MSG_ERROR, Vec::new(), endianness)),
    }
}

/// Encodes a borrowed request as a framed GIOP Request — what
/// [`encode_message`] produces for `GiopMessage::Request`, for a caller
/// that owns the request and will use it again.
///
/// # Errors
///
/// As [`encode_message`].
pub fn encode_request(
    request: &RequestMessage,
    repo: &InterfaceRepository,
    endianness: Endianness,
) -> Result<Vec<u8>, GiopError> {
    Ok(frame(
        MSG_REQUEST,
        request_body(request, repo, endianness)?,
        endianness,
    ))
}

fn frame(msg_type: u8, body: Vec<u8>, endianness: Endianness) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION.0);
    out.push(VERSION.1);
    out.push(endianness.flag_bit());
    out.push(msg_type);
    let size = body.len() as u32;
    match endianness {
        Endianness::Big => out.extend_from_slice(&size.to_be_bytes()),
        Endianness::Little => out.extend_from_slice(&size.to_le_bytes()),
    }
    out.extend_from_slice(&body);
    out
}

fn request_body(
    req: &RequestMessage,
    repo: &InterfaceRepository,
    endianness: Endianness,
) -> Result<Vec<u8>, GiopError> {
    let op =
        repo.lookup(&req.interface, &req.operation)
            .ok_or_else(|| GiopError::UnknownOperation {
                interface: req.interface.clone(),
                operation: req.operation.clone(),
            })?;
    let mut enc = Encoder::new(endianness);
    enc.encode(
        &Value::ULongLong(req.request_id),
        &crate::types::TypeDesc::ULongLong,
    )?;
    enc.encode(
        &Value::ULongLong(req.trace),
        &crate::types::TypeDesc::ULongLong,
    )?;
    enc.encode(
        &Value::Boolean(req.response_expected),
        &crate::types::TypeDesc::Boolean,
    )?;
    enc.put_octets(&req.object_key);
    enc.put_string(&req.interface);
    enc.put_string(&req.operation);
    for (value, (_, ty)) in req.args.iter().zip(&op.params) {
        enc.encode(value, ty)?;
    }
    if req.args.len() != op.params.len() {
        return Err(GiopError::Cdr(CdrError::TypeMismatch {
            value_kind: "argument list",
            expected: format!("{} parameters", op.params.len()),
        }));
    }
    Ok(enc.into_bytes())
}

fn reply_body(
    rep: &ReplyMessage,
    repo: &InterfaceRepository,
    endianness: Endianness,
) -> Result<Vec<u8>, GiopError> {
    let op =
        repo.lookup(&rep.interface, &rep.operation)
            .ok_or_else(|| GiopError::UnknownOperation {
                interface: rep.interface.clone(),
                operation: rep.operation.clone(),
            })?;
    let mut enc = Encoder::new(endianness);
    enc.encode(
        &Value::ULongLong(rep.request_id),
        &crate::types::TypeDesc::ULongLong,
    )?;
    enc.put_string(&rep.interface);
    enc.put_string(&rep.operation);
    match &rep.body {
        ReplyBody::Result(result) => {
            enc.encode(
                &Value::ULong(STATUS_NO_EXCEPTION),
                &crate::types::TypeDesc::ULong,
            )?;
            enc.encode(result, &op.result)?;
        }
        ReplyBody::UserException { name } => {
            enc.encode(
                &Value::ULong(STATUS_USER_EXCEPTION),
                &crate::types::TypeDesc::ULong,
            )?;
            enc.put_string(name);
        }
        ReplyBody::SystemException { minor } => {
            enc.encode(
                &Value::ULong(STATUS_SYSTEM_EXCEPTION),
                &crate::types::TypeDesc::ULong,
            )?;
            enc.encode(&Value::ULong(*minor), &crate::types::TypeDesc::ULong)?;
        }
    }
    Ok(enc.into_bytes())
}

/// Decodes a framed GIOP byte stream, using the repository for body
/// schemas.
///
/// # Errors
///
/// Any [`GiopError`] on malformed frames or unknown interfaces; Byzantine
/// peers control these bytes, so every failure is non-panicking.
pub fn decode_message(bytes: &[u8], repo: &InterfaceRepository) -> Result<GiopMessage, GiopError> {
    // destructure the 12-byte header without indexing: a short or hostile
    // frame surfaces Truncated, never a panic
    let Some((header, rest)) = bytes.split_at_checked(12) else {
        return Err(GiopError::Truncated);
    };
    let &[m0, m1, m2, m3, vmaj, vmin, flags, msg_type, s0, s1, s2, s3] = header else {
        return Err(GiopError::Truncated);
    };
    if [m0, m1, m2, m3] != MAGIC {
        return Err(GiopError::BadMagic);
    }
    if (vmaj, vmin) != VERSION {
        return Err(GiopError::BadVersion(vmaj, vmin));
    }
    let endianness = Endianness::from_flag_bit(flags);
    let size_bytes = [s0, s1, s2, s3];
    let size = match endianness {
        Endianness::Big => u32::from_be_bytes(size_bytes),
        Endianness::Little => u32::from_le_bytes(size_bytes),
    } as usize;
    let Some(body) = rest.get(..size) else {
        return Err(GiopError::Truncated);
    };
    match msg_type {
        MSG_REQUEST => decode_request(body, repo, endianness).map(GiopMessage::Request),
        MSG_REPLY => decode_reply(body, repo, endianness).map(GiopMessage::Reply),
        MSG_CLOSE => Ok(GiopMessage::CloseConnection),
        MSG_ERROR => Ok(GiopMessage::MessageError),
        other => Err(GiopError::BadMessageType(other)),
    }
}

fn decode_request(
    body: &[u8],
    repo: &InterfaceRepository,
    endianness: Endianness,
) -> Result<RequestMessage, GiopError> {
    let mut dec = Decoder::new(body, endianness);
    let request_id = match dec.decode(&crate::types::TypeDesc::ULongLong)? {
        Value::ULongLong(v) => v,
        _ => unreachable!("decode honors desc"),
    };
    let trace = match dec.decode(&crate::types::TypeDesc::ULongLong)? {
        Value::ULongLong(v) => v,
        _ => unreachable!("decode honors desc"),
    };
    let response_expected = match dec.decode(&crate::types::TypeDesc::Boolean)? {
        Value::Boolean(v) => v,
        _ => unreachable!("decode honors desc"),
    };
    let object_key = dec.take_octets()?;
    let interface = dec.take_string()?;
    let operation = dec.take_string()?;
    let op = repo
        .lookup(&interface, &operation)
        .ok_or_else(|| GiopError::UnknownOperation {
            interface: interface.clone(),
            operation: operation.clone(),
        })?;
    let mut args = Vec::with_capacity(op.params.len());
    for (_, ty) in &op.params {
        args.push(dec.decode(ty)?);
    }
    Ok(RequestMessage {
        request_id,
        trace,
        response_expected,
        object_key,
        interface,
        operation,
        args,
    })
}

fn decode_reply(
    body: &[u8],
    repo: &InterfaceRepository,
    endianness: Endianness,
) -> Result<ReplyMessage, GiopError> {
    let mut dec = Decoder::new(body, endianness);
    let request_id = match dec.decode(&crate::types::TypeDesc::ULongLong)? {
        Value::ULongLong(v) => v,
        _ => unreachable!("decode honors desc"),
    };
    let interface = dec.take_string()?;
    let operation = dec.take_string()?;
    let op = repo
        .lookup(&interface, &operation)
        .ok_or_else(|| GiopError::UnknownOperation {
            interface: interface.clone(),
            operation: operation.clone(),
        })?;
    let status = match dec.decode(&crate::types::TypeDesc::ULong)? {
        Value::ULong(v) => v,
        _ => unreachable!("decode honors desc"),
    };
    let body = match status {
        STATUS_NO_EXCEPTION => ReplyBody::Result(dec.decode(&op.result)?),
        STATUS_USER_EXCEPTION => ReplyBody::UserException {
            name: dec.take_string()?,
        },
        STATUS_SYSTEM_EXCEPTION => match dec.decode(&crate::types::TypeDesc::ULong)? {
            Value::ULong(minor) => ReplyBody::SystemException { minor },
            _ => unreachable!("decode honors desc"),
        },
        other => return Err(GiopError::BadReplyStatus(other)),
    };
    Ok(ReplyMessage {
        request_id,
        interface,
        operation,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idl::{InterfaceDef, OperationDef};
    use crate::types::TypeDesc;

    fn repo() -> InterfaceRepository {
        let mut repo = InterfaceRepository::new();
        repo.register(
            InterfaceDef::new("Sensor::Array")
                .with_operation(OperationDef::new(
                    "read",
                    vec![("channel".into(), TypeDesc::ULong)],
                    TypeDesc::sequence_of(TypeDesc::Double),
                ))
                .with_operation(OperationDef::new(
                    "calibrate",
                    vec![("offset".into(), TypeDesc::Double)],
                    TypeDesc::Void,
                )),
        );
        repo
    }

    fn sample_request() -> RequestMessage {
        RequestMessage {
            request_id: 42,
            trace: 0,
            response_expected: true,
            object_key: vec![1, 2, 3],
            interface: "Sensor::Array".into(),
            operation: "read".into(),
            args: vec![Value::ULong(7)],
        }
    }

    #[test]
    fn request_round_trips_both_endiannesses() {
        let repo = repo();
        let msg = GiopMessage::Request(sample_request());
        for e in [Endianness::Big, Endianness::Little] {
            let bytes = encode_message(&msg, &repo, e).unwrap();
            assert_eq!(decode_message(&bytes, &repo).unwrap(), msg, "{e:?}");
        }
    }

    #[test]
    fn request_trace_id_round_trips_both_endiannesses() {
        // the causal trace id is an ITDOS RequestMessage header extension:
        // it must survive encode/decode exactly in either byte order, and
        // distinct traces must yield distinct wire bytes
        let repo = repo();
        for e in [Endianness::Big, Endianness::Little] {
            let mut bytes_seen = Vec::new();
            for trace in [0u64, 1, (7 << 32) | 3, u64::MAX] {
                let msg = GiopMessage::Request(RequestMessage {
                    trace,
                    ..sample_request()
                });
                let bytes = encode_message(&msg, &repo, e).unwrap();
                let decoded = decode_message(&bytes, &repo).unwrap();
                let GiopMessage::Request(req) = decoded else {
                    panic!("request decodes as request");
                };
                assert_eq!(req.trace, trace, "{e:?}");
                bytes_seen.push(bytes);
            }
            bytes_seen.sort();
            bytes_seen.dedup();
            assert_eq!(bytes_seen.len(), 4, "traces are wire-distinct {e:?}");
        }
    }

    #[test]
    fn reply_round_trips_all_statuses() {
        let repo = repo();
        let bodies = [
            ReplyBody::Result(Value::Sequence(vec![Value::Double(1.5)].into())),
            ReplyBody::UserException {
                name: "Sensor::Offline".into(),
            },
            ReplyBody::SystemException { minor: 3 },
        ];
        for body in bodies {
            let msg = GiopMessage::Reply(ReplyMessage {
                request_id: 9,
                interface: "Sensor::Array".into(),
                operation: "read".into(),
                body,
            });
            let bytes = encode_message(&msg, &repo, Endianness::Little).unwrap();
            assert_eq!(decode_message(&bytes, &repo).unwrap(), msg);
        }
    }

    #[test]
    fn bodyless_messages_round_trip() {
        let repo = repo();
        for msg in [GiopMessage::CloseConnection, GiopMessage::MessageError] {
            let bytes = encode_message(&msg, &repo, Endianness::Big).unwrap();
            assert_eq!(bytes.len(), 12, "header only");
            assert_eq!(decode_message(&bytes, &repo).unwrap(), msg);
        }
    }

    #[test]
    fn cross_endianness_decode_yields_same_values() {
        // a big-endian replica and little-endian replica marshal the same
        // reply; receivers decode each correctly to identical Values even
        // though the wire bytes differ — the heterogeneity premise of §3.6
        let repo = repo();
        let msg = GiopMessage::Reply(ReplyMessage {
            request_id: 1,
            interface: "Sensor::Array".into(),
            operation: "read".into(),
            body: ReplyBody::Result(Value::Sequence(vec![Value::Double(0.125)].into())),
        });
        let be = encode_message(&msg, &repo, Endianness::Big).unwrap();
        let le = encode_message(&msg, &repo, Endianness::Little).unwrap();
        assert_ne!(be, le, "byte-by-byte comparison would fail");
        assert_eq!(
            decode_message(&be, &repo).unwrap(),
            decode_message(&le, &repo).unwrap(),
            "unmarshalled comparison succeeds"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let repo = repo();
        let mut bytes =
            encode_message(&GiopMessage::CloseConnection, &repo, Endianness::Big).unwrap();
        bytes[0] = b'X';
        assert_eq!(decode_message(&bytes, &repo), Err(GiopError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let repo = repo();
        let mut bytes =
            encode_message(&GiopMessage::CloseConnection, &repo, Endianness::Big).unwrap();
        bytes[4] = 9;
        assert_eq!(
            decode_message(&bytes, &repo),
            Err(GiopError::BadVersion(9, 2))
        );
    }

    #[test]
    fn truncated_frame_rejected() {
        let repo = repo();
        let bytes = encode_message(
            &GiopMessage::Request(sample_request()),
            &repo,
            Endianness::Big,
        )
        .unwrap();
        assert_eq!(
            decode_message(&bytes[..bytes.len() - 1], &repo),
            Err(GiopError::Truncated)
        );
        assert_eq!(
            decode_message(&bytes[..5], &repo),
            Err(GiopError::Truncated)
        );
    }

    #[test]
    fn unknown_operation_rejected_on_encode_and_decode() {
        let repo = repo();
        let mut req = sample_request();
        req.operation = "nope".into();
        let err = encode_message(&GiopMessage::Request(req), &repo, Endianness::Big).unwrap_err();
        assert!(matches!(err, GiopError::UnknownOperation { .. }));
    }

    #[test]
    fn wrong_arity_rejected_on_encode() {
        let repo = repo();
        let mut req = sample_request();
        req.args = vec![];
        assert!(encode_message(&GiopMessage::Request(req), &repo, Endianness::Big).is_err());
    }

    #[test]
    fn bad_message_type_rejected() {
        let repo = repo();
        let mut bytes =
            encode_message(&GiopMessage::CloseConnection, &repo, Endianness::Big).unwrap();
        bytes[7] = 99;
        assert_eq!(
            decode_message(&bytes, &repo),
            Err(GiopError::BadMessageType(99))
        );
    }

    #[test]
    fn bad_reply_status_rejected() {
        let repo = repo();
        // craft a reply with status 7 by hand
        let mut enc = Encoder::new(Endianness::Big);
        enc.encode(&Value::ULongLong(1), &TypeDesc::ULongLong)
            .unwrap();
        enc.put_string("Sensor::Array");
        enc.put_string("read");
        enc.encode(&Value::ULong(7), &TypeDesc::ULong).unwrap();
        let body = enc.into_bytes();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION.0);
        bytes.push(VERSION.1);
        bytes.push(0);
        bytes.push(MSG_REPLY);
        bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&body);
        assert_eq!(
            decode_message(&bytes, &repo),
            Err(GiopError::BadReplyStatus(7))
        );
    }

    #[test]
    fn void_reply_round_trips() {
        let repo = repo();
        let msg = GiopMessage::Reply(ReplyMessage {
            request_id: 2,
            interface: "Sensor::Array".into(),
            operation: "calibrate".into(),
            body: ReplyBody::Result(Value::Void),
        });
        let bytes = encode_message(&msg, &repo, Endianness::Little).unwrap();
        assert_eq!(decode_message(&bytes, &repo).unwrap(), msg);
    }
}
