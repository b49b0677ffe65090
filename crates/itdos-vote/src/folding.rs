//! Mapping GIOP messages to votable [`Value`] trees and back.
//!
//! The voter compares *unmarshalled* messages (§3.6). A whole request or
//! reply — headers and body — is folded into one `Value` so a single
//! comparator program covers it: headers compare exactly, the body uses
//! the interface's registered program (e.g. inexact floats).

use crate::comparator::Comparator;
use itdos_giop::giop::{ReplyBody, ReplyMessage, RequestMessage};
use itdos_giop::types::{Seq, Value};

/// Folds a request into a votable value:
/// `{interface, operation, object_key, args…}`.
pub fn fold_request(request: RequestMessage) -> Value {
    Value::Struct(vec![
        Value::String(request.interface),
        Value::String(request.operation),
        Value::Sequence(Seq::from_octets(request.object_key)),
        Value::Struct(request.args),
    ])
}

/// [`fold_request`] for a caller that only borrows the request.
pub fn request_to_value(request: &RequestMessage) -> Value {
    fold_request(request.clone())
}

/// Reconstructs a request from a decided value.
///
/// Returns `None` when the value does not have request shape (possible
/// only if the voter decided on Byzantine-crafted values, which the
/// comparator's exact header comparison makes require f+1 colluders).
pub fn value_to_request(request_id: u64, value: Value) -> Option<RequestMessage> {
    let Value::Struct(parts) = value else {
        return None;
    };
    let Ok(
        [Value::String(interface), Value::String(operation), Value::Sequence(key), Value::Struct(args)],
    ) = <[Value; 4]>::try_from(parts)
    else {
        return None;
    };
    Some(RequestMessage {
        request_id,
        // the trace id is deliberately NOT part of the folded value (it
        // differs per client retry and would perturb voting); receivers
        // recover it from the GIOP header stashed at decode time
        trace: 0,
        response_expected: true,
        object_key: key.into_octets()?,
        interface,
        operation,
        args,
    })
}

const STATUS_RESULT: u32 = 0;
const STATUS_USER: u32 = 1;
const STATUS_SYSTEM: u32 = 2;

/// Folds a reply into a votable value: `{interface, operation, status,
/// payload}`.
pub fn fold_reply(reply: ReplyMessage) -> Value {
    let (status, payload) = match reply.body {
        ReplyBody::Result(v) => (STATUS_RESULT, v),
        ReplyBody::UserException { name } => (STATUS_USER, Value::String(name)),
        ReplyBody::SystemException { minor } => (STATUS_SYSTEM, Value::ULong(minor)),
    };
    Value::Struct(vec![
        Value::String(reply.interface),
        Value::String(reply.operation),
        Value::ULong(status),
        payload,
    ])
}

/// [`fold_reply`] for a caller that only borrows the reply.
pub fn reply_to_value(reply: &ReplyMessage) -> Value {
    fold_reply(reply.clone())
}

/// Reconstructs a reply from a decided value.
pub fn value_to_reply(request_id: u64, value: Value) -> Option<ReplyMessage> {
    let Value::Struct(parts) = value else {
        return None;
    };
    let Ok([Value::String(interface), Value::String(operation), Value::ULong(status), payload]) =
        <[Value; 4]>::try_from(parts)
    else {
        return None;
    };
    let body = match (status, payload) {
        (STATUS_RESULT, payload) => ReplyBody::Result(payload),
        (STATUS_USER, Value::String(name)) => ReplyBody::UserException { name },
        (STATUS_SYSTEM, Value::ULong(minor)) => ReplyBody::SystemException { minor },
        _ => return None,
    };
    Some(ReplyMessage {
        request_id,
        interface,
        operation,
        body,
    })
}

/// The comparator for folded messages: exact headers, the interface's
/// program on the body.
pub fn folded_comparator(body: Comparator) -> Comparator {
    Comparator::Struct(vec![
        Comparator::Exact, // interface
        Comparator::Exact, // operation / status position varies but both exact
        Comparator::Exact, // object key or status
        body,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> RequestMessage {
        RequestMessage {
            request_id: 7,
            trace: 0,
            response_expected: true,
            object_key: vec![1, 2],
            interface: "I".into(),
            operation: "op".into(),
            args: vec![Value::Long(5), Value::Double(1.5)],
        }
    }

    #[test]
    fn request_round_trips() {
        let r = request();
        let v = request_to_value(&r);
        assert_eq!(value_to_request(7, v), Some(r));
    }

    #[test]
    fn reply_round_trips_all_bodies() {
        for body in [
            ReplyBody::Result(Value::Double(2.5)),
            ReplyBody::UserException { name: "E".into() },
            ReplyBody::SystemException { minor: 3 },
        ] {
            let r = ReplyMessage {
                request_id: 9,
                interface: "I".into(),
                operation: "op".into(),
                body,
            };
            let v = reply_to_value(&r);
            assert_eq!(value_to_reply(9, v), Some(r));
        }
    }

    #[test]
    fn malformed_values_rejected() {
        assert!(value_to_request(1, Value::Long(1)).is_none());
        assert!(value_to_reply(1, Value::Struct(vec![])).is_none());
        // wrong key element type
        let v = Value::Struct(vec![
            Value::String("I".into()),
            Value::String("op".into()),
            Value::Sequence(vec![Value::Long(1)].into()),
            Value::Struct(vec![]),
        ]);
        assert!(value_to_request(1, v).is_none());
    }

    #[test]
    fn folded_comparator_inexact_body_exact_headers() {
        let cmp = folded_comparator(Comparator::InexactRel(1e-6));
        let mut a = request();
        let mut b = request();
        b.args = vec![Value::Long(5), Value::Double(1.5 + 1e-9)];
        assert!(cmp.equivalent(&request_to_value(&a), &request_to_value(&b)));
        // header mismatch is never tolerated
        b.operation = "other".into();
        assert!(!cmp.equivalent(&request_to_value(&a), &request_to_value(&b)));
        // body beyond tolerance
        b = request();
        b.args = vec![Value::Long(5), Value::Double(2.5)];
        a.args = vec![Value::Long(5), Value::Double(1.5)];
        assert!(!cmp.equivalent(&request_to_value(&a), &request_to_value(&b)));
    }

    #[test]
    fn reply_comparator_distinguishes_statuses() {
        let cmp = folded_comparator(Comparator::InexactRel(1e-6));
        let result = ReplyMessage {
            request_id: 1,
            interface: "I".into(),
            operation: "op".into(),
            body: ReplyBody::Result(Value::ULong(3)),
        };
        let exc = ReplyMessage {
            request_id: 1,
            interface: "I".into(),
            operation: "op".into(),
            body: ReplyBody::SystemException { minor: 3 },
        };
        assert!(!cmp.equivalent(&reply_to_value(&result), &reply_to_value(&exc)));
    }
}
