//! The ORB core: request dispatch, suspension for nested invocations, and
//! platform-faithful marshalling.

use itdos_giop::giop::{
    decode_message, encode_message, GiopError, GiopMessage, ReplyBody, ReplyMessage, RequestMessage,
};
use itdos_giop::idl::InterfaceRepository;
use itdos_giop::platform::PlatformProfile;
use itdos_giop::types::Value;

use crate::adapter::ObjectAdapter;
use crate::object::ObjectKey;
use crate::servant::{NestedCall, Outcome, Servant, ServantException};

/// System exception minor codes raised by the ORB itself.
pub mod minor {
    /// The interface is not in the repository.
    pub const UNKNOWN_INTERFACE: u32 = 1;
    /// No servant is active at the object key.
    pub const OBJECT_NOT_EXIST: u32 = 2;
    /// Arguments did not conform to the operation signature.
    pub const BAD_PARAM: u32 = 3;
    /// The servant returned a value that does not conform to its declared
    /// result type (a server-side bug, deterministic across correct
    /// replicas).
    pub const INTERNAL: u32 = 4;
    /// A second request arrived while one was suspended (violates the
    /// single-outstanding-request model).
    pub const BUSY: u32 = 5;
}

/// Result of handling a request or a nested reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Dispatch {
    /// A reply is ready to send back.
    Reply(ReplyMessage),
    /// The servant suspended awaiting this nested invocation; feed the
    /// nested reply to [`Orb::handle_nested_reply`].
    Suspended(NestedCall),
}

#[derive(Debug)]
struct Suspension {
    object: ObjectKey,
    request_id: u64,
    interface: String,
    operation: String,
    token: u64,
}

/// One server process's ORB.
///
/// Single-threaded by construction (§2): at most one request chain is in
/// flight; a nested invocation suspends it until the delivery thread hands
/// back the nested reply (§3.1).
pub struct Orb {
    repo: InterfaceRepository,
    adapter: ObjectAdapter,
    platform: PlatformProfile,
    suspension: Option<Suspension>,
}

impl std::fmt::Debug for Orb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orb")
            .field("platform", &self.platform.name)
            .field("objects", &self.adapter.len())
            .field("suspended", &self.suspension.is_some())
            .finish()
    }
}

impl Orb {
    /// Creates an ORB for a server on the given platform.
    pub fn new(repo: InterfaceRepository, platform: PlatformProfile) -> Orb {
        Orb {
            repo,
            adapter: ObjectAdapter::new(),
            platform,
            suspension: None,
        }
    }

    /// The interface repository.
    pub fn repo(&self) -> &InterfaceRepository {
        &self.repo
    }

    /// This server's platform profile.
    pub fn platform(&self) -> PlatformProfile {
        self.platform
    }

    /// Activates a servant.
    pub fn activate(&mut self, key: ObjectKey, servant: Box<dyn Servant>) {
        self.adapter.activate(key, servant);
    }

    /// The object adapter.
    pub fn adapter(&self) -> &ObjectAdapter {
        &self.adapter
    }

    /// True while a request is suspended on a nested invocation.
    pub fn is_suspended(&self) -> bool {
        self.suspension.is_some()
    }

    /// Handles an unmarshalled request, dispatching to the target servant.
    pub fn handle_request(&mut self, request: &RequestMessage) -> Dispatch {
        let system = |minor: u32| {
            Dispatch::Reply(ReplyMessage {
                request_id: request.request_id,
                interface: request.interface.clone(),
                operation: request.operation.clone(),
                body: ReplyBody::SystemException { minor },
            })
        };
        if self.suspension.is_some() {
            return system(minor::BUSY);
        }
        let Some(op) = self.repo.lookup(&request.interface, &request.operation) else {
            return system(minor::UNKNOWN_INTERFACE);
        };
        if request.args.len() != op.params.len()
            || request
                .args
                .iter()
                .zip(&op.params)
                .any(|(v, (_, t))| !v.conforms(t))
        {
            return system(minor::BAD_PARAM);
        }
        let key = ObjectKey(request.object_key.clone());
        let Some(servant) = self.adapter.servant_mut(&key) else {
            return system(minor::OBJECT_NOT_EXIST);
        };
        let outcome = servant.dispatch(&request.operation, &request.args);
        self.conclude(
            key,
            request.request_id,
            request.interface.clone(),
            request.operation.clone(),
            outcome,
        )
    }

    /// Feeds the reply of a nested invocation back into the suspended
    /// servant.
    ///
    /// # Panics
    ///
    /// Panics if no request is suspended — the transport layer must only
    /// route nested replies while suspended.
    pub fn handle_nested_reply(&mut self, reply: Result<Value, ServantException>) -> Dispatch {
        let suspension = self
            .suspension
            .take()
            .expect("nested reply requires a suspended request");
        let servant = self
            .adapter
            .servant_mut(&suspension.object)
            .expect("suspended servant is still active");
        let outcome = servant.resume(suspension.token, reply);
        self.conclude(
            suspension.object,
            suspension.request_id,
            suspension.interface,
            suspension.operation,
            outcome,
        )
    }

    fn conclude(
        &mut self,
        object: ObjectKey,
        request_id: u64,
        interface: String,
        operation: String,
        outcome: Outcome,
    ) -> Dispatch {
        match outcome {
            Outcome::Complete(Ok(value)) => {
                let op = self
                    .repo
                    .lookup(&interface, &operation)
                    .expect("validated on entry");
                if !value.conforms(&op.result) {
                    return Dispatch::Reply(ReplyMessage {
                        request_id,
                        interface,
                        operation,
                        body: ReplyBody::SystemException {
                            minor: minor::INTERNAL,
                        },
                    });
                }
                // the platform's float lane models this replica's
                // library/FPU divergence on computed results (§3.6)
                let value = self.platform.perturb_value(&value);
                Dispatch::Reply(ReplyMessage {
                    request_id,
                    interface,
                    operation,
                    body: ReplyBody::Result(value),
                })
            }
            Outcome::Complete(Err(exception)) => Dispatch::Reply(ReplyMessage {
                request_id,
                interface,
                operation,
                body: ReplyBody::UserException {
                    name: exception.name,
                },
            }),
            Outcome::Nested(nested) => {
                self.suspension = Some(Suspension {
                    object,
                    request_id,
                    interface,
                    operation,
                    token: nested.token,
                });
                Dispatch::Suspended(nested)
            }
        }
    }

    /// Marshals a message in this platform's native byte order.
    ///
    /// # Errors
    ///
    /// Propagates [`GiopError`] from encoding.
    pub fn marshal(&self, message: &GiopMessage) -> Result<Vec<u8>, GiopError> {
        encode_message(message, &self.repo, self.platform.endianness)
    }

    /// Unmarshals a GIOP frame (any byte order — the frame says).
    ///
    /// # Errors
    ///
    /// Propagates [`GiopError`] from decoding.
    pub fn unmarshal(&self, bytes: &[u8]) -> Result<GiopMessage, GiopError> {
        decode_message(bytes, &self.repo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servant::FnServant;
    use itdos_giop::idl::{InterfaceDef, OperationDef};
    use itdos_giop::types::TypeDesc;

    fn repo() -> InterfaceRepository {
        let mut repo = InterfaceRepository::new();
        repo.register(
            InterfaceDef::new("Calc")
                .with_operation(OperationDef::new(
                    "add",
                    vec![("a".into(), TypeDesc::Long), ("b".into(), TypeDesc::Long)],
                    TypeDesc::Long,
                ))
                .with_operation(OperationDef::new(
                    "avg",
                    vec![("xs".into(), TypeDesc::sequence_of(TypeDesc::Double))],
                    TypeDesc::Double,
                )),
        );
        repo
    }

    fn orb(platform: PlatformProfile) -> Orb {
        let mut orb = Orb::new(repo(), platform);
        orb.activate(
            ObjectKey::from_name("calc"),
            Box::new(FnServant::new("Calc", |op, args| match op {
                "add" => match (&args[0], &args[1]) {
                    (Value::Long(a), Value::Long(b)) => Ok(Value::Long(a + b)),
                    _ => unreachable!("orb validated args"),
                },
                "avg" => {
                    let Value::Sequence(xs) = &args[0] else {
                        unreachable!("orb validated args")
                    };
                    let sum: f64 = xs
                        .iter()
                        .map(|v| match v {
                            Value::Double(d) => *d,
                            _ => 0.0,
                        })
                        .sum();
                    Ok(Value::Double(sum / xs.len().max(1) as f64))
                }
                _ => Err(ServantException::new("Calc::NoSuchOp")),
            })),
        );
        orb
    }

    fn request(op: &str, args: Vec<Value>) -> RequestMessage {
        RequestMessage {
            request_id: 1,
            trace: 0,
            response_expected: true,
            object_key: b"calc".to_vec(),
            interface: "Calc".into(),
            operation: op.into(),
            args,
        }
    }

    #[test]
    fn dispatch_returns_result() {
        let mut orb = orb(PlatformProfile::SPARC_SOLARIS);
        let d = orb.handle_request(&request("add", vec![Value::Long(2), Value::Long(3)]));
        match d {
            Dispatch::Reply(r) => assert_eq!(r.body, ReplyBody::Result(Value::Long(5))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_interface_is_system_exception() {
        let mut orb = orb(PlatformProfile::SPARC_SOLARIS);
        let mut req = request("add", vec![Value::Long(1), Value::Long(2)]);
        req.interface = "Nope".into();
        match orb.handle_request(&req) {
            Dispatch::Reply(r) => assert_eq!(
                r.body,
                ReplyBody::SystemException {
                    minor: minor::UNKNOWN_INTERFACE
                }
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_object_is_system_exception() {
        let mut orb = orb(PlatformProfile::SPARC_SOLARIS);
        let mut req = request("add", vec![Value::Long(1), Value::Long(2)]);
        req.object_key = b"ghost".to_vec();
        match orb.handle_request(&req) {
            Dispatch::Reply(r) => assert_eq!(
                r.body,
                ReplyBody::SystemException {
                    minor: minor::OBJECT_NOT_EXIST
                }
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_arguments_rejected_before_servant() {
        let mut orb = orb(PlatformProfile::SPARC_SOLARIS);
        for args in [
            vec![Value::Long(1)],                     // arity
            vec![Value::Long(1), Value::Double(2.0)], // type
        ] {
            match orb.handle_request(&request("add", args)) {
                Dispatch::Reply(r) => assert_eq!(
                    r.body,
                    ReplyBody::SystemException {
                        minor: minor::BAD_PARAM
                    }
                ),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn user_exception_propagates() {
        let mut orb = orb(PlatformProfile::SPARC_SOLARIS);
        let mut req = request("add", vec![Value::Long(1), Value::Long(2)]);
        req.operation = "avg".into();
        req.args = vec![Value::Sequence(vec![].into())];
        // avg of empty returns 0.0 — use the unknown-op path instead:
        // register "avg" exists; craft via servant error by using missing op
        // name at servant level is unreachable (repo rejects). Use Calc add
        // with servant-level failure is not reachable; test via direct
        // exception servant:
        let mut orb2 = Orb::new(repo(), PlatformProfile::SPARC_SOLARIS);
        orb2.activate(
            ObjectKey::from_name("calc"),
            Box::new(FnServant::new("Calc", |_, _| {
                Err(ServantException::new("Calc::Overflow"))
            })),
        );
        match orb2.handle_request(&request("add", vec![Value::Long(1), Value::Long(2)])) {
            Dispatch::Reply(r) => assert_eq!(
                r.body,
                ReplyBody::UserException {
                    name: "Calc::Overflow".into()
                }
            ),
            other => panic!("unexpected {other:?}"),
        }
        let _ = orb.handle_request(&req);
    }

    #[test]
    fn nonconforming_result_is_internal_error() {
        let mut orb = Orb::new(repo(), PlatformProfile::SPARC_SOLARIS);
        orb.activate(
            ObjectKey::from_name("calc"),
            Box::new(FnServant::new("Calc", |_, _| {
                Ok(Value::String("no".into()))
            })),
        );
        match orb.handle_request(&request("add", vec![Value::Long(1), Value::Long(2)])) {
            Dispatch::Reply(r) => assert_eq!(
                r.body,
                ReplyBody::SystemException {
                    minor: minor::INTERNAL
                }
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn platform_lane_perturbs_float_results() {
        let run = |platform: PlatformProfile| {
            let mut orb = orb(platform);
            let d = orb.handle_request(&request(
                "avg",
                vec![Value::Sequence(
                    vec![Value::Double(1.0), Value::Double(2.0)].into(),
                )],
            ));
            match d {
                Dispatch::Reply(r) => match r.body {
                    ReplyBody::Result(Value::Double(v)) => v,
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            }
        };
        let exact = run(PlatformProfile::SPARC_SOLARIS);
        let lane1 = run(PlatformProfile::X86_LINUX);
        assert_eq!(exact, 1.5);
        assert_ne!(exact, lane1, "heterogeneous platforms diverge");
        assert!((exact - lane1).abs() / exact < 1e-8, "...but only slightly");
    }

    #[test]
    fn marshalling_uses_native_endianness() {
        let be = orb(PlatformProfile::SPARC_SOLARIS);
        let le = orb(PlatformProfile::X86_LINUX);
        let msg = GiopMessage::Request(request("add", vec![Value::Long(1), Value::Long(2)]));
        let be_bytes = be.marshal(&msg).unwrap();
        let le_bytes = le.marshal(&msg).unwrap();
        assert_ne!(be_bytes, le_bytes);
        assert_eq!(be.unmarshal(&le_bytes).unwrap(), msg, "cross-decode works");
        assert_eq!(le.unmarshal(&be_bytes).unwrap(), msg);
    }

    struct Nester;
    impl Servant for Nester {
        fn interface(&self) -> &str {
            "Calc"
        }
        fn dispatch(&mut self, _op: &str, args: &[Value]) -> Outcome {
            Outcome::Nested(NestedCall {
                target: crate::object::ObjectRef::new(
                    "Calc",
                    ObjectKey::from_name("remote"),
                    crate::object::DomainAddr(9),
                ),
                operation: "add".into(),
                args: args.to_vec(),
                token: 7,
            })
        }
        fn resume(&mut self, token: u64, reply: Result<Value, ServantException>) -> Outcome {
            assert_eq!(token, 7);
            Outcome::Complete(reply)
        }
    }

    #[test]
    fn nested_invocation_suspends_and_resumes() {
        let mut orb = Orb::new(repo(), PlatformProfile::SPARC_SOLARIS);
        orb.activate(ObjectKey::from_name("calc"), Box::new(Nester));
        let d = orb.handle_request(&request("add", vec![Value::Long(1), Value::Long(2)]));
        let Dispatch::Suspended(nested) = d else {
            panic!("expected suspension");
        };
        assert!(orb.is_suspended());
        assert_eq!(nested.target.domain, crate::object::DomainAddr(9));
        // while suspended, new requests are refused (single-threaded model)
        match orb.handle_request(&request("add", vec![Value::Long(1), Value::Long(2)])) {
            Dispatch::Reply(r) => {
                assert_eq!(r.body, ReplyBody::SystemException { minor: minor::BUSY })
            }
            other => panic!("unexpected {other:?}"),
        }
        // nested reply arrives; the original request completes
        match orb.handle_nested_reply(Ok(Value::Long(42))) {
            Dispatch::Reply(r) => {
                assert_eq!(r.request_id, 1);
                assert_eq!(r.body, ReplyBody::Result(Value::Long(42)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!orb.is_suspended());
    }
}
