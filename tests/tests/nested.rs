//! E10: nested invocations — one replication domain as the client of
//! another (§3.1's second-thread delivery model, §3.3 domain-to-domain
//! connections).

use itdos_tests::common;

use common::{repo, DeskServant, BANK, CLIENT, PRICER};
use itdos::fault::Behavior;
use itdos::SystemBuilder;
use itdos_giop::types::Value;
use itdos_groupmgr::membership::DomainId;
use itdos_orb::object::{DomainAddr, ObjectKey, ObjectRef};
use itdos_orb::servant::{FnServant, NestedCall, Outcome, Servant, ServantException};

fn pricer_servant(price: i64) -> Box<dyn Servant> {
    Box::new(FnServant::new("Trade::Pricer", move |_, _| {
        Ok(Value::LongLong(price))
    }))
}

fn trading_system(seed: u64) -> SystemBuilder {
    let mut builder = SystemBuilder::new(seed);
    builder.repository(repo());
    builder.add_domain(
        BANK,
        1,
        Box::new(|_| {
            vec![(
                ObjectKey::from_name("desk"),
                Box::new(DeskServant::default()) as Box<dyn Servant>,
            )]
        }),
    );
    builder.add_domain(
        PRICER,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("pricer"), pricer_servant(7))]),
    );
    builder.add_client(CLIENT);
    builder
}

/// A replicated desk invokes a replicated pricer and multiplies: the
/// nested request flows through the pricer's ordering group, the nested
/// reply flows back through the desk's own ordering group, and the client
/// gets quantity × price.
#[test]
fn nested_invocation_across_domains() {
    let mut system = trading_system(31).build();
    let done = system.invoke(
        CLIENT,
        itdos::Invocation::of(BANK)
            .object(b"desk")
            .interface("Trade::Desk")
            .operation("value_position")
            .arg(Value::LongLong(10)),
    );
    assert_eq!(done.result, Ok(Value::LongLong(70)), "10 × 7");
    // the pricer domain actually served the nested request
    for index in 0..4 {
        assert!(
            system.element(PRICER, index).requests_handled >= 1,
            "pricer element {index} executed the nested request"
        );
    }
}

/// The desk→pricer connection is opened once and reused across
/// invocations (§3.4).
#[test]
fn nested_connection_is_reused() {
    let mut system = trading_system(32).build();
    for quantity in [1i64, 2, 3] {
        let done = system.invoke(
            CLIENT,
            itdos::Invocation::of(BANK)
                .object(b"desk")
                .interface("Trade::Desk")
                .operation("value_position")
                .arg(Value::LongLong(quantity)),
        );
        assert_eq!(done.result, Ok(Value::LongLong(quantity * 7)));
    }
    // connections on a desk element: one inbound (client→desk), one
    // outbound (desk→pricer)
    assert_eq!(system.element(BANK, 0).connection_count(), 2);
}

/// A Byzantine pricer element is outvoted inside the desk's reply voter;
/// the client still gets the correct product.
#[test]
fn nested_reply_voting_masks_faulty_pricer() {
    let mut builder = trading_system(33);
    builder.behavior(PRICER, 1, Behavior::CorruptValue);
    let mut system = builder.build();
    let done = system.invoke(
        CLIENT,
        itdos::Invocation::of(BANK)
            .object(b"desk")
            .interface("Trade::Desk")
            .operation("value_position")
            .arg(Value::LongLong(5)),
    );
    assert_eq!(
        done.result,
        Ok(Value::LongLong(35)),
        "5 × 7 despite the fault"
    );
}

/// Depth-2 nesting: client → desk → quoter → pricer.
#[test]
fn depth_two_nesting() {
    const QUOTER: DomainId = DomainId(3);

    /// Relays `unit_price` to the pricer, adding a spread of 1.
    struct QuoterServant;
    impl Servant for QuoterServant {
        fn interface(&self) -> &str {
            "Trade::Pricer"
        }
        fn dispatch(&mut self, _op: &str, _args: &[Value]) -> Outcome {
            Outcome::Nested(NestedCall {
                target: ObjectRef::new(
                    "Trade::Pricer",
                    ObjectKey::from_name("pricer"),
                    DomainAddr(PRICER.0),
                ),
                operation: "unit_price".into(),
                args: vec![],
                token: 9,
            })
        }
        fn resume(&mut self, _token: u64, reply: Result<Value, ServantException>) -> Outcome {
            Outcome::Complete(match reply {
                Ok(Value::LongLong(p)) => Ok(Value::LongLong(p + 1)),
                other => other,
            })
        }
    }

    /// Desk variant that consults the quoter domain instead.
    struct DeskViaQuoter {
        quantity: Option<i64>,
    }
    impl Servant for DeskViaQuoter {
        fn interface(&self) -> &str {
            "Trade::Desk"
        }
        fn dispatch(&mut self, _op: &str, args: &[Value]) -> Outcome {
            let Value::LongLong(q) = args[0] else {
                return Outcome::Complete(Err(ServantException::new("Trade::BadArgs")));
            };
            self.quantity = Some(q);
            Outcome::Nested(NestedCall {
                target: ObjectRef::new(
                    "Trade::Pricer",
                    ObjectKey::from_name("quoter"),
                    DomainAddr(QUOTER.0),
                ),
                operation: "unit_price".into(),
                args: vec![],
                token: 2,
            })
        }
        fn resume(&mut self, _token: u64, reply: Result<Value, ServantException>) -> Outcome {
            let q = self.quantity.take().unwrap_or(0);
            Outcome::Complete(match reply {
                Ok(Value::LongLong(p)) => Ok(Value::LongLong(p * q)),
                other => other,
            })
        }
    }

    let mut builder = SystemBuilder::new(34);
    builder.repository(repo());
    builder.add_domain(
        BANK,
        1,
        Box::new(|_| {
            vec![(
                ObjectKey::from_name("desk"),
                Box::new(DeskViaQuoter { quantity: None }) as Box<dyn Servant>,
            )]
        }),
    );
    builder.add_domain(
        QUOTER,
        1,
        Box::new(|_| {
            vec![(
                ObjectKey::from_name("quoter"),
                Box::new(QuoterServant) as Box<dyn Servant>,
            )]
        }),
    );
    builder.add_domain(
        PRICER,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("pricer"), pricer_servant(7))]),
    );
    builder.add_client(CLIENT);
    let mut system = builder.build();
    let done = system.invoke(
        CLIENT,
        itdos::Invocation::of(BANK)
            .object(b"desk")
            .interface("Trade::Desk")
            .operation("value_position")
            .arg(Value::LongLong(3)),
    );
    assert_eq!(done.result, Ok(Value::LongLong(24)), "3 × (7 + 1)");
}
