//! Shared builders for the integration suite.

use std::collections::VecDeque;

use itdos::system::SystemBuilder;
use itdos::Invocation;
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::types::{TypeDesc, Value};
use itdos_groupmgr::membership::DomainId;
use itdos_orb::object::{DomainAddr, ObjectKey, ObjectRef};
use itdos_orb::servant::{FnServant, NestedCall, Outcome, Servant, ServantException};
use itdos_vote::comparator::Comparator;
use simnet::{Context, NodeId, Process, SimDuration, Timer};
use xbytes::Bytes;

/// The bank domain used throughout the suite.
pub const BANK: DomainId = DomainId(1);
/// A pricing domain used by nested-invocation scenarios.
pub const PRICER: DomainId = DomainId(2);
/// The default test client.
pub const CLIENT: u64 = 1;

/// The shared interface repository: a bank account, a float-valued sensor,
/// and a two-level trading service.
pub fn repo() -> InterfaceRepository {
    let mut repo = InterfaceRepository::new();
    repo.register(
        InterfaceDef::new("Bank::Account")
            .with_operation(OperationDef::new(
                "deposit",
                vec![("amount".into(), TypeDesc::LongLong)],
                TypeDesc::LongLong,
            ))
            .with_operation(OperationDef::new("balance", vec![], TypeDesc::LongLong)),
    );
    repo.register(
        InterfaceDef::new("Sensor::Fusion").with_operation(OperationDef::new(
            "read_average",
            vec![("samples".into(), TypeDesc::sequence_of(TypeDesc::Double))],
            TypeDesc::Double,
        )),
    );
    repo.register(
        InterfaceDef::new("Trade::Desk").with_operation(OperationDef::new(
            "value_position",
            vec![("quantity".into(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    repo.register(
        InterfaceDef::new("Trade::Pricer").with_operation(OperationDef::new(
            "unit_price",
            vec![],
            TypeDesc::LongLong,
        )),
    );
    repo
}

/// A deterministic bank-account servant (stateful per replica).
pub fn bank_servant() -> Box<dyn Servant> {
    let mut balance = 0i64;
    Box::new(FnServant::new("Bank::Account", move |op, args| match op {
        "deposit" => {
            if let Value::LongLong(amount) = args[0] {
                balance += amount;
            }
            Ok(Value::LongLong(balance))
        }
        "balance" => Ok(Value::LongLong(balance)),
        _ => Err(ServantException::new("Bank::NoSuchOp")),
    }))
}

/// A sensor servant computing the mean of its samples (float result — the
/// platform lane perturbs it, so voting must be inexact).
pub fn sensor_servant() -> Box<dyn Servant> {
    Box::new(FnServant::new("Sensor::Fusion", |_, args| {
        let Value::Sequence(samples) = &args[0] else {
            return Err(ServantException::new("Sensor::BadArgs"));
        };
        let sum: f64 = samples
            .iter()
            .map(|v| match v {
                Value::Double(d) => *d,
                _ => 0.0,
            })
            .sum();
        Ok(Value::Double(sum / samples.len().max(1) as f64))
    }))
}

/// A trading-desk servant that makes a nested invocation on the pricer
/// domain to value a position.
pub struct DeskServant {
    pending_quantity: Option<i64>,
}

impl DeskServant {
    pub fn new() -> DeskServant {
        DeskServant {
            pending_quantity: None,
        }
    }
}

impl Servant for DeskServant {
    fn interface(&self) -> &str {
        "Trade::Desk"
    }

    fn dispatch(&mut self, _op: &str, args: &[Value]) -> Outcome {
        let Value::LongLong(quantity) = args[0] else {
            return Outcome::Complete(Err(ServantException::new("Trade::BadArgs")));
        };
        self.pending_quantity = Some(quantity);
        Outcome::Nested(NestedCall {
            target: ObjectRef::new(
                "Trade::Pricer",
                ObjectKey::from_name("pricer"),
                DomainAddr(PRICER.0),
            ),
            operation: "unit_price".into(),
            args: vec![],
            token: 1,
        })
    }

    fn resume(&mut self, _token: u64, reply: Result<Value, ServantException>) -> Outcome {
        let quantity = self.pending_quantity.take().unwrap_or(0);
        Outcome::Complete(match reply {
            Ok(Value::LongLong(price)) => Ok(Value::LongLong(price * quantity)),
            Ok(other) => Ok(other),
            Err(e) => Err(e),
        })
    }
}

/// A builder pre-loaded with the shared repository, sensor comparator, the
/// bank domain (f = 1), and one client.
pub fn bank_system(seed: u64) -> SystemBuilder {
    let mut builder = SystemBuilder::new(seed);
    builder.repository(repo());
    builder.comparator("Sensor::Fusion", Comparator::InexactRel(1e-6));
    builder.add_domain(
        BANK,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
    );
    builder.add_client(CLIENT);
    builder
}

/// `deposit(amount)` on the bank's account.
pub fn deposit(amount: i64) -> Invocation {
    Invocation::of(BANK)
        .object(b"acct")
        .interface("Bank::Account")
        .operation("deposit")
        .arg(Value::LongLong(amount))
}

/// A hostile peer: sends each `(node, frame)` in turn, 50 µs apart — more
/// than a link's jitter, so they arrive in the order given.
pub struct Inject(pub VecDeque<(NodeId, Bytes)>);

impl Inject {
    /// Sends `frame` to every node of `to`.
    pub fn to_all(to: &[NodeId], frame: &Bytes) -> Box<Inject> {
        Box::new(Inject(to.iter().map(|&n| (n, frame.clone())).collect()))
    }

    fn send_next(&mut self, ctx: &mut Context<'_>) {
        if let Some((to, frame)) = self.0.pop_front() {
            ctx.send(to, frame);
            ctx.set_timer(SimDuration::from_micros(50), 0);
        }
    }
}

impl Process for Inject {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.send_next(ctx);
    }

    fn on_message(&mut self, _: &mut Context<'_>, _: NodeId, _: Bytes) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _: Timer) {
        self.send_next(ctx);
    }
}
