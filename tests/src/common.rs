//! Shared builders for the integration suite.

use std::collections::VecDeque;

use itdos::system::{System, SystemBuilder};
use itdos::{Completed, Invocation, GM_DOMAIN};
use itdos_bft::state::StateMachine;
use itdos_bft::{Output, Replica};
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::types::{TypeDesc, Value};
use itdos_groupmgr::membership::{DomainId, Membership};
use itdos_orb::object::{DomainAddr, ObjectKey, ObjectRef};
use itdos_orb::servant::{FnServant, NestedCall, Outcome, Servant, ServantException};
use itdos_vote::comparator::Comparator;
use simnet::{Context, NodeId, Process, SimDuration, Timer};
use xbytes::Bytes;

/// The bank domain used throughout the suite.
pub const BANK: DomainId = DomainId(1);
/// The sensor domain of the replacement drills (a deployment has either it
/// or [`BANK`]).
pub const SENSOR: DomainId = DomainId(1);
/// A pricing domain used by nested-invocation scenarios.
pub const PRICER: DomainId = DomainId(2);
/// The default test client.
pub const CLIENT: u64 = 1;

/// Drains `replica`'s queued outputs into a fresh buffer, as a host that
/// keeps none of its own would.
pub fn outputs<S: StateMachine>(replica: &mut Replica<S>) -> Vec<Output> {
    let mut outputs = Vec::new();
    replica.swap_outputs(&mut outputs);
    outputs
}

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
#[derive(Default)]
pub struct DeskServant {
    pending_quantity: Option<i64>,
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

/// A builder with the shared repository, the (stateless) sensor domain
/// (f = 1) and one client. Its replies depend only on the request
/// arguments, matching the paper's §3.1 model where the replicated message
/// queue — not application object state — is what state synchronization
/// transfers: a fresh joiner converges with its peers from its admission
/// point onward.
pub fn sensor_system(seed: u64) -> SystemBuilder {
    let mut builder = SystemBuilder::new(seed);
    builder.repository(repo());
    builder.comparator("Sensor::Fusion", Comparator::InexactRel(1e-6));
    builder.add_domain(
        SENSOR,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("fusion"), sensor_servant())]),
    );
    builder.add_client(CLIENT);
    builder
}

/// `read_average([1.0, 3.0])` on the sensor domain.
pub fn read_average(system: &mut System) -> Completed {
    system.invoke(
        CLIENT,
        Invocation::of(SENSOR)
            .object(b"fusion")
            .interface("Sensor::Fusion")
            .operation("read_average")
            .arg(Value::Sequence(
                vec![Value::Double(1.0), Value::Double(3.0)].into(),
            )),
    )
}

/// Asserts `read_average`'s reply is the mean, 2.0.
pub fn assert_mean(done: &Completed) {
    match done.result {
        Ok(Value::Double(v)) => assert!((v - 2.0).abs() < 1e-6, "mean: {v}"),
        ref other => panic!("expected a double, got {other:?}"),
    }
}

/// Every Group Manager element's membership table, in element order: as
/// many as the GM domain has elements (3 f_gm + 1).
pub fn gm_memberships(system: &System) -> impl Iterator<Item = &Membership> {
    let n = system.fabric.domain(GM_DOMAIN).nodes.len();
    (0..n).map(|i| system.gm_element(i).replica().app().manager().membership())
}

/// `domain`'s active roster size as each GM element sees it.
pub fn gm_active_counts(system: &System, domain: DomainId) -> Vec<usize> {
    gm_memberships(system)
        .map(|m| m.domain(domain).expect("domain registered").active_count())
        .collect()
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
