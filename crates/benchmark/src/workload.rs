//! The six workloads and the epoch runner that drives them.
//!
//! An *epoch* is one fresh [`System`]: timed set-up, then a fixed number
//! of closed-loop *waves*. A wave submits its requests with
//! `invoke_async`, steps the simulator until every one of them is in
//! `client.completed` — that is where an op's sim latency stops; timing
//! `invoke()`/`settle()` instead would include a trailing 400 ms
//! retransmit timer and report 400 000 µs for every op — then, on
//! quiescing workloads, runs on to quiescence, and checks every reply.
//!
//! Host clock = `Instant` around the benchmark's own calls. Sim clock =
//! `system.sim.now()`.

use std::time::Instant;

use itdos::heal::HealConfig;
use itdos::{Behavior, Invocation, ObsConfig, ServerElement, System, SystemBuilder};
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::platform::PlatformProfile;
use itdos_giop::types::{TypeDesc, Value};
use itdos_groupmgr::membership::DomainId;
use itdos_orb::object::ObjectKey;
use itdos_orb::servant::{FnServant, Servant, ServantException};
use xrand::rngs::SmallRng;
use xrand::{Rng, SeedableRng};

use crate::alloc;
use crate::calib;
use crate::spans::Spans;
use crate::trace::{Counts, Traced};

/// The one server replication domain every workload targets.
pub const DOMAIN: DomainId = DomainId(1);

/// Every op runs under this many simulator steps; on exhaustion the op
/// and the rest of its epoch count as failed and the run continues.
pub const STEP_BUDGET: u64 = 2_000_000;

/// Flight-ring capacity of a traced epoch: large enough that no trace
/// anchor of its (at most 256) waves is evicted.
const TRACED_FLIGHT_CAPACITY: usize = 1 << 20;

/// Healing-campaign windows, as BENCH_heal's healed campaign set them
/// (derived from the wave cadence in `examples/continuous_intrusion.rs`).
const REJUVENATION_PERIOD_US: u64 = 1_500_000;
const DECAY_WINDOW_US: u64 = 600_000;
/// Invocations per intrusion wave.
const ECHOES_PER_WAVE: usize = 6;

/// The six workloads (README.md says why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// 1 client, depth 1, `Counter.add(LongLong)`, quiesced per op.
    SmallClosed,
    /// 1 client, depth 1, `Store.put` of a 16 KiB octet sequence.
    BulkClosed,
    /// 8 clients × pipeline 8, `batching(8, 16)`, `Counter.add`.
    PipelinedBatch,
    /// 256 clients; op = connection open + first `Counter.add`.
    ConnectStorm,
    /// `small_closed`'s loop, never quiesced, so history accumulates.
    SustainedHistory,
    /// Healed continuous-intrusion campaign; op = one wave.
    IntrusionCampaign,
}

/// What one request of an invocation workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Counter.add(delta)`; the reply is the running total.
    CounterAdd,
    /// `Store.put(blob)` of this many octets; the reply is the length.
    StorePut(usize),
}

/// The fixed shape of one epoch of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Singleton clients in the deployment.
    pub clients: u64,
    /// Requests each participating client keeps in flight per wave.
    pub depth: usize,
    /// Waves per epoch.
    pub waves: usize,
    /// What a request does (ignored by `intrusion_campaign`).
    pub op: Op,
    /// `batching(max_batch, pipeline_depth)` override, if any.
    pub batching: Option<(usize, u64)>,
    /// Whether set-up opens every connection (first invocation per
    /// client). `connect_storm` leaves them closed: the open *is* its op,
    /// and each wave is then one client's first invocation.
    pub connect_in_setup: bool,
    /// Whether an op runs on to quiescence after its reply is voted, as
    /// `System::invoke` does, so its host time and message counts cover
    /// the trailing work (late replies, acks, timers). Without it the
    /// 50 ms retransmit timers of earlier ops fire inside later ones and
    /// per-op cost drifts with history — which `sustained_history`
    /// measures on purpose and `pipelined_batch` is too short to meet.
    pub quiesce: bool,
    /// Leading epochs whose sim-clock and count metrics are reported.
    /// They always run, so those metrics are a pure function of the seed
    /// however many further epochs the time budget allows.
    pub det_epochs: usize,
}

impl Workload {
    /// All six, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 6] = [
        Workload::SmallClosed,
        Workload::BulkClosed,
        Workload::PipelinedBatch,
        Workload::ConnectStorm,
        Workload::SustainedHistory,
        Workload::IntrusionCampaign,
    ];

    /// The workload's name in BENCHMARK.json.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallClosed => "small_closed",
            Workload::BulkClosed => "bulk_closed",
            Workload::PipelinedBatch => "pipelined_batch",
            Workload::ConnectStorm => "connect_storm",
            Workload::SustainedHistory => "sustained_history",
            Workload::IntrusionCampaign => "intrusion_campaign",
        }
    }

    /// Looks a workload up by its BENCHMARK.json name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Epoch shape. `tiny` shrinks every epoch to a handful of waves for
    /// the smoke test; the metrics keep their names and meaning.
    pub fn shape(self, tiny: bool) -> Shape {
        let base = Shape {
            clients: 1,
            depth: 1,
            waves: 0,
            op: Op::CounterAdd,
            batching: None,
            connect_in_setup: true,
            quiesce: true,
            det_epochs: 1,
        };
        let shape = match self {
            Workload::SmallClosed => Shape {
                waves: 1500,
                det_epochs: 2,
                ..base
            },
            Workload::BulkClosed => Shape {
                waves: 120,
                op: Op::StorePut(16 * 1024),
                det_epochs: 2,
                ..base
            },
            // 256 requests per client per epoch: with >= 4 clients and no
            // quiescence the domain livelocks after ~3.6-5.3k requests
            // (README.md, "Cliffs"), so an epoch stays far below that
            Workload::PipelinedBatch => Shape {
                clients: 8,
                depth: 8,
                waves: 32,
                batching: Some((8, 16)),
                quiesce: false,
                det_epochs: 2,
                ..base
            },
            Workload::ConnectStorm => Shape {
                clients: 256,
                waves: 256,
                connect_in_setup: false,
                det_epochs: 4,
                ..base
            },
            Workload::SustainedHistory => Shape {
                waves: 2000,
                quiesce: false,
                det_epochs: 3,
                ..base
            },
            Workload::IntrusionCampaign => Shape {
                waves: 2,
                det_epochs: 8,
                ..base
            },
        };
        if !tiny {
            return shape;
        }
        Shape {
            clients: shape.clients.min(8),
            waves: match self {
                Workload::IntrusionCampaign | Workload::PipelinedBatch => 2,
                _ => 4,
            },
            op: match shape.op {
                Op::StorePut(_) => Op::StorePut(1024),
                op => op,
            },
            det_epochs: 1,
            ..shape
        }
    }

    /// Ops in one wave: the requests it submits, except on
    /// `intrusion_campaign`, where the wave itself is the op.
    pub fn ops_per_wave(self, shape: &Shape) -> usize {
        match self {
            Workload::ConnectStorm | Workload::IntrusionCampaign => 1,
            _ => shape.clients as usize * shape.depth,
        }
    }
}

/// Everything one epoch measured. An *op* is one request, except on
/// `intrusion_campaign` where it is one wave.
#[derive(Debug, Default)]
pub struct Epoch {
    /// Host ns to `build()` and open every connection.
    pub setup_ns: u64,
    /// Host ns the reference work took right after set-up.
    pub setup_ref_ns: f64,
    /// Host ns per op, one sample per wave (wave time ÷ ops in it).
    pub op_host_ns: Vec<f64>,
    /// Host ns the reference work took right after each wave.
    pub ref_ns: Vec<f64>,
    /// Sim µs submit → voted reply, one per op.
    pub sim_latency_us: Vec<u64>,
    /// Sim µs from submit to last completion, summed over the waves (the
    /// idle drain to quiescence between waves is not service time).
    pub sim_window_us: u64,
    /// `sim.stats().total` deltas over the measured waves, per wave.
    pub wave_msgs: Vec<u64>,
    /// Wire bytes over the measured waves.
    pub wire_bytes: u64,
    /// Heap allocations / bytes requested during the measured waves.
    pub allocs: u64,
    /// See `allocs`.
    pub alloc_bytes: u64,
    /// Simulator steps the measured waves took.
    pub steps: u64,
    /// Ops attempted (always the full epoch) and ops that failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Why the first failure happened, for the operator.
    pub failure: Option<String>,
    /// What a traced epoch read back from the system's own telemetry.
    pub traced: Option<Traced>,
}

impl Epoch {
    /// Ops that completed with the right value.
    pub fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Messages over the measured waves.
    pub fn msgs(&self) -> u64 {
        self.wave_msgs.iter().sum()
    }
}

/// The interface repository every workload deploys (layer replays encode
/// against the same one).
pub fn repository() -> InterfaceRepository {
    let mut repo = InterfaceRepository::new();
    repo.register(
        InterfaceDef::new("Counter").with_operation(OperationDef::new(
            "add",
            vec![("delta".into(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    repo.register(InterfaceDef::new("Store").with_operation(OperationDef::new(
        "put",
        vec![("blob".into(), TypeDesc::sequence_of(TypeDesc::Octet))],
        TypeDesc::ULong,
    )));
    repo.register(
        InterfaceDef::new("Sensor").with_operation(OperationDef::new(
            "echo",
            vec![("sample".into(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    repo
}

fn servants() -> Vec<(ObjectKey, Box<dyn Servant>)> {
    let mut total = 0i64;
    let counter = FnServant::new("Counter", move |_, args| {
        if let Some(Value::LongLong(d)) = args.first() {
            total = total.wrapping_add(*d);
        }
        Ok(Value::LongLong(total))
    });
    let store = FnServant::new("Store", |_, args| match args.first() {
        Some(Value::Sequence(s)) => Ok(Value::ULong(s.len() as u32)),
        _ => Err(ServantException::new("Store::BadArgs")),
    });
    // stateless, so healing replacements converge from admission onward
    let sensor = FnServant::new("Sensor", |_, args| match args.first() {
        Some(Value::LongLong(v)) => Ok(Value::LongLong(v.wrapping_mul(2))),
        _ => Ok(Value::LongLong(0)),
    });
    vec![
        (ObjectKey::from_name("counter"), Box::new(counter)),
        (ObjectKey::from_name("store"), Box::new(store)),
        (ObjectKey::from_name("sensor"), Box::new(sensor)),
    ]
}

/// f = 1, the four heterogeneous platform profiles, default
/// `queue_capacity`/`ack_interval`.
fn build(workload: Workload, shape: &Shape, seed: u64, traced: bool) -> System {
    let mut builder = SystemBuilder::new(seed);
    builder.repository(repository());
    builder.add_domain(DOMAIN, 1, Box::new(|_| servants()));
    builder.platforms(DOMAIN, PlatformProfile::ALL.to_vec());
    for client in 1..=shape.clients {
        builder.add_client(client);
    }
    builder.client_pipeline(shape.depth);
    builder.settle_budget(STEP_BUDGET);
    if let Some((max_batch, depth)) = shape.batching {
        builder.batching(max_batch, depth);
    }
    if workload == Workload::IntrusionCampaign {
        // forensic obs, streaming audit and the healing controller are on
        // in the untraced run too: they are the product under test here
        builder.obs(ObsConfig::forensic());
        builder.healing(HealConfig {
            expel_below: 45,
            rejuvenation_period_us: Some(REJUVENATION_PERIOD_US),
            decay_window_us: Some(DECAY_WINDOW_US),
            max_rounds: 8,
        });
    } else if traced {
        builder.obs(ObsConfig::forensic().with_flight_capacity(TRACED_FLIGHT_CAPACITY));
    }
    builder.build()
}

fn invocation(op: Op, rng: &mut SmallRng) -> (Invocation, i64) {
    match op {
        Op::CounterAdd => {
            let delta = rng.gen_range(1u64..=1000) as i64;
            let inv = Invocation::of(DOMAIN)
                .object(b"counter")
                .interface("Counter")
                .operation("add")
                .arg(Value::LongLong(delta));
            (inv, delta)
        }
        Op::StorePut(len) => {
            let mut blob = vec![0u8; len];
            rng.fill(&mut blob);
            let inv = Invocation::of(DOMAIN)
                .object(b"store")
                .interface("Store")
                .operation("put")
                .arg(Value::Sequence(
                    blob.into_iter().map(Value::Octet).collect(),
                ));
            (inv, len as i64)
        }
    }
}

/// Why a wave stopped early.
#[derive(Debug)]
enum Stall {
    Budget,
    RanDry,
}

/// Per-epoch bookkeeping shared by set-up and the measured waves.
struct Driver {
    system: System,
    rng: SmallRng,
    op: Op,
    quiesce: bool,
    /// Completions already seen, per client id (index = id - 1).
    seen: Vec<usize>,
    /// The replicated counter's running total.
    total: i64,
}

/// What one completed wave measured.
struct Wave {
    steps: u64,
    /// Sim µs submit → voted reply, per request.
    latencies_us: Vec<u64>,
    wrong: u64,
}

impl Driver {
    /// Submits `depth` requests from each of `clients`, steps until all
    /// have completed (and on to quiescence, if the workload quiesces),
    /// then checks every reply.
    fn wave(
        &mut self,
        clients: std::ops::RangeInclusive<u64>,
        depth: usize,
        spans: &mut Spans,
    ) -> Result<Wave, Stall> {
        let submit = spans.begin("submit");
        let before = self.total;
        let mut expected: Vec<(u64, usize, i64)> = Vec::with_capacity(clients.clone().count());
        for client in clients.clone() {
            for _ in 0..depth {
                let (inv, want) = invocation(self.op, &mut self.rng);
                if self.op == Op::CounterAdd {
                    self.total += want;
                }
                let ticket = self.system.invoke_async(client, inv);
                expected.push((client, ticket.index, want));
            }
        }
        spans.end(submit);

        let drive = spans.begin("drive");
        let start = self.system.sim.now();
        let mut pending = expected.len();
        let mut latencies_us = Vec::with_capacity(pending);
        let mut steps = 0u64;
        while pending > 0 {
            if steps >= STEP_BUDGET {
                spans.end(drive);
                return Err(Stall::Budget);
            }
            if !self.system.sim.step() {
                spans.end(drive);
                return Err(Stall::RanDry);
            }
            steps += 1;
            for client in clients.clone() {
                let seen = &mut self.seen[client as usize - 1];
                let done = self.system.client(client).completed.len();
                while *seen < done {
                    *seen += 1;
                    pending -= 1;
                    latencies_us.push(self.system.sim.now().since(start).as_micros());
                }
            }
        }
        spans.end(drive);

        if self.quiesce {
            let settle = spans.begin("settle");
            while self.system.sim.step() {
                steps += 1;
                if steps >= STEP_BUDGET {
                    spans.end(settle);
                    return Err(Stall::Budget);
                }
            }
            // nothing is left to step; this pumps the streaming audit
            // when a traced epoch has observability on
            let pumped = self.system.try_settle();
            spans.end(settle);
            if pumped.is_err() {
                return Err(Stall::Budget);
            }
        }

        // every reply is checked; a wrong value is a failed op, not a panic
        let mut wrong = 0;
        let mut highest = i64::MIN;
        for &(client, index, want) in &expected {
            let result = self
                .system
                .client(client)
                .completed
                .get(index)
                .map(|c| &c.result);
            let ok = match (self.op, result) {
                // concurrent adds may execute in any order: each running
                // total lies between "only mine applied" and "all applied"
                (Op::CounterAdd, Some(Ok(Value::LongLong(total)))) => {
                    highest = highest.max(*total);
                    (before + want..=self.total).contains(total)
                }
                (Op::StorePut(_), Some(Ok(Value::ULong(len)))) => i64::from(*len) == want,
                _ => false,
            };
            wrong += u64::from(!ok);
        }
        if self.op == Op::CounterAdd && wrong == 0 && highest != self.total {
            wrong = 1; // some add was lost: nobody saw the full total
        }
        Ok(Wave {
            steps,
            latencies_us,
            wrong,
        })
    }
}

/// The timed window of one wave: host clock, allocation counters and
/// network totals read when it opens, their deltas when it closes.
struct Window {
    net: simnet::trace::Counter,
    allocs: u64,
    alloc_bytes: u64,
    clock: Instant,
}

/// A closed [`Window`], not yet booked to its epoch.
struct Closed {
    window: Window,
    host_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Window {
    fn open(system: &System) -> Window {
        let (allocs, alloc_bytes) = alloc::counts();
        Window {
            net: system.sim.stats().total,
            allocs,
            alloc_bytes,
            clock: Instant::now(),
        }
    }

    fn close(self) -> Closed {
        let host_ns = self.clock.elapsed().as_nanos() as u64;
        let (allocs, alloc_bytes) = alloc::counts();
        Closed {
            host_ns,
            allocs: allocs - self.allocs,
            alloc_bytes: alloc_bytes - self.alloc_bytes,
            window: self,
        }
    }
}

impl Closed {
    /// Books a completed wave of `ops` ops, and times the reference work
    /// while the host is still in the state the wave ran in.
    fn book(self, system: &System, epoch: &mut Epoch, ops: usize) {
        let net = system.sim.stats().total;
        epoch.op_host_ns.push(self.host_ns as f64 / ops as f64);
        epoch.ref_ns.push(calib::time_reference());
        epoch
            .wave_msgs
            .push(net.messages - self.window.net.messages);
        epoch.wire_bytes += net.bytes - self.window.net.bytes;
        epoch.allocs += self.allocs;
        epoch.alloc_bytes += self.alloc_bytes;
    }
}

/// Runs one epoch of `workload`. Never panics on a stalled or wrong op:
/// those are counted in [`Epoch::failed`].
pub fn run_epoch(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    traced: bool,
    spans: &mut Spans,
) -> Epoch {
    if workload == Workload::IntrusionCampaign {
        return run_campaign(shape, seed, traced, spans);
    }
    let width = workload.ops_per_wave(shape);
    let mut epoch = Epoch {
        attempted: (shape.waves * width) as u64,
        op_host_ns: Vec::with_capacity(shape.waves),
        sim_latency_us: Vec::with_capacity(shape.waves * width),
        wave_msgs: Vec::with_capacity(shape.waves),
        ..Epoch::default()
    };

    let setup = Instant::now();
    let build_span = spans.begin("build");
    let system = build(workload, shape, seed, traced);
    spans.end(build_span);
    let mut driver = Driver {
        system,
        // the product sees only inputs generated from the seed
        rng: SmallRng::seed_from_u64(seed ^ 0x5eed_1257_0b5e_55ed),
        op: shape.op,
        quiesce: shape.quiesce,
        seen: vec![0; shape.clients as usize],
        total: 0,
    };
    if shape.connect_in_setup {
        let connect = spans.begin("connect");
        for client in 1..=shape.clients {
            match driver.wave(client..=client, 1, &mut Spans::off()) {
                Ok(wave) if wave.wrong == 0 => {}
                outcome => {
                    epoch.failed = epoch.attempted;
                    epoch.failure = Some(format!(
                        "connect of client {client} failed: {:?}",
                        outcome.map(|w| w.wrong)
                    ));
                    spans.end(connect);
                    return epoch;
                }
            }
        }
        spans.end(connect);
    }
    epoch.setup_ns = setup.elapsed().as_nanos() as u64;
    epoch.setup_ref_ns = calib::time_reference();
    let base = Counts::read(&driver.system);

    let mut completed_ops = 0u64;
    for wave_no in 0..shape.waves {
        let clients = match workload {
            Workload::ConnectStorm => wave_no as u64 + 1..=wave_no as u64 + 1,
            _ => 1..=shape.clients,
        };
        let op_span = spans.begin_op("op", wave_no as u64);
        let window = Window::open(&driver.system);
        let outcome = driver.wave(clients, shape.depth, spans);
        let closed = window.close();
        spans.end(op_span);
        let wave = match outcome {
            Ok(wave) => wave,
            Err(stall) => {
                epoch.failure = Some(format!(
                    "wave {wave_no}: {stall:?} under {STEP_BUDGET} steps"
                ));
                break;
            }
        };
        closed.book(&driver.system, &mut epoch, width);
        epoch.sim_window_us += wave.latencies_us.iter().max().copied().unwrap_or(0);
        epoch.sim_latency_us.extend(wave.latencies_us);
        epoch.steps += wave.steps;
        completed_ops += width as u64 - wave.wrong;
        if wave.wrong > 0 && epoch.failure.is_none() {
            epoch.failure = Some(format!("wave {wave_no}: {} wrong replies", wave.wrong));
        }
    }
    epoch.failed = epoch.attempted - completed_ops;
    if traced {
        epoch.traced = Some(Traced::collect(&driver.system, &driver.seen, &base));
    }
    epoch
}

/// One healed continuous-intrusion campaign (BENCH_heal's): each wave
/// silences the current occupant of a rotating slot — so the attacker
/// also goes after the healer's replacements — then drives six `echo`
/// invocations and settles, which is where the controller expels and
/// replaces. The forensic blame set must end equal to the fault ledger.
fn run_campaign(shape: &Shape, seed: u64, traced: bool, spans: &mut Spans) -> Epoch {
    const CLIENT: u64 = 1;
    let mut epoch = Epoch {
        attempted: shape.waves as u64,
        ..Epoch::default()
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_1257_0b5e_55ed);
    let echo = |sample: i64| {
        Invocation::of(DOMAIN)
            .object(b"sensor")
            .interface("Sensor")
            .operation("echo")
            .arg(Value::LongLong(sample))
    };

    let setup = Instant::now();
    let build_span = spans.begin("build");
    let mut system = build(Workload::IntrusionCampaign, shape, seed, traced);
    spans.end(build_span);
    // no warm-up invocation: one clean reply from the first victim before
    // it falls silent is enough to keep its live health above the
    // expulsion bar, and the campaign would then lose liveness at wave 1.
    // The first wave opens the connection, as BENCH_heal's campaign does.
    epoch.setup_ns = setup.elapsed().as_nanos() as u64;
    epoch.setup_ref_ns = calib::time_reference();

    let mut survived = 0u64;
    for wave_no in 0..shape.waves {
        // never slot 0: it holds view 0's primary, and silencing it loses
        // liveness on one seed in five (README.md, "Cliffs")
        let slot = 1 + wave_no % 3;
        let victim = system.fabric.domain(DOMAIN).elements[slot];
        let node = system.fabric.domain(DOMAIN).nodes[slot];
        let samples: Vec<i64> = (0..ECHOES_PER_WAVE)
            .map(|_| rng.gen_range(0u64..=2_000_000) as i64 - 1_000_000)
            .collect();

        let op_span = spans.begin_op("op", wave_no as u64);
        let window = Window::open(&system);
        let injected = system.sim.now();
        system
            .sim
            .fault_ledger_mut()
            .mark(u64::from(victim.0), Behavior::Silent.kind());
        system
            .sim
            .process_mut::<ServerElement>(node)
            .set_behavior(Behavior::Silent);
        let submit = spans.begin("submit");
        let tickets: Vec<_> = samples
            .iter()
            .map(|&s| system.invoke_async(CLIENT, echo(s)))
            .collect();
        spans.end(submit);
        // quiescent + expelled + replaced: the heal rounds run in here
        let settle = spans.begin("settle");
        let settled = system.try_settle();
        spans.end(settle);
        let closed = window.close();
        spans.end(op_span);

        if let Err(why) = settled {
            let first_line = why.lines().next().unwrap_or_default().to_string();
            epoch.failure = Some(format!("wave {wave_no}: {first_line}"));
            break;
        }
        let correct = samples.iter().zip(&tickets).all(|(&s, &t)| {
            system
                .result(t)
                .is_some_and(|c| c.result == Ok(Value::LongLong(2 * s)))
        });
        if !correct {
            epoch.failure = Some(format!("wave {wave_no}: echo != 2 x sample"));
            break;
        }
        closed.book(&system, &mut epoch, 1);
        let recovered_us = system.sim.now().since(injected).as_micros();
        epoch.sim_latency_us.push(recovered_us);
        epoch.sim_window_us += recovered_us;
        survived += 1;
    }

    // blame == ledger, or the whole campaign counts as failed
    if survived == shape.waves as u64 {
        let mut ledger = system.sim.fault_ledger().ids();
        ledger.sort_unstable();
        let blamed = system
            .live_audit_report()
            .map(|r| r.blamed_elements())
            .unwrap_or_default();
        if blamed != ledger {
            survived = 0;
            epoch.failure = Some(format!("blame {blamed:?} != fault ledger {ledger:?}"));
        }
    }
    epoch.failed = epoch.attempted - survived;
    if traced {
        epoch.traced = Some(Traced::collect(
            &system,
            &[system.client(CLIENT).completed.len()],
            &Counts::default(),
        ));
    }
    epoch
}
