//! What the heap pays: per connection, and per simulated event.
//!
//! The allocator of this binary counts the live bytes and the allocations
//! of each thread. Every test runs on its own thread and the system under
//! test starts none, so concurrent tests cannot pollute each other's
//! figures.
//!
//! ITDOS sockets are virtual connections, each with its own GM-generated
//! key and its own voter at every element, so the heap a connection holds
//! bounds how many clients a domain can serve. The first test builds the same deployment twice — one f = 1 domain, the Group
//! Manager, and 16 or 64 singleton clients — has each client open its
//! connection and make one call, and reads the live heap. The difference
//! divided by the 48 added clients is the cost of one client with one open
//! connection: its process, its slot in every element's and GM element's
//! tables, and the key shares and replies it leaves behind. Measured on
//! x86-64 Linux, debug build: 42 805 B per added client while every
//! process held its own copy of the static wiring and each per-connection
//! table was a `BTreeMap` whose first leaf has 11 slots; 12 999 B once the
//! wiring is shared and those tables are sized to their window. The bound
//! is half the first figure.
//!
//! Every op of every workload passes through the simulator's event loop,
//! and every flight event of a run with observability on through the
//! streaming audit. Both must allocate nothing per event once warm; the
//! next two tests hold them to that.
//!
//! Every message to a replication domain is ordered by its BFT group, so
//! the next test counts what ordering one request costs: a warm group of
//! four replicas and one client on the simulator orders 100 requests, one
//! at a time. Measured on x86-64 Linux, debug build: 89.8 allocations per
//! ordered request while each drain of a replica's outputs took a fresh
//! buffer, executing a batch copied it, each result was copied for the
//! reply cache and again for the host, and every log entry's vote sets
//! were maps; 52.8 once the outputs buffer is reused, the logged batch is
//! executed in place, one result buffer is shared, and log entries are
//! recycled with their vote sets; 30.5 once a `Bytes` is one allocation
//! (an `Arc<[u8]>`, not an `Arc` around a `Vec`), each frame and result is
//! written into the storage it is shared from, and the client hands its
//! request's operation over without a copy. The bound is the last figure,
//! rounded up; the test after it pins the frame itself at one allocation.
//!
//! The last test holds the disabled observability handle, which five of
//! the six benchmark workloads run with, to no allocation per hook.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use itdos::{Invocation, SystemBuilder};
use itdos_audit::{ElementInfo, MetricsFacts, Stream, Topology};
use itdos_bft::node::{build_group, ClientNode};
use itdos_bft::state::CounterMachine;
use itdos_bft::{ClientId, GroupConfig};
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::types::{TypeDesc, Value};
use itdos_groupmgr::membership::DomainId;
use itdos_obs::flight::Event;
use itdos_obs::Fact;
use itdos_orb::object::ObjectKey;
use itdos_orb::servant::{FnServant, ServantException};
use simnet::{Context, GroupId, NodeId, Process, SimDuration, Simulator, Timer};
use xbytes::Bytes;

thread_local! {
    /// This thread's live heap bytes: requested minus freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// This thread's allocations (a `realloc` counts as one).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Adds `bytes` to this thread's live heap, and counts an allocation
/// when `allocation` is set. Const-initialised cells without a destructor
/// are never torn down, so the counters stay reachable from the allocator
/// for the whole life of the thread.
fn count(bytes: i64, allocation: bool) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
    if allocation {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator plus per-thread counters.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, true);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, true);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64, true);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64), false);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const DOMAIN: DomainId = DomainId(1);

/// Live heap held by a built system whose `clients` clients each opened
/// their connection and made one call.
fn live_bytes_after_one_call_each(clients: u64) -> i64 {
    let before = live();
    let mut builder = SystemBuilder::new(7);
    let mut repo = InterfaceRepository::new();
    repo.register(
        InterfaceDef::new("Counter").with_operation(OperationDef::new(
            "add",
            vec![("delta".into(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    builder.repository(repo);
    builder.add_domain(
        DOMAIN,
        1,
        Box::new(|_| {
            let mut total = 0i64;
            let counter = FnServant::new("Counter", move |_, args| match args.first() {
                Some(Value::LongLong(delta)) => {
                    total += delta;
                    Ok(Value::LongLong(total))
                }
                _ => Err(ServantException::new("Counter::BadArgs")),
            });
            vec![(ObjectKey::from_name("counter"), Box::new(counter) as _)]
        }),
    );
    for client in 1..=clients {
        builder.add_client(client);
    }
    let mut system = builder.build();
    for client in 1..=clients {
        let call = Invocation::of(DOMAIN)
            .object(b"counter")
            .interface("Counter")
            .operation("add")
            .arg(Value::LongLong(1));
        let done = system.invoke(client, call);
        assert!(done.result.is_ok(), "client {client}: {:?}", done.result);
    }
    let held = live() - before;
    drop(system);
    held
}

#[test]
fn an_added_client_costs_at_most_half_its_former_heap() {
    const COPIED_WIRING_BYTES_PER_CLIENT: i64 = 42_805;
    let small = live_bytes_after_one_call_each(16);
    let large = live_bytes_after_one_call_each(64);
    let per_client = (large - small) / 48;
    println!(
        "live heap: 16 clients {small} B, 64 clients {large} B, {per_client} B per added client"
    );
    assert!(
        per_client <= COPIED_WIRING_BYTES_PER_CLIENT / 2,
        "{per_client} B per added client, bound {} B",
        COPIED_WIRING_BYTES_PER_CLIENT / 2
    );
}

/// Three processes that relay one payload among themselves by send,
/// multicast and timer, and allocate nothing doing it.
struct Relay {
    next: NodeId,
    group: GroupId,
    hops: u32,
}

impl Process for Relay {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.join(self.group);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        if self.hops == 0 {
            return;
        }
        self.hops -= 1;
        match self.hops % 3 {
            0 => ctx.send_labeled(self.next, payload, "relay"),
            1 => ctx.multicast_labeled(self.group, payload, "relay"),
            _ => {
                ctx.set_timer(SimDuration::from_micros(300), 0);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        ctx.send_labeled(self.next, Bytes::from_static(b"tick"), "relay");
    }
}

/// Events the relays process after each holds `hops` hops, and the
/// allocations made meanwhile.
fn relay_round(sim: &mut Simulator, nodes: &[NodeId], hops: u32) -> (u64, u64) {
    for &node in nodes {
        sim.process_mut::<Relay>(node).hops = hops;
    }
    let before = allocs();
    sim.inject(nodes[0], Bytes::from_static(b"payload"));
    let steps = sim.run();
    (steps, allocs() - before)
}

#[test]
fn the_simulator_allocates_nothing_per_event_once_warm() {
    let group = GroupId::from_raw(0);
    let mut sim = Simulator::new(7);
    let nodes: Vec<NodeId> = (0..3)
        .map(|_| {
            sim.add_process(Box::new(Relay {
                next: NodeId::from_raw(0),
                group,
                hops: 0,
            }))
        })
        .collect();
    for (i, &node) in nodes.iter().enumerate() {
        sim.process_mut::<Relay>(node).next = nodes[(i + 1) % nodes.len()];
    }
    // warm-up: the queue, the action buffer and the per-link counters
    // reach the size the measured round needs
    relay_round(&mut sim, &nodes, 2_000);
    let (steps, allocations) = relay_round(&mut sim, &nodes, 2_000);
    assert!(steps > 5_000, "only {steps} events processed");
    assert_eq!(
        allocations, 0,
        "{allocations} allocations over {steps} events"
    );
}

#[test]
fn a_warm_stream_surfaces_ten_thousand_replies_without_allocating() {
    let mut topology = Topology {
        gm_domain: 0,
        ..Topology::default()
    };
    for domain in 0..2 {
        topology.domain_f.insert(domain, 1);
        for index in 0..4 {
            let element = 4 * domain + index;
            topology.elements.insert(
                element,
                ElementInfo {
                    domain,
                    index,
                    scope: 1_000_000 + element,
                },
            );
        }
    }
    let mut stream = Stream::new(topology);
    let event = |seq: u64, at_micros: u64, scope: u64, fact: Fact<'static>| Event {
        seq,
        at_micros,
        scope,
        kind: fact.kind(),
        labels: fact.labels(),
    };
    // evidence behind a divergence blame (with a fault proof and an
    // expulsion), an accusation and a stall: findings every surface
    // recomputes
    let reply = |request, sender| Fact::VoteReply { request, sender };
    let warm = [
        event(
            0,
            10,
            1,
            Fact::VoteDissent {
                request: 1,
                sender: 7,
            },
        ),
        event(
            1,
            12,
            1,
            Fact::ClientAccused {
                client: 1,
                request: 1,
                accused: 7,
            },
        ),
        event(
            2,
            20,
            1,
            Fact::ElementAccuse {
                accuser: 4,
                accused: 6,
            },
        ),
        event(
            3,
            30,
            1,
            Fact::GmExpelled {
                domain: 1,
                element: 7,
            },
        ),
        event(4, 40, 1, Fact::VoteDecided { request: 2 }),
        event(5, 100_000, 1, reply(2, 5)),
        event(6, 100_000, 1, reply(3, 4)),
        event(7, 100_000, 1, reply(3, 6)),
    ];
    for e in &warm {
        stream.observe_event(e);
    }
    let held = stream.findings(&MetricsFacts::default());
    assert_eq!(
        held.iter().map(|f| f.kind).collect::<Vec<_>>(),
        ["stall", "divergence", "accusation"],
        "the warm stream's findings"
    );

    // replies at an instant the stream already holds, so the evidence
    // maps only count up: what is left to allocate is the surfacing
    let before = allocs();
    for i in 0..10_000u64 {
        let sender = 4 + i % 3;
        let e = event(8 + i, 100_000, 1, reply(3, sender));
        let fresh = stream.observe_event(&e);
        assert!(fresh.is_empty(), "nothing new surfaces");
    }
    let allocations = allocs() - before;
    assert!(
        allocations <= 4,
        "{allocations} allocations for 10 000 replies"
    );
}

/// Runs `requests` increments of 1 through a [`build_group`] group, one
/// at a time, each to quiescence; returns the allocations made meanwhile.
fn order_one_at_a_time(sim: &mut Simulator, client: NodeId, requests: usize) -> u64 {
    let before = allocs();
    for _ in 0..requests {
        let done = sim.process_ref::<ClientNode>(client).results.len();
        sim.inject(client, Bytes::from(CounterMachine::op(1)));
        sim.run();
        assert_eq!(
            sim.process_ref::<ClientNode>(client).results.len(),
            done + 1,
            "the request was ordered and answered"
        );
    }
    allocs() - before
}

#[test]
fn ordering_a_request_allocates_at_most_thirty_one_times_once_warm() {
    const ORDERED: usize = 100;
    let mut sim = Simulator::new(7);
    let (_, client, _) = build_group(
        &mut sim,
        &GroupConfig::for_f(1),
        [9u8; 32],
        GroupId::from_raw(0),
        ClientId(1),
    );
    // warm-up: past two stable checkpoints, so log entries are recycled
    // and every reused buffer has reached its size
    order_one_at_a_time(&mut sim, client, 40);
    let allocations = order_one_at_a_time(&mut sim, client, ORDERED);
    let per_request = allocations as f64 / ORDERED as f64;
    println!("ordering: {per_request:.1} allocations per request");
    assert!(
        per_request <= 31.0,
        "{per_request:.1} allocations per ordered request, bound 31"
    );
}

/// A frame is written where it is shared: the writer is sized at the
/// bound `AuthContext::frame_capacity` computes, and its storage becomes
/// the frame's `Bytes` with no copy, so one MAC'd frame is one allocation
/// — on the element path (`itdos::wire::bft_frame`) and on the bare
/// replica path (`AuthContext::frame`) alike.
#[test]
fn a_macd_bft_frame_is_one_allocation() {
    use itdos_bft::auth::{AuthContext, KeyProvisioner};
    use itdos_bft::message::{Message, Prepare};
    use itdos_bft::{ReplicaId, SeqNo, View};
    use itdos_crypto::hash::Digest;

    let auth = AuthContext::for_replica(KeyProvisioner::new([7u8; 32]), ReplicaId(2), 4);
    let message = Message::Prepare(Prepare {
        view: View(1),
        seq: SeqNo(5),
        digest: Digest::of(b"batch"),
        replica: ReplicaId(2),
    });
    let before = allocs();
    let frame = itdos::wire::bft_frame(&auth, DOMAIN, &message, None);
    assert_eq!(allocs() - before, 1, "bft_frame");
    assert_eq!(frame.auth, "mac");
    let before = allocs();
    let envelope = auth.frame(&message, None);
    assert_eq!(allocs() - before, 1, "AuthContext::frame");
    assert_eq!(
        &frame.bytes[frame.bytes.len() - envelope.len()..],
        &envelope[..]
    );
}

/// The default `Obs` handle is disabled: every hook is one branch and
/// allocates nothing, which is what five of the six benchmark workloads
/// run with. Ten thousand bursts of five hooks — a counter, a histogram,
/// a span opened and closed, and a fact — make no allocation.
#[test]
fn a_disabled_obs_burst_allocates_nothing() {
    let obs = itdos_obs::Obs::disabled().scoped(3);
    let labels = [("domain", itdos_obs::LabelValue::U64(1))];
    let before = allocs();
    for i in 0..10_000u64 {
        obs.incr("bench.ops", &labels);
        obs.observe("bench.bytes", &labels, i);
        obs.span_begin("bench.op", i);
        obs.span_end("bench.op", i, &labels);
        obs.fact(Fact::ClientSend {
            client: 9,
            request: i,
            trace: 0,
            target: 1,
        });
    }
    assert_eq!(allocs() - before, 0, "a disabled hook allocates");
}
