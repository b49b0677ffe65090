//! The discrete-event simulator.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use xbytes::Bytes;
use xrand::rngs::SmallRng;
use xrand::{Rng, SeedableRng};

use crate::adversary::{Adversary, PassThrough, Verdict};
use crate::ledger::FaultLedger;
use crate::net::NetConfig;
use crate::node::{GroupId, NodeId};
use crate::process::{Action, Context, Process, Timer, TimerId};
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, NetStats};

/// Default step budget for [`Simulator::run`]; exceeding it indicates a
/// livelock and panics rather than hanging the test suite.
pub const DEFAULT_STEP_BUDGET: u64 = 50_000_000;

#[derive(Debug)]
enum EventKind {
    Deliver {
        to: NodeId,
        from: NodeId,
        payload: Bytes,
    },
    TimerFire {
        node: NodeId,
        timer: Timer,
    },
}

/// A scheduled event. The payload travels in the queue entry itself;
/// entries order by `(at, seq)` alone, and `seq` is unique, so the queue
/// pops in exactly the order the events were scheduled at each instant.
#[derive(Debug)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct NodeSlot {
    process: Box<dyn Process>,
    rng: SmallRng,
    next_timer: u64,
    cancelled: BTreeSet<TimerId>,
}

/// A deterministic discrete-event network simulation.
///
/// Construction order fixes node ids; the master seed fixes every latency
/// sample, loss decision, and process RNG draw, so a `(construction,
/// seed)` pair always replays identically.
///
/// # Examples
///
/// ```
/// use xbytes::Bytes;
/// use simnet::{Context, NodeId, Process, Simulator};
///
/// struct Echo;
/// impl Process for Echo {
///     fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
///         if !from.is_external() {
///             return; // replies only to injected traffic in this example
///         }
///         let _ = payload;
///     }
/// }
///
/// let mut sim = Simulator::new(42);
/// let node = sim.add_process(Box::new(Echo));
/// sim.inject(node, Bytes::from_static(b"ping"));
/// sim.run();
/// assert!(sim.now().as_micros() > 0 || sim.stats().total.messages == 0);
/// ```
pub struct Simulator {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    nodes: Vec<NodeSlot>,
    /// Nodes whose process has not run `on_start` yet: filled where a
    /// process is added or replaced, emptied before the next event.
    unstarted: Vec<NodeId>,
    /// The action buffer every handler invocation reuses.
    actions: Vec<Action>,
    groups: BTreeMap<GroupId, BTreeSet<NodeId>>,
    config: NetConfig,
    adversary: Box<dyn Adversary>,
    stats: NetStats,
    fault_ledger: FaultLedger,
    net_rng: SmallRng,
    master_seed: u64,
    obs_clock: Option<std::sync::Arc<itdos_obs::ManualClock>>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

impl Simulator {
    /// Creates a simulator with the given master seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            nodes: Vec::new(),
            unstarted: Vec::new(),
            actions: Vec::new(),
            groups: BTreeMap::new(),
            config: NetConfig::default(),
            adversary: Box::new(PassThrough),
            stats: NetStats::default(),
            fault_ledger: FaultLedger::new(),
            net_rng: SmallRng::seed_from_u64(seed ^ 0x6e65_745f_726e_67),
            master_seed: seed,
            obs_clock: None,
        }
    }

    /// Mirrors simulated time into an observability clock: after every
    /// processed event the clock reads `now()` in microseconds, so span
    /// timings and flight-recorder timestamps taken by processes line up
    /// with `SimTime` deterministically.
    pub fn drive_obs_clock(&mut self, clock: std::sync::Arc<itdos_obs::ManualClock>) {
        clock.set(self.now.as_micros());
        self.obs_clock = Some(clock);
    }

    /// Registers a process and returns its node id.
    pub fn add_process(&mut self, process: Box<dyn Process>) -> NodeId {
        self.add_with(|_| process)
    }

    /// Registers a process built from its own node id (useful when the
    /// process needs to know its address at construction).
    fn add_with<F>(&mut self, build: F) -> NodeId
    where
        F: FnOnce(NodeId) -> Box<dyn Process>,
    {
        let id = NodeId::from_raw(self.nodes.len() as u32);
        let seed = self
            .master_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(id.as_raw() as u64 + 1);
        self.nodes.push(NodeSlot {
            process: build(id),
            rng: SmallRng::seed_from_u64(seed),
            next_timer: 0,
            cancelled: BTreeSet::new(),
        });
        self.unstarted.push(id);
        id
    }

    /// Replaces the process at `id`, keeping the node's RNG and address.
    ///
    /// Useful for two-phase construction when processes hold each other's
    /// addresses. The new process's `on_start` runs before the next event.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn replace_process(&mut self, id: NodeId, process: Box<dyn Process>) {
        self.nodes[id.as_raw() as usize].process = process;
        self.unstarted.push(id);
    }

    /// Adds `node` to a multicast group (idempotent).
    pub fn join_group(&mut self, node: NodeId, group: GroupId) {
        self.groups.entry(group).or_default().insert(node);
    }

    /// Removes `node` from a multicast group.
    pub fn leave_group(&mut self, node: NodeId, group: GroupId) {
        if let Some(members) = self.groups.get_mut(&group) {
            members.remove(&node);
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network statistics collected so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Undelivered work per node: `(messages, timers)` still scheduled for
    /// each destination. Livelock diagnostics — when a run exhausts its
    /// step budget, this names the nodes the event loop is spinning on.
    pub fn pending_by_node(&self) -> BTreeMap<NodeId, (usize, usize)> {
        let mut out: BTreeMap<NodeId, (usize, usize)> = BTreeMap::new();
        for Reverse(event) in &self.events {
            match &event.kind {
                EventKind::Deliver { to, .. } => out.entry(*to).or_default().0 += 1,
                EventKind::TimerFire { node, .. } => out.entry(*node).or_default().1 += 1,
            }
        }
        out
    }

    /// Renders [`Simulator::pending_by_node`] as one human-readable line
    /// per node, for livelock panic messages.
    pub fn pending_summary(&self) -> String {
        use std::fmt::Write as _;
        let pending = self.pending_by_node();
        if pending.is_empty() {
            return "no pending events".into();
        }
        let mut out = String::new();
        for (node, (messages, timers)) in pending {
            let _ = writeln!(
                out,
                "  node {}: {messages} pending message(s), {timers} pending timer(s)",
                node.as_raw()
            );
        }
        out
    }

    /// Mutable statistics access (to enable the ledger or reset counters).
    pub fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    /// Ground-truth ledger of deliberately injected process faults (see
    /// [`crate::ledger`]). Read by regression tests to cross-check
    /// forensic blame sets against what was actually injected.
    pub fn fault_ledger(&self) -> &FaultLedger {
        &self.fault_ledger
    }

    /// Mutable fault ledger, for injectors to mark their victims.
    pub fn fault_ledger_mut(&mut self) -> &mut FaultLedger {
        &mut self.fault_ledger
    }

    /// Network configuration (latency, loss, partitions).
    pub fn config_mut(&mut self) -> &mut NetConfig {
        &mut self.config
    }

    /// Installs a network adversary, replacing the previous one.
    pub fn set_adversary(&mut self, adversary: Box<dyn Adversary>) {
        self.adversary = adversary;
    }

    /// Injects a message from [`NodeId::EXTERNAL`] into `to`, delivered at
    /// the current instant (before any already-scheduled later events).
    pub fn inject(&mut self, to: NodeId, payload: Bytes) {
        let kind = EventKind::Deliver {
            to,
            from: NodeId::EXTERNAL,
            payload,
        };
        self.schedule(self.now, kind);
    }

    /// Immutable downcast access to a process.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the process is not a `T`.
    pub fn process_ref<T: 'static>(&self, id: NodeId) -> &T {
        self.nodes[id.as_raw() as usize]
            .process
            .as_ref()
            .as_any()
            .downcast_ref::<T>()
            .expect("process has requested type")
    }

    /// Mutable downcast access to a process.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the process is not a `T`.
    pub fn process_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.as_raw() as usize]
            .process
            .as_mut()
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("process has requested type")
    }

    /// Runs until no events remain.
    ///
    /// Returns the number of steps executed.
    ///
    /// # Panics
    ///
    /// Panics after [`DEFAULT_STEP_BUDGET`] steps — an endless event loop is
    /// a protocol bug that should fail fast in tests.
    pub fn run(&mut self) -> u64 {
        self.run_steps(DEFAULT_STEP_BUDGET)
            .expect("simulation exceeded step budget (livelock?)")
    }

    /// Runs until quiescent or until `budget` steps have executed.
    ///
    /// Returns `Ok(steps)` on quiescence, `Err(budget)` if the budget was
    /// exhausted first.
    pub fn run_steps(&mut self, budget: u64) -> Result<u64, u64> {
        let mut steps = 0;
        while steps < budget {
            if !self.step() {
                return Ok(steps);
            }
            steps += 1;
        }
        if self.events.is_empty() {
            Ok(steps)
        } else {
            Err(budget)
        }
    }

    /// Runs until the clock passes `deadline` or no events remain. Events at
    /// exactly `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut steps = 0;
        while let Some(Reverse(next)) = self.events.peek() {
            if next.at > deadline {
                break;
            }
            self.step();
            steps += 1;
            assert!(
                steps < DEFAULT_STEP_BUDGET,
                "simulation exceeded step budget before deadline"
            );
        }
        if self.now < deadline {
            self.now = deadline;
        }
        steps
    }

    /// Runs for `span` of simulated time from now.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let deadline = self.now + span;
        self.run_until(deadline)
    }

    /// Processes the next event. Returns false when quiescent.
    pub fn step(&mut self) -> bool {
        self.start_pending();
        let Some(Reverse(Event { at, kind, .. })) = self.events.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        if let Some(clock) = &self.obs_clock {
            clock.set(at.as_micros());
        }
        match kind {
            EventKind::Deliver { to, from, payload } => {
                if (to.as_raw() as usize) < self.nodes.len() {
                    self.handle(to, |process, ctx| process.on_message(ctx, from, payload));
                }
                // else: a message to a node that never existed is dropped
            }
            EventKind::TimerFire { node, timer } => {
                if !self.nodes[node.as_raw() as usize]
                    .cancelled
                    .remove(&timer.id)
                {
                    self.handle(node, |process, ctx| process.on_timer(ctx, timer));
                }
            }
        }
        true
    }

    /// Runs `on_start` for every process added or replaced since the last
    /// step, in node-id order.
    fn start_pending(&mut self) {
        if self.unstarted.is_empty() {
            return;
        }
        let mut unstarted = std::mem::take(&mut self.unstarted);
        unstarted.sort_unstable();
        unstarted.dedup();
        for &id in &unstarted {
            self.handle(id, |process, ctx| process.on_start(ctx));
        }
        unstarted.clear();
        self.unstarted = unstarted;
    }

    /// Runs one handler of the process at `id` and applies the actions it
    /// queued, through the simulator's one reused action buffer.
    fn handle(&mut self, id: NodeId, run: impl FnOnce(&mut dyn Process, &mut Context<'_>)) {
        let mut actions = std::mem::take(&mut self.actions);
        let slot = &mut self.nodes[id.as_raw() as usize];
        {
            let mut ctx = Context::new(
                self.now,
                id,
                &mut slot.rng,
                &mut actions,
                &mut slot.next_timer,
            );
            run(slot.process.as_mut(), &mut ctx);
        }
        self.apply_actions(id, &mut actions);
        self.actions = actions;
    }

    fn apply_actions(&mut self, node: NodeId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { to, payload, label } => {
                    self.transmit(node, to, payload, label);
                }
                Action::Multicast {
                    group,
                    payload,
                    label,
                } => {
                    // the group is lent out while its copies are sent
                    // (`transmit` never touches groups) and put back
                    // under its existing key, so a fan-out allocates
                    // nothing
                    let Some(members) = self.groups.get_mut(&group).map(std::mem::take) else {
                        continue;
                    };
                    for &member in &members {
                        if member != node {
                            self.transmit(node, member, payload.clone(), label);
                        }
                    }
                    self.groups.insert(group, members);
                }
                Action::SetTimer { id, delay, kind } => {
                    let fire_at = self.now + delay;
                    self.schedule(
                        fire_at,
                        EventKind::TimerFire {
                            node,
                            timer: Timer { id, kind },
                        },
                    );
                }
                Action::CancelTimer(id) => {
                    self.nodes[node.as_raw() as usize].cancelled.insert(id);
                }
                Action::Join(group) => self.join_group(node, group),
                Action::Leave(group) => self.leave_group(node, group),
            }
        }
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, payload: Bytes, label: &'static str) {
        if self.config.is_blocked(from, to) {
            self.stats.record(
                self.now,
                from,
                to,
                payload.len(),
                label,
                Some(DropReason::Partition),
            );
            return;
        }
        if self.config.loss_probability > 0.0
            && self.net_rng.gen::<f64>() < self.config.loss_probability
        {
            self.stats.record(
                self.now,
                from,
                to,
                payload.len(),
                label,
                Some(DropReason::Loss),
            );
            return;
        }
        let verdict = self
            .adversary
            .intercept(self.now, from, to, &payload, &mut self.net_rng);
        let latency = self.config.latency(from, to).sample(&mut self.net_rng);
        match verdict {
            Verdict::Pass => self.deliver_after(from, to, payload, label, latency),
            Verdict::Drop => {
                self.stats.record(
                    self.now,
                    from,
                    to,
                    payload.len(),
                    label,
                    Some(DropReason::Adversary),
                );
            }
            Verdict::Delay(extra) => {
                self.deliver_after(from, to, payload, label, latency + extra);
            }
            Verdict::Tamper(tampered) => {
                self.deliver_after(from, to, tampered, label, latency);
            }
            Verdict::Duplicate(extras) => {
                for extra in extras {
                    self.deliver_after(from, to, payload.clone(), label, latency + extra);
                }
                self.deliver_after(from, to, payload, label, latency);
            }
        }
    }

    fn deliver_after(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: Bytes,
        label: &'static str,
        delay: SimDuration,
    ) {
        self.stats
            .record(self.now, from, to, payload.len(), label, None);
        let at = self.now + delay;
        self.schedule(at, EventKind::Deliver { to, from, payload });
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { at, seq, kind }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Scripted;
    use crate::net::Latency;

    /// Echoes every injected payload to a peer; counts received messages.
    struct Pinger {
        peer: Option<NodeId>,
        received: Vec<Bytes>,
        timer_fired: u32,
    }

    impl Pinger {
        fn new() -> Self {
            Pinger {
                peer: None,
                received: Vec::new(),
                timer_fired: 0,
            }
        }
    }

    impl Process for Pinger {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
            if from.is_external() {
                if let Some(peer) = self.peer {
                    ctx.send_labeled(peer, payload, "ping");
                }
            } else {
                self.received.push(payload);
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {
            self.timer_fired += 1;
        }
    }

    fn two_node_sim(seed: u64) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(seed);
        let a = sim.add_process(Box::new(Pinger::new()));
        let b = sim.add_process(Box::new(Pinger::new()));
        sim.process_mut::<Pinger>(a).peer = Some(b);
        sim.process_mut::<Pinger>(b).peer = Some(a);
        (sim, a, b)
    }

    #[test]
    fn unicast_delivery() {
        let (mut sim, a, b) = two_node_sim(1);
        sim.inject(a, Bytes::from_static(b"hello"));
        sim.run();
        let rx = &sim.process_ref::<Pinger>(b).received;
        assert_eq!(rx.len(), 1);
        assert_eq!(&rx[0][..], b"hello");
        assert!(sim.now() > SimTime::ZERO, "latency advanced the clock");
    }

    #[test]
    fn runs_are_reproducible() {
        let run = |seed| {
            let (mut sim, a, _) = two_node_sim(seed);
            sim.inject(a, Bytes::from_static(b"x"));
            sim.run();
            sim.now()
        };
        assert_eq!(run(7), run(7));
        // different seeds draw different jitter
        let t1 = run(7);
        let t2 = run(8);
        // may coincidentally be equal, but stats must still match counts
        let _ = (t1, t2);
    }

    #[test]
    fn multicast_excludes_sender() {
        struct Caster {
            group: GroupId,
            got: u32,
        }
        impl Process for Caster {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.join(self.group);
            }
            fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
                if from.is_external() {
                    ctx.multicast(self.group, payload);
                } else {
                    self.got += 1;
                }
            }
        }
        let g = GroupId::from_raw(0);
        let mut sim = Simulator::new(3);
        let n0 = sim.add_process(Box::new(Caster { group: g, got: 0 }));
        let n1 = sim.add_process(Box::new(Caster { group: g, got: 0 }));
        let n2 = sim.add_process(Box::new(Caster { group: g, got: 0 }));
        sim.inject(n0, Bytes::from_static(b"m"));
        sim.run();
        assert_eq!(sim.process_ref::<Caster>(n0).got, 0, "sender excluded");
        assert_eq!(sim.process_ref::<Caster>(n1).got, 1);
        assert_eq!(sim.process_ref::<Caster>(n2).got, 1);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct Timed {
            fired: Vec<u64>,
        }
        impl Process for Timed {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 10);
                let cancel_me = ctx.set_timer(SimDuration::from_millis(2), 20);
                ctx.cancel_timer(cancel_me);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_>, timer: Timer) {
                self.fired.push(timer.kind);
            }
        }
        let mut sim = Simulator::new(4);
        let n = sim.add_process(Box::new(Timed { fired: Vec::new() }));
        sim.run();
        assert_eq!(sim.process_ref::<Timed>(n).fired, vec![10]);
    }

    #[test]
    fn partition_blocks_traffic() {
        let (mut sim, a, b) = two_node_sim(5);
        sim.config_mut().partition(&[a], &[b]);
        sim.inject(a, Bytes::from_static(b"x"));
        sim.run();
        assert!(sim.process_ref::<Pinger>(b).received.is_empty());
        assert_eq!(sim.stats().dropped, 1);
    }

    #[test]
    fn loss_drops_messages_deterministically() {
        let (mut sim, a, b) = two_node_sim(6);
        sim.config_mut().loss_probability = 1.0;
        sim.inject(a, Bytes::from_static(b"x"));
        sim.run();
        assert!(sim.process_ref::<Pinger>(b).received.is_empty());
    }

    #[test]
    fn adversary_can_tamper() {
        let (mut sim, a, b) = two_node_sim(7);
        let mut adv = Scripted::new();
        adv.tamper_from(a);
        sim.set_adversary(Box::new(adv));
        sim.inject(a, Bytes::from_static(&[0x0F, 0x01]));
        sim.run();
        let rx = &sim.process_ref::<Pinger>(b).received;
        assert_eq!(&rx[0][..], &[0xF0, 0x01]);
    }

    #[test]
    fn stats_count_labels() {
        let (mut sim, a, _) = two_node_sim(8);
        sim.inject(a, Bytes::from_static(b"abc"));
        sim.run();
        assert_eq!(sim.stats().label("ping").messages, 1);
        assert_eq!(sim.stats().label("ping").bytes, 3);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let (mut sim, _, _) = two_node_sim(9);
        sim.run_until(SimTime::from_micros(500));
        assert_eq!(sim.now(), SimTime::from_micros(500));
    }

    #[test]
    fn deterministic_fixed_latency_delivery_time() {
        let (mut sim, a, _) = two_node_sim(10);
        sim.config_mut().default_latency = Latency::fixed(SimDuration::from_micros(250));
        sim.inject(a, Bytes::from_static(b"x"));
        sim.run();
        assert_eq!(sim.now(), SimTime::from_micros(250));
    }

    #[test]
    fn run_steps_reports_budget_exhaustion() {
        struct Looper {
            me: NodeId,
        }
        impl Process for Looper {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(self.me, Bytes::from_static(b"go"));
            }
            fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
                ctx.send(self.me, payload); // self-perpetuating
            }
        }
        let mut sim = Simulator::new(11);
        sim.add_with(|id| Box::new(Looper { me: id }));
        assert!(sim.run_steps(100).is_err());
    }
}
