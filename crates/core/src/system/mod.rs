//! A built ITDOS deployment on the simulator, and how to drive it.
//!
//! A system is the Figure 1 picture generalized: one Group Manager
//! replication domain, any number of server replication domains (each
//! `3f+1` elements on heterogeneous platforms), and singleton clients.
//! [`SystemBuilder`] wires the fabric (nodes, seeds, keys, DPRF deal,
//! membership) and hands back a [`System`] that runs invocations, heals
//! itself when a controller is installed, and returns what the run
//! recorded — [`System::profile`], [`System::audit`], [`System::trace`] —
//! as values that render themselves.

// The builder and driver take no hostile input: an unwired id, a missing
// process or an invocation that never completes is the caller's bug, and
// their panics are documented on each method.
#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    reason = "test and benchmark harness: a caller bug panics by contract"
)]

mod builder;
mod live;

use std::collections::BTreeMap;

use itdos_bft::node::Idle;
use itdos_giop::platform::PlatformProfile;
use itdos_groupmgr::membership::DomainId;
use itdos_obs::LabelValue;
use itdos_orb::object::ObjectKey;
use itdos_orb::servant::Servant;
use itdos_vote::vote::SenderId;
use simnet::{NodeId, Simulator};

pub use builder::SystemBuilder;

use crate::client::{encode_traced_command, Completed, SingletonClient};
use crate::codes::{element_code, singleton_code};
use crate::element::{ElementConfig, ServerElement};
use crate::fabric::Fabric;
use crate::fault::Behavior;
use crate::gm::GmElement;
use crate::heal::{HealCause, HealPlan, HealState, HealStats};
use crate::invocation::{Invocation, Ticket};
use crate::wire::HealCmd;
use live::LiveAudit;

/// Default [`System::settle`] step budget (see
/// [`SystemBuilder::settle_budget`]).
pub const DEFAULT_SETTLE_BUDGET: u64 = 20_000_000;

/// The Group Manager's reserved domain id.
pub const GM_DOMAIN: DomainId = DomainId(0);

/// Builds the servants hosted by one replica of a domain. Called once per
/// replica index so heterogeneous *implementations* are possible (§2:
/// "implementation diversity in both language and platform").
pub type ServantFactory = Box<dyn Fn(usize) -> Vec<(ObjectKey, Box<dyn Servant>)>>;

/// A server domain as declared on the builder, kept by the built
/// [`System`] so a replacement is built like the originals.
struct DomainPlan {
    id: DomainId,
    f: usize,
    factory: ServantFactory,
    behaviors: BTreeMap<usize, Behavior>,
    platforms: Option<Vec<PlatformProfile>>,
}

/// A built, running system.
pub struct System {
    /// The simulator (exposed for clock, stats, adversary control).
    pub sim: Simulator,
    /// The deployment wiring.
    pub fabric: Fabric,
    /// The shared observability handle (disabled unless the builder's
    /// [`SystemBuilder::obs`] enabled it).
    pub obs: itdos_obs::Obs,
    settle_budget: u64,
    /// Per-client count of invocations submitted through
    /// [`System::invoke_async`]: the next one's [`Ticket::index`], from
    /// which its trace id is minted.
    submitted: BTreeMap<u64, usize>,
    /// The server domains, in declaration order.
    domains: Vec<DomainPlan>,
    ack_interval: u64,
    queue_capacity: usize,
    /// Next unused global element id (replacements get fresh ids).
    next_element: u32,
    /// The streaming audit, on with observability.
    live: Option<LiveAudit>,
    /// The self-healing controller, if [`SystemBuilder::healing`] set one.
    heal: Option<HealState>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("domains", &self.domains.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl System {
    /// Starts an invocation from `client` without running the simulation
    /// and returns a [`Ticket`] for the eventual result (redeem with
    /// [`System::await_all`] or [`System::result`]). Invocations on one
    /// client complete in submission order even when the client pipelines
    /// several concurrently ([`SystemBuilder::client_pipeline`]).
    /// Every invocation is minted a nonzero causal trace id
    /// ([`crate::trace::trace_id`]) that rides the GIOP header and BFT
    /// request; redeem the ticket with [`System::trace`] to reconstruct
    /// the invocation's full causal path from the flight recorder.
    pub fn invoke_async(&mut self, client: u64, invocation: Invocation) -> Ticket {
        let index = *self.submitted.entry(client).or_insert(0);
        let cmd = encode_traced_command(
            &self.fabric,
            invocation.target,
            &invocation.object_key,
            &invocation.interface,
            &invocation.operation,
            invocation.args,
            crate::trace::trace_id(client, index),
        )
        .expect("invocation matches the interface repository");
        self.sim.inject(self.client_node(client), cmd);
        self.submitted.insert(client, index + 1);
        Ticket { client, index }
    }

    /// Runs an invocation to completion and returns its outcome.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to quiesce or the invocation never
    /// completes — both indicate a protocol bug under test.
    pub fn invoke(&mut self, client: u64, invocation: Invocation) -> Completed {
        let ticket = self.invoke_async(client, invocation);
        self.settle();
        self.result(ticket)
            .unwrap_or_else(|| panic!("invocation did not complete (client {client})"))
    }

    /// The completed outcome a ticket refers to, if it has been reached:
    /// the completion carrying the trace id the ticket's command was
    /// minted. Completions list in submission order, and a command that
    /// reached the client another way (a raw [`simnet::Simulator::inject`])
    /// only adds entries, so it is found at the ticket's index or later.
    pub fn result(&self, ticket: Ticket) -> Option<Completed> {
        let trace = crate::trace::trace_id(ticket.client, ticket.index);
        self.client(ticket.client)
            .completed
            .get(ticket.index..)?
            .iter()
            .find(|completed| completed.trace == trace)
            .cloned()
    }

    /// Runs the system to quiescence and returns every ticket's outcome,
    /// in ticket order.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to quiesce or any ticket's invocation
    /// never completed.
    pub fn await_all(&mut self, tickets: &[Ticket]) -> Vec<Completed> {
        self.settle();
        tickets
            .iter()
            .map(|&ticket| {
                self.result(ticket).unwrap_or_else(|| {
                    panic!(
                        "invocation {} of client {} did not complete",
                        ticket.index, ticket.client
                    )
                })
            })
            .collect()
    }

    /// Runs until the network is quiescent.
    ///
    /// With a healing controller installed ([`SystemBuilder::healing`]),
    /// quiescence additionally runs bounded heal rounds: the controller
    /// reads the freshly pumped live health verdict, drives any due
    /// expulsions / replacements / rejuvenations, and re-settles — until
    /// a round takes no action (or [`crate::heal::HealConfig::max_rounds`]
    /// is hit).
    ///
    /// # Panics
    ///
    /// Panics on livelock (step budget exhausted, configurable via
    /// [`SystemBuilder::settle_budget`]); the message names the nodes
    /// with undelivered work so the spin is attributable.
    pub fn settle(&mut self) {
        if let Err(msg) = self.try_settle() {
            panic!("{msg}");
        }
    }

    /// [`System::settle`] without the panic: `Err` carries the livelock
    /// diagnosis (budget + pending-work summary) instead. Drills use this
    /// to *observe* a system that genuinely lost liveness — e.g. the
    /// no-controller baseline under sequential intrusions — rather than
    /// abort on it. The streaming audit is still pumped on the error path
    /// so the forensic verdict covers the events leading into the stall.
    pub fn try_settle(&mut self) -> Result<(), String> {
        let quiesced = self.run_to_quiescence();
        self.pump_streaming_audit();
        quiesced?;
        // bounded self-healing (see [`crate::heal`]): each round acts on
        // the current live verdict, then re-settles and re-pumps so the
        // next round sees the consequences; the first idle round stops
        let max_rounds = self.heal.as_ref().map_or(0, |heal| heal.cfg.max_rounds);
        for _ in 0..max_rounds {
            if !self.heal_round() {
                break;
            }
            self.run_to_quiescence()?;
            self.pump_streaming_audit();
        }
        Ok(())
    }

    fn run_to_quiescence(&mut self) -> Result<(), String> {
        if self.sim.run_steps(self.settle_budget).is_err() {
            return Err(format!(
                "system did not quiesce within {} steps (livelock?); pending work:\n{}",
                self.settle_budget,
                self.sim.pending_summary()
            ));
        }
        Ok(())
    }

    /// One controller decision pass. Returns whether any action was taken
    /// (accusations injected, replacement spawned, retirement requested).
    /// Every decision is a deterministic function of the GM membership
    /// state, the live health map, and the simulated clock.
    fn heal_round(&mut self) -> bool {
        let Some(heal) = self.heal.as_ref() else {
            return false;
        };
        // the GM replicas agree on membership by construction; replica 0's
        // copy is as authoritative as any for reading departures
        let membership = self.gm_element(0).replica().app().manager().membership();
        let rosters = self
            .fabric
            .domains()
            .filter(|d| d.id != self.fabric.gm_domain())
            .map(|d| (d.id, d.elements));
        let plan = heal.plan(
            membership,
            self.live_health(),
            rosters,
            self.sim.now().as_micros(),
        );

        // 1) replacements: departures the GM group has since executed
        for &(element, domain, cause) in &plan.replace {
            self.heal_event("heal.replace", element, domain, cause, None);
            self.spawn_replacement(domain, element, Behavior::Honest);
        }
        // 2) threshold expulsions: accusations by f+1 healthy peers drive
        // the GM's ordinary voted expulsion
        for (domain, suspect, accusers) in &plan.expel {
            let health = self
                .live_health()
                .get(&u64::from(suspect.0))
                .copied()
                .unwrap_or(0);
            self.heal_event(
                "heal.expel",
                *suspect,
                *domain,
                HealCause::Health,
                Some(health),
            );
            for &accuser in accusers {
                self.inject_heal_cmd(accuser, HealCmd::Accuse { accused: *suspect });
            }
        }
        // 3) proactive rejuvenation of the chosen slot's occupant
        if let Some((domain, occupant, _)) = plan.retire {
            self.heal_event(
                "heal.rejuvenate",
                occupant,
                domain,
                HealCause::Rejuvenation,
                None,
            );
            self.inject_heal_cmd(occupant, HealCmd::Retire);
        }
        let now_us = self.sim.now().as_micros();
        let heal = self.heal.as_mut().expect("controller is installed");
        heal.record(&plan, now_us);
        plan != HealPlan::default()
    }

    fn heal_event(
        &self,
        name: &'static str,
        element: SenderId,
        domain: DomainId,
        cause: HealCause,
        health: Option<i64>,
    ) {
        let labels = [
            ("element", LabelValue::U64(u64::from(element.0))),
            ("domain", LabelValue::U64(domain.0)),
            ("cause", LabelValue::Str(cause.label())),
            ("health", LabelValue::U64(health.unwrap_or(0).max(0) as u64)),
        ];
        let labels = if health.is_some() {
            &labels[..]
        } else {
            &labels[..3]
        };
        self.obs.event(name, labels);
    }

    fn inject_heal_cmd(&mut self, element: SenderId, cmd: HealCmd) {
        let node = self
            .fabric
            .node_of(element_code(element))
            .expect("active element has a node");
        self.sim.inject(node, cmd.encode().into());
    }

    /// The healing controller's cumulative action counters; all zero when
    /// no controller is installed.
    pub fn heal_stats(&self) -> HealStats {
        self.heal.as_ref().map(|h| h.stats).unwrap_or_default()
    }

    /// Advances the always-on streaming audit ([`LiveAudit::pump`]).
    fn pump_streaming_audit(&mut self) {
        if let Some(live) = self.live.as_mut() {
            live.pump(&self.obs);
        }
    }

    /// The streaming auditor's current view of the run: a full
    /// [`itdos_audit::AuditReport`] built from the incremental analyzer
    /// state and the live metrics registry — without parsing any dump.
    /// `None` when observability is off. After [`System::settle`] at
    /// the end of a run this equals [`System::audit`] by construction.
    pub fn live_audit_report(&self) -> Option<itdos_audit::AuditReport> {
        Some(self.live.as_ref()?.report(&self.obs))
    }

    /// Live per-element health (100 = clean, 0 = condemned) from the
    /// streaming auditor, as the last pump scored it — the values
    /// currently exported as the `replica.health` gauge. Empty when
    /// observability is off.
    pub fn live_health(&self) -> &BTreeMap<u64, i64> {
        const NONE: &BTreeMap<u64, i64> = &BTreeMap::new();
        self.live.as_ref().map_or(NONE, |live| &live.health)
    }

    /// Reconstructs the causal path of a ticket's invocation from the
    /// flight recorder: admission → batch → prepare → commit → execute →
    /// vote → reply, with per-hop latency attribution
    /// ([`crate::trace::TraceReport`]). `None` when observability is off
    /// or the ring has evicted the invocation's anchor event (use
    /// [`itdos_obs::ObsConfig::forensic`] for whole-run traces).
    pub fn trace(&self, ticket: Ticket) -> Option<crate::trace::TraceReport> {
        let events: Vec<itdos_obs::flight::Event> =
            self.obs.with_flight(|f| f.events().cloned().collect())?;
        crate::trace::of_ticket(ticket, &self.element_domains(), &events)
    }

    /// Every element's obs scope → its domain id, retired (replaced)
    /// elements included so their pre-replacement traffic stays
    /// attributable: [`System::audit_topology`]'s element map, re-keyed.
    fn element_domains(&self) -> BTreeMap<u64, u64> {
        let topology = self.audit_topology();
        topology
            .elements
            .into_values()
            .map(|info| (info.scope, info.domain))
            .collect()
    }

    /// Folds every submitted invocation's causal trace into one
    /// deterministic whole-stack [`itdos_obs::Profile`]: end-to-end
    /// latency decomposed into the named hops of
    /// [`crate::trace::STAGE_ORDER`] with an explicit unattributed
    /// residual, plus per-subsystem cost series (GIOP codec, crypto
    /// seal/open, BFT wire, vote folds, flight-recorder overhead) read
    /// from the registry. Invocations whose trace anchor the flight ring
    /// already evicted are counted as `untraced`, never silently skipped
    /// — run under [`itdos_obs::ObsConfig::forensic`] when whole-run
    /// attribution matters. `None` when observability is off; the value
    /// renders itself ([`itdos_obs::Profile::render`], `to_json`,
    /// `folded`), byte-identically across identical seeded runs.
    pub fn profile(&self) -> Option<itdos_obs::Profile> {
        let events: Vec<itdos_obs::flight::Event> =
            self.obs.with_flight(|f| f.events().cloned().collect())?;
        let mut profile = itdos_obs::Profile::new(&crate::trace::STAGE_ORDER);
        crate::trace::fold_into(
            &mut profile,
            &self.submitted,
            &self.element_domains(),
            &events,
        );
        crate::cost::fold_into(&self.obs, &mut profile);
        Some(profile)
    }

    /// Replaces an expelled element of `domain` with a freshly keyed,
    /// empty-state element of the given `behavior` (drills pass a faulty
    /// one to prove a replaced slot can turn faulty *again* and the
    /// restored domain still masks it). Allocates a new global id and a
    /// new simulated node, takes the expelled node off the network (it
    /// may still hold its old slot's keys), asks the Group Manager group
    /// to admit the newcomer into the vacated slot, and starts the joiner
    /// in onboarding mode so it catches up via state transfer before it
    /// orders or votes. Returns the new element's id; run
    /// [`System::settle`] afterwards to let admission, rekeying, and
    /// catch-up complete — after which the domain again tolerates its
    /// full `f` faults.
    ///
    /// # Panics
    ///
    /// Panics if `replaced` is not on `domain`'s roster (never a member,
    /// or already replaced).
    pub fn spawn_replacement(
        &mut self,
        domain: DomainId,
        replaced: SenderId,
        behavior: Behavior,
    ) -> SenderId {
        let spec = self.fabric.domain(domain);
        let slot = spec
            .replica_index(replaced)
            .expect("replaced element is on the domain roster");
        let (old_node, mcast) = (spec.nodes[slot], spec.mcast);
        let admitted = SenderId(self.next_element);
        self.next_element += 1;
        let node = self.sim.add_process(Box::new(Idle));
        // the expelled process still holds its slot's BFT keys: take it
        // off the network before the newcomer assumes the slot, so it
        // cannot impersonate the replacement
        self.sim.replace_process(old_node, Box::new(Idle));
        self.sim.leave_group(old_node, mcast);
        // the host-side wiring copy adopts the new roster immediately;
        // running processes adopt it when f_gm+1 GM elements vouch
        self.fabric
            .apply_admission(domain, admitted, replaced, slot, node);
        self.spawn_element(domain, slot, behavior, Some(replaced));
        // the batch auditor resolves against the final topology; tell the
        // live stream about the admission so both stay equivalent
        let topology = self.audit_topology();
        if let Some(live) = self.live.as_mut() {
            live.stream.set_topology(topology);
        }
        admitted
    }

    /// Builds the server element that occupies `domain`'s `slot` in the
    /// fabric, hosts it on the slot's node and joins the domain's
    /// multicast group. A joiner (`replaces` the element whose slot it
    /// takes) onboards by state transfer and asks the Group Manager to
    /// admit it. Injected misbehaviour goes on the simulator's
    /// ground-truth ledger so tests can cross-check forensic blame sets.
    fn spawn_element(
        &mut self,
        domain: DomainId,
        slot: usize,
        behavior: Behavior,
        replaces: Option<SenderId>,
    ) {
        let spec = self.fabric.domain(domain);
        let (element, node, mcast) = (spec.elements[slot], spec.nodes[slot], spec.mcast);
        let runtime = self
            .domains
            .iter()
            .find(|d| d.id == domain)
            .expect("a declared server domain");
        let platform = runtime
            .platforms
            .as_ref()
            .map(|p| p[slot % p.len()])
            .unwrap_or_else(|| PlatformProfile::for_replica(slot));
        if !matches!(behavior, Behavior::Honest) {
            self.sim
                .fault_ledger_mut()
                .mark(u64::from(element.0), behavior.kind());
        }
        let cfg = ElementConfig {
            domain,
            index: slot,
            element,
            platform,
            behavior,
            ack_interval: self.ack_interval,
            queue_capacity: self.queue_capacity,
        };
        let mut process = ServerElement::new(self.fabric.clone(), cfg, (runtime.factory)(slot));
        process.set_obs(self.obs.scoped(element_code(element)));
        if let Some(replaced) = replaces {
            process.join_replacing(replaced);
        }
        self.sim.replace_process(node, Box::new(process));
        self.sim.join_group(node, mcast);
    }

    /// Mirrors the simulator's [`simnet::NetStats`] into the metrics
    /// registry (idempotent) and returns the combined JSON-lines dump.
    /// Empty string when observability is off.
    pub fn metrics_jsonl(&self) -> String {
        self.sim.stats().export_obs(&self.obs);
        self.obs.dump_jsonl()
    }

    /// Human-readable metric report (network counters included). Empty
    /// string when observability is off.
    pub fn metrics_report(&self) -> String {
        self.sim.stats().export_obs(&self.obs);
        self.obs.render_report()
    }

    /// The deployment map the forensic auditor runs against
    /// ([`Fabric::topology`] over this system's clients).
    pub fn audit_topology(&self) -> itdos_audit::Topology {
        self.fabric.topology()
    }

    /// The full forensic dump: [`System::metrics_jsonl`] plus embedded
    /// `{"type":"topology",…}` records, so the file is self-describing
    /// and offline tools need no out-of-band process map. Empty string
    /// when observability is off.
    pub fn audit_jsonl(&self) -> String {
        if !self.obs.is_enabled() {
            return String::new();
        }
        let mut out = self.metrics_jsonl();
        self.audit_topology().to_jsonl(&mut out);
        out
    }

    /// Runs the forensic audit pipeline over this system's telemetry and
    /// exports the resulting `replica.health{element}` gauges back
    /// through the observability layer. An empty default report when
    /// observability is off.
    pub fn audit(&self) -> itdos_audit::AuditReport {
        let Some(live) = &self.live else {
            return itdos_audit::AuditReport::default();
        };
        let auditor = itdos_audit::Auditor::with_config(self.audit_topology(), live.cfg.clone());
        let report = auditor
            .audit(&self.metrics_jsonl())
            .expect("a dump this system wrote must parse");
        report.export_health(&self.obs);
        report
    }

    /// Immutable access to a client process.
    pub fn client(&self, id: u64) -> &SingletonClient {
        self.sim
            .process_ref::<SingletonClient>(self.client_node(id))
    }

    fn client_node(&self, id: u64) -> NodeId {
        self.fabric
            .node_of(singleton_code(id))
            .expect("a declared client")
    }

    /// Immutable access to a server element.
    pub fn element(&self, domain: DomainId, index: usize) -> &ServerElement {
        let node = self.fabric.domain(domain).nodes[index];
        self.sim.process_ref::<ServerElement>(node)
    }

    /// Immutable access to a GM element.
    pub fn gm_element(&self, index: usize) -> &GmElement {
        let node = self.fabric.domain(self.fabric.gm_domain()).nodes[index];
        self.sim.process_ref::<GmElement>(node)
    }

    /// Mutable access to a GM element (compromise injection).
    pub fn gm_element_mut(&mut self, index: usize) -> &mut GmElement {
        let node = self.fabric.domain(self.fabric.gm_domain()).nodes[index];
        self.sim.process_mut::<GmElement>(node)
    }
}
