//! Deployment builder: assemble a whole ITDOS system on the simulator.
//!
//! A system is the Figure 1 picture generalized: one Group Manager
//! replication domain, any number of server replication domains (each
//! `3f+1` elements on heterogeneous platforms), and singleton clients.
//! The builder wires the fabric (nodes, seeds, keys, DPRF deal,
//! membership) and hands back a [`System`] that can run invocations and
//! inspect every process.

// The builder and driver take no hostile input: an unwired id, a missing
// process or an invocation that never completes is the caller's bug, and
// their panics are documented on each method.
#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    reason = "test and benchmark harness: a caller bug panics by contract"
)]

use std::collections::BTreeMap;

use itdos_bft::config::GroupConfig;
use itdos_crypto::dprf::Dprf;
use itdos_giop::idl::InterfaceRepository;
use itdos_giop::platform::PlatformProfile;
use itdos_groupmgr::membership::{DomainId, DomainRecord, ElementRecord, Membership};
use itdos_orb::object::ObjectKey;
use itdos_orb::servant::Servant;
use itdos_vote::comparator::Comparator;
use itdos_vote::vote::SenderId;
use simnet::{GroupId, NodeId, Simulator};
use xrand::rngs::SmallRng;
use xrand::SeedableRng;

use itdos_obs::ObsConfig;

use itdos_obs::LabelValue;

use crate::client::{encode_traced_command, ClientConfig, Completed, SingletonClient};
use crate::codes::{element_code, singleton_code};
use crate::element::{ElementConfig, ServerElement};
use crate::fabric::{DomainSpec, Fabric, Retired, Wiring};
use crate::fault::Behavior;
use crate::gm::{GmElement, GmMachine};
use crate::heal::{HealCause, HealConfig, HealState, HealStats};
use crate::invocation::{Invocation, Ticket};
use crate::registry::ComparatorRegistry;
use crate::wire::HealCmd;

/// Default [`System::settle`] step budget (see
/// [`SystemBuilder::settle_budget`]).
pub const DEFAULT_SETTLE_BUDGET: u64 = 20_000_000;

/// Builds the servants hosted by one replica of a domain. Called once per
/// replica index so heterogeneous *implementations* are possible (§2:
/// "implementation diversity in both language and platform").
pub type ServantFactory = Box<dyn Fn(usize) -> Vec<(ObjectKey, Box<dyn Servant>)>>;

struct DomainPlan {
    id: DomainId,
    f: usize,
    factory: ServantFactory,
    behaviors: BTreeMap<usize, Behavior>,
    platforms: Option<Vec<PlatformProfile>>,
}

struct ClientPlan {
    id: u64,
    platform: PlatformProfile,
    auto_proof: bool,
}

/// BFT ordering overrides applied to every replication domain.
#[derive(Debug, Clone, Copy, Default)]
struct BftTuning {
    max_batch: Option<usize>,
    pipeline_depth: Option<u64>,
}

/// Per-domain pieces the builder hands over to the built [`System`] so
/// replica replacement can construct a like-for-like element later.
struct DomainRuntime {
    factory: ServantFactory,
    platforms: Option<Vec<PlatformProfile>>,
}

/// The deployment builder.
pub struct SystemBuilder {
    seed: u64,
    gm_f: usize,
    repo: InterfaceRepository,
    comparators: ComparatorRegistry,
    domains: Vec<DomainPlan>,
    clients: Vec<ClientPlan>,
    ack_interval: u64,
    queue_capacity: usize,
    obs_cfg: ObsConfig,
    settle_budget: u64,
    bft: BftTuning,
    client_pipeline: usize,
    healing: Option<HealConfig>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("domains", &self.domains.len())
            .field("clients", &self.clients.len())
            .finish()
    }
}

/// The Group Manager's reserved domain id.
pub const GM_DOMAIN: DomainId = DomainId(0);

impl SystemBuilder {
    /// Starts a deployment with the given determinism seed.
    pub fn new(seed: u64) -> SystemBuilder {
        SystemBuilder {
            seed,
            gm_f: 1,
            repo: InterfaceRepository::new(),
            comparators: ComparatorRegistry::new(),
            domains: Vec::new(),
            clients: Vec::new(),
            ack_interval: 8,
            queue_capacity: 1 << 20,
            obs_cfg: ObsConfig::off(),
            settle_budget: DEFAULT_SETTLE_BUDGET,
            bft: BftTuning::default(),
            client_pipeline: 1,
            healing: None,
        }
    }

    /// Installs the in-system healing controller (see [`crate::heal`]):
    /// during every [`System::settle`] the controller reads the streaming
    /// audit's live health verdict and automatically expels, replaces,
    /// and (on a period) proactively rejuvenates elements through the
    /// Group Manager's ordinary voted paths. Requires observability
    /// ([`SystemBuilder::obs`]), which turns the streaming audit on —
    /// [`SystemBuilder::build`] panics otherwise, because a controller
    /// with no verdict to act on is a misconfiguration, not a policy.
    pub fn healing(&mut self, cfg: HealConfig) -> &mut SystemBuilder {
        self.healing = Some(cfg);
        self
    }

    /// Configures the deterministic observability layer: one shared
    /// [`itdos_obs::Obs`] recorder (metrics + flight recorder) driven by
    /// the simulator clock and installed on every process. Off by default
    /// ([`ObsConfig::off`]) — disabled hooks are free. With observability
    /// on, the streaming audit is on too: [`System::settle`] pumps every
    /// flight event through the incremental audit analyzers, publishing
    /// fresh findings as `audit.finding` flight events and live
    /// per-element `replica.health` gauges — the in-system counterpart of
    /// the post-hoc [`System::audit`], equal to it by construction. Use
    /// [`ObsConfig::standard`] for metrics/spans or
    /// [`ObsConfig::forensic`] to keep a whole drill's event timeline
    /// (consumed by [`System::metrics_jsonl`] / [`System::audit_jsonl`]).
    pub fn obs(&mut self, cfg: ObsConfig) -> &mut SystemBuilder {
        self.obs_cfg = cfg;
        self
    }

    /// Overrides the [`System::settle`] step budget. Long-running load
    /// experiments legitimately exceed the default; tests hunting a
    /// livelock may want it far smaller so failures are fast.
    pub fn settle_budget(&mut self, steps: u64) -> &mut SystemBuilder {
        self.settle_budget = steps.max(1);
        self
    }

    /// Overrides PBFT request batching for every replication domain:
    /// up to `max_batch` client requests share one sequence number and up
    /// to `pipeline_depth` sequence numbers run agreement concurrently
    /// (defaults come from [`GroupConfig::for_f`]).
    pub fn batching(&mut self, max_batch: usize, pipeline_depth: u64) -> &mut SystemBuilder {
        self.bft.max_batch = Some(max_batch);
        self.bft.pipeline_depth = Some(pipeline_depth);
        self
    }

    /// Sets how many invocations every client may keep in flight
    /// concurrently (default 1, the classic §3.6 model). Results are
    /// still delivered in submission order. At build time the depth is
    /// clamped to the replicas' per-client reply-cache window
    /// ([`GroupConfig::client_reply_window`]): a deeper pipeline could
    /// let a retransmitted request fall out of every correct replica's
    /// cache and be re-executed.
    pub fn client_pipeline(&mut self, depth: usize) -> &mut SystemBuilder {
        self.client_pipeline = depth.max(1);
        self
    }

    /// Sets the interface repository (shared by every process).
    pub fn repository(&mut self, repo: InterfaceRepository) -> &mut SystemBuilder {
        self.repo = repo;
        self
    }

    /// Registers a voting comparator for an interface.
    pub fn comparator(
        &mut self,
        interface: impl Into<String>,
        comparator: Comparator,
    ) -> &mut SystemBuilder {
        self.comparators.register(interface, comparator);
        self
    }

    /// Sets the Group Manager's fault tolerance (GM domain has `3f+1`
    /// elements).
    pub fn gm_faults(&mut self, f: usize) -> &mut SystemBuilder {
        self.gm_f = f;
        self
    }

    /// Sets the queue acknowledgement interval for all elements.
    pub fn ack_interval(&mut self, interval: u64) -> &mut SystemBuilder {
        self.ack_interval = interval.max(1);
        self
    }

    /// Sets the replicated message-queue capacity (bytes) for all
    /// elements — small capacities force queue GC and laggard expulsion
    /// (experiment E8).
    pub fn queue_capacity(&mut self, bytes: usize) -> &mut SystemBuilder {
        self.queue_capacity = bytes;
        self
    }

    /// Adds a server replication domain of `3f+1` elements.
    ///
    /// # Panics
    ///
    /// Panics if `id` is the reserved [`GM_DOMAIN`] or already used.
    pub fn add_domain(
        &mut self,
        id: DomainId,
        f: usize,
        factory: ServantFactory,
    ) -> &mut SystemBuilder {
        assert!(
            id != GM_DOMAIN,
            "domain id 0 is reserved for the Group Manager"
        );
        assert!(
            self.domains.iter().all(|d| d.id != id),
            "duplicate domain id"
        );
        self.domains.push(DomainPlan {
            id,
            f,
            factory,
            behaviors: BTreeMap::new(),
            platforms: None,
        });
        self
    }

    /// Overrides the behaviour of one element (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if the domain was not added first.
    pub fn behavior(
        &mut self,
        domain: DomainId,
        index: usize,
        behavior: Behavior,
    ) -> &mut SystemBuilder {
        let plan = self
            .domains
            .iter_mut()
            .find(|d| d.id == domain)
            .expect("behavior targets a declared domain");
        plan.behaviors.insert(index, behavior);
        self
    }

    /// Overrides the per-replica platform profiles of a domain.
    ///
    /// # Panics
    ///
    /// Panics if the domain was not added first.
    pub fn platforms(
        &mut self,
        domain: DomainId,
        platforms: Vec<PlatformProfile>,
    ) -> &mut SystemBuilder {
        let plan = self
            .domains
            .iter_mut()
            .find(|d| d.id == domain)
            .expect("platforms target a declared domain");
        plan.platforms = Some(platforms);
        self
    }

    /// Adds a singleton client (ids must be unique and below 1,000,000).
    pub fn add_client(&mut self, id: u64) -> &mut SystemBuilder {
        self.add_client_with(id, PlatformProfile::X86_LINUX, true)
    }

    /// Adds a singleton client with explicit platform and proof policy.
    pub fn add_client_with(
        &mut self,
        id: u64,
        platform: PlatformProfile,
        auto_proof: bool,
    ) -> &mut SystemBuilder {
        assert!(
            self.clients.iter().all(|c| c.id != id),
            "duplicate client id"
        );
        self.clients.push(ClientPlan {
            id,
            platform,
            auto_proof,
        });
        self
    }

    /// Builds the system: allocates nodes, deals keys, spawns processes.
    pub fn build(self) -> System {
        let mut sim = Simulator::new(self.seed);
        let obs = if self.obs_cfg.enabled {
            let (obs, clock) = itdos_obs::Obs::manual();
            sim.drive_obs_clock(clock);
            if let Some(capacity) = self.obs_cfg.flight_capacity {
                obs.set_flight_capacity(capacity);
            }
            obs
        } else {
            itdos_obs::Obs::disabled()
        };
        let tuned = |f: usize| {
            let mut config = GroupConfig::for_f(f);
            if let Some(max_batch) = self.bft.max_batch {
                config.max_batch = max_batch.max(1);
            }
            if let Some(depth) = self.bft.pipeline_depth {
                config.pipeline_depth = depth.max(1);
            }
            config
        };
        // the client pipeline must fit inside every replica's per-client
        // reply cache, or a retransmitted request could fall off the cache
        // and be re-executed — clamp and record rather than misbehave
        let reply_window = tuned(0).client_reply_window;
        let client_pipeline = if self.client_pipeline > reply_window {
            obs.incr(
                "config.client_pipeline_clamped",
                &[
                    (
                        "requested",
                        itdos_obs::LabelValue::U64(self.client_pipeline as u64),
                    ),
                    ("window", itdos_obs::LabelValue::U64(reply_window as u64)),
                ],
            );
            reply_window
        } else {
            self.client_pipeline
        };
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x1717_1717);
        let gm_n = 3 * self.gm_f + 1;

        // -- global element id allocation: GM first, then server domains
        let mut next_element = 0u32;
        let gm_elements: Vec<SenderId> = (0..gm_n)
            .map(|_| {
                let e = SenderId(next_element);
                next_element += 1;
                e
            })
            .collect();
        let domain_elements: Vec<Vec<SenderId>> = self
            .domains
            .iter()
            .map(|d| {
                (0..3 * d.f + 1)
                    .map(|_| {
                        let e = SenderId(next_element);
                        next_element += 1;
                        e
                    })
                    .collect()
            })
            .collect();

        // -- node allocation (placeholders replaced after fabric exists)
        let gm_nodes: Vec<NodeId> = (0..gm_n).map(|_| sim.add_process(Box::new(Idle))).collect();
        let domain_nodes: Vec<Vec<NodeId>> = self
            .domains
            .iter()
            .map(|d| {
                (0..3 * d.f + 1)
                    .map(|_| sim.add_process(Box::new(Idle)))
                    .collect()
            })
            .collect();
        let client_nodes: Vec<NodeId> = self
            .clients
            .iter()
            .map(|_| sim.add_process(Box::new(Idle)))
            .collect();

        // -- fabric
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&self.seed.to_le_bytes());
        let dprf = Dprf::deal(self.gm_f, gm_n, &mut rng);
        let (holders, verifier) = dprf.into_parts();

        let group_seed = |tag: u64| {
            let mut s = seed_bytes;
            s[8..16].copy_from_slice(&tag.to_le_bytes());
            s
        };
        let mut domains = vec![DomainSpec {
            id: GM_DOMAIN,
            f: self.gm_f,
            config: tuned(self.gm_f),
            seed: group_seed(u64::MAX),
            mcast: GroupId::from_raw(0),
            nodes: gm_nodes.clone(),
            elements: gm_elements.clone(),
        }];
        for (i, plan) in self.domains.iter().enumerate() {
            domains.push(DomainSpec {
                id: plan.id,
                f: plan.f,
                config: tuned(plan.f),
                seed: group_seed(plan.id.0),
                mcast: GroupId::from_raw(1 + i as u32),
                nodes: domain_nodes[i].clone(),
                elements: domain_elements[i].clone(),
            });
        }
        let singleton_nodes = self
            .clients
            .iter()
            .zip(&client_nodes)
            .map(|(c, n)| (singleton_code(c.id), *n))
            .collect();
        let wiring = Wiring {
            gm_domain: GM_DOMAIN,
            repo: self.repo.clone(),
            comparators: self.comparators.clone(),
            dprf_verifier: verifier,
            global_seed: seed_bytes,
            singleton_nodes,
        };
        let fabric = Fabric::new(wiring, domains);

        // -- GM membership (covers every server domain and client)
        let mut membership = Membership::new();
        for (i, plan) in self.domains.iter().enumerate() {
            membership.register_domain(DomainRecord::new(
                plan.id,
                plan.f,
                domain_elements[i]
                    .iter()
                    .map(|e| ElementRecord {
                        id: *e,
                        verifying_key: fabric.verifying_key(*e),
                    })
                    .collect(),
            ));
        }
        for c in &self.clients {
            membership.register_singleton(c.id, fabric.verifying_key_code(singleton_code(c.id)));
        }
        let gm_seed = {
            let mut s = seed_bytes;
            s[16] = 0xAB; // domain-separate the GM's connection-input seed
            s
        };

        // -- spawn GM elements
        for (index, (&node, holder)) in gm_nodes.iter().zip(holders).enumerate() {
            let machine = GmMachine::new(
                membership.clone(),
                gm_seed,
                self.repo.clone(),
                self.comparators.clone(),
            );
            let mut element = GmElement::new(
                fabric.clone(),
                GM_DOMAIN,
                index,
                gm_elements[index],
                machine,
                holder,
            );
            // every process gets its own span scope (its endpoint code is
            // globally unique), so identically-keyed spans from different
            // replicas, groups, or clients cannot clobber each other
            element.set_obs(obs.scoped(element_code(gm_elements[index])));
            sim.replace_process(node, Box::new(element));
            sim.join_group(node, fabric.domain(GM_DOMAIN).mcast);
        }

        // -- spawn server elements
        for (i, plan) in self.domains.iter().enumerate() {
            for (index, &node) in domain_nodes[i].iter().enumerate() {
                let platform = plan
                    .platforms
                    .as_ref()
                    .map(|p| p[index % p.len()])
                    .unwrap_or_else(|| PlatformProfile::for_replica(index));
                let cfg = ElementConfig {
                    domain: plan.id,
                    index,
                    element: domain_elements[i][index],
                    platform,
                    behavior: plan
                        .behaviors
                        .get(&index)
                        .cloned()
                        .unwrap_or(Behavior::Honest),
                    ack_interval: self.ack_interval,
                    queue_capacity: self.queue_capacity,
                };
                // injected misbehavior goes on the simulator's ground-truth
                // ledger so tests can cross-check forensic blame sets
                if !matches!(cfg.behavior, Behavior::Honest) {
                    sim.fault_ledger_mut()
                        .mark(u64::from(cfg.element.0), cfg.behavior.kind());
                }
                let servants = (plan.factory)(index);
                let mut element = ServerElement::new(fabric.clone(), cfg, servants);
                element.set_obs(obs.scoped(element_code(domain_elements[i][index])));
                sim.replace_process(node, Box::new(element));
                sim.join_group(node, fabric.domain(plan.id).mcast);
            }
        }

        // -- spawn clients
        let mut client_node_map = BTreeMap::new();
        for (plan, &node) in self.clients.iter().zip(&client_nodes) {
            let cfg = ClientConfig {
                id: plan.id,
                platform: plan.platform,
                auto_proof: plan.auto_proof,
            };
            let mut client = SingletonClient::new(fabric.clone(), cfg);
            client.set_pipeline(client_pipeline);
            client.set_obs(obs.scoped(singleton_code(plan.id)));
            sim.replace_process(node, Box::new(client));
            client_node_map.insert(plan.id, node);
        }

        let domain_runtime: BTreeMap<DomainId, DomainRuntime> = self
            .domains
            .into_iter()
            .map(|p| {
                (
                    p.id,
                    DomainRuntime {
                        factory: p.factory,
                        platforms: p.platforms,
                    },
                )
            })
            .collect();

        // the healing controller's decay window flows into the audit
        // budgets so the live verdict it acts on and every post-hoc
        // `System::audit` agree on what evidence has aged out
        let mut audit_cfg = itdos_audit::AuditConfig::default();
        if let Some(heal) = &self.healing {
            audit_cfg.decay_window_us = heal.decay_window_us;
        }
        let mut system = System {
            sim,
            fabric,
            obs,
            client_nodes: client_node_map,
            settle_budget: self.settle_budget,
            submitted: BTreeMap::new(),
            domain_runtime,
            ack_interval: self.ack_interval,
            queue_capacity: self.queue_capacity,
            next_element,
            audit_cfg,
            audit_sub: None,
            audit_stream: None,
            health: BTreeMap::new(),
            heal: None,
        };
        if system.obs.is_enabled() {
            // the tap outlives the flight ring by a healthy margin so a
            // settle that wraps the ring still feeds the stream every
            // event; overflow is accounted as `obs.tap_dropped`
            let flight = self
                .obs_cfg
                .flight_capacity
                .unwrap_or(itdos_obs::DEFAULT_FLIGHT_CAPACITY);
            let tap = (flight * 4).max(itdos_obs::DEFAULT_TAP_CAPACITY);
            system.audit_sub = system.obs.subscribe(tap);
            system.audit_stream = Some(itdos_audit::Stream::with_config(
                system.audit_topology(),
                system.audit_cfg.clone(),
            ));
        }
        if let Some(cfg) = self.healing {
            assert!(
                system.audit_stream.is_some(),
                "healing requires obs(ObsConfig::standard()/forensic()): the \
                 controller acts on the live streaming-audit health verdict"
            );
            system.heal = Some(HealState::new(cfg));
        }
        system
    }
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
    client_nodes: BTreeMap<u64, NodeId>,
    settle_budget: u64,
    /// Per-client count of submitted invocations, which doubles as the
    /// next completion index (results release in submission order).
    submitted: BTreeMap<u64, usize>,
    /// Per-domain servant factories and platform plans, retained so
    /// replica replacement can build a like-for-like fresh element.
    domain_runtime: BTreeMap<DomainId, DomainRuntime>,
    ack_interval: u64,
    queue_capacity: usize,
    /// Next unused global element id (replacements get fresh ids).
    next_element: u32,
    /// Audit budgets shared by the live stream and [`System::audit`] so
    /// both judge the run by the same rules (decay window included).
    audit_cfg: itdos_audit::AuditConfig,
    /// Flight-tap subscription feeding the streaming audit, if on.
    audit_sub: Option<u64>,
    /// The incremental audit pipeline pumped by [`System::settle`].
    audit_stream: Option<itdos_audit::Stream>,
    /// Per-element health as the last pump scored it and exported it as
    /// the `replica.health` gauges; what the healing controller acts on.
    health: BTreeMap<u64, i64>,
    /// The self-healing controller, if [`SystemBuilder::healing`] set one.
    heal: Option<HealState>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("clients", &self.client_nodes.len())
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
        let node = self.client_nodes[&client];
        self.sim.inject(node, cmd);
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

    /// The completed outcome a ticket refers to, if it has been reached.
    pub fn result(&self, ticket: Ticket) -> Option<Completed> {
        self.client(ticket.client)
            .completed
            .get(ticket.index)
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
        if let Err(e) = self.run_to_quiescence() {
            self.pump_streaming_audit();
            return Err(e);
        }
        self.pump_streaming_audit();
        self.run_heal_rounds()
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

    /// Bounded self-healing loop (see [`crate::heal`]): each round acts on
    /// the current live verdict, then re-settles and re-pumps so the next
    /// round sees the consequences. Stops at the first round that takes
    /// no action.
    fn run_heal_rounds(&mut self) -> Result<(), String> {
        let Some(heal) = self.heal.as_ref() else {
            return Ok(());
        };
        let max_rounds = heal.cfg.max_rounds;
        for _ in 0..max_rounds {
            if !self.heal_round() {
                break;
            }
            self.run_to_quiescence()?;
            self.pump_streaming_audit();
        }
        Ok(())
    }

    /// One controller decision pass. Returns whether any action was taken
    /// (accusations injected, replacement spawned, retirement requested).
    /// Every decision is a deterministic function of the GM membership
    /// state, the live health map, and the simulated clock.
    fn heal_round(&mut self) -> bool {
        let Some(plan) = self.heal_plan() else {
            return false;
        };
        let acted = !plan.replace.is_empty() || !plan.expel.is_empty() || plan.retire.is_some();

        // 1) replacements: departures the GM group has since executed
        for (element, domain, cause) in plan.replace {
            self.obs.event(
                "heal.replace",
                &[
                    ("element", LabelValue::U64(u64::from(element.0))),
                    ("domain", LabelValue::U64(domain.0)),
                    ("cause", LabelValue::Str(cause.label())),
                ],
            );
            self.spawn_replacement(domain, element);
            let heal = self.heal.as_mut().expect("controller is installed");
            heal.pending.remove(&element);
            heal.stats.replacements += 1;
        }

        // 2) threshold expulsions: accusations by f+1 healthy peers drive
        // the GM's ordinary voted expulsion
        for (domain, suspect, accusers) in plan.expel {
            let suspect_health = self.health.get(&u64::from(suspect.0)).copied().unwrap_or(0);
            self.obs.event(
                "heal.expel",
                &[
                    ("element", LabelValue::U64(u64::from(suspect.0))),
                    ("domain", LabelValue::U64(domain.0)),
                    ("cause", LabelValue::Str(HealCause::Health.label())),
                    ("health", LabelValue::U64(suspect_health.max(0) as u64)),
                ],
            );
            for accuser in accusers {
                let node = self
                    .fabric
                    .node_of(element_code(accuser))
                    .expect("active element has a node");
                self.sim
                    .inject(node, HealCmd::Accuse { accused: suspect }.encode().into());
            }
            let heal = self.heal.as_mut().expect("controller is installed");
            heal.pending.insert(suspect, (domain, HealCause::Health));
            heal.stats.expulsions += 1;
        }

        // 3) proactive rejuvenation of the chosen slot's occupant
        if let Some((domain, occupant, cursor)) = plan.retire {
            self.obs.event(
                "heal.rejuvenate",
                &[
                    ("element", LabelValue::U64(u64::from(occupant.0))),
                    ("domain", LabelValue::U64(domain.0)),
                    ("cause", LabelValue::Str(HealCause::Rejuvenation.label())),
                ],
            );
            let node = self
                .fabric
                .node_of(element_code(occupant))
                .expect("active element has a node");
            self.sim.inject(node, HealCmd::Retire.encode().into());
            let now_us = self.sim.now().as_micros();
            let heal = self.heal.as_mut().expect("controller is installed");
            heal.pending
                .insert(occupant, (domain, HealCause::Rejuvenation));
            heal.stats.rejuvenations += 1;
            heal.next_rejuvenation_us =
                now_us.saturating_add(heal.cfg.rejuvenation_period_us.unwrap_or(u64::MAX));
            heal.cursor = cursor;
        }
        acted
    }

    /// Decides one heal round, reading the GM's membership in place.
    /// Acting changes neither that membership nor the health map before
    /// the simulator runs again, and the fabric's slots are read only in
    /// a round that spawns no replacement, so deciding everything first
    /// and then acting in order takes the decisions acting step by step
    /// would. `None` without a controller.
    fn heal_plan(&self) -> Option<HealPlan> {
        let heal = self.heal.as_ref()?;
        // the GM replicas agree on membership by construction; replica 0's
        // copy is as authoritative as any for reading departures
        let membership = self.gm_element(0).replica().app().manager().membership();
        let healthy = |element: SenderId| {
            self.health
                .get(&u64::from(element.0))
                .is_none_or(|&h| h >= heal.cfg.expel_below)
        };

        let replace: Vec<(SenderId, DomainId, HealCause)> = heal
            .pending
            .iter()
            .filter(|&(&element, &(domain, _))| {
                membership
                    .domain(domain)
                    .is_some_and(|d| !d.is_active(element))
            })
            .map(|(&element, &(domain, cause))| (element, domain, cause))
            .collect();

        // active elements whose live health fell below the bar, at most
        // one per domain and round: a second departure before the first
        // replacement has onboarded would drop the domain below quorum
        // even though each fault alone is tolerable
        let mut expel = Vec::new();
        let server_domains = self
            .fabric
            .domains()
            .map(|d| d.id)
            .filter(|&d| d != self.fabric.gm_domain());
        for domain in server_domains {
            let Some(record) = membership.domain(domain) else {
                continue;
            };
            let active = || record.active_elements().map(|e| e.id);
            let Some(suspect) = active().find(|&e| !healthy(e) && !heal.pending.contains_key(&e))
            else {
                continue;
            };
            let accusers: Vec<SenderId> = active()
                .filter(|&e| e != suspect && healthy(e))
                .take(record.f + 1)
                .collect();
            if accusers.len() < record.f + 1 {
                // not enough healthy voters to reach the GM threshold;
                // the domain is already past its fault bound
                continue;
            }
            expel.push((domain, suspect, accusers));
        }

        // on the configured period, retire one healthy element
        // round-robin so no slot's keys or state outlive the window. Only
        // in a *quiet* round — no departures in flight and no action taken
        // above — so a retirement never overlaps an expulsion or a
        // still-onboarding replacement: two simultaneous departures from a
        // 3f+1 group would cost quorum even though each alone is
        // tolerable. (An empty `pending` leaves nothing to replace.)
        let due = self.sim.now().as_micros() >= heal.next_rejuvenation_us;
        let mut retire = None;
        if due && expel.is_empty() && heal.pending.is_empty() {
            let slots: Vec<(DomainId, usize)> = self
                .fabric
                .domains()
                .filter(|d| d.id != self.fabric.gm_domain())
                .flat_map(|d| (0..d.elements.len()).map(move |i| (d.id, i)))
                .collect();
            let mut cursor = heal.cursor;
            for _ in 0..slots.len() {
                let (domain, slot) = slots[cursor as usize % slots.len()];
                cursor += 1;
                let occupant = self.fabric.domain(domain).elements[slot];
                let eligible = membership
                    .domain(domain)
                    .is_some_and(|d| d.is_active(occupant))
                    && healthy(occupant);
                if eligible {
                    retire = Some((domain, occupant, cursor));
                    break;
                }
            }
        }
        Some(HealPlan {
            replace,
            expel,
            retire,
        })
    }

    /// The healing controller's cumulative action counters; all zero when
    /// no controller is installed.
    pub fn heal_stats(&self) -> HealStats {
        self.heal.as_ref().map(|h| h.stats).unwrap_or_default()
    }

    /// Advances the always-on streaming audit: drains the flight tap into
    /// the incremental analyzers, publishes findings that newly surfaced
    /// as `audit.finding` flight events, and refreshes the live
    /// `replica.health` gauges. Runs two passes so the published
    /// `audit.finding` events are themselves folded back into the
    /// stream's timeline — keeping the live summary equal to what a
    /// post-hoc parse of the final dump sees. Health is scored once, from
    /// the second pass's state: the gauges hold its values either way.
    fn pump_streaming_audit(&mut self) {
        let (Some(sub), Some(stream)) = (self.audit_sub, self.audit_stream.as_mut()) else {
            return;
        };
        // the registry facts are read once: between the passes only the
        // first pass's `audit.finding` events are recorded, and they move
        // no reply counter or phase histogram
        let mut facts = None;
        for _ in 0..2 {
            let mut fresh = Vec::new();
            for event in self.obs.drain_subscription(sub) {
                fresh.extend(stream.observe_event(&event));
            }
            let facts = facts.get_or_insert_with(|| audit_facts(&self.obs));
            fresh.extend(stream.drain_new(facts));
            for f in &fresh {
                let severity = match f.severity {
                    itdos_audit::Severity::Info => 0u64,
                    itdos_audit::Severity::Warn => 1,
                    itdos_audit::Severity::Blame => 2,
                };
                let labels = [
                    ("analyzer", LabelValue::Str(f.analyzer)),
                    ("kind", LabelValue::Str(f.kind)),
                    ("severity", LabelValue::U64(severity)),
                    ("count", LabelValue::U64(f.count)),
                    ("element", LabelValue::U64(f.element.unwrap_or(0))),
                ];
                let labels = if f.element.is_some() {
                    &labels[..]
                } else {
                    &labels[..4]
                };
                self.obs.event("audit.finding", labels);
            }
        }
        self.health = stream.health(&facts.unwrap_or_default());
        for (&element, &value) in &self.health {
            self.obs.gauge(
                "replica.health",
                &[("element", LabelValue::U64(element))],
                value,
            );
        }
    }

    /// The streaming auditor's current view of the run: a full
    /// [`itdos_audit::AuditReport`] built from the incremental analyzer
    /// state and the live metrics registry — without parsing any dump.
    /// `None` when observability is off. After [`System::settle`] at
    /// the end of a run this equals [`System::audit`] by construction.
    pub fn live_audit_report(&self) -> Option<itdos_audit::AuditReport> {
        let stream = self.audit_stream.as_ref()?;
        Some(stream.report(&audit_facts(&self.obs)))
    }

    /// Live per-element health (100 = clean, 0 = condemned) from the
    /// streaming auditor, as the last pump scored it — the values
    /// currently exported as the `replica.health` gauge. Empty when
    /// observability is off.
    pub fn live_health(&self) -> &BTreeMap<u64, i64> {
        &self.health
    }

    /// Reconstructs the causal path of a ticket's invocation from the
    /// flight recorder: admission → batch → prepare → commit → execute →
    /// vote → reply, with per-hop latency attribution
    /// ([`crate::trace::TraceReport`]). `None` when observability is off
    /// or the ring has evicted the invocation's anchor event (use
    /// [`ObsConfig::forensic`] for whole-run traces).
    pub fn trace(&self, ticket: Ticket) -> Option<crate::trace::TraceReport> {
        let events: Vec<itdos_obs::flight::Event> =
            self.obs.with_flight(|f| f.events().cloned().collect())?;
        crate::trace::reconstruct(
            crate::trace::trace_id(ticket.client, ticket.index),
            ticket.client,
            singleton_code(ticket.client),
            &self.element_domain_map(),
            &events,
        )
    }

    /// Every element's obs scope → its domain id, including retired
    /// (replaced) elements whose pre-replacement traffic must stay
    /// attributable (shared by [`System::trace`] and [`System::profile`]).
    fn element_domain_map(&self) -> BTreeMap<u64, u64> {
        let mut element_domains = BTreeMap::new();
        for spec in self.fabric.domains() {
            for element in spec.elements {
                element_domains.insert(element_code(*element), spec.id.0);
            }
        }
        for retired in self.fabric.retired() {
            element_domains
                .entry(element_code(retired.element))
                .or_insert(retired.domain.0);
        }
        element_domains
    }

    /// Folds every submitted invocation's causal trace into one
    /// deterministic whole-stack [`itdos_obs::Profile`]: end-to-end
    /// latency decomposed into the named hops of
    /// [`crate::trace::STAGE_ORDER`] with an explicit unattributed
    /// residual, plus per-subsystem cost series (GIOP codec, crypto
    /// seal/open, BFT wire, vote folds, flight-recorder overhead) read
    /// from the registry. Invocations whose trace anchor the flight ring
    /// already evicted are counted as `untraced`, never silently skipped
    /// — run under [`ObsConfig::forensic`] when whole-run attribution
    /// matters. `None` when observability is off.
    pub fn profile(&self) -> Option<itdos_obs::Profile> {
        let events: Vec<itdos_obs::flight::Event> =
            self.obs.with_flight(|f| f.events().cloned().collect())?;
        let element_domains = self.element_domain_map();
        let mut profile = itdos_obs::Profile::new(&crate::trace::STAGE_ORDER);
        for (&client, &count) in &self.submitted {
            for index in 0..count {
                let report = crate::trace::reconstruct(
                    crate::trace::trace_id(client, index),
                    client,
                    singleton_code(client),
                    &element_domains,
                    &events,
                );
                match report {
                    Some(report) => {
                        let (hops, residual) = report.attributions();
                        profile.record_invocation(report.total_us(), &hops, residual);
                    }
                    None => profile.record_untraced(),
                }
            }
        }
        self.obs.with_registry(|reg| {
            let sum = |name: &str| -> u64 {
                reg.counters()
                    .filter(|(k, _)| k.name == name)
                    .map(|(_, v)| v)
                    .sum()
            };
            // intra-process compute advances sim-time by zero (only
            // message hops cost latency), so the subsystem series carry
            // ops and bytes; sim_us stays honest at 0 (DESIGN.md §16)
            for (name, ops, bytes) in [
                ("giop.encode", "giop.encode", "giop.encode_bytes"),
                ("giop.decode", "giop.decode", "giop.decode_bytes"),
                ("crypto.seal", "crypto.seal", "crypto.seal_bytes"),
                ("crypto.open", "crypto.open", "crypto.open_bytes"),
                ("bft.wire_tx", "bft.wire_tx", "bft.wire_tx_bytes"),
                ("bft.wire_rx", "bft.wire_rx", "bft.wire_rx_bytes"),
            ] {
                profile.add_subsystem(
                    name,
                    itdos_obs::profile::SubsystemCost {
                        ops: sum(ops),
                        bytes: sum(bytes),
                        sim_us: 0,
                    },
                );
            }
            profile.add_subsystem(
                "vote.fold",
                itdos_obs::profile::SubsystemCost {
                    ops: sum("vote.folds"),
                    bytes: 0,
                    sim_us: 0,
                },
            );
        });
        if let Some(recorded) = self.obs.with_flight(|f| f.total_recorded()) {
            profile.add_subsystem(
                "obs.flight",
                itdos_obs::profile::SubsystemCost {
                    ops: recorded,
                    bytes: 0,
                    sim_us: 0,
                },
            );
        }
        Some(profile)
    }

    /// Rendered whole-stack profile ([`System::profile`]) — byte-identical
    /// across identical seeded runs. Empty string when observability is
    /// off.
    pub fn profile_report(&self) -> String {
        self.profile().map(|p| p.render()).unwrap_or_default()
    }

    /// The profile as one `{"type":"profile",...}` JSON line (newline
    /// terminated) — append it to [`System::metrics_jsonl`] /
    /// [`System::audit_jsonl`] and every existing JSONL consumer passes
    /// over it as an extras record. Empty string when observability is
    /// off.
    pub fn profile_jsonl(&self) -> String {
        self.profile()
            .map(|p| {
                let mut line = p.to_json();
                line.push('\n');
                line
            })
            .unwrap_or_default()
    }

    /// The profile as flamegraph-ready folded-stack text
    /// ([`itdos_obs::Profile::folded`]). Empty string when observability
    /// is off.
    pub fn profile_folded(&self) -> String {
        self.profile().map(|p| p.folded()).unwrap_or_default()
    }

    /// Replaces an expelled element of `domain` with a freshly keyed,
    /// empty-state honest element. Allocates a new global id and a new
    /// simulated node, takes the expelled node off the network (it may
    /// still hold its old slot's keys), asks the Group Manager group to
    /// admit the newcomer into the vacated slot, and starts the joiner
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
    pub fn spawn_replacement(&mut self, domain: DomainId, replaced: SenderId) -> SenderId {
        self.spawn_replacement_with(domain, replaced, Behavior::Honest)
    }

    /// [`System::spawn_replacement`] with an explicit behaviour — drills
    /// use this to prove a replaced slot can turn faulty *again* and the
    /// restored domain still masks it.
    pub fn spawn_replacement_with(
        &mut self,
        domain: DomainId,
        replaced: SenderId,
        behavior: Behavior,
    ) -> SenderId {
        let slot = self
            .fabric
            .domain(domain)
            .replica_index(replaced)
            .expect("replaced element is on the domain roster");
        let old_node = self.fabric.domain(domain).nodes[slot];
        let mcast = self.fabric.domain(domain).mcast;
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
        let runtime = self
            .domain_runtime
            .get(&domain)
            .expect("replacement targets a declared server domain");
        let platform = runtime
            .platforms
            .as_ref()
            .map(|p| p[slot % p.len()])
            .unwrap_or_else(|| PlatformProfile::for_replica(slot));
        let cfg = ElementConfig {
            domain,
            index: slot,
            element: admitted,
            platform,
            behavior,
            ack_interval: self.ack_interval,
            queue_capacity: self.queue_capacity,
        };
        if !matches!(cfg.behavior, Behavior::Honest) {
            self.sim
                .fault_ledger_mut()
                .mark(u64::from(admitted.0), cfg.behavior.kind());
        }
        let servants = (runtime.factory)(slot);
        let mut element = ServerElement::new(self.fabric.clone(), cfg, servants);
        element.set_obs(self.obs.scoped(element_code(admitted)));
        element.begin_onboarding();
        element.request_admission(replaced);
        self.sim.replace_process(node, Box::new(element));
        self.sim.join_group(node, mcast);
        // the batch auditor resolves against the final topology; tell the
        // live stream about the admission so both stay equivalent
        let topology = self.audit_topology();
        if let Some(stream) = self.audit_stream.as_mut() {
            stream.set_topology(topology);
        }
        admitted
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

    /// The deployment map the forensic auditor runs against, derived
    /// from the fabric: every domain's fault bound, every element's
    /// domain/index/scope, and every client's scope.
    pub fn audit_topology(&self) -> itdos_audit::Topology {
        let mut topology = itdos_audit::Topology {
            gm_domain: self.fabric.gm_domain().0,
            ..itdos_audit::Topology::default()
        };
        for spec in self.fabric.domains() {
            topology.domain_f.insert(spec.id.0, spec.f as u64);
            for (index, element) in spec.elements.iter().enumerate() {
                topology.elements.insert(
                    u64::from(element.0),
                    itdos_audit::ElementInfo {
                        domain: spec.id.0,
                        index: index as u64,
                        scope: element_code(*element),
                    },
                );
            }
        }
        // retired (replaced) elements stay in the map: their signed
        // pre-replacement traffic must remain attributable to a slot —
        // but they are *marked* retired so slot resolution hands the
        // membership view to their replacement and a rejoined slot does
        // not inherit its predecessor's findings
        for &Retired {
            domain,
            element,
            slot,
            ..
        } in self.fabric.retired()
        {
            topology
                .elements
                .entry(u64::from(element.0))
                .or_insert(itdos_audit::ElementInfo {
                    domain: domain.0,
                    index: slot as u64,
                    scope: element_code(element),
                });
            topology.retired.insert(u64::from(element.0));
        }
        for &id in self.client_nodes.keys() {
            topology.clients.insert(id, singleton_code(id));
        }
        topology
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
        if !self.obs.is_enabled() {
            return itdos_audit::AuditReport::default();
        }
        let auditor =
            itdos_audit::Auditor::with_config(self.audit_topology(), self.audit_cfg.clone());
        let report = auditor
            .audit(&self.metrics_jsonl())
            .expect("a dump this system wrote must parse");
        report.export_health(&self.obs);
        report
    }

    /// Rendered forensic audit report — byte-identical across identical
    /// seeded runs. Empty string when observability is off.
    pub fn audit_report(&self) -> String {
        if !self.obs.is_enabled() {
            return String::new();
        }
        self.audit().render()
    }

    /// Immutable access to a client process.
    pub fn client(&self, id: u64) -> &SingletonClient {
        self.sim
            .process_ref::<SingletonClient>(self.client_nodes[&id])
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

/// The registry facts the streaming audit judges against, read live.
fn audit_facts(obs: &itdos_obs::Obs) -> itdos_audit::MetricsFacts {
    obs.with_registry(itdos_audit::MetricsFacts::from_registry)
        .unwrap_or_default()
}

/// One heal round's decisions, taken before any of them is carried out.
struct HealPlan {
    /// Departures the GM group has executed, in `pending` order: each
    /// gets a replacement.
    replace: Vec<(SenderId, DomainId, HealCause)>,
    /// Per server domain, at most one suspect and the f+1 healthy peers
    /// that accuse it.
    expel: Vec<(DomainId, SenderId, Vec<SenderId>)>,
    /// The element a quiet round retires, and the rejuvenation cursor
    /// after it.
    retire: Option<(DomainId, SenderId, u64)>,
}

/// Placeholder process used during two-phase wiring.
#[derive(Debug)]
struct Idle;

impl simnet::Process for Idle {
    fn on_message(
        &mut self,
        _ctx: &mut simnet::Context<'_>,
        _from: NodeId,
        _payload: xbytes::Bytes,
    ) {
    }
}
