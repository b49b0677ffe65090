//! [`SystemBuilder`]: declares a deployment and builds it into a running
//! [`System`].

use std::collections::BTreeMap;

use itdos_bft::config::GroupConfig;
use itdos_bft::node::Idle;
use itdos_crypto::dprf::Dprf;
use itdos_giop::idl::InterfaceRepository;
use itdos_giop::platform::PlatformProfile;
use itdos_groupmgr::membership::{DomainId, DomainRecord, ElementRecord, Membership};
use itdos_obs::{LabelValue, ObsConfig};
use itdos_vote::comparator::Comparator;
use itdos_vote::vote::SenderId;
use simnet::{GroupId, NodeId, Simulator};
use xrand::rngs::SmallRng;
use xrand::SeedableRng;

use super::{DomainPlan, LiveAudit, ServantFactory, System, DEFAULT_SETTLE_BUDGET, GM_DOMAIN};
use crate::client::{ClientConfig, SingletonClient};
use crate::codes::{element_code, singleton_code};
use crate::fabric::{DomainSpec, Fabric, Wiring};
use crate::fault::Behavior;
use crate::gm::{GmElement, GmMachine};
use crate::heal::{HealConfig, HealState};
use crate::registry::ComparatorRegistry;

/// The deployment builder.
pub struct SystemBuilder {
    seed: u64,
    gm_f: usize,
    repo: InterfaceRepository,
    comparators: ComparatorRegistry,
    domains: Vec<DomainPlan>,
    clients: Vec<ClientConfig>,
    ack_interval: u64,
    queue_capacity: usize,
    obs_cfg: ObsConfig,
    settle_budget: u64,
    /// PBFT `(max_batch, pipeline_depth)` for every domain, if overridden.
    batching: Option<(usize, u64)>,
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
            batching: None,
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
        self.batching = Some((max_batch, pipeline_depth));
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
        self.plan_mut(domain).behaviors.insert(index, behavior);
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
        self.plan_mut(domain).platforms = Some(platforms);
        self
    }

    fn plan_mut(&mut self, domain: DomainId) -> &mut DomainPlan {
        self.domains
            .iter_mut()
            .find(|d| d.id == domain)
            .expect("the domain was declared with add_domain")
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
        self.clients.push(ClientConfig {
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
            if let Some((max_batch, depth)) = self.batching {
                config.max_batch = max_batch.max(1);
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
                    ("requested", LabelValue::U64(self.client_pipeline as u64)),
                    ("window", LabelValue::U64(reply_window as u64)),
                ],
            );
            reply_window
        } else {
            self.client_pipeline
        };
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x1717_1717);
        let gm_n = 3 * self.gm_f + 1;

        // -- global element ids (GM first, then server domains) and nodes
        // (placeholders replaced once the fabric exists)
        let mut next_element = 0u32;
        let mut roster = |sim: &mut Simulator, n: usize| {
            let elements: Vec<SenderId> = (next_element..).take(n).map(SenderId).collect();
            next_element += n as u32;
            let nodes: Vec<NodeId> = (0..n).map(|_| sim.add_process(Box::new(Idle))).collect();
            (elements, nodes)
        };
        let (gm_elements, gm_nodes) = roster(&mut sim, gm_n);
        let domain_rosters: Vec<(Vec<SenderId>, Vec<NodeId>)> = self
            .domains
            .iter()
            .map(|d| roster(&mut sim, 3 * d.f + 1))
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
        for (i, (plan, (elements, nodes))) in self.domains.iter().zip(&domain_rosters).enumerate() {
            domains.push(DomainSpec {
                id: plan.id,
                f: plan.f,
                config: tuned(plan.f),
                seed: group_seed(plan.id.0),
                mcast: GroupId::from_raw(1 + i as u32),
                nodes: nodes.clone(),
                elements: elements.clone(),
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
        for (plan, (elements, _)) in self.domains.iter().zip(&domain_rosters) {
            membership.register_domain(DomainRecord::new(
                plan.id,
                plan.f,
                elements
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
            settle_budget: self.settle_budget,
            submitted: BTreeMap::new(),
            domains: self.domains,
            ack_interval: self.ack_interval,
            queue_capacity: self.queue_capacity,
            next_element,
            live: None,
            heal: None,
        };

        // -- spawn server elements, in declaration order
        for i in 0..system.domains.len() {
            let (domain, f) = (system.domains[i].id, system.domains[i].f);
            for slot in 0..3 * f + 1 {
                let behavior = system.domains[i].behaviors.get(&slot).cloned();
                system.spawn_element(domain, slot, behavior.unwrap_or(Behavior::Honest), None);
            }
        }

        // -- spawn clients
        for (cfg, node) in self.clients.into_iter().zip(client_nodes) {
            let scope = singleton_code(cfg.id);
            let mut client = SingletonClient::new(system.fabric.clone(), cfg);
            client.set_pipeline(client_pipeline);
            client.set_obs(system.obs.scoped(scope));
            system.sim.replace_process(node, Box::new(client));
        }

        if system.obs.is_enabled() {
            // the tap outlives the flight ring by a healthy margin so a
            // settle that wraps the ring still feeds the stream every
            // event; overflow is accounted as `obs.tap_dropped`
            let flight = self
                .obs_cfg
                .flight_capacity
                .unwrap_or(itdos_obs::DEFAULT_FLIGHT_CAPACITY);
            let tap = (flight * 4).max(itdos_obs::DEFAULT_TAP_CAPACITY);
            system.live = LiveAudit::new(&system.obs, tap, system.audit_topology(), audit_cfg);
        }
        if let Some(cfg) = self.healing {
            assert!(
                system.live.is_some(),
                "healing requires obs(ObsConfig::standard()/forensic()): the \
                 controller acts on the live streaming-audit health verdict"
            );
            system.heal = Some(HealState::new(cfg));
        }
        system
    }
}
