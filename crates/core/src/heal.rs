//! Self-healing control loop: audit-driven automatic expulsion,
//! replacement, and proactive rejuvenation.
//!
//! The paper's recovery story (§5) assumes an operator reads the forensic
//! verdict and drives expulsion and replacement by hand. This module
//! closes that loop *inside* the system: a controller installed via
//! [`crate::system::SystemBuilder::healing`] subscribes to the streaming
//! audit's live `replica.health` verdict during
//! [`crate::system::System::settle`] and acts on it without operator
//! calls —
//!
//! 1. **Expulsion**: when an element's live health crosses
//!    [`HealConfig::expel_below`], the controller injects
//!    [`crate::wire::HealCmd::Accuse`] commands into `f + 1` healthy peers
//!    of the same domain. Each peer submits an ordinary
//!    `GmOp::ChangeVote`, so the Group Manager group reaches its existing
//!    `f + 1`-distinct-accusers threshold and expels through the normal
//!    voted path — the controller holds no authority of its own.
//! 2. **Replacement**: once the GM records the departure, the controller
//!    drives [`crate::system::System::spawn_replacement`] (an honest
//!    newcomer) so the domain again tolerates its full `f` faults.
//! 3. **Rejuvenation**: on a configurable sim-time period
//!    ([`HealConfig::rejuvenation_period_us`]) the controller proactively
//!    retires one healthy element round-robin
//!    ([`crate::wire::HealCmd::Retire`] → `GmOp::Retire`), rekeying every
//!    touching connection and restarting the slot from a checkpoint via
//!    the existing admission/state-transfer path — so a patient attacker
//!    can never accumulate more than `f` undetected compromises within a
//!    window.
//!
//! A round's decision is `HealState::plan`, a pure function of the GM
//! membership, the live health map, the server rosters and the sim clock;
//! the system only carries the `HealPlan` out (replacements, then
//! expulsions, then the retirement) and `HealState::record`s it.
//! Every controller decision is a flight event (`heal.expel`,
//! `heal.replace`, `heal.rejuvenate` with cause labels), visible to
//! traces, the profiler, and the auditor itself. All decisions are
//! deterministic functions of the merged event timeline and the simulated
//! clock, so run-twice dumps stay byte-identical.

use std::collections::BTreeMap;

use itdos_groupmgr::membership::{DomainId, Membership};
use itdos_vote::vote::SenderId;

/// Configuration for the in-system healing controller
/// ([`crate::system::SystemBuilder::healing`]).
#[derive(Debug, Clone)]
pub struct HealConfig {
    /// Live-health threshold (0–100): an active element whose streaming
    /// audit health drops *below* this value is expelled and replaced.
    pub expel_below: i64,
    /// Proactive-rejuvenation period in simulated microseconds: every
    /// elapsed period the controller retires one healthy element
    /// round-robin and replaces it fresh. `None` disables rejuvenation.
    pub rejuvenation_period_us: Option<u64>,
    /// Sim-time decay window (µs) handed to the audit pipeline
    /// ([`itdos_audit::AuditConfig::decay_window_us`]) so transient
    /// evidence ages out and a rejuvenated slot can earn its health back.
    /// `None` keeps the whole-timeline default.
    pub decay_window_us: Option<u64>,
    /// Maximum expel → replace → re-settle rounds one `settle` call may
    /// run before handing control back (a backstop, not a schedule; each
    /// round only runs when the previous one acted).
    pub max_rounds: usize,
}

impl Default for HealConfig {
    fn default() -> HealConfig {
        HealConfig {
            expel_below: 45,
            rejuvenation_period_us: None,
            decay_window_us: None,
            max_rounds: 8,
        }
    }
}

/// The healing controller's cumulative action counters
/// ([`crate::system::System::heal_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealStats {
    /// Threshold expulsions the controller initiated (`heal.expel`).
    pub expulsions: u64,
    /// Proactive retirements the controller initiated (`heal.rejuvenate`).
    pub rejuvenations: u64,
    /// Replacements the controller spawned (`heal.replace`).
    pub replacements: u64,
}

/// Why the controller put an element on its replacement queue — carried
/// through to the `heal.replace` event's `cause` label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HealCause {
    /// Live health crossed [`HealConfig::expel_below`].
    Health,
    /// Periodic proactive rejuvenation.
    Rejuvenation,
}

impl HealCause {
    pub(crate) fn label(self) -> &'static str {
        match self {
            HealCause::Health => "health-threshold",
            HealCause::Rejuvenation => "rejuvenation",
        }
    }
}

/// Mutable controller state owned by the built system.
pub(crate) struct HealState {
    pub(crate) cfg: HealConfig,
    /// Next sim instant (µs) a proactive rejuvenation is due.
    pub(crate) next_rejuvenation_us: u64,
    /// Round-robin cursor over (domain, slot) pairs for rejuvenation.
    pub(crate) cursor: u64,
    /// Elements the controller drove out (or retired) that still await a
    /// GM-confirmed departure and a spawned replacement.
    pub(crate) pending: BTreeMap<SenderId, (DomainId, HealCause)>,
    pub(crate) stats: HealStats,
}

impl HealState {
    pub(crate) fn new(cfg: HealConfig) -> HealState {
        HealState {
            next_rejuvenation_us: cfg.rejuvenation_period_us.unwrap_or(u64::MAX),
            cfg,
            cursor: 0,
            pending: BTreeMap::new(),
            stats: HealStats::default(),
        }
    }
}

/// One heal round's decisions, taken before any of them is carried out.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct HealPlan {
    /// Departures the GM group has executed, in `pending` order: each
    /// gets a replacement.
    pub(crate) replace: Vec<(SenderId, DomainId, HealCause)>,
    /// Per server domain, at most one suspect and the f+1 healthy peers
    /// that accuse it.
    pub(crate) expel: Vec<(DomainId, SenderId, Vec<SenderId>)>,
    /// The element a quiet round retires, and the rejuvenation cursor
    /// after it.
    pub(crate) retire: Option<(DomainId, SenderId, u64)>,
}

impl HealState {
    /// Decides one heal round from the GM's `membership`, the live
    /// `health` map (element id → score), the server domains' `rosters`
    /// (slot order) and the sim clock. Acting changes neither the
    /// membership nor the health map before the simulator runs again, and
    /// the rosters are read only in a round that spawns no replacement, so
    /// deciding everything first and then acting in order takes the
    /// decisions acting step by step would.
    pub(crate) fn plan<'a>(
        &self,
        membership: &Membership,
        health: &BTreeMap<u64, i64>,
        rosters: impl Iterator<Item = (DomainId, &'a [SenderId])> + Clone,
        now_us: u64,
    ) -> HealPlan {
        let healthy = |element: SenderId| {
            health
                .get(&u64::from(element.0))
                .is_none_or(|&h| h >= self.cfg.expel_below)
        };

        let replace = self
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
        for (domain, _) in rosters.clone() {
            let Some(record) = membership.domain(domain) else {
                continue;
            };
            let active = || record.active_elements().map(|e| e.id);
            let Some(suspect) = active().find(|&e| !healthy(e) && !self.pending.contains_key(&e))
            else {
                continue;
            };
            let accusers: Vec<SenderId> = active()
                .filter(|&e| e != suspect && healthy(e))
                .take(record.f.saturating_add(1))
                .collect();
            if accusers.len() <= record.f {
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
        let quiet = expel.is_empty() && self.pending.is_empty();
        let retire = (quiet && now_us >= self.next_rejuvenation_us)
            .then(|| self.next_retiree(membership, rosters, healthy))
            .flatten();
        HealPlan {
            replace,
            expel,
            retire,
        }
    }

    /// The first eligible (active and healthy) occupant of the slots after
    /// the round-robin cursor, wrapping once around every server slot,
    /// with the cursor advanced past it.
    fn next_retiree<'a>(
        &self,
        membership: &Membership,
        rosters: impl Iterator<Item = (DomainId, &'a [SenderId])> + Clone,
        healthy: impl Fn(SenderId) -> bool,
    ) -> Option<(DomainId, SenderId, u64)> {
        let slots =
            rosters.flat_map(|(domain, elements)| elements.iter().map(move |&e| (domain, e)));
        let len = slots.clone().count();
        let start = usize::try_from(self.cursor.checked_rem(len as u64)?).ok()?;
        slots
            .cycle()
            .skip(start)
            .take(len)
            .zip(1u64..)
            .find(|&((domain, occupant), _)| {
                membership
                    .domain(domain)
                    .is_some_and(|d| d.is_active(occupant))
                    && healthy(occupant)
            })
            .map(|((domain, occupant), probed)| {
                (domain, occupant, self.cursor.wrapping_add(probed))
            })
    }

    /// Books a carried-out plan: replaced elements leave `pending`, the
    /// accused and the retired join it, the counters move, and a
    /// retirement restarts the rejuvenation period from `now_us`.
    pub(crate) fn record(&mut self, plan: &HealPlan, now_us: u64) {
        for (element, _, _) in &plan.replace {
            self.pending.remove(element);
            self.stats.replacements += 1;
        }
        for &(domain, suspect, _) in &plan.expel {
            self.pending.insert(suspect, (domain, HealCause::Health));
            self.stats.expulsions += 1;
        }
        if let Some((domain, occupant, cursor)) = plan.retire {
            self.pending
                .insert(occupant, (domain, HealCause::Rejuvenation));
            self.stats.rejuvenations += 1;
            self.next_rejuvenation_us =
                now_us.saturating_add(self.cfg.rejuvenation_period_us.unwrap_or(u64::MAX));
            self.cursor = cursor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdos_crypto::sign::SigningKey;
    use itdos_groupmgr::membership::{DomainRecord, ElementRecord};

    const A: DomainId = DomainId(1);
    const B: DomainId = DomainId(2);
    const PERIOD_US: u64 = 100;

    /// GM membership and server rosters: per domain its id, f, element
    /// ids and the ones the GM has expelled.
    struct World(Membership, Vec<(DomainId, Vec<SenderId>)>);

    impl World {
        fn new(domains: &[(DomainId, usize, std::ops::Range<u32>, &[u32])]) -> World {
            let mut world = World(Membership::new(), Vec::new());
            for (id, f, ids, expelled) in domains.iter().cloned() {
                let roster: Vec<SenderId> = ids.map(SenderId).collect();
                let keys = roster.iter().map(|&e| ElementRecord {
                    id: e,
                    verifying_key: SigningKey::from_seed(&e.0.to_le_bytes()).verifying_key(),
                });
                let mut record = DomainRecord::new(id, f, keys.collect());
                assert!(expelled.iter().all(|&e| record.expel(SenderId(e))));
                world.0.register_domain(record);
                world.1.push((id, roster));
            }
            world
        }

        /// `heal`'s plan at `now_us` with the `sick` elements scored 0 and
        /// every other element unscored, so healthy.
        fn plan(&self, heal: &HealState, sick: &[u32], now_us: u64) -> HealPlan {
            let health = sick.iter().map(|&e| (u64::from(e), 0)).collect();
            let rosters = self.1.iter().map(|(d, r)| (*d, &r[..]));
            heal.plan(&self.0, &health, rosters, now_us)
        }
    }

    /// A controller whose first rejuvenation is due at `PERIOD_US`.
    fn state() -> HealState {
        HealState::new(HealConfig {
            rejuvenation_period_us: Some(PERIOD_US),
            ..HealConfig::default()
        })
    }

    fn suspects(plan: &HealPlan) -> Vec<(DomainId, SenderId)> {
        plan.expel.iter().map(|&(d, s, _)| (d, s)).collect()
    }

    #[test]
    fn at_most_one_suspect_per_domain_per_round() {
        // two sick elements in A, each alone tolerable and with f+1
        // healthy accusers; one in B
        let world = World::new(&[(A, 2, 0..7, &[]), (B, 1, 7..11, &[])]);
        let mut heal = state();
        let plan = world.plan(&heal, &[1, 4, 9], 0);
        assert_eq!(suspects(&plan), [(A, SenderId(1)), (B, SenderId(9))]);
        assert_eq!(plan.expel[0].2, [0, 2, 3].map(SenderId), "f+1 accusers");
        // a suspect already driven out is not accused twice; the next is
        heal.record(&plan, 0);
        let plan = world.plan(&heal, &[1, 4, 9], 0);
        assert_eq!(suspects(&plan), [(A, SenderId(4))]);
    }

    #[test]
    fn no_expulsion_without_f_plus_one_healthy_peers() {
        let world = World::new(&[(A, 1, 0..4, &[])]);
        // one healthy peer left: f+1 = 2 accusers cannot be found
        assert_eq!(world.plan(&state(), &[1, 2, 3], 0), HealPlan::default());
        // two healthy peers: exactly f+1 accuse
        let plan = world.plan(&state(), &[2, 3], 0);
        assert_eq!(
            plan.expel,
            [(A, SenderId(2), vec![SenderId(0), SenderId(1)])]
        );
    }

    #[test]
    fn no_rejuvenation_beside_a_pending_departure_or_a_planned_expulsion() {
        let world = World::new(&[(A, 1, 0..4, &[])]);
        // not yet due, then due in a quiet round
        assert_eq!(world.plan(&state(), &[], PERIOD_US - 1).retire, None);
        let retire = world.plan(&state(), &[], PERIOD_US).retire;
        assert_eq!(retire, Some((A, SenderId(0), 1)));
        // due, but an expulsion is planned this round
        let plan = world.plan(&state(), &[3], PERIOD_US);
        assert_eq!((plan.expel.len(), plan.retire), (1, None));
        // due, but a departure the GM has not executed is still pending
        let mut heal = state();
        heal.pending.insert(SenderId(3), (A, HealCause::Health));
        assert_eq!(world.plan(&heal, &[], PERIOD_US), HealPlan::default());
    }

    #[test]
    fn the_rejuvenation_cursor_skips_inactive_and_unhealthy_occupants() {
        // A: slot 1 expelled, slots 2 and 3 sick but with one healthy peer
        // nobody can be expelled, so the round is quiet; B: slot 3 expelled
        let world = World::new(&[(A, 1, 0..4, &[1]), (B, 1, 4..8, &[7])]);
        let mut heal = state();
        heal.cursor = 1;
        let plan = world.plan(&heal, &[2, 3], PERIOD_US);
        assert!(plan.expel.is_empty());
        assert_eq!(plan.retire, Some((B, SenderId(4), 5)), "slots 1-3 skipped");
        // from B's expelled last slot the cursor wraps to A's first
        heal.cursor = 7 + 8 * 3;
        let plan = world.plan(&heal, &[2, 3], PERIOD_US);
        assert_eq!(plan.retire, Some((A, SenderId(0), 7 + 8 * 3 + 2)));
        heal.record(&plan, PERIOD_US);
        assert_eq!(heal.cursor, 7 + 8 * 3 + 2);
        assert_eq!(heal.next_rejuvenation_us, 2 * PERIOD_US);
        assert_eq!(heal.stats.rejuvenations, 1);
        assert!(heal.pending.contains_key(&SenderId(0)));
    }
}
