//! What a traced epoch reads back from the system's own telemetry —
//! registry counters, hop latencies of sampled causal traces, the flight
//! ring — all through `System`'s public surface, so every layer is
//! measured from outside.

use std::collections::BTreeMap;

use itdos::heal::HealStats;
use itdos::{System, Ticket};
use itdos_obs::flight::Event;

/// Causal traces reconstructed per traced epoch. `System::trace` scans
/// the whole flight ring per ticket, so the sample is bounded.
const TRACE_SAMPLE: usize = 256;

/// The registry and flight-ring totals at one instant; two of them
/// subtract to what the measured waves alone did (set-up excluded).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Every registry counter, summed over its label sets, by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// `bft.wire_tx` / `bft.wire_rx` envelopes whose `auth` label is
    /// `mac` (the rest are signed).
    pub mac_envelopes_tx: u64,
    /// See `mac_envelopes_tx`.
    pub mac_envelopes_rx: u64,
    /// Every registry histogram merged over its label sets:
    /// `name -> (count, sum)`.
    pub histograms: BTreeMap<&'static str, (u64, u64)>,
    /// Flight events recorded so far, evicted ones included.
    pub events_recorded: u64,
}

impl Counts {
    /// Reads the totals of `system` now.
    pub fn read(system: &System) -> Counts {
        let mut counts = Counts::default();
        system.obs.with_registry(|registry| {
            for (key, value) in registry.counters() {
                *counts.counters.entry(key.name).or_insert(0) += value;
                let is_mac = key.labels.iter().any(|(name, v)| {
                    *name == "auth" && matches!(v, itdos_obs::LabelValue::Str("mac"))
                });
                match (key.name, is_mac) {
                    ("bft.wire_tx", true) => counts.mac_envelopes_tx += value,
                    ("bft.wire_rx", true) => counts.mac_envelopes_rx += value,
                    _ => {}
                }
            }
            for (key, histogram) in registry.histograms() {
                let entry = counts.histograms.entry(key.name).or_insert((0, 0));
                entry.0 += histogram.count();
                entry.1 += histogram.sum();
            }
        });
        counts.events_recorded = system
            .obs
            .with_flight(|f| f.total_recorded())
            .unwrap_or_default();
        counts
    }

    /// What happened after `base` was read.
    pub fn since(mut self, base: &Counts) -> Counts {
        for (name, value) in &mut self.counters {
            *value -= base.counters.get(name).copied().unwrap_or(0).min(*value);
        }
        for (name, (count, sum)) in &mut self.histograms {
            let (c, s) = base.histograms.get(name).copied().unwrap_or((0, 0));
            *count -= c.min(*count);
            *sum -= s.min(*sum);
        }
        self.mac_envelopes_tx -= base.mac_envelopes_tx.min(self.mac_envelopes_tx);
        self.mac_envelopes_rx -= base.mac_envelopes_rx.min(self.mac_envelopes_rx);
        self.events_recorded -= base.events_recorded.min(self.events_recorded);
        self
    }

    /// A counter's value, 0 when the series never appeared.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Mean of a merged histogram, 0 when it never appeared.
    pub fn histogram_mean(&self, name: &str) -> f64 {
        match self.histograms.get(name) {
            Some(&(count, sum)) if count > 0 => sum as f64 / count as f64,
            _ => 0.0,
        }
    }
}

/// Telemetry of one traced epoch.
#[derive(Debug, Default)]
pub struct Traced {
    /// Registry and flight totals over the measured waves.
    pub counts: Counts,
    /// Sim µs per named hop, one entry per sampled invocation.
    pub hops: BTreeMap<&'static str, Vec<u64>>,
    /// Sampled invocations whose trace anchor was not in the flight ring.
    pub untraced: u64,
    /// The flight ring at the end of the epoch (audit replay input).
    pub events: Vec<Event>,
    /// The deployment map the audit replay resolves against.
    pub topology: itdos_audit::Topology,
    /// The healing controller's action counters.
    pub heal: HealStats,
}

impl Traced {
    /// Reads the telemetry of `system`, whose clients `1..=n` have
    /// completed `completed[client - 1]` invocations. `base` is the
    /// [`Counts`] read when set-up ended.
    pub fn collect(system: &System, completed: &[usize], base: &Counts) -> Traced {
        let tickets: Vec<Ticket> = completed
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| {
                (0..n).map(move |index| Ticket {
                    client: i as u64 + 1,
                    index,
                })
            })
            .collect();
        let stride = tickets.len().div_ceil(TRACE_SAMPLE).max(1);
        let mut hops: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut untraced = 0;
        for &ticket in tickets.iter().step_by(stride) {
            match system.trace(ticket) {
                Some(report) => {
                    for (stage, us) in report.attributions().0 {
                        hops.entry(stage).or_default().push(us);
                    }
                }
                None => untraced += 1,
            }
        }
        Traced {
            counts: Counts::read(system).since(base),
            hops,
            untraced,
            events: system
                .obs
                .with_flight(|f| f.events().cloned().collect())
                .unwrap_or_default(),
            topology: system.audit_topology(),
            heal: system.heal_stats(),
        }
    }
}
