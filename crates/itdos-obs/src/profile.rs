//! Deterministic whole-stack profile: a causal cost tree over invocations.
//!
//! [`Profile`] folds per-invocation hop attributions (produced upstream
//! from causal traces) and per-subsystem cost series (ops, bytes, and
//! sim-time from the metric registry) into one aggregate with an
//! **explicit unattributed residual** — latency the causal reconstruction
//! could not pin to a named hop is reported, never hidden. Everything is
//! integer math over `BTreeMap`/`Vec`, so two identical seeded runs
//! render byte-identical output in all three formats:
//!
//! * [`Profile::render`] — a human-readable cost report;
//! * [`Profile::to_json`] — one `{"type":"profile",...}` JSON line that
//!   parses through `crate::jsonl::parse_value` (and rides along a
//!   [`crate::Obs::dump_jsonl`] stream as an `extras` line);
//! * [`Profile::folded`] — flamegraph-ready folded-stack text
//!   (`frame;frame VALUE` lines). The latency tree and the subsystem
//!   series use distinct roots (`invocation;…` in µs, `subsystem;…` in
//!   ops/bytes) so each root collapses into a unit-consistent flamegraph.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::jsonl::escape_into;
use crate::metrics::Histogram;

/// Ops/bytes/sim-time cost of one subsystem (wire codec, crypto, voter,
/// flight recorder). In the simulator, pure compute advances sim-time by
/// zero, so `sim_us` is usually 0 and the ops/bytes series carry the
/// signal; on a real clock all three move.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubsystemCost {
    /// Operations performed (encodes, seals, folds, events recorded).
    pub ops: u64,
    /// Payload bytes processed, where the operation has a wire size.
    pub bytes: u64,
    /// Clock time consumed, in microseconds.
    pub sim_us: u64,
}

/// Aggregated causal cost tree for a set of invocations.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Named hops in pipeline order; each histogram holds one observation
    /// per invocation that reached the hop (µs attributed to it).
    stages: Vec<(&'static str, Histogram)>,
    /// Per-invocation latency the attribution could not assign to a named
    /// hop (deltas spanning missing stages).
    residual: Histogram,
    /// Per-invocation end-to-end latency.
    total: Histogram,
    /// Invocations whose trace anchor was already evicted from the flight
    /// ring — submitted work the profile could not attribute at all.
    untraced: u64,
    /// Per-subsystem cost series, keyed by subsystem name.
    subsystems: BTreeMap<&'static str, SubsystemCost>,
}

impl Profile {
    /// An empty profile whose hop taxonomy is `stages`, in pipeline
    /// order. Hops recorded for a stage outside the taxonomy are appended
    /// after it (in first-recorded order, which is deterministic when the
    /// caller is).
    pub fn new(stages: &[&'static str]) -> Profile {
        Profile {
            stages: stages.iter().map(|&s| (s, Histogram::new())).collect(),
            ..Profile::default()
        }
    }

    /// Folds one traced invocation in: its end-to-end latency, the per-hop
    /// attribution, and whatever latency stayed unattributed.
    pub fn record_invocation(
        &mut self,
        total_us: u64,
        hops: &[(&'static str, u64)],
        residual_us: u64,
    ) {
        self.total.observe(total_us);
        self.residual.observe(residual_us);
        for &(stage, us) in hops {
            if !self.stages.iter().any(|(s, _)| *s == stage) {
                self.stages.push((stage, Histogram::new()));
            }
            if let Some((_, slot)) = self.stages.iter_mut().find(|(s, _)| *s == stage) {
                slot.observe(us);
            }
        }
    }

    /// Counts one invocation whose trace could not be reconstructed.
    pub fn record_untraced(&mut self) {
        self.untraced = self.untraced.saturating_add(1);
    }

    /// Accumulates a subsystem's cost series (saturating add, so the same
    /// subsystem can be fed from several counters or label sets).
    pub fn add_subsystem(&mut self, name: &'static str, cost: SubsystemCost) {
        let slot = self.subsystems.entry(name).or_default();
        slot.ops = slot.ops.saturating_add(cost.ops);
        slot.bytes = slot.bytes.saturating_add(cost.bytes);
        slot.sim_us = slot.sim_us.saturating_add(cost.sim_us);
    }

    /// Traced invocations folded in.
    pub fn invocations(&self) -> u64 {
        self.total.count()
    }

    /// Invocations that could not be traced.
    pub fn untraced(&self) -> u64 {
        self.untraced
    }

    /// Summed end-to-end latency of traced invocations, µs.
    pub fn total_us(&self) -> u64 {
        self.total.sum()
    }

    /// Summed latency attributed to named hops, µs.
    pub fn attributed_us(&self) -> u64 {
        self.stages.iter().map(|(_, h)| h.sum()).sum()
    }

    /// Summed latency left unattributed, µs.
    pub fn residual_us(&self) -> u64 {
        self.residual.sum()
    }

    /// Attributed share of end-to-end latency, in permille (integer math;
    /// 1000 when nothing was traced). The acceptance bar "≥ 90%
    /// attributed" is `attributed_permille() >= 900`.
    pub fn attributed_permille(&self) -> u64 {
        let total = self.total_us();
        if total == 0 {
            return 1000;
        }
        self.attributed_us().saturating_mul(1000) / total
    }

    /// The histogram of one named hop, if any invocation reached it.
    pub fn hop(&self, stage: &str) -> Option<&Histogram> {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, h)| h)
    }

    /// Hops in pipeline order with their histograms.
    pub fn hops(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.stages.iter().map(|(s, h)| (*s, h))
    }

    /// One subsystem's cost series.
    pub fn subsystem(&self, name: &str) -> Option<SubsystemCost> {
        self.subsystems.get(name).copied()
    }

    /// Flamegraph-ready folded stacks. The `invocation;…` root carries
    /// summed µs per hop (plus the explicit residual); the `subsystem;…`
    /// root carries ops and bytes. Byte-identical across identical runs.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stage, h) in &self.stages {
            if h.count() > 0 {
                let _ = writeln!(out, "invocation;{stage} {}", h.sum());
            }
        }
        if self.residual.sum() > 0 {
            let _ = writeln!(out, "invocation;residual {}", self.residual.sum());
        }
        for (name, cost) in &self.subsystems {
            if cost.ops > 0 {
                let _ = writeln!(out, "subsystem;{name};ops {}", cost.ops);
            }
            if cost.bytes > 0 {
                let _ = writeln!(out, "subsystem;{name};bytes {}", cost.bytes);
            }
            if cost.sim_us > 0 {
                let _ = writeln!(out, "subsystem;{name};us {}", cost.sim_us);
            }
        }
        out
    }

    /// One JSON line: `{"type":"profile",...}`. Parses through
    /// `crate::jsonl::parse_value`; appended to a metrics dump it lands
    /// in [`crate::jsonl::Dump::extras`], so every existing JSONL
    /// consumer passes over it untouched.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"type\":\"profile\"");
        let _ = write!(
            out,
            ",\"invocations\":{},\"untraced\":{}",
            self.invocations(),
            self.untraced
        );
        let _ = write!(
            out,
            ",\"total_us\":{},\"attributed_us\":{},\"residual_us\":{},\"attributed_permille\":{}",
            self.total_us(),
            self.attributed_us(),
            self.residual_us(),
            self.attributed_permille()
        );
        out.push_str(",\"hops\":[");
        let mut first = true;
        for (stage, h) in self.stages.iter().filter(|(_, h)| h.count() > 0) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"stage\":");
            escape_into(&mut out, stage);
            let _ = write!(
                out,
                ",\"count\":{},\"sum_us\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}}}",
                h.count(),
                h.sum(),
                h.percentile(50),
                h.percentile(99),
                h.max()
            );
        }
        out.push_str("],\"subsystems\":[");
        let mut first = true;
        for (name, cost) in &self.subsystems {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            escape_into(&mut out, name);
            let _ = write!(
                out,
                ",\"ops\":{},\"bytes\":{},\"sim_us\":{}}}",
                cost.ops, cost.bytes, cost.sim_us
            );
        }
        out.push_str("]}");
        out
    }

    /// Deterministic human-readable cost report.
    pub fn render(&self) -> String {
        let mut out = String::from("== profile ==\n");
        let _ = writeln!(
            out,
            "invocations: {} traced, {} untraced",
            self.invocations(),
            self.untraced
        );
        let pm = self.attributed_permille();
        let _ = writeln!(
            out,
            "end-to-end: {}us total, {}us attributed ({}.{}%), {}us residual",
            self.total_us(),
            self.attributed_us(),
            pm / 10,
            pm % 10,
            self.residual_us()
        );
        if self.stages.iter().any(|(_, h)| h.count() > 0) {
            out.push_str("hops (us per invocation):\n");
            for (stage, h) in self.stages.iter().filter(|(_, h)| h.count() > 0) {
                let _ = writeln!(
                    out,
                    "  {:<10} count={:<5} p50={:<8} p99={:<8} max={:<8} sum={}",
                    stage,
                    h.count(),
                    h.percentile(50),
                    h.percentile(99),
                    h.max(),
                    h.sum()
                );
            }
        }
        if !self.subsystems.is_empty() {
            out.push_str("subsystems:\n");
            for (name, cost) in &self.subsystems {
                let _ = writeln!(
                    out,
                    "  {:<16} ops={:<8} bytes={:<10} sim_us={}",
                    name, cost.ops, cost.bytes, cost.sim_us
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl;

    fn sample() -> Profile {
        let mut p = Profile::new(&["send", "admit", "reply"]);
        p.record_invocation(100, &[("send", 0), ("admit", 60), ("reply", 30)], 10);
        p.record_invocation(80, &[("send", 0), ("admit", 50), ("reply", 30)], 0);
        p.record_untraced();
        p.add_subsystem(
            "giop.encode",
            SubsystemCost {
                ops: 4,
                bytes: 512,
                sim_us: 0,
            },
        );
        p.add_subsystem(
            "giop.encode",
            SubsystemCost {
                ops: 1,
                bytes: 100,
                sim_us: 0,
            },
        );
        p
    }

    #[test]
    fn attribution_accounting_is_explicit() {
        let p = sample();
        assert_eq!(p.invocations(), 2);
        assert_eq!(p.untraced(), 1);
        assert_eq!(p.total_us(), 180);
        assert_eq!(p.attributed_us(), 170);
        assert_eq!(p.residual_us(), 10);
        assert_eq!(p.attributed_permille(), 944);
        assert_eq!(p.hop("admit").unwrap().sum(), 110);
        assert_eq!(p.subsystem("giop.encode").unwrap().ops, 5);
        assert_eq!(p.subsystem("giop.encode").unwrap().bytes, 612);
        // empty profile attributes everything by definition
        assert_eq!(Profile::new(&[]).attributed_permille(), 1000);
    }

    #[test]
    fn folded_output_is_ordered_and_deterministic() {
        let p = sample();
        let folded = p.folded();
        assert_eq!(
            folded,
            "invocation;send 0\n\
             invocation;admit 110\n\
             invocation;reply 60\n\
             invocation;residual 10\n\
             subsystem;giop.encode;ops 5\n\
             subsystem;giop.encode;bytes 612\n"
        );
        assert_eq!(folded, sample().folded(), "run-twice identical");
        // send contributed 0us total: still listed (count > 0), value 0
        assert!(folded.starts_with("invocation;send 0\n"));
    }

    #[test]
    fn json_line_parses_and_carries_the_tree() {
        let p = sample();
        let line = p.to_json();
        assert_eq!(line, sample().to_json(), "run-twice identical");
        let v = jsonl::parse_value(&line).expect("valid JSON");
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("profile"));
        assert_eq!(v.get("invocations").and_then(|n| n.as_u64()), Some(2));
        assert_eq!(
            v.get("attributed_permille").and_then(|n| n.as_u64()),
            Some(944)
        );
        // rides a metrics dump as an extras line
        let dump = jsonl::parse_dump(&line).expect("dump-compatible");
        assert_eq!(dump.extras.len(), 1);
    }

    #[test]
    fn unknown_stages_append_after_the_taxonomy() {
        let mut p = Profile::new(&["send"]);
        p.record_invocation(10, &[("send", 2), ("late", 8)], 0);
        let stages: Vec<&str> = p.hops().map(|(s, _)| s).collect();
        assert_eq!(stages, vec!["send", "late"]);
        assert!(p.render().contains("late"));
    }
}
