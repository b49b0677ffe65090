//! Causal invocation traces reconstructed from the flight recorder.
//!
//! [`crate::system::System::invoke_async`] mints a nonzero trace id per
//! invocation (`client` in the high 32 bits, the 1-based submission index
//! low). The id rides the GIOP request header, the BFT `ClientRequest`
//! (digest-bound), and the decided request handed to each element's ORB,
//! so every hop of the pipeline emits flight events carrying either the
//! trace itself (`client.send`, `bft.admit`, `bft.batch`,
//! `element.execute`, `client.decided`) or a correlate recovered from it
//! (`bft.prepared`/`bft.committed` by agreed sequence number, `vote.*` by
//! the client's request id). [`reconstruct`] stitches those events back
//! into one causally ordered [`TraceReport`] with per-hop latency
//! attribution: admission → batch → prepare → commit → execute → vote →
//! reply.
//!
//! Reconstruction reads the flight ring, so it sees exactly what the ring
//! still retains — run under [`itdos_obs::ObsConfig::forensic`] (or a
//! raised flight capacity) when whole-run traces matter.

use std::collections::BTreeMap;

use itdos_obs::flight::Event;
use itdos_obs::{Fact, Profile};

use crate::codes::singleton_code;
use crate::invocation::Ticket;

/// The trace id minted for an invocation ticket: client in the high 32
/// bits, 1-based submission index low, so every real invocation is
/// nonzero and ids never collide across clients.
pub(crate) fn trace_id(client: u64, index: usize) -> u64 {
    (client << 32) | (index as u64 + 1)
}

/// The canonical pipeline stages in causal order — the hop taxonomy the
/// profiler attributes end-to-end latency against (DESIGN.md §16).
pub const STAGE_ORDER: [&str; 9] = [
    "send", "admit", "batch", "prepare", "commit", "execute", "vote", "decide", "reply",
];

/// One observed hop of an invocation's causal path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHop {
    /// Pipeline stage, causal order: `send`, `admit`, `batch`, `prepare`,
    /// `commit`, `execute`, `vote`, `decide`, `reply`.
    pub stage: &'static str,
    /// Obs scope (endpoint code) of the process that emitted the event.
    pub scope: u64,
    /// Flight-recorder sequence number of the underlying event.
    pub seq: u64,
    /// Simulated timestamp (µs).
    pub at_us: u64,
}

/// An invocation's reconstructed causal path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// The trace id the path was reconstructed for.
    pub trace: u64,
    /// Submitting client.
    pub client: u64,
    /// The per-connection GIOP request id the client assigned.
    pub request_id: Option<u64>,
    /// Target server domain.
    pub target: Option<u64>,
    /// The BFT sequence number whose batch carried the request.
    pub bft_seq: Option<u64>,
    /// Every hop, causally ordered (timestamp, then recorder sequence).
    pub hops: Vec<TraceHop>,
}

impl TraceReport {
    /// First timestamp on the path.
    fn started_us(&self) -> u64 {
        self.hops.first().map(|h| h.at_us).unwrap_or(0)
    }

    /// Last timestamp on the path.
    fn finished_us(&self) -> u64 {
        self.hops.last().map(|h| h.at_us).unwrap_or(0)
    }

    /// End-to-end latency covered by the observed hops.
    pub fn total_us(&self) -> u64 {
        self.finished_us().saturating_sub(self.started_us())
    }

    /// The distinct stages observed, in causal order of first occurrence.
    pub fn stages(&self) -> Vec<&'static str> {
        let mut stages = Vec::new();
        for hop in &self.hops {
            if !stages.contains(&hop.stage) {
                stages.push(hop.stage);
            }
        }
        stages
    }

    /// Per-stage latency attribution: each stage's first occurrence paired
    /// with the delta from the previous stage's first occurrence — where
    /// the invocation's wall time went, stage by stage.
    pub fn stage_latencies(&self) -> Vec<(&'static str, u64)> {
        let mut firsts: Vec<(&'static str, u64)> = Vec::new();
        for hop in &self.hops {
            if !firsts.iter().any(|(s, _)| *s == hop.stage) {
                firsts.push((hop.stage, hop.at_us));
            }
        }
        let mut out = Vec::with_capacity(firsts.len());
        let mut prev = firsts.first().map(|(_, t)| *t).unwrap_or(0);
        for (stage, at) in firsts {
            out.push((stage, at.saturating_sub(prev)));
            prev = at;
        }
        out
    }

    /// Per-hop attribution with an **explicit residual**: `(hops,
    /// residual_us)`. A stage's first-occurrence delta counts as
    /// attributed only when the previous observed stage is its immediate
    /// predecessor in [`STAGE_ORDER`]; a delta that telescopes across a
    /// missing stage (an evicted event, a stage outside the taxonomy, or
    /// stages observed out of canonical order) goes to the residual
    /// instead of silently inflating the next hop. Plain
    /// [`TraceReport::stage_latencies`] always sums to the total;
    /// this split keeps "≥ 90% attributed" a meaningful claim.
    pub fn attributions(&self) -> (Vec<(&'static str, u64)>, u64) {
        let mut firsts: Vec<(&'static str, u64)> = Vec::new();
        for hop in &self.hops {
            if !firsts.iter().any(|(s, _)| *s == hop.stage) {
                firsts.push((hop.stage, hop.at_us));
            }
        }
        let mut hops = Vec::new();
        let mut residual = 0u64;
        let mut prev: Option<(Option<usize>, u64)> = None;
        for (stage, at) in firsts {
            let idx = STAGE_ORDER.iter().position(|s| *s == stage);
            match prev {
                None => hops.push((stage, 0)),
                Some((prev_idx, prev_at)) => {
                    let delta = at.saturating_sub(prev_at);
                    let adjacent = matches!((prev_idx, idx), (Some(p), Some(i)) if i == p + 1);
                    if adjacent {
                        hops.push((stage, delta));
                    } else {
                        residual = residual.saturating_add(delta);
                    }
                }
            }
            prev = Some((idx, at));
        }
        (hops, residual)
    }

    /// Deterministic human-readable rendering with per-hop latency.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== trace {:#x} (client {}, request {}, target {}, bft seq {}) ==\n",
            self.trace,
            self.client,
            fmt_opt(self.request_id),
            fmt_opt(self.target),
            fmt_opt(self.bft_seq),
        ));
        let start = self.started_us();
        let mut prev = start;
        for hop in &self.hops {
            out.push_str(&format!(
                "  +{:>8}us  (+{:>6}us)  {:<8} scope {}\n",
                hop.at_us - start,
                hop.at_us.saturating_sub(prev),
                hop.stage,
                hop.scope,
            ));
            prev = hop.at_us;
        }
        out.push_str(&format!(
            "total: {}us over {} hops\n",
            self.total_us(),
            self.hops.len()
        ));
        out
    }
}

fn fmt_opt(v: Option<u64>) -> String {
    v.map(|v| v.to_string()).unwrap_or_else(|| "?".into())
}

/// Reconstructs the causal path of a ticket's invocation: [`reconstruct`]
/// for the trace id it was minted and its client's scope.
pub(crate) fn of_ticket<'a>(
    ticket: Ticket,
    element_domains: &BTreeMap<u64, u64>,
    events: impl Iterator<Item = &'a Event> + Clone,
) -> Option<TraceReport> {
    reconstruct(
        trace_id(ticket.client, ticket.index),
        ticket.client,
        singleton_code(ticket.client),
        element_domains,
        events,
    )
}

/// Folds the causal trace of every invocation `submitted` counts (client
/// → invocations submitted) into `profile`; one whose anchor the flight
/// ring already evicted is counted as untraced.
pub(crate) fn fold_into<'a>(
    profile: &mut Profile,
    submitted: &BTreeMap<u64, usize>,
    element_domains: &BTreeMap<u64, u64>,
    events: impl Iterator<Item = &'a Event> + Clone,
) {
    for (&client, &count) in submitted {
        for index in 0..count {
            match of_ticket(Ticket { client, index }, element_domains, events.clone()) {
                Some(report) => {
                    let (hops, residual) = report.attributions();
                    profile.record_invocation(report.total_us(), &hops, residual);
                }
                None => profile.record_untraced(),
            }
        }
    }
}

/// Reconstructs the causal path of `trace` from the flight events
/// `events` walks — the recorder's ring in place, or a copy of it — which
/// it walks a few times over, through clones.
///
/// `element_domains` maps each server element's obs scope to its domain
/// id (used to attribute `bft.prepared`/`bft.committed` — which carry a
/// sequence number, not a trace — to the right domain's agreement).
/// Returns `None` when the ring no longer holds the invocation's
/// `client.send` record.
pub fn reconstruct<'a>(
    trace: u64,
    client: u64,
    client_scope: u64,
    element_domains: &BTreeMap<u64, u64>,
    events: impl Iterator<Item = &'a Event> + Clone,
) -> Option<TraceReport> {
    let client_fact = |e: &Event| (e.scope == client_scope).then(|| e.fact()).flatten();
    // anchor: the client's send record names the request id and target
    let (send_at, request_id, target) = events.clone().find_map(|e| match client_fact(e)? {
        Fact::ClientSend {
            trace: t,
            request,
            target,
            ..
        } if t == trace => Some((e.at_micros, request, target)),
        _ => None,
    })?;
    // the reply record bounds the window vote events are matched within
    // (request ids are per-connection, so an id alone is ambiguous)
    let reply_at = events
        .clone()
        .find_map(|e| match client_fact(e)? {
            Fact::ClientDecided { trace: t, .. } if t == trace => Some(e.at_micros),
            _ => None,
        })
        .unwrap_or(u64::MAX);
    let in_target = |e: &Event| element_domains.get(&e.scope) == Some(&target);
    // the agreed sequence number, from any replica's batch record
    let bft_seq = events.clone().find_map(|e| match e.fact()? {
        Fact::BftBatch { seq, trace: t, .. } if t == trace && in_target(e) => Some(seq),
        _ => None,
    });

    let mut hops: Vec<TraceHop> = Vec::new();
    for e in events {
        let Some(fact) = e.fact() else {
            continue;
        };
        let mine = e.scope == client_scope;
        let agreed = |seq| Some(seq) == bft_seq && in_target(e) && e.at_micros >= send_at;
        let voted =
            |request| mine && request == request_id && (send_at..=reply_at).contains(&e.at_micros);
        let stage = match fact {
            Fact::ClientSend { trace: t, .. } if t == trace && mine => "send",
            Fact::BftAdmit { trace: t, .. } if t == trace && in_target(e) => "admit",
            Fact::BftBatch { trace: t, .. } if t == trace && in_target(e) => "batch",
            Fact::BftPrepared { seq, .. } if agreed(seq) => "prepare",
            Fact::BftCommitted { seq, .. } if agreed(seq) => "commit",
            Fact::ElementExecute { trace: t, .. } if t == trace => "execute",
            Fact::VoteReply { request, .. } if voted(request) => "vote",
            Fact::VoteDecided { request } if voted(request) => "decide",
            Fact::ClientDecided { trace: t, .. } if t == trace && mine => "reply",
            _ => continue,
        };
        hops.push(TraceHop {
            stage,
            scope: e.scope,
            seq: e.seq,
            at_us: e.at_micros,
        });
    }
    hops.sort_by_key(|h| (h.at_us, h.seq));
    Some(TraceReport {
        trace,
        client,
        request_id: Some(request_id),
        target: Some(target),
        bft_seq,
        hops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, at: u64, scope: u64, fact: Fact<'static>) -> Event {
        Event {
            seq,
            at_micros: at,
            scope,
            kind: fact.kind(),
            labels: fact.labels(),
        }
    }

    #[test]
    fn reconstructs_ordered_path_with_stage_latencies() {
        let t = trace_id(1, 0);
        let mut domains = BTreeMap::new();
        domains.insert(100, 2); // replica scope 100 on domain 2
        let events = vec![
            event(
                0,
                10,
                9,
                Fact::ClientSend {
                    client: 1,
                    request: 1,
                    trace: t,
                    target: 2,
                },
            ),
            event(
                1,
                20,
                100,
                Fact::BftAdmit {
                    replica: 0,
                    client: 1,
                    trace: t,
                },
            ),
            event(
                2,
                25,
                100,
                Fact::BftBatch {
                    replica: 0,
                    seq: 5,
                    trace: t,
                },
            ),
            event(
                3,
                40,
                100,
                Fact::BftPrepared {
                    replica: 0,
                    seq: 5,
                    view: 0,
                },
            ),
            event(4, 55, 100, Fact::BftCommitted { replica: 0, seq: 5 }),
            event(
                5,
                60,
                100,
                Fact::ElementExecute {
                    element: 4,
                    request: 1,
                    trace: t,
                },
            ),
            event(
                6,
                70,
                9,
                Fact::VoteReply {
                    request: 1,
                    sender: 4,
                },
            ),
            event(7, 75, 9, Fact::VoteDecided { request: 1 }),
            event(
                8,
                80,
                9,
                Fact::ClientDecided {
                    client: 1,
                    request: 1,
                    trace: t,
                    suspects: 0,
                },
            ),
            // noise: another trace and an unrelated seq
            event(
                9,
                81,
                100,
                Fact::BftPrepared {
                    replica: 0,
                    seq: 6,
                    view: 0,
                },
            ),
        ];
        let report = reconstruct(t, 1, 9, &domains, events.iter()).expect("anchored");
        assert_eq!(report.request_id, Some(1));
        assert_eq!(report.bft_seq, Some(5));
        assert_eq!(
            report.stages(),
            vec![
                "send", "admit", "batch", "prepare", "commit", "execute", "vote", "decide", "reply"
            ]
        );
        let lat = report.stage_latencies();
        assert_eq!(lat[0], ("send", 0));
        assert_eq!(lat[1], ("admit", 10));
        assert_eq!(lat[3], ("prepare", 15));
        assert_eq!(report.total_us(), 70);
        assert!(report.render().contains("total: 70us over 9 hops"));
    }

    #[test]
    fn missing_anchor_yields_none() {
        assert!(reconstruct(7, 1, 9, &BTreeMap::new(), [].iter()).is_none());
    }

    fn hop(stage: &'static str, at_us: u64) -> TraceHop {
        TraceHop {
            stage,
            scope: 0,
            seq: at_us,
            at_us,
        }
    }

    #[test]
    fn attributions_split_named_hops_from_residual() {
        // complete chain: everything attributed, zero residual
        let full = TraceReport {
            trace: 1,
            client: 1,
            request_id: Some(1),
            target: Some(2),
            bft_seq: Some(5),
            hops: STAGE_ORDER
                .iter()
                .enumerate()
                .map(|(i, s)| hop(s, i as u64 * 10))
                .collect(),
        };
        let (hops, residual) = full.attributions();
        assert_eq!(residual, 0);
        assert_eq!(hops.len(), STAGE_ORDER.len());
        assert_eq!(hops[0], ("send", 0));
        assert_eq!(hops[3], ("prepare", 10));
        let attributed: u64 = hops.iter().map(|(_, us)| us).sum();
        assert_eq!(attributed, full.total_us(), "100% attributed");

        // drop "commit": the prepare→execute delta spans a missing stage
        // and must land in the residual, not inflate "execute"
        let gapped = TraceReport {
            hops: full
                .hops
                .iter()
                .filter(|h| h.stage != "commit")
                .cloned()
                .collect(),
            ..full.clone()
        };
        let (hops, residual) = gapped.attributions();
        assert_eq!(residual, 20, "send..prepare ok, prepare→execute is 20us");
        assert!(hops.iter().all(|(s, _)| *s != "execute"));
        let attributed: u64 = hops.iter().map(|(_, us)| us).sum();
        assert_eq!(attributed + residual, gapped.total_us());
    }
}
