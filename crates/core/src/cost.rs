//! Subsystem cost accounting shared by the client and element hot paths.
//!
//! The profiler ([`crate::system::System::profile`]) folds these series
//! into per-subsystem ops/bytes costs: every successful codec or crypto
//! operation bumps `<name>` by one and `<name>_bytes` by the payload's
//! wire size. With observability off both calls are a branch on an
//! `Option` — the hot path pays nothing.

use itdos_obs::profile::SubsystemCost;
use itdos_obs::{Label, Obs, Profile};

/// Accounts one subsystem operation: `ops` += 1, `bytes_name` += `bytes`.
pub(crate) fn account(
    obs: &Obs,
    ops: &'static str,
    bytes_name: &'static str,
    labels: &[Label],
    bytes: usize,
) {
    if !obs.is_enabled() {
        return;
    }
    obs.add(ops, labels, 1);
    obs.add(bytes_name, labels, bytes as u64);
}

/// Adds the per-subsystem series these accounts (and the BFT wire, vote
/// and flight-recorder counters) left in `obs`'s registry to `profile`.
/// Intra-process compute advances sim-time by zero (only message hops
/// cost latency), so the series carry ops and bytes; `sim_us` stays
/// honest at 0 (DESIGN.md §16).
pub(crate) fn fold_into(obs: &Obs, profile: &mut Profile) {
    obs.with_registry(|reg| {
        let sum = |name: &str| -> u64 {
            reg.counters()
                .filter(|(k, _)| k.name == name)
                .map(|(_, v)| v)
                .sum()
        };
        for (name, ops, bytes) in [
            ("giop.encode", "giop.encode", Some("giop.encode_bytes")),
            ("giop.decode", "giop.decode", Some("giop.decode_bytes")),
            ("crypto.seal", "crypto.seal", Some("crypto.seal_bytes")),
            ("crypto.open", "crypto.open", Some("crypto.open_bytes")),
            ("bft.wire_tx", "bft.wire_tx", Some("bft.wire_tx_bytes")),
            ("bft.wire_rx", "bft.wire_rx", Some("bft.wire_rx_bytes")),
            ("vote.fold", "vote.folds", None),
        ] {
            let cost = SubsystemCost {
                ops: sum(ops),
                bytes: bytes.map_or(0, sum),
                sim_us: 0,
            };
            profile.add_subsystem(name, cost);
        }
    });
    if let Some(recorded) = obs.with_flight(|f| f.total_recorded()) {
        let cost = SubsystemCost {
            ops: recorded,
            bytes: 0,
            sim_us: 0,
        };
        profile.add_subsystem("obs.flight", cost);
    }
}
