//! Batched-agreement throughput bench (DESIGN.md §13): requests/sec in
//! simulated time for the batched+pipelined protocol versus the strict
//! one-request-per-sequence baseline, plus mean batch size and per-phase
//! latency percentiles from the `itdos-obs` registry.
//!
//! ```text
//! bft_throughput [OUT.json]            full sweep, writes BENCH_bft.json by default
//! bft_throughput --smoke [OUT.json]    small workload + determinism self-check;
//!                                      writes only to an explicit OUT.json
//! ```
//!
//! `--smoke` runs the batched configuration twice from the same seed and
//! asserts byte-identical metric dumps, then asserts batched throughput
//! is no worse than unbatched — the CI gate for the batching layer.

use std::fmt::Write as _;
use std::process::ExitCode;

use itdos::system::SystemBuilder;
use itdos::{Invocation, ObsConfig};
use itdos_bench::{counter_servant, repo, DOMAIN};
use itdos_giop::types::Value;
use itdos_obs::metrics::Histogram;
use itdos_orb::object::ObjectKey;

/// One throughput configuration.
struct Config {
    name: &'static str,
    batched: bool,
    clients: u64,
    per_client: u64,
    seed: u64,
}

/// What one run produced.
struct RunStats {
    requests: u64,
    sim_us: u64,
    requests_per_sec: f64,
    mean_batch: f64,
    phases: Vec<(&'static str, u64, u64)>, // (name, p50_us, p99_us)
    dump: String,
}

fn run(config: &Config) -> RunStats {
    let mut builder = SystemBuilder::new(config.seed);
    builder.obs(ObsConfig::standard());
    builder.repository(repo());
    if config.batched {
        builder.batching(8, 16);
        builder.client_pipeline(8);
    } else {
        builder.unbatched();
        builder.client_pipeline(1);
    }
    builder.add_domain(
        DOMAIN,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("counter"), counter_servant())]),
    );
    for client in 1..=config.clients {
        builder.add_client(client);
    }
    let mut system = builder.build();

    // open every connection outside the measured window
    for client in 1..=config.clients {
        system.invoke(
            client,
            Invocation::of(DOMAIN)
                .object(b"counter")
                .interface("Counter")
                .operation("add")
                .arg(Value::LongLong(0)),
        );
    }

    let start = system.sim.now();
    for round in 0..config.per_client {
        for client in 1..=config.clients {
            system.invoke_async(
                client,
                Invocation::of(DOMAIN)
                    .object(b"counter")
                    .interface("Counter")
                    .operation("add")
                    .arg(Value::LongLong(1 + round as i64)),
            );
        }
    }
    // step the simulator until the last reply lands — `settle()` would
    // also wait out trailing retransmit timers and mask the window
    let all_done = |system: &itdos::System| {
        (1..=config.clients)
            .all(|c| system.client(c).completed.len() as u64 == config.per_client + 1)
    };
    while !all_done(&system) {
        assert!(
            system.sim.step(),
            "{}: ran dry before completing",
            config.name
        );
    }
    let sim_us = system.sim.now().since(start).as_micros();
    system.settle();

    let requests = config.clients * config.per_client;
    for client in 1..=config.clients {
        let completed = system.client(client).completed.len() as u64;
        assert_eq!(
            completed,
            config.per_client + 1,
            "{}: client {client} finished its workload",
            config.name
        );
    }

    let (mean_batch, phases) = system
        .obs
        .with_registry(|registry| {
            // bft.batch_size is one histogram per replica; the mean over
            // every series is the mean batch the protocol agreed on
            let (mut sum, mut count) = (0u64, 0u64);
            for (key, h) in registry.histograms() {
                if key.name == "bft.batch_size" {
                    sum += h.sum();
                    count += h.count();
                }
            }
            let mean = if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            };
            let phases = ["bft.prepare_us", "bft.commit_us", "bft.order_us"]
                .iter()
                .map(|name| {
                    let merged = merge_histograms(registry, name);
                    (*name, merged.percentile(50), merged.percentile(99))
                })
                .collect();
            (mean, phases)
        })
        .expect("obs enabled");

    let dump = system.metrics_jsonl();
    RunStats {
        requests,
        sim_us,
        requests_per_sec: requests as f64 * 1_000_000.0 / sim_us.max(1) as f64,
        mean_batch,
        phases,
        dump,
    }
}

/// Merges every per-replica series of one log₂-bucketed histogram so the
/// percentiles describe the whole domain, not one replica. Bucket-exact:
/// [`Histogram::merge`] adds the underlying buckets (and true min/max/
/// sum) instead of re-observing bucket upper bounds.
fn merge_histograms(registry: &itdos_obs::metrics::Registry, name: &str) -> Histogram {
    let mut merged = Histogram::new();
    for (key, h) in registry.histograms() {
        if key.name == name {
            merged.merge(h);
        }
    }
    merged
}

fn render_json(rows: &[(&Config, &RunStats)], speedup: f64) -> String {
    let mut out = String::from("{\n  \"bench\": \"bft_throughput\",\n");
    let _ = writeln!(out, "  \"batched_vs_unbatched_speedup\": {speedup:.2},");
    let _ = writeln!(out, "  \"configs\": [");
    for (i, (config, stats)) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", config.name);
        let _ = writeln!(out, "      \"clients\": {},", config.clients);
        let _ = writeln!(out, "      \"requests\": {},", stats.requests);
        let _ = writeln!(out, "      \"sim_us\": {},", stats.sim_us);
        let _ = writeln!(
            out,
            "      \"requests_per_sec\": {:.0},",
            stats.requests_per_sec
        );
        let _ = writeln!(out, "      \"mean_batch_size\": {:.2},", stats.mean_batch);
        for (name, p50, p99) in &stats.phases {
            let key = name.trim_start_matches("bft.").trim_end_matches("_us");
            let _ = writeln!(out, "      \"{key}_p50_us\": {p50},");
            let _ = writeln!(out, "      \"{key}_p99_us\": {p99},");
        }
        // last key without trailing comma
        let _ = writeln!(out, "      \"seed\": {}", config.seed);
        let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                eprintln!("usage: bft_throughput [--smoke] [OUT.json]  (default BENCH_bft.json; --smoke writes only to an explicit path)");
                return ExitCode::from(2);
            }
            path => out_path = Some(path.to_string()),
        }
    }

    let (clients, per_client) = if smoke { (3, 8) } else { (8, 32) };
    let batched = Config {
        name: "batched",
        batched: true,
        clients,
        per_client,
        seed: 9001,
    };
    let unbatched = Config {
        name: "unbatched",
        batched: false,
        clients,
        per_client,
        seed: 9001,
    };

    let batched_stats = run(&batched);
    println!(
        "batched:   {} requests in {} sim-µs -> {:.0} req/s (mean batch {:.2})",
        batched_stats.requests,
        batched_stats.sim_us,
        batched_stats.requests_per_sec,
        batched_stats.mean_batch
    );

    // determinism self-check: the same seeded run replays byte-identically
    let replay = run(&batched);
    if replay.dump != batched_stats.dump {
        eprintln!("FAIL: identical seeded runs produced different obs dumps");
        return ExitCode::from(1);
    }
    println!(
        "determinism: replay dump byte-identical ({} bytes)",
        replay.dump.len()
    );

    let unbatched_stats = run(&unbatched);
    println!(
        "unbatched: {} requests in {} sim-µs -> {:.0} req/s (mean batch {:.2})",
        unbatched_stats.requests,
        unbatched_stats.sim_us,
        unbatched_stats.requests_per_sec,
        unbatched_stats.mean_batch
    );

    let speedup = batched_stats.requests_per_sec / unbatched_stats.requests_per_sec;
    println!("speedup:   {speedup:.2}x");

    let floor = if smoke { 1.0 } else { 2.0 };
    if speedup < floor {
        eprintln!("FAIL: batched/unbatched speedup {speedup:.2} below the {floor:.1}x floor");
        return ExitCode::from(1);
    }

    let json = render_json(
        &[(&batched, &batched_stats), (&unbatched, &unbatched_stats)],
        speedup,
    );
    itdos_bench::write_snapshot(out_path, "BENCH_bft.json", smoke, &json)
}
