//! `BENCHMARK.json`, embedded at build time: the single place metric
//! names, units, directions and regression bounds are fixed. The runner
//! emits metrics by name; the smoke test holds the two in step.

use crate::json::Json;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// How long one run measures.
    pub run_seconds: u64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Metrics a user of the system would see.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers.
    pub per_layer: Vec<MetricSpec>,
}

const EMBEDDED: &str = include_str!("../../../BENCHMARK.json");

/// Count and sim-clock metrics: a pure function of `(workload, seed)`,
/// so two runs with equal seeds must report them identically.
pub const DETERMINISTIC: [&str; 6] = [
    "sim_latency_us_mean",
    "sim_latency_us_worst1pct",
    "sim_ops_per_s",
    "msgs_per_op",
    "wire_bytes_per_op",
    "allocs_per_op",
];

impl Spec {
    /// The definition this binary was built against.
    ///
    /// # Panics
    ///
    /// Panics if the embedded file is malformed — it is this repository's
    /// own file, so that is a bug in the change that edited it.
    pub fn embedded() -> Spec {
        Spec::parse(EMBEDDED).expect("the repository's BENCHMARK.json is well-formed")
    }

    /// Parses a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: no `{key}` array"))?
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("BENCHMARK.json: `{key}` entry without `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: text("name")?,
                        unit: text("unit")?,
                        lower_is_better: text("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")? as u64,
            workloads: doc
                .get("workloads")
                .and_then(Json::as_array)
                .ok_or("BENCHMARK.json: no `workloads` array")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str))
                .map(str::to_string)
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
