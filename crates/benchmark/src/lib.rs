//! # itdos-benchmark — the ITDOS benchmark
//!
//! Six workloads on two clocks, with per-layer attribution measured from
//! outside. `README.md` holds the metric tables, why each workload
//! exists, and the cliffs found while sizing; `BENCHMARK.json` at the
//! repository root holds the names, units and regression bounds.
//!
//! The crate depends on the product crates only and drives
//! `SystemBuilder`/`System` in-process on a single thread.

#![warn(missing_docs)]

pub mod alloc;
pub mod calib;
pub mod check;
pub mod cli;
pub mod json;
pub mod layers;
pub mod measure;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
