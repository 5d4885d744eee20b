//! Benchmark of the UBRC simulator: end-to-end throughput of the
//! simulator's own CPU over four workloads that contrast its layers, and
//! a traced run that times each layer on its own.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload st-usebased --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; `--trace 0` prints the
//! end-to-end metrics of [`metrics::END_TO_END`], `--trace 1` the
//! per-layer metrics of [`metrics::PER_LAYER`]. The process exits 1 when
//! any cell fails the correctness gate ([`gate`]), 2 on bad arguments.
//!
//! One run is a closed loop on one thread: every cell of the workload
//! ([`workload`]) runs back to back through the `ubrc-bench` runner with
//! one runner worker, pass after pass, for `--seconds` of wall time
//! ([`e2e`]). Host times there are scaled to nominal host speed by a
//! fixed reference computation timed around every cell ([`yardstick`]),
//! so that other tenants of a shared host move them little. The traced
//! run ([`traced`]) instead calls each crate's public functions directly
//! inside spans ([`trace`]), with the simulator's stage profile on, and
//! replays each program's functional instruction stream into the
//! front-end, memory and register-cache layers ([`replay`]).

#![warn(missing_docs)]

pub mod e2e;
pub mod gate;
pub mod host;
pub mod metrics;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;
pub mod yardstick;

use ubrc_stats::Json;

/// The result object the benchmark prints as its last line: every
/// metric with its unit from [`metrics`], and the cell counts.
///
/// # Panics
///
/// Panics if a metric name is not defined in [`metrics`].
pub fn result_json(values: &[(&str, f64)], attempted: usize, failed: usize) -> Json {
    let metrics = values.iter().map(|&(name, value)| {
        let def = metrics::def(name).unwrap_or_else(|| panic!("metric `{name}` is not defined"));
        (
            name,
            Json::obj([("value", Json::from(value)), ("unit", Json::from(def.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::obj(metrics)),
    ])
}
