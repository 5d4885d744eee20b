//! Machine-readable benchmark trajectory (`BENCH_pipeline.json`).
//!
//! `experiments --json` runs the kernel suite under a fixed matrix of
//! register-storage configurations and records, per configuration, the
//! harness wall time, the simulated instruction count, the simulation
//! throughput (simulated instructions per wall second), and the
//! geometric-mean IPC. Successive checkins can compare the files to
//! track simulator performance without re-deriving anything from logs.
//!
//! The schema is documented in DESIGN.md (§Performance).

use crate::runner::{max_workers, run_cells, Cohort, RunOptions, SuiteReport};
use std::time::Instant;
use ubrc_core::{CachePartition, IndexPolicy, ProtectionConfig, RegCacheConfig};
use ubrc_sim::{FaultKind, FaultPlan, RecoveryPolicy, RegStorage, SimConfig};
use ubrc_stats::Json;
use ubrc_workloads::Scale;

/// Version tag embedded in the emitted document. `/2` added the
/// `soft-*` protection/recovery configurations and a per-kernel count
/// of runs per cell; `/3` added the dynamically partitioned 4-thread
/// cells (`smt4-*-dyncap`) and the 2-thread fetch-policy cells
/// (`smt2-use-based-{rr,ic28}`); `/4` added the
/// dynamically way-partitioned 4-thread cells (`smt4-*-dynway`, at the
/// 64x8 geometry so whole ways can move) and a per-kernel `thread_ipc`
/// array on every co-scheduled cell (per-thread retired over cell
/// cycles, from `SimResult::thread_retired`); `/5` added the optional
/// per-config `profile` section (per-stage wall-nanoseconds and call
/// counts summed over the config's kernels, present only when the run
/// was made with `--profile` / `UBRC_PROFILE`); `/6` dropped the
/// per-kernel run count again (DESIGN.md §Performance says why).
pub const SCHEMA: &str = "ubrc-bench-pipeline/6";

fn cached(cache: RegCacheConfig, index: IndexPolicy) -> SimConfig {
    SimConfig::table1(RegStorage::Cached {
        cache,
        index,
        backing_read: 2,
        backing_write: 2,
    })
}

/// The fixed configuration matrix the trajectory tracks: the paper's
/// three caching schemes plus the monolithic register-file baselines.
pub(crate) fn trajectory_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        (
            "rf-1",
            SimConfig::table1(RegStorage::Monolithic {
                read_latency: 1,
                write_latency: 1,
            }),
        ),
        (
            "rf-3",
            SimConfig::table1(RegStorage::Monolithic {
                read_latency: 3,
                write_latency: 3,
            }),
        ),
        (
            "lru",
            cached(RegCacheConfig::lru(64, 2), IndexPolicy::RoundRobin),
        ),
        (
            "non-bypass",
            cached(RegCacheConfig::non_bypass(64, 2), IndexPolicy::RoundRobin),
        ),
        (
            "use-based",
            cached(
                RegCacheConfig::use_based(64, 2),
                IndexPolicy::FilteredRoundRobin,
            ),
        ),
        (
            "ehc",
            cached(
                RegCacheConfig::expected_hit_count(64, 2),
                IndexPolicy::FilteredRoundRobin,
            ),
        ),
        (
            "min-load",
            cached(RegCacheConfig::use_based(64, 2), IndexPolicy::MinLoad),
        ),
    ]
}

/// The soft-error configurations the trajectory tracks: the use-based
/// design point with full parity protection and machine-check recovery
/// enabled, once fault-free (pinning the zero-overhead claim: its
/// numbers must match `use-based`) and once under each class of
/// periodic recoverable fault (pinning the cost of the recovery
/// machinery itself).
pub(crate) fn soft_trajectory_configs() -> Vec<(&'static str, SimConfig)> {
    let protected = |plan: Option<FaultPlan>| {
        let mut cache = RegCacheConfig::use_based(64, 2);
        cache.protection = ProtectionConfig::full();
        let mut cfg = cached(cache, IndexPolicy::FilteredRoundRobin);
        cfg.recovery = RecoveryPolicy::enabled();
        cfg.fault_plan = plan;
        cfg
    };
    vec![
        ("soft-protected", protected(None)),
        (
            "soft-cache-p200",
            protected(Some(FaultPlan::periodic(7, 200, FaultKind::FlipCacheData))),
        ),
        (
            "soft-backing-p400",
            protected(Some(FaultPlan::periodic(
                9,
                400,
                FaultKind::FlipBackingWord,
            ))),
        ),
    ]
}

/// The 2-thread SMT configurations the trajectory tracks: each cell
/// runs every [`ubrc_workloads::kernel_pairs`] pairing co-scheduled on
/// one core, so its `ipc` columns are aggregate (two-thread) IPC. The
/// `rr`/`ic28` cells pin the fetch-policy ablation (the default cells
/// fetch with ICOUNT.1.8).
pub(crate) fn smt_trajectory_configs() -> Vec<(&'static str, SimConfig)> {
    let fetch = |mut cfg: SimConfig, policy: ubrc_sim::FetchPolicy| {
        cfg.fetch_policy = policy;
        cfg
    };
    let ub = || {
        cached(
            RegCacheConfig::use_based(64, 2),
            IndexPolicy::FilteredRoundRobin,
        )
    };
    vec![
        ("smt2-use-based", ub()),
        (
            "smt2-lru",
            cached(RegCacheConfig::lru(64, 2), IndexPolicy::RoundRobin),
        ),
        (
            "smt2-use-based-rr",
            fetch(ub(), ubrc_sim::FetchPolicy::RoundRobin),
        ),
        (
            "smt2-use-based-ic28",
            fetch(ub(), ubrc_sim::FetchPolicy::Icount28),
        ),
    ]
}

/// The 4-thread SMT configurations the trajectory tracks: each cell
/// runs every [`ubrc_workloads::kernel_quads`] grouping co-scheduled on
/// one core under the {use-based, LRU} × {shared, way-partitioned,
/// occupancy-capped} register-cache matrix (64-entry 4-way geometry so
/// the ways divide across the threads), so its `ipc` columns are
/// aggregate (four-thread) IPC.
pub(crate) fn smt4_trajectory_configs() -> Vec<(&'static str, SimConfig)> {
    let part = |mut cache: RegCacheConfig, p: CachePartition| {
        cache.partition = p;
        cache
    };
    let ub = || RegCacheConfig::use_based(64, 4);
    let lru = || RegCacheConfig::lru(64, 4);
    vec![
        (
            "smt4-use-based-shared",
            cached(
                part(ub(), CachePartition::Shared),
                IndexPolicy::FilteredRoundRobin,
            ),
        ),
        (
            "smt4-use-based-waypart",
            cached(
                part(ub(), CachePartition::WayPartition),
                IndexPolicy::FilteredRoundRobin,
            ),
        ),
        (
            "smt4-use-based-occcap",
            cached(
                part(ub(), CachePartition::OccupancyCap),
                IndexPolicy::FilteredRoundRobin,
            ),
        ),
        (
            "smt4-lru-shared",
            cached(part(lru(), CachePartition::Shared), IndexPolicy::RoundRobin),
        ),
        (
            "smt4-lru-waypart",
            cached(
                part(lru(), CachePartition::WayPartition),
                IndexPolicy::RoundRobin,
            ),
        ),
        (
            "smt4-lru-occcap",
            cached(
                part(lru(), CachePartition::OccupancyCap),
                IndexPolicy::RoundRobin,
            ),
        ),
        (
            "smt4-use-based-dyncap",
            cached(
                part(
                    ub(),
                    CachePartition::DynamicCap {
                        epoch_cycles: 128,
                        min_cap: 4,
                    },
                ),
                IndexPolicy::FilteredRoundRobin,
            ),
        ),
        (
            "smt4-lru-dyncap",
            cached(
                part(
                    lru(),
                    CachePartition::DynamicCap {
                        epoch_cycles: 128,
                        min_cap: 4,
                    },
                ),
                IndexPolicy::RoundRobin,
            ),
        ),
        (
            "smt4-use-based-dynway",
            cached(
                part(
                    RegCacheConfig::use_based(64, 8),
                    CachePartition::DynamicWay { epoch_cycles: 128 },
                ),
                IndexPolicy::FilteredRoundRobin,
            ),
        ),
        (
            "smt4-lru-dynway",
            cached(
                part(
                    RegCacheConfig::lru(64, 8),
                    CachePartition::DynamicWay { epoch_cycles: 128 },
                ),
                IndexPolicy::RoundRobin,
            ),
        ),
    ]
}

/// Outcome of a trajectory run: the (possibly partial) document plus
/// the number of failed cells. The document is always emitted — a
/// failing kernel is recorded in place as an error object — so a broken
/// configuration still leaves a usable partial trajectory on disk.
#[derive(Debug)]
pub struct TrajectoryOutcome {
    /// The `BENCH_pipeline.json` document.
    pub doc: Json,
    /// Number of simulation cells that failed across the whole matrix.
    pub failed: usize,
}

/// Runs the trajectory matrix and builds the `BENCH_pipeline.json`
/// document, degrading gracefully: failed cells become
/// `{"name", "error": {"kind", "message"}}` objects and are counted in
/// [`TrajectoryOutcome::failed`], while aggregate statistics cover the
/// cells that completed.
pub fn pipeline_trajectory(scale: Scale) -> TrajectoryOutcome {
    let matrices = [
        (Cohort::Singles, trajectory_configs()),
        (Cohort::Singles, soft_trajectory_configs()),
        (Cohort::Pairs, smt_trajectory_configs()),
        (Cohort::Quads, smt4_trajectory_configs()),
    ];
    let configs = matrices
        .into_iter()
        .flat_map(|(cohort, matrix)| {
            matrix
                .into_iter()
                .map(move |(name, cfg)| (name, cfg, cohort))
        })
        .collect();
    trajectory_over(configs, scale)
}

/// Sums the per-stage self-profiles of a config's successful kernels
/// into one `profile` JSON section (stage order as the pipeline runs
/// them). `None` when no kernel carried a profile — i.e. the run was
/// made without `--profile` — so the section never appears empty.
fn aggregate_profile(report: &SuiteReport) -> Option<Json> {
    let mut stages: Vec<(&'static str, u64, u64)> = Vec::new();
    for cell in &report.runs {
        let Ok(r) = &cell.outcome else { continue };
        let Some(p) = &r.profile else { continue };
        for s in &p.stages {
            match stages.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some((_, nanos, calls)) => {
                    *nanos += s.nanos;
                    *calls += s.calls;
                }
                None => stages.push((s.name, s.nanos, s.calls)),
            }
        }
    }
    if stages.is_empty() {
        return None;
    }
    let total: u64 = stages.iter().map(|&(_, nanos, _)| nanos).sum();
    Some(Json::obj([
        ("total_nanos", Json::from(total)),
        (
            "stages",
            Json::arr(stages.into_iter().map(|(name, nanos, calls)| {
                Json::obj([
                    ("name", Json::from(name)),
                    ("nanos", Json::from(nanos)),
                    ("calls", Json::from(calls)),
                ])
            })),
        ),
    ]))
}

/// Runs each `(name, config, cohort)` entry's cohort under its config
/// and builds the document, one `configs` entry per matrix entry.
fn trajectory_over(
    matrix: Vec<(&'static str, SimConfig, Cohort)>,
    scale: Scale,
) -> TrajectoryOutcome {
    let t_total = Instant::now();
    let mut configs = Vec::new();
    let mut total_insts: u64 = 0;
    let mut total_failed = 0usize;
    for (name, cfg, cohort) in matrix {
        let t0 = Instant::now();
        let report = run_cells(&cohort.groups(scale), &cfg, RunOptions::from_env());
        let wall = t0.elapsed().as_secs_f64();
        let ok = report.successes();
        let failed = report.failed();
        total_failed += failed;
        let insts = ok.total_retired();
        total_insts += insts;
        let kernels = Json::arr(report.runs.iter().map(|cell| match &cell.outcome {
            Ok(r) => {
                let mut fields = vec![
                    ("name", Json::from(cell.name)),
                    ("cycles", Json::from(r.cycles)),
                    ("retired", Json::from(r.retired)),
                    ("ipc", Json::from(r.ipc())),
                ];
                if cohort != Cohort::Singles {
                    fields.push((
                        "thread_ipc",
                        Json::arr(
                            r.thread_retired
                                .iter()
                                .map(|&n| Json::from(n as f64 / r.cycles.max(1) as f64)),
                        ),
                    ));
                }
                Json::obj(fields)
            }
            Err(e) => Json::obj([
                ("name", Json::from(cell.name)),
                (
                    "error",
                    Json::obj([
                        ("kind", Json::from(e.failure.kind())),
                        ("message", Json::from(e.reason())),
                    ]),
                ),
            ]),
        }));
        let mut fields = vec![
            ("name", Json::from(name)),
            ("wall_seconds", Json::from(wall)),
            ("instructions", Json::from(insts)),
            (
                "sim_insts_per_sec",
                Json::from(insts as f64 / wall.max(1e-9)),
            ),
            ("geomean_ipc", Json::from(ok.geomean_ipc())),
            ("failed", Json::from(failed)),
        ];
        if let Some(profile) = aggregate_profile(&report) {
            fields.push(("profile", profile));
        }
        fields.push(("kernels", kernels));
        configs.push(Json::obj(fields));
    }
    let total_wall = t_total.elapsed().as_secs_f64();
    let doc = Json::obj([
        ("schema", Json::from(SCHEMA)),
        ("scale", Json::from(format!("{scale:?}").to_lowercase())),
        ("workers", Json::from(max_workers())),
        ("total_wall_seconds", Json::from(total_wall)),
        (
            "total_sim_insts_per_sec",
            Json::from(total_insts as f64 / total_wall.max(1e-9)),
        ),
        ("failed", Json::from(total_failed)),
        ("configs", Json::arr(configs)),
    ]);
    TrajectoryOutcome {
        doc,
        failed: total_failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_document_has_the_published_schema() {
        let out = pipeline_trajectory(Scale::Tiny);
        assert_eq!(out.failed, 0);
        let s = out.doc.to_string();
        assert!(s.starts_with(&format!(r#"{{"schema":"{SCHEMA}""#)));
        for key in [
            r#""scale":"tiny""#,
            r#""workers":"#,
            r#""total_wall_seconds":"#,
            r#""total_sim_insts_per_sec":"#,
            r#""configs":["#,
            r#""name":"use-based""#,
            r#""name":"ehc""#,
            r#""name":"min-load""#,
            r#""name":"soft-protected""#,
            r#""name":"soft-cache-p200""#,
            r#""name":"soft-backing-p400""#,
            r#""name":"smt2-use-based""#,
            r#""name":"smt2-lru""#,
            r#""name":"smt2-use-based-rr""#,
            r#""name":"smt2-use-based-ic28""#,
            r#""name":"smt4-use-based-shared""#,
            r#""name":"smt4-use-based-waypart""#,
            r#""name":"smt4-use-based-occcap""#,
            r#""name":"smt4-lru-shared""#,
            r#""name":"smt4-lru-waypart""#,
            r#""name":"smt4-lru-occcap""#,
            r#""name":"smt4-use-based-dyncap""#,
            r#""name":"smt4-lru-dyncap""#,
            r#""name":"smt4-use-based-dynway""#,
            r#""name":"smt4-lru-dynway""#,
            r#""name":"qsort+bfs+listchase+strsearch""#,
            r#""thread_ipc":["#,
            r#""geomean_ipc":"#,
            r#""sim_insts_per_sec":"#,
            r#""kernels":["#,
        ] {
            assert!(s.contains(key), "missing `{key}` in {s}");
        }
    }

    #[test]
    fn profile_section_aggregates_per_stage_samples() {
        use crate::runner::run_one_cell;
        let w = ubrc_workloads::workload_by_name("crc", Scale::Tiny).unwrap();
        let opts = RunOptions {
            profile: true,
            ..RunOptions::default()
        };
        let report = SuiteReport {
            runs: vec![
                run_one_cell(&w, SimConfig::paper_default(), opts),
                run_one_cell(&w, SimConfig::paper_default(), opts),
            ],
        };
        let profile = aggregate_profile(&report).expect("profiled run has a section");
        let s = profile.to_string();
        assert!(s.contains(r#""total_nanos":"#), "missing total in {s}");
        for stage in ["inject", "issue", "rename", "fetch", "storage-tick"] {
            assert!(
                s.contains(&format!(r#""name":"{stage}""#)),
                "missing {stage} in {s}"
            );
        }
        // Two identical profiled kernels: every stage ran in both, so
        // each per-stage call count is even and positive.
        assert!(!s.contains(r#""calls":0"#), "stage with zero calls in {s}");
        // Without profiling there is no section at all.
        let plain = SuiteReport {
            runs: vec![run_one_cell(
                &w,
                SimConfig::paper_default(),
                RunOptions::default(),
            )],
        };
        assert!(aggregate_profile(&plain).is_none());
    }

    #[test]
    fn trajectory_degrades_to_partial_results() {
        // One broken configuration in the matrix: its kernels become
        // error objects, the document still renders, and the failure
        // count is surfaced for the binary's non-zero exit.
        let mut broken = SimConfig::paper_default();
        broken.phys_regs = 8;
        let matrix = vec![
            ("good", SimConfig::paper_default(), Cohort::Singles),
            ("broken", broken, Cohort::Singles),
        ];
        let out = trajectory_over(matrix, Scale::Tiny);
        assert_eq!(out.failed, 12);
        let s = out.doc.to_string();
        assert!(s.contains(r#""name":"good""#));
        assert!(s.contains(r#""name":"broken""#));
        assert!(
            s.contains(r#""error":{"kind":"config""#),
            "missing error object in {s}"
        );
        assert!(s.contains(r#""failed":12"#));
    }
}
