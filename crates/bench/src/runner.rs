//! Suite runner: executes simulation cells on a process-wide bounded
//! worker pool.
//!
//! A *cell* is one group of kernels co-scheduled on one core, one
//! hardware thread each (a single kernel is a one-member group).
//! [`run_cells`] runs a list of groups under one configuration, each
//! group as one cell. Every simulation in this crate — whether launched
//! from one [`run_cells`] call or from dozens of experiments running
//! concurrently in the harness binary — acquires a slot from a single
//! gate sized to the machine's parallelism before it burns CPU. That
//! lets the experiments driver fan out (experiment × config) cells
//! freely: coordinator threads are cheap, and the gate keeps the
//! number of *running* simulations bounded.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;
use ubrc_isa::Program;
use ubrc_sim::{CheckConfig, SimConfig, SimError, SimResult, Simulator};
use ubrc_stats::geomean;
use ubrc_workloads::{kernel_pairs, kernel_quads, suite, Scale, Workload};

/// A simulation cell failed: which workload, and how.
#[derive(Clone, Debug)]
pub struct SuiteError {
    /// Name of the kernel (or `a+b+…` co-schedule) whose simulation
    /// failed.
    pub workload: &'static str,
    /// What went wrong.
    pub failure: SuiteFailure,
}

impl SuiteError {
    /// Human-readable description of the failure (without the kernel
    /// name).
    pub fn reason(&self) -> String {
        self.failure.to_string()
    }
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload `{}` failed: {}", self.workload, self.failure)
    }
}

impl std::error::Error for SuiteError {}

/// How a simulation cell failed.
#[derive(Clone, Debug)]
pub enum SuiteFailure {
    /// The workload program failed to assemble.
    Asm(ubrc_isa::AsmError),
    /// The simulator rejected the configuration or reported a structured
    /// error (divergence, invariant violation, watchdog deadlock,
    /// emulator fault).
    Sim(Box<SimError>),
    /// The cell exceeded its wall-clock budget and was cancelled.
    Timeout {
        /// The budget that was exceeded, in seconds.
        secs: u64,
    },
    /// The simulator panicked (a simulator bug the structured paths
    /// did not cover).
    Panic(String),
}

impl SuiteFailure {
    /// Short machine-readable tag for JSON reports.
    pub fn kind(&self) -> &'static str {
        match self {
            SuiteFailure::Asm(_) => "asm",
            SuiteFailure::Sim(e) => match **e {
                SimError::Divergence(_) => "divergence",
                SimError::Invariant(_) => "invariant",
                SimError::Watchdog(_) => "watchdog",
                SimError::Emu(_) => "emu",
                SimError::Cancelled { .. } => "cancelled",
                SimError::Config(_) => "config",
            },
            SuiteFailure::Timeout { .. } => "timeout",
            SuiteFailure::Panic(_) => "panic",
        }
    }
}

impl fmt::Display for SuiteFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteFailure::Asm(e) => write!(f, "assembly failed: {e}"),
            SuiteFailure::Sim(e) => write!(f, "{e}"),
            SuiteFailure::Timeout { secs } => {
                write!(f, "timed out after {secs}s wall-clock")
            }
            SuiteFailure::Panic(m) => write!(f, "{m}"),
        }
    }
}

/// Per-run options for the suite runner, normally derived from the
/// environment (which is how the `experiments` binary's `--check`,
/// `--timeout` and `--profile` flags reach every cell without threading
/// a parameter through every experiment signature).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Enable full runtime checking ([`CheckConfig::full`]) on every
    /// cell, overriding the per-config setting.
    pub check: bool,
    /// Wall-clock budget per cell; a cell still running at the deadline
    /// is cancelled and reported as [`SuiteFailure::Timeout`].
    pub timeout: Option<Duration>,
    /// Enable per-stage self-profiling on every cell (wall-time and
    /// call counts per pipeline stage; never changes simulated timing).
    pub profile: bool,
}

impl RunOptions {
    /// Reads `UBRC_CHECK` (any non-empty value other than `0`),
    /// `UBRC_TIMEOUT_SECS` (integer seconds) and `UBRC_PROFILE` (any
    /// non-empty value other than `0`).
    pub fn from_env() -> Self {
        let flag = |name| std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0");
        let timeout = std::env::var("UBRC_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&s| s > 0)
            .map(Duration::from_secs);
        Self {
            check: flag("UBRC_CHECK"),
            timeout,
            profile: flag("UBRC_PROFILE"),
        }
    }
}

/// Counting semaphore bounding concurrently *running* simulations.
struct WorkerGate {
    free: Mutex<usize>,
    cv: Condvar,
}

struct Permit<'a>(&'a WorkerGate);

impl WorkerGate {
    fn acquire(&self) -> Permit<'_> {
        let mut free = self
            .cv
            .wait_while(self.free.lock().expect("gate poisoned"), |f| *f == 0)
            .expect("gate poisoned");
        *free -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.free.lock().expect("gate poisoned") += 1;
        self.0.cv.notify_one();
    }
}

/// Maximum simulations running at once (defaults to the machine's
/// available parallelism; override with `UBRC_BENCH_WORKERS`).
pub(crate) fn max_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("UBRC_BENCH_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(4)
            })
    })
}

fn gate() -> &'static WorkerGate {
    static GATE: OnceLock<WorkerGate> = OnceLock::new();
    GATE.get_or_init(|| WorkerGate {
        free: Mutex::new(max_workers()),
        cv: Condvar::new(),
    })
}

/// Builds and runs one simulator, with `cancel` (when given) as its
/// cancellation flag.
fn simulate(
    programs: Vec<Program>,
    config: SimConfig,
    cancel: Option<Arc<AtomicBool>>,
) -> Result<SimResult, Box<SimError>> {
    let mut sim =
        Simulator::try_new_smt(programs, config).map_err(|e| Box::new(SimError::Config(e)))?;
    if let Some(flag) = cancel {
        sim.set_cancel(flag);
    }
    sim.run_checked()
}

/// Turns a caught simulation outcome into the runner's failure type.
fn settle(
    outcome: std::thread::Result<Result<SimResult, Box<SimError>>>,
) -> Result<SimResult, SuiteFailure> {
    let message = |payload: Box<dyn std::any::Any + Send>| match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map_or("simulation panicked", |s| s)
            .to_string(),
    };
    outcome
        .map_err(|p| SuiteFailure::Panic(message(p)))?
        .map_err(SuiteFailure::Sim)
}

/// Runs one cell through the worker gate: assembles every member and
/// simulates them co-scheduled, with the checking/profiling overrides
/// and the wall-clock deadline from `opts` applied.
///
/// With a deadline the simulation runs on its own thread; at the
/// deadline its cancellation flag is raised (it polls every 1024
/// cycles) and the cell is reported as a timeout, while the thread
/// unwinds shortly after on its own.
fn run_cell(
    ws: &[&Workload],
    mut config: SimConfig,
    opts: RunOptions,
) -> Result<SimResult, SuiteFailure> {
    let _permit = gate().acquire();
    let programs = ws
        .iter()
        .map(|w| w.assemble())
        .collect::<Result<Vec<_>, _>>()
        .map_err(SuiteFailure::Asm)?;
    if opts.check {
        config.check = CheckConfig::full();
    }
    if opts.profile {
        config.profile = true;
    }
    let Some(budget) = opts.timeout else {
        return settle(catch_unwind(AssertUnwindSafe(|| {
            simulate(programs, config, None)
        })));
    };
    let cancel = Arc::new(AtomicBool::new(false));
    let flag = cancel.clone();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| simulate(programs, config, Some(flag))));
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(budget) {
        Ok(outcome) => settle(outcome),
        Err(_) => {
            cancel.store(true, Ordering::Relaxed);
            Err(SuiteFailure::Timeout {
                secs: budget.as_secs(),
            })
        }
    }
}

/// Runs one cell — a group of kernels co-scheduled on one core, one
/// hardware thread each — through the worker gate, converting every
/// failure mode (assembly error, structured [`SimError`], wall-clock
/// timeout, residual panic) into a [`SuiteError`].
///
/// A single-member group is named after its kernel; a larger group is
/// named `a+b+…`, so a failure in a multi-thread cell is attributed to
/// the co-schedule, never to a single member.
pub fn run_group_cell(ws: &[&Workload], config: SimConfig, opts: RunOptions) -> SuiteCell {
    let name = match ws {
        [w] => w.name,
        _ => group_label(ws),
    };
    let outcome = run_cell(ws, config, opts).map_err(|failure| SuiteError {
        workload: name,
        failure,
    });
    SuiteCell { name, outcome }
}

/// [`run_group_cell`] for one kernel on a single-thread core.
pub fn run_one_cell(w: &Workload, config: SimConfig, opts: RunOptions) -> SuiteCell {
    run_group_cell(&[w], config, opts)
}

/// Interns a `a+b+…` co-schedule label (the error and report types
/// carry `&'static str` kernel names). The group set is tiny and
/// fixed, so the leak is bounded.
fn group_label(ws: &[&Workload]) -> &'static str {
    use std::collections::HashMap;
    static LABELS: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut map = LABELS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("label map poisoned");
    let key = ws.iter().map(|w| w.name).collect::<Vec<_>>().join("+");
    if let Some(&s) = map.get(&key) {
        return s;
    }
    let leaked: &'static str = key.clone().leak();
    map.insert(key, leaked);
    leaked
}

/// Runs every group under `config`, each group as one cell (see
/// [`run_group_cell`]), in parallel on the shared worker pool. A
/// failing cell is recorded in place and the rest still run; the
/// report lists the cells in group order.
pub fn run_cells(groups: &[Vec<Workload>], config: &SimConfig, opts: RunOptions) -> SuiteReport {
    let runs = std::thread::scope(|scope| {
        let workers: Vec<_> = groups
            .iter()
            .map(|group| {
                let config = config.clone();
                scope.spawn(move || run_group_cell(&group.iter().collect::<Vec<_>>(), config, opts))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("cell worker panicked"))
            .collect()
    });
    SuiteReport { runs }
}

/// The kernel groupings the experiments co-schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cohort {
    /// Every [`suite`] kernel alone on a single-thread core.
    Singles,
    /// Every [`kernel_pairs`] pairing on a 2-thread core; a cell's IPC
    /// is the aggregate over both threads.
    Pairs,
    /// Every [`kernel_quads`] grouping on a 4-thread core; a cell's IPC
    /// is the aggregate over all four threads.
    Quads,
}

impl Cohort {
    /// The cohort's groups at `scale`, in suite order, ready for
    /// [`run_cells`].
    pub fn groups(self, scale: Scale) -> Vec<Vec<Workload>> {
        match self {
            Cohort::Singles => suite(scale).into_iter().map(|w| vec![w]).collect(),
            Cohort::Pairs => kernel_pairs(scale)
                .into_iter()
                .map(|(a, b)| vec![a, b])
                .collect(),
            Cohort::Quads => kernel_quads(scale).into_iter().map(Vec::from).collect(),
        }
    }
}

/// Results of running a set of cells under one configuration.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// Per-cell `(name, result)` pairs in group order.
    pub runs: Vec<(&'static str, SimResult)>,
}

impl SuiteResult {
    /// Geometric-mean IPC across the cells.
    pub fn geomean_ipc(&self) -> f64 {
        let ipcs: Vec<f64> = self.runs.iter().map(|(_, r)| r.ipc()).collect();
        geomean(&ipcs).unwrap_or(0.0)
    }

    /// Total instructions retired across the cells.
    pub fn total_retired(&self) -> u64 {
        self.runs.iter().map(|(_, r)| r.retired).sum()
    }

    /// Arithmetic mean of a per-cell metric, skipping cells where the
    /// metric is undefined.
    pub fn mean_of<F>(&self, f: F) -> Option<f64>
    where
        F: Fn(&SimResult) -> Option<f64>,
    {
        let vals: Vec<f64> = self.runs.iter().filter_map(|(_, r)| f(r)).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

/// One cell of a [`SuiteReport`]: the kernel (or co-schedule) label and
/// its outcome.
#[derive(Debug)]
pub struct SuiteCell {
    /// Kernel or `a+b+…` co-schedule label.
    pub name: &'static str,
    /// The cell's result, or its own [`SuiteError`].
    pub outcome: Result<SimResult, SuiteError>,
}

/// Results of a [`run_cells`] call, which keeps going past failures:
/// one entry per group, in group order, each either a result or the
/// cell's own [`SuiteError`].
#[derive(Debug)]
pub struct SuiteReport {
    /// Per-group cells in group order.
    pub runs: Vec<SuiteCell>,
}

impl SuiteReport {
    /// The successful cells, as a [`SuiteResult`] (for the usual
    /// aggregate statistics over whatever completed).
    pub fn successes(&self) -> SuiteResult {
        SuiteResult {
            runs: self
                .runs
                .iter()
                .filter_map(|c| c.outcome.as_ref().ok().map(|res| (c.name, res.clone())))
                .collect(),
        }
    }

    /// Number of failed cells.
    pub fn failed(&self) -> usize {
        self.runs.iter().filter(|c| c.outcome.is_err()).count()
    }

    /// Every cell's result, or the [`SuiteError`] of the first failing
    /// cell in group order.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's error.
    pub fn into_result(self) -> Result<SuiteResult, SuiteError> {
        let runs = self
            .runs
            .into_iter()
            .map(|c| c.outcome.map(|r| (c.name, r)))
            .collect::<Result<_, _>>()?;
        Ok(SuiteResult { runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubrc_core::RegCacheConfig;

    fn crc() -> Workload {
        ubrc_workloads::workload_by_name("crc", Scale::Tiny).unwrap()
    }

    fn with_timeout(timeout: Duration) -> RunOptions {
        RunOptions {
            timeout: Some(timeout),
            ..RunOptions::default()
        }
    }

    fn run(cohort: Cohort, cfg: &SimConfig) -> SuiteReport {
        run_cells(&cohort.groups(Scale::Tiny), cfg, RunOptions::default())
    }

    fn crc_result(opts: RunOptions) -> SimResult {
        run_one_cell(&crc(), SimConfig::paper_default(), opts)
            .outcome
            .unwrap()
    }

    #[test]
    fn singles_keep_group_order() {
        let r = run(Cohort::Singles, &SimConfig::paper_default())
            .into_result()
            .unwrap();
        assert_eq!(r.runs.len(), 12);
        assert_eq!(r.runs[0].0, "qsort");
        assert!(r.geomean_ipc() > 0.1);
        assert!(r.total_retired() > 0);
        // `mean_of` skips cells where the metric is undefined.
        let m = r.mean_of(|res| res.regcache.as_ref().and_then(|c| c.miss_rate()));
        assert!(m.unwrap() > 0.0);
        assert!(r.mean_of(|_| None::<f64>).is_none());
    }

    #[test]
    fn failed_cells_are_reported_in_place_under_their_names() {
        // An impossible configuration is rejected as a structured
        // ConfigError; every cell must say *which* kernel died instead
        // of unwinding, and `into_result` reports the first.
        let mut cfg = SimConfig::paper_default();
        cfg.phys_regs = 8; // fewer physical than architectural registers
        let report = run(Cohort::Singles, &cfg);
        assert_eq!(report.runs.len(), 12);
        assert_eq!(report.failed(), 12);
        assert!(report.successes().runs.is_empty());
        for cell in &report.runs {
            let err = cell.outcome.as_ref().unwrap_err();
            assert_eq!(err.workload, cell.name);
        }
        let err = report.into_result().unwrap_err();
        assert_eq!(err.workload, "qsort");
        assert!(!err.reason().is_empty());
        assert_eq!(err.failure.kind(), "config");
        assert!(matches!(&err.failure, SuiteFailure::Sim(e) if matches!(**e, SimError::Config(_))));
    }

    #[test]
    fn quad_cells_keep_group_order_under_quad_labels() {
        let r = run(Cohort::Quads, &SimConfig::paper_default())
            .into_result()
            .unwrap();
        assert_eq!(r.runs.len(), 3);
        assert_eq!(r.runs[0].0, "qsort+bfs+listchase+strsearch");
        assert_eq!(r.runs[1].0, "hash+rle+matmul+bitops");
        assert_eq!(r.runs[2].0, "crc+fpmix+fib+dispatch");
        assert!(r.geomean_ipc() > 0.1);
        assert!(r.total_retired() > 0);
    }

    #[test]
    fn mixed_group_sizes_fail_only_where_the_config_is_invalid() {
        // 514 physical registers suit one thread but do not divide
        // across four: the single runs, the quad is rejected under its
        // own label, and `into_result` reports that quad.
        let mut cfg = SimConfig::paper_default();
        cfg.phys_regs = 514;
        let quad = Cohort::Quads.groups(Scale::Tiny).swap_remove(0);
        let report = run_cells(&[vec![crc()], quad], &cfg, RunOptions::default());
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.runs[0].name, "crc");
        assert!(report.runs[0].outcome.is_ok());
        assert_eq!(report.runs[1].name, "qsort+bfs+listchase+strsearch");
        let err = report.runs[1].outcome.as_ref().unwrap_err();
        assert_eq!(err.failure.kind(), "config");
        let first = report.into_result().unwrap_err();
        assert_eq!(first.workload, "qsort+bfs+listchase+strsearch");
        assert_eq!(first.failure.kind(), "config");
    }

    #[test]
    fn invalid_cache_geometry_is_a_config_failure() {
        // 64 entries do not divide into 3 ways: the simulator must
        // reject the geometry as a typed error, not panic on it.
        let cfg = SimConfig::table1(ubrc_sim::RegStorage::Cached {
            cache: RegCacheConfig::use_based(64, 3),
            index: ubrc_core::IndexPolicy::FilteredRoundRobin,
            backing_read: 2,
            backing_write: 2,
        });
        let cell = run_one_cell(&crc(), cfg, RunOptions::default());
        assert_eq!(cell.outcome.unwrap_err().failure.kind(), "config");
    }

    #[test]
    fn pair_timeout_is_attributed_to_the_pair_label() {
        // A timeout in a 2-thread cell must name the co-schedule, not
        // one member or a stale label.
        let pairs = ubrc_workloads::kernel_pairs(Scale::Default);
        let (a, b) = &pairs[0];
        let opts = with_timeout(Duration::from_millis(0));
        let cell = run_group_cell(&[a, b], SimConfig::paper_default(), opts);
        assert_eq!(cell.name, "qsort+bfs");
        let err = cell.outcome.unwrap_err();
        assert_eq!(err.workload, "qsort+bfs");
        assert_eq!(err.failure.kind(), "timeout");
        assert!(err.to_string().contains("qsort+bfs"));
    }

    #[test]
    fn quad_failures_are_attributed_to_the_quad_label() {
        // A rejected configuration in a 4-thread cell must name the
        // whole quad on both the direct and the deadline paths.
        let quads = ubrc_workloads::kernel_quads(Scale::Tiny);
        let refs: Vec<&Workload> = quads[0].iter().collect();
        let mut cfg = SimConfig::paper_default();
        cfg.phys_regs = 514; // does not divide across 4 threads
        for opts in [
            RunOptions::default(),
            with_timeout(Duration::from_secs(120)),
        ] {
            let err = run_group_cell(&refs, cfg.clone(), opts)
                .outcome
                .unwrap_err();
            assert_eq!(err.workload, "qsort+bfs+listchase+strsearch");
            assert_eq!(err.failure.kind(), "config");
        }
    }

    #[test]
    fn timeout_cancels_a_running_cell() {
        // Default scale: the cell must still be running when the main
        // thread reaches its 0ms deadline, even on a loaded machine.
        let w = ubrc_workloads::workload_by_name("qsort", Scale::Default).unwrap();
        let opts = with_timeout(Duration::from_millis(0));
        let err = run_one_cell(&w, SimConfig::paper_default(), opts)
            .outcome
            .unwrap_err();
        assert!(matches!(err.failure, SuiteFailure::Timeout { secs: 0 }));
        assert_eq!(err.failure.kind(), "timeout");
        assert!(err.to_string().contains("timed out"));
    }

    #[test]
    fn profiled_run_matches_unprofiled() {
        // `--profile` must be observation-only: identical simulated
        // outcome, with the wall-time attribution riding alongside.
        let plain = crc_result(RunOptions::default());
        let profiled = crc_result(RunOptions {
            profile: true,
            ..RunOptions::default()
        });
        assert_eq!(plain.cycles, profiled.cycles);
        assert_eq!(plain.retired, profiled.retired);
        assert!(plain.profile.is_none());
        let p = profiled.profile.expect("profile collected");
        assert!(p.total_nanos() > 0);
        // Every stage runs once per cycle, so the call counts agree
        // with each other and with the simulated cycle count.
        assert!(p.stages.iter().all(|s| s.calls == plain.cycles));
    }

    #[test]
    fn checked_run_matches_unchecked() {
        // `--check` must be observation-only: identical SimResult.
        let plain = crc_result(RunOptions::default());
        let checked = crc_result(RunOptions {
            check: true,
            ..with_timeout(Duration::from_secs(120))
        });
        assert_eq!(plain.cycles, checked.cycles);
        assert_eq!(plain.retired, checked.retired);
        assert_eq!(plain.replayed, checked.replayed);
        assert_eq!(plain.miss_events, checked.miss_events);
        assert_eq!(plain.operands_bypassed, checked.operands_bypassed);
    }
}
