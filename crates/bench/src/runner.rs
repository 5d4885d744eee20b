//! Suite runner: executes simulation cells on a process-wide bounded
//! worker pool.
//!
//! Every simulation in this crate — whether launched from one
//! [`run_suite`] call or from dozens of experiments running
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
use ubrc_workloads::{suite, Scale, Workload};

/// A simulation cell failed: which workload, and how.
#[derive(Clone, Debug)]
pub struct SuiteError {
    /// Name of the kernel whose simulation failed.
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
    /// The checked simulator reported a structured error (divergence,
    /// invariant violation, watchdog deadlock, emulator fault).
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

    /// Whether retrying the cell could plausibly succeed: wall-clock
    /// timeouts (a loaded machine) and residual panics (ones a flaky
    /// environment produced rather than a deterministic simulator bug).
    /// Structured simulator errors and assembly failures are
    /// deterministic and never retried.
    pub fn is_transient(&self) -> bool {
        matches!(self, SuiteFailure::Timeout { .. } | SuiteFailure::Panic(_))
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
/// environment (which is how the `experiments` binary's `--check` and
/// `--timeout` flags reach every cell without threading a parameter
/// through every experiment signature).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Enable full runtime checking ([`CheckConfig::full`]) on every
    /// cell, overriding the per-config setting.
    pub check: bool,
    /// Wall-clock budget per cell; a cell still running at the deadline
    /// is cancelled and reported as [`SuiteFailure::Timeout`].
    pub timeout: Option<Duration>,
    /// Extra attempts after a *transient* failure (see
    /// [`SuiteFailure::is_transient`]), with exponential backoff
    /// between attempts. Deterministic failures are never retried.
    pub retries: u32,
    /// Enable per-stage self-profiling on every cell (wall-time and
    /// call counts per pipeline stage; never changes simulated timing).
    pub profile: bool,
}

impl RunOptions {
    /// Reads `UBRC_CHECK` (any non-empty value other than `0`),
    /// `UBRC_TIMEOUT_SECS` (integer seconds), `UBRC_RETRIES`
    /// (extra attempts per cell on transient failures), and
    /// `UBRC_PROFILE` (any non-empty value other than `0`).
    pub fn from_env() -> Self {
        let check = std::env::var("UBRC_CHECK")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        let timeout = std::env::var("UBRC_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&s| s > 0)
            .map(Duration::from_secs);
        let retries = std::env::var("UBRC_RETRIES")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(0);
        let profile = std::env::var("UBRC_PROFILE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        Self {
            check,
            timeout,
            retries,
            profile,
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
pub fn max_workers() -> usize {
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

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "simulation panicked".to_string()
    }
}

/// One attempt of a cell: assemble every member and simulate, with
/// the checking override and wall-clock deadline from `opts` applied.
fn attempt_cell(
    ws: &[&Workload],
    config: &SimConfig,
    opts: RunOptions,
) -> Result<SimResult, SuiteFailure> {
    let mut programs = Vec::with_capacity(ws.len());
    for w in ws {
        programs.push(w.assemble().map_err(SuiteFailure::Asm)?);
    }
    let mut config = config.clone();
    if opts.check {
        config.check = CheckConfig::full();
    }
    if opts.profile {
        config.profile = true;
    }
    match opts.timeout {
        Some(budget) => run_with_deadline(programs, config, budget),
        None => catch_unwind(AssertUnwindSafe(|| {
            Simulator::try_new_smt(programs, config)
                .map_err(|e| Box::new(SimError::Config(e)))?
                .run_checked()
        }))
        .map_err(|p| SuiteFailure::Panic(panic_message(p)))?
        .map_err(SuiteFailure::Sim),
    }
}

/// Runs a cell through the worker gate, retrying transient failures
/// (timeout, panic) up to `opts.retries` extra times with exponential
/// backoff. Returns the final outcome and the number of attempts made.
fn run_cell(
    label: &'static str,
    ws: &[&Workload],
    config: &SimConfig,
    opts: RunOptions,
) -> (Result<SimResult, SuiteError>, u32) {
    let _permit = gate().acquire();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match attempt_cell(ws, config, opts) {
            Ok(r) => return (Ok(r), attempts),
            Err(failure) => {
                if attempts <= opts.retries && failure.is_transient() {
                    // 50ms, 100ms, 200ms, … capped at 3.2s per step.
                    let backoff = 50u64 << (attempts - 1).min(6);
                    std::thread::sleep(Duration::from_millis(backoff));
                    continue;
                }
                return (
                    Err(SuiteError {
                        workload: label,
                        failure,
                    }),
                    attempts,
                );
            }
        }
    }
}

/// Runs one simulation cell through the worker gate with options from
/// the environment (see [`RunOptions::from_env`]), converting every
/// failure mode — assembly error, structured [`SimError`], wall-clock
/// timeout, residual panic — into a [`SuiteError`] naming the kernel.
pub fn run_one(w: &Workload, config: SimConfig) -> Result<SimResult, SuiteError> {
    run_one_with(w, config, RunOptions::from_env())
}

/// [`run_one`] with explicit options.
pub fn run_one_with(
    w: &Workload,
    config: SimConfig,
    opts: RunOptions,
) -> Result<SimResult, SuiteError> {
    run_one_cell(w, config, opts).outcome
}

/// [`run_one`] with explicit options, also reporting the attempt
/// count (how many times the runner had to run the cell before its
/// final outcome; 1 unless transient failures were retried).
pub fn run_one_cell(w: &Workload, config: SimConfig, opts: RunOptions) -> SuiteCell {
    let (outcome, attempts) = run_cell(w.name, &[w], &config, opts);
    SuiteCell {
        name: w.name,
        outcome,
        attempts,
    }
}

/// Runs one 2-thread SMT cell — a kernel pair co-scheduled on one core
/// — through the worker gate with options from the environment.
/// Failures name the pair as `a+b`.
pub fn run_pair(a: &Workload, b: &Workload, config: SimConfig) -> Result<SimResult, SuiteError> {
    run_pair_with(a, b, config, RunOptions::from_env())
}

/// [`run_pair`] with explicit options.
pub fn run_pair_with(
    a: &Workload,
    b: &Workload,
    config: SimConfig,
    opts: RunOptions,
) -> Result<SimResult, SuiteError> {
    run_group_with(&[a, b], config, opts)
}

/// Runs one N-thread SMT cell — a group of kernels co-scheduled on one
/// core, one hardware thread each — through the worker gate with
/// options from the environment. Failures name the whole group as
/// `a+b+…` so a timeout or misconfiguration in a multi-thread cell is
/// attributed to the co-schedule, never to a single member.
pub fn run_group(ws: &[&Workload], config: SimConfig) -> Result<SimResult, SuiteError> {
    run_group_with(ws, config, RunOptions::from_env())
}

/// [`run_group`] with explicit options.
pub fn run_group_with(
    ws: &[&Workload],
    config: SimConfig,
    opts: RunOptions,
) -> Result<SimResult, SuiteError> {
    run_group_cell(ws, config, opts).outcome
}

/// [`run_group`] with explicit options, also reporting the attempt
/// count (as in [`run_one_cell`]).
pub fn run_group_cell(ws: &[&Workload], config: SimConfig, opts: RunOptions) -> SuiteCell {
    let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
    let label = group_label(&names);
    let (outcome, attempts) = run_cell(label, ws, &config, opts);
    SuiteCell {
        name: label,
        outcome,
        attempts,
    }
}

/// Interns a `a+b+…` co-schedule label (the error and report types
/// carry `&'static str` kernel names). The group set is tiny and
/// fixed, so the leak is bounded.
fn group_label(names: &[&str]) -> &'static str {
    use std::collections::HashMap;
    static LABELS: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut map = LABELS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("label map poisoned");
    let key = names.join("+");
    if let Some(&s) = map.get(&key) {
        return s;
    }
    let leaked: &'static str = key.clone().leak();
    map.insert(key, leaked);
    leaked
}

fn pair_label(a: &str, b: &str) -> &'static str {
    group_label(&[a, b])
}

/// Runs one simulation on a worker thread with a wall-clock deadline.
/// At the deadline the simulator's cancellation flag is raised (it
/// polls every 1024 cycles) and the cell is reported as a timeout; the
/// worker unwinds shortly after on its own.
fn run_with_deadline(
    programs: Vec<Program>,
    config: SimConfig,
    budget: Duration,
) -> Result<SimResult, SuiteFailure> {
    let cancel = Arc::new(AtomicBool::new(false));
    let flag = cancel.clone();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            let mut sim = Simulator::try_new_smt(programs, config)
                .map_err(|e| Box::new(SimError::Config(e)))?;
            sim.set_cancel(flag);
            sim.run_checked()
        }));
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(budget) {
        Ok(Ok(Ok(res))) => Ok(res),
        Ok(Ok(Err(e))) => Err(SuiteFailure::Sim(e)),
        Ok(Err(p)) => Err(SuiteFailure::Panic(panic_message(p))),
        Err(_) => {
            cancel.store(true, Ordering::Relaxed);
            Err(SuiteFailure::Timeout {
                secs: budget.as_secs(),
            })
        }
    }
}

/// Results of running the full benchmark suite under one configuration.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// Per-benchmark `(name, result)` pairs in suite order.
    pub runs: Vec<(&'static str, SimResult)>,
}

impl SuiteResult {
    /// Geometric-mean IPC across the suite.
    pub fn geomean_ipc(&self) -> f64 {
        let ipcs: Vec<f64> = self.runs.iter().map(|(_, r)| r.ipc()).collect();
        geomean(&ipcs).unwrap_or(0.0)
    }

    /// Total instructions retired across the suite.
    pub fn total_retired(&self) -> u64 {
        self.runs.iter().map(|(_, r)| r.retired).sum()
    }

    /// Arithmetic mean of a per-benchmark metric, skipping benchmarks
    /// where the metric is undefined.
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

/// Runs the whole kernel suite under `config`, kernels in parallel on
/// the shared worker pool.
///
/// # Errors
///
/// Returns a [`SuiteError`] naming the first (in suite order) kernel
/// whose simulation panicked.
pub fn run_suite(config: &SimConfig, scale: Scale) -> Result<SuiteResult, SuiteError> {
    let workloads = suite(scale);
    let mut runs: Vec<Option<Result<SimResult, SuiteError>>> = Vec::new();
    runs.resize_with(workloads.len(), || None);
    std::thread::scope(|scope| {
        for (slot, w) in runs.iter_mut().zip(&workloads) {
            let cfg = config.clone();
            scope.spawn(move || {
                *slot = Some(run_one(w, cfg));
            });
        }
    });
    let mut out = Vec::with_capacity(workloads.len());
    for (r, w) in runs.into_iter().zip(&workloads) {
        out.push((w.name, r.expect("scope joined every worker")?));
    }
    Ok(SuiteResult { runs: out })
}

/// Runs every [`ubrc_workloads::kernel_pairs`] pairing as a 2-thread
/// SMT cell under `config`, pairs in parallel on the shared worker
/// pool. Each run's name is the `a+b` pair label and its IPC is the
/// *aggregate* (both threads' retirement over shared cycles).
///
/// # Errors
///
/// Returns a [`SuiteError`] naming the first (in pair order) pair
/// whose simulation failed.
pub fn run_pair_suite(config: &SimConfig, scale: Scale) -> Result<SuiteResult, SuiteError> {
    let pairs = ubrc_workloads::kernel_pairs(scale);
    let mut runs: Vec<Option<Result<SimResult, SuiteError>>> = Vec::new();
    runs.resize_with(pairs.len(), || None);
    std::thread::scope(|scope| {
        for (slot, (a, b)) in runs.iter_mut().zip(&pairs) {
            let cfg = config.clone();
            scope.spawn(move || {
                *slot = Some(run_pair(a, b, cfg));
            });
        }
    });
    let mut out = Vec::with_capacity(pairs.len());
    for (r, (a, b)) in runs.into_iter().zip(&pairs) {
        let name = pair_label(a.name, b.name);
        out.push((name, r.expect("scope joined every worker")?));
    }
    Ok(SuiteResult { runs: out })
}

/// Convenience: geometric-mean IPC of the suite under `config`.
///
/// # Errors
///
/// Propagates the [`SuiteError`] of a failing kernel.
pub fn suite_geomean_ipc(config: &SimConfig, scale: Scale) -> Result<f64, SuiteError> {
    Ok(run_suite(config, scale)?.geomean_ipc())
}

/// One cell of a [`SuiteReport`]: the kernel (or co-schedule) label,
/// its final outcome, and how many attempts the runner made before
/// settling on it (1 unless transient failures were retried; see
/// [`RunOptions::retries`]).
#[derive(Debug)]
pub struct SuiteCell {
    /// Kernel or `a+b+…` co-schedule label.
    pub name: &'static str,
    /// The final outcome after any retries.
    pub outcome: Result<SimResult, SuiteError>,
    /// Number of attempts made (at least 1).
    pub attempts: u32,
}

/// Results of a whole-suite run that keeps going past failures: one
/// entry per kernel, in suite order, each either a result or the
/// kernel's own [`SuiteError`].
#[derive(Debug)]
pub struct SuiteReport {
    /// Per-kernel cells in suite order.
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
}

/// Runs every kernel pair as a 2-thread SMT cell like
/// [`run_pair_suite`], but degrades gracefully: a failing pair is
/// recorded in place and the rest still runs.
pub fn run_pair_suite_robust(config: &SimConfig, scale: Scale) -> SuiteReport {
    let pairs = ubrc_workloads::kernel_pairs(scale);
    let mut runs: Vec<Option<SuiteCell>> = Vec::new();
    runs.resize_with(pairs.len(), || None);
    std::thread::scope(|scope| {
        for (slot, (a, b)) in runs.iter_mut().zip(&pairs) {
            let cfg = config.clone();
            scope.spawn(move || {
                *slot = Some(run_group_cell(&[a, b], cfg, RunOptions::from_env()));
            });
        }
    });
    SuiteReport {
        runs: runs
            .into_iter()
            .map(|r| r.expect("scope joined every worker"))
            .collect(),
    }
}

/// Runs every [`ubrc_workloads::kernel_quads`] grouping as a 4-thread
/// SMT cell under `config`, quads in parallel on the shared worker
/// pool. Each run's name is the `a+b+c+d` group label and its IPC is
/// the *aggregate* (four-thread) IPC.
///
/// # Errors
///
/// Returns a [`SuiteError`] naming the first (in quad order) quad whose
/// simulation failed.
pub fn run_quad_suite(config: &SimConfig, scale: Scale) -> Result<SuiteResult, SuiteError> {
    let report = run_quad_suite_robust(config, scale);
    let mut out = Vec::with_capacity(report.runs.len());
    for cell in report.runs {
        out.push((cell.name, cell.outcome?));
    }
    Ok(SuiteResult { runs: out })
}

/// Runs every kernel quad as a 4-thread SMT cell like
/// [`run_quad_suite`], but degrades gracefully: a failing quad is
/// recorded in place and the rest still runs.
pub fn run_quad_suite_robust(config: &SimConfig, scale: Scale) -> SuiteReport {
    let quads = ubrc_workloads::kernel_quads(scale);
    let mut runs: Vec<Option<SuiteCell>> = Vec::new();
    runs.resize_with(quads.len(), || None);
    std::thread::scope(|scope| {
        for (slot, quad) in runs.iter_mut().zip(&quads) {
            let cfg = config.clone();
            scope.spawn(move || {
                let refs: Vec<&Workload> = quad.iter().collect();
                *slot = Some(run_group_cell(&refs, cfg, RunOptions::from_env()));
            });
        }
    });
    SuiteReport {
        runs: runs
            .into_iter()
            .map(|r| r.expect("scope joined every worker"))
            .collect(),
    }
}

/// Runs the whole kernel suite under `config` like [`run_suite`], but
/// degrades gracefully: a failing kernel is recorded in place and the
/// rest of the suite still runs, so callers can emit partial results.
pub fn run_suite_robust(config: &SimConfig, scale: Scale) -> SuiteReport {
    let workloads = suite(scale);
    let mut runs: Vec<Option<SuiteCell>> = Vec::new();
    runs.resize_with(workloads.len(), || None);
    std::thread::scope(|scope| {
        for (slot, w) in runs.iter_mut().zip(&workloads) {
            let cfg = config.clone();
            scope.spawn(move || {
                *slot = Some(run_one_cell(w, cfg, RunOptions::from_env()));
            });
        }
    });
    SuiteReport {
        runs: runs
            .into_iter()
            .map(|r| r.expect("scope joined every worker"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_in_parallel_and_orders_results() {
        let r = run_suite(&SimConfig::paper_default(), Scale::Tiny).unwrap();
        assert_eq!(r.runs.len(), 12);
        assert_eq!(r.runs[0].0, "qsort");
        assert!(r.geomean_ipc() > 0.1);
        assert!(r.total_retired() > 0);
    }

    #[test]
    fn mean_of_skips_undefined_metrics() {
        let r = run_suite(&SimConfig::paper_default(), Scale::Tiny).unwrap();
        let m = r.mean_of(|res| res.regcache.as_ref().and_then(|c| c.miss_rate()));
        assert!(m.unwrap() > 0.0);
        let none = r.mean_of(|_| None::<f64>);
        assert!(none.is_none());
    }

    #[test]
    fn failing_simulation_names_the_workload() {
        // An impossible configuration is rejected as a structured
        // ConfigError; the runner must say *which* kernel died instead
        // of unwinding.
        let mut cfg = SimConfig::paper_default();
        cfg.phys_regs = 8; // fewer physical than architectural registers
        let err = run_suite(&cfg, Scale::Tiny).unwrap_err();
        assert_eq!(err.workload, "qsort");
        assert!(!err.reason().is_empty());
        assert_eq!(err.failure.kind(), "config");
        assert!(matches!(&err.failure, SuiteFailure::Sim(e) if matches!(**e, SimError::Config(_))));
    }

    #[test]
    fn robust_suite_reports_every_cell() {
        let mut cfg = SimConfig::paper_default();
        cfg.phys_regs = 8;
        let report = run_suite_robust(&cfg, Scale::Tiny);
        assert_eq!(report.runs.len(), 12);
        assert_eq!(report.failed(), 12);
        assert!(report.successes().runs.is_empty());
        for cell in &report.runs {
            let err = cell.outcome.as_ref().unwrap_err();
            assert_eq!(err.workload, cell.name);
            // Config rejection is deterministic: no retry was made.
            assert_eq!(cell.attempts, 1);
        }
    }

    #[test]
    fn quad_suite_runs_in_parallel_and_orders_results() {
        let r = run_quad_suite(&SimConfig::paper_default(), Scale::Tiny).unwrap();
        assert_eq!(r.runs.len(), 3);
        assert_eq!(r.runs[0].0, "qsort+bfs+listchase+strsearch");
        assert_eq!(r.runs[1].0, "hash+rle+matmul+bitops");
        assert_eq!(r.runs[2].0, "crc+fpmix+fib+dispatch");
        assert!(r.geomean_ipc() > 0.1);
        assert!(r.total_retired() > 0);
    }

    #[test]
    fn pair_timeout_is_attributed_to_the_pair_label() {
        // A timeout in a 2-thread cell must name the co-schedule, not
        // one member or a stale label.
        let pairs = ubrc_workloads::kernel_pairs(Scale::Default);
        let (a, b) = &pairs[0];
        let opts = RunOptions {
            timeout: Some(Duration::from_millis(0)),
            ..RunOptions::default()
        };
        let err = run_pair_with(a, b, SimConfig::paper_default(), opts).unwrap_err();
        assert_eq!(err.workload, "qsort+bfs");
        assert_eq!(err.failure.kind(), "timeout");
        assert!(err.to_string().contains("qsort+bfs"));
    }

    #[test]
    fn quad_failures_are_attributed_to_the_quad_label() {
        // A rejected configuration in a 4-thread cell must name the
        // whole quad on both the direct and the deadline paths.
        let quads = ubrc_workloads::kernel_quads(Scale::Tiny);
        let refs: Vec<&ubrc_workloads::Workload> = quads[0].iter().collect();
        let mut cfg = SimConfig::paper_default();
        cfg.phys_regs = 514; // does not divide across 4 threads
        let err = run_group_with(&refs, cfg.clone(), RunOptions::default()).unwrap_err();
        assert_eq!(err.workload, "qsort+bfs+listchase+strsearch");
        assert_eq!(err.failure.kind(), "config");
        let opts = RunOptions {
            timeout: Some(Duration::from_secs(120)),
            ..RunOptions::default()
        };
        let err = run_group_with(&refs, cfg, opts).unwrap_err();
        assert_eq!(err.workload, "qsort+bfs+listchase+strsearch");
        assert_eq!(err.failure.kind(), "config");
    }

    #[test]
    fn timeout_cancels_a_running_cell() {
        // Default scale: the cell must still be running when the main
        // thread reaches its 0ms deadline, even on a loaded machine.
        let w = ubrc_workloads::workload_by_name("qsort", Scale::Default).unwrap();
        let opts = RunOptions {
            timeout: Some(Duration::from_millis(0)),
            ..RunOptions::default()
        };
        let err = run_one_with(&w, SimConfig::paper_default(), opts).unwrap_err();
        assert!(matches!(err.failure, SuiteFailure::Timeout { secs: 0 }));
        assert_eq!(err.failure.kind(), "timeout");
        assert!(err.failure.is_transient());
        assert!(err.to_string().contains("timed out"));
    }

    #[test]
    fn transient_failures_are_retried_and_attempts_counted() {
        // A 0ms deadline times out every attempt; with 2 retries the
        // runner must make exactly 3 attempts and still report the
        // timeout as the final outcome.
        let w = ubrc_workloads::workload_by_name("qsort", Scale::Default).unwrap();
        let opts = RunOptions {
            timeout: Some(Duration::from_millis(0)),
            retries: 2,
            ..RunOptions::default()
        };
        let cell = run_one_cell(&w, SimConfig::paper_default(), opts);
        assert_eq!(cell.attempts, 3);
        let err = cell.outcome.unwrap_err();
        assert_eq!(err.failure.kind(), "timeout");
    }

    #[test]
    fn deterministic_failures_are_never_retried() {
        // A rejected configuration fails identically every time; the
        // retry budget must not be spent on it.
        let mut cfg = SimConfig::paper_default();
        cfg.phys_regs = 8;
        let w = ubrc_workloads::workload_by_name("qsort", Scale::Tiny).unwrap();
        let opts = RunOptions {
            retries: 3,
            ..RunOptions::default()
        };
        let cell = run_one_cell(&w, cfg, opts);
        assert_eq!(cell.attempts, 1);
        let err = cell.outcome.unwrap_err();
        assert_eq!(err.failure.kind(), "config");
        assert!(!err.failure.is_transient());
    }

    #[test]
    fn successful_cells_report_one_attempt() {
        let w = ubrc_workloads::workload_by_name("crc", Scale::Tiny).unwrap();
        let opts = RunOptions {
            retries: 5,
            ..RunOptions::default()
        };
        let cell = run_one_cell(&w, SimConfig::paper_default(), opts);
        assert_eq!(cell.attempts, 1);
        assert!(cell.outcome.is_ok());
    }

    #[test]
    fn profiled_run_matches_unprofiled() {
        // `--profile` must be observation-only: identical simulated
        // outcome, with the wall-time attribution riding alongside.
        let w = ubrc_workloads::workload_by_name("crc", Scale::Tiny).unwrap();
        let plain = run_one_with(&w, SimConfig::paper_default(), RunOptions::default()).unwrap();
        let opts = RunOptions {
            profile: true,
            ..RunOptions::default()
        };
        let profiled = run_one_with(&w, SimConfig::paper_default(), opts).unwrap();
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
        let w = ubrc_workloads::workload_by_name("crc", Scale::Tiny).unwrap();
        let plain = run_one_with(&w, SimConfig::paper_default(), RunOptions::default()).unwrap();
        let opts = RunOptions {
            check: true,
            timeout: Some(Duration::from_secs(120)),
            ..RunOptions::default()
        };
        let checked = run_one_with(&w, SimConfig::paper_default(), opts).unwrap();
        assert_eq!(plain.cycles, checked.cycles);
        assert_eq!(plain.retired, checked.retired);
        assert_eq!(plain.replayed, checked.replayed);
        assert_eq!(plain.miss_events, checked.miss_events);
        assert_eq!(plain.operands_bypassed, checked.operands_bypassed);
    }
}
