//! The untraced end-to-end run: timed set-up, then a closed loop that
//! runs every cell of the workload back to back through the
//! `ubrc-bench` runner entry points until the time budget is spent.
//!
//! Host time is the process's on-CPU time. On a shared host, other
//! tenants slow the simulator by up to 1.7x for seconds or minutes at a
//! time. Each cell therefore runs between two chunks of a fixed
//! reference computation ([`crate::yardstick`]), its CPU time is scaled
//! to nominal host speed by the chunks' times, and the host metrics sum
//! each cell's cheapest scaled times in the run.

use crate::gate::{check_cell, references, Reference};
use crate::host::{cpu_timed, peak_rss_mb, CpuTime};
use crate::stats::{geomean, median};
use crate::workload::{Cell, Layout};
use crate::yardstick::{normalise, Yardstick, NOMINAL_CHUNK_S};
use std::time::{Duration, Instant};
use ubrc_bench::{run_group_cell, run_one_cell, RunOptions, SuiteCell};
use ubrc_sim::{SimResult, Simulator};
use ubrc_workloads::Workload;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// One timed set-up: generate every program, then for every cell
/// assemble its member programs and construct its simulator. A cell
/// that fails to assemble or construct fails again, and is counted, in
/// the runner passes.
pub fn setup_once(layout: &Layout) {
    let programs = layout.generate();
    for cell in &layout.cells {
        let assembled: Result<Vec<_>, _> = cell
            .members
            .iter()
            .map(|&p| programs[p].assemble())
            .collect();
        if let Ok(progs) = assembled {
            std::hint::black_box(Simulator::try_new_smt(progs, cell.config.clone()).ok());
        }
    }
}

/// Runs one cell through the runner, as the `experiments` harness does:
/// the runner assembles the members, builds the simulator and runs it.
pub fn run_cell_via_runner(cell: &Cell, programs: &[Workload]) -> SuiteCell {
    let opts = RunOptions::default();
    match cell.members.as_slice() {
        [one] => run_one_cell(&programs[*one], cell.config.clone(), opts),
        members => {
            let group: Vec<&Workload> = members.iter().map(|&p| &programs[p]).collect();
            run_group_cell(&group, cell.config.clone(), opts)
        }
    }
}

/// One gated cell run.
#[derive(Clone, Copy, Debug)]
pub struct CellRun {
    /// Process CPU seconds the cell took.
    pub cpu: f64,
    /// Mean CPU seconds of the reference chunks just before and just
    /// after the cell, when the pass ran them.
    pub reference: Option<f64>,
    /// Simulated instructions retired, all threads.
    pub retired: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated IPC (aggregate for SMT cells).
    pub ipc: f64,
}

impl CellRun {
    /// The cell's CPU seconds, normalised to nominal host speed when
    /// the pass ran reference chunks around it.
    pub fn cost(&self) -> f64 {
        self.reference.map_or(self.cpu, |r| normalise(self.cpu, r))
    }
}

/// One pass over every cell.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Process CPU time of the pass's cells (reference chunks excluded).
    pub cpu: CpuTime,
    /// Per-cell runs in cell order (`None` for failed cells).
    pub cells: Vec<Option<CellRun>>,
    /// Why each failed cell failed.
    pub failures: Vec<String>,
}

impl Pass {
    /// Runs every cell once through `run` (which returns the cell's
    /// outcome, with errors as text), timing each, between two chunks of
    /// `yardstick` when given, and gating each result.
    pub fn over(
        layout: &Layout,
        refs: &[Reference],
        mut yardstick: Option<&mut Yardstick>,
        mut run: impl FnMut(&Cell) -> Result<SimResult, String>,
    ) -> Pass {
        let mut pass = Pass::default();
        for cell in &layout.cells {
            let (outcome, cpu, reference) = match yardstick.as_deref_mut() {
                Some(y) => {
                    let (outcome, cpu, reference) = y.around(|| run(cell));
                    (outcome, cpu, Some(reference))
                }
                None => {
                    let (outcome, cpu) = cpu_timed(|| run(cell));
                    (outcome, cpu, None)
                }
            };
            pass.cpu.user += cpu.user;
            pass.cpu.sys += cpu.sys;
            match check_cell(cell, outcome.as_ref().map_err(String::clone), refs) {
                Ok(r) => pass.cells.push(Some(CellRun {
                    cpu: cpu.total(),
                    reference,
                    retired: r.retired,
                    cycles: r.cycles,
                    ipc: r.ipc(),
                })),
                Err(why) => {
                    pass.failures.push(why);
                    pass.cells.push(None);
                }
            }
        }
        pass
    }

    /// Simulated instructions per CPU second over the whole pass.
    pub fn insts_per_cpu_s(&self) -> f64 {
        let retired: u64 = self.cells.iter().flatten().map(|c| c.retired).sum();
        retired as f64 / self.cpu.total()
    }
}

/// Runs every cell once through the runner, between chunks of
/// `yardstick` when given, and gates each result.
pub fn runner_pass(
    layout: &Layout,
    programs: &[Workload],
    refs: &[Reference],
    yardstick: Option<&mut Yardstick>,
) -> Pass {
    Pass::over(layout, refs, yardstick, |cell| {
        run_cell_via_runner(cell, programs)
            .outcome
            .map_err(|e| e.to_string())
    })
}

/// Cheapest runs of a cell that [`cell_costs`] averages.
pub const LOWEST_RUNS: usize = 3;

/// Each cell's first successful run over `passes`, in cell order; `None`
/// for a cell that never succeeded.
pub fn first_runs(passes: &[Pass]) -> Vec<Option<CellRun>> {
    let ncells = passes.first().map_or(0, |p| p.cells.len());
    (0..ncells)
        .map(|c| passes.iter().find_map(|p| p.cells[c]))
        .collect()
}

/// Each cell's mean [`CellRun::cost`] over its [`LOWEST_RUNS`] cheapest
/// runs in `passes` (all of them when it ran fewer times), in cell
/// order; `None` for a cell that never succeeded.
///
/// The normalisation leaves some of the host's slowdown in, which only
/// ever adds time, so the cheapest runs are the truest; averaging a few
/// of them damps the error of any one pair of reference chunks.
pub fn cell_costs(passes: &[Pass]) -> Vec<Option<f64>> {
    let ncells = passes.first().map_or(0, |p| p.cells.len());
    (0..ncells)
        .map(|c| {
            let mut costs: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.cells[c].as_ref().map(CellRun::cost))
                .collect();
            costs.sort_by(f64::total_cmp);
            costs.truncate(LOWEST_RUNS);
            (!costs.is_empty()).then(|| costs.iter().sum::<f64>() / costs.len() as f64)
        })
        .collect()
}

/// Sum over the cells of [`cell_costs`].
pub fn total_cost(passes: &[Pass]) -> f64 {
    cell_costs(passes).iter().flatten().sum()
}

/// The end-to-end figures of one run.
#[derive(Clone, Debug)]
pub struct E2eReport {
    /// Simulated instructions retired per normalised CPU second, each
    /// cell at its [`cell_costs`] time.
    pub sim_insts_per_cpu_s: f64,
    /// Normalised CPU nanoseconds per simulated cycle, each cell at its
    /// [`cell_costs`] time.
    pub host_ns_per_cycle: f64,
    /// Median normalised CPU seconds of one set-up.
    pub setup_s: f64,
    /// Geometric-mean simulated IPC over the cells.
    pub sim_ipc_geomean: f64,
    /// Simulated cycles summed over the cells.
    pub sim_cycles: u64,
    /// Median over passes of whole-pass instructions per CPU second,
    /// not normalised (printed for comparison; other tenants move it).
    pub pass_median_insts_per_cpu_s: f64,
    /// Median over every reference chunk pair of its mean CPU time over
    /// the nominal: how much slower than nominal the host ran.
    pub host_slowdown: f64,
    /// Passes completed.
    pub passes: usize,
    /// Cell runs attempted, over every pass.
    pub cells_run: usize,
    /// Why each failed cell run failed.
    pub failures: Vec<String>,
}

/// Runs the untraced end-to-end measurement: [`SETUP_REPS`] timed
/// set-ups, the functional reference, then passes over every cell until
/// `budget` of wall time has gone (at least one pass). Every set-up and
/// cell runs between two reference chunks. A cell whose
/// simulated cycles differ between passes also fails: the simulator is
/// deterministic, so the same cell must repeat exactly.
pub fn run(layout: &Layout, budget: Duration) -> E2eReport {
    let mut yardstick = Yardstick::new();
    let mut chunks = Vec::new();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let ((), cpu, reference) = yardstick.around(|| setup_once(layout));
            chunks.push(reference);
            normalise(cpu.total(), reference)
        })
        .collect();
    let programs = layout.generate();
    let refs = references(&programs);

    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < budget {
        passes.push(runner_pass(layout, &programs, &refs, Some(&mut yardstick)));
    }
    let cell_runs = passes.iter().flat_map(|p| &p.cells).flatten();
    chunks.extend(cell_runs.filter_map(|c| c.reference));

    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    let first = first_runs(&passes);
    for pass in &passes {
        for ((cell, a), b) in layout.cells.iter().zip(&first).zip(&pass.cells) {
            if let (Some(a), Some(b)) = (a, b) {
                if a.cycles != b.cycles {
                    failures.push(format!(
                        "{}: simulated {} cycles in one pass and {} in another",
                        cell.label, a.cycles, b.cycles
                    ));
                }
            }
        }
    }
    let ran = first.iter().flatten();
    let retired: u64 = ran.clone().map(|c| c.retired).sum();
    let cycles: u64 = ran.clone().map(|c| c.cycles).sum();
    let ipcs: Vec<f64> = ran.map(|c| c.ipc).collect();
    let cpu = total_cost(&passes);
    E2eReport {
        sim_insts_per_cpu_s: retired as f64 / cpu,
        host_ns_per_cycle: cpu * 1e9 / cycles as f64,
        setup_s: median(setups),
        sim_ipc_geomean: geomean(&ipcs),
        sim_cycles: cycles,
        pass_median_insts_per_cpu_s: median(passes.iter().map(Pass::insts_per_cpu_s).collect()),
        host_slowdown: median(chunks) / NOMINAL_CHUNK_S,
        passes: passes.len(),
        cells_run: passes.len() * layout.cells.len(),
        failures,
    }
}

/// Peak resident memory, in MiB, of one runner pass over every cell,
/// with the gate's failures. Meant for a fresh process in which
/// [`crate::host::map_large_allocations_fresh`] was called first, so the
/// peak is the largest memory demand of any one cell.
pub fn rss_probe(layout: &Layout) -> (f64, Vec<String>) {
    let programs = layout.generate();
    let refs = references(&programs);
    let pass = runner_pass(layout, &programs, &refs, None);
    (peak_rss_mb().unwrap_or(f64::NAN), pass.failures)
}
