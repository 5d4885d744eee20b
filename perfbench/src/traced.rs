//! The traced run: every layer call of set-up, simulation and the layer
//! replays inside a span, the simulator's per-stage profile switched
//! on, and an untraced direct pass and runner pass alongside so the run
//! can state its own overhead and the runner's.

use crate::e2e::{runner_pass, total_cost, Pass};
use crate::gate::references;
use crate::host::CpuTicks;
use crate::replay;
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::workload::{Cell, Layout};
use crate::yardstick::{Yardstick, NOMINAL_CHUNK_S};
use std::time::{Duration, Instant};
use ubrc_emu::Machine;
use ubrc_isa::Program;
use ubrc_sim::{SimConfig, SimResult, Simulator};

/// A stage whose per-call cost exceeds the profiler's own timer cost by
/// less than this share of it is reported as doing no work: the
/// profiler cannot resolve smaller costs.
const STAGE_RESOLUTION: f64 = 0.25;

/// The per-layer figures of one traced run.
#[derive(Debug)]
pub struct TracedReport {
    /// `(metric name, value)` for every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Cell runs attempted over every pass.
    pub cells_run: usize,
    /// Why each failed cell run failed.
    pub failures: Vec<String>,
    /// The recorded spans.
    pub tracer: Tracer,
}

/// Simulator counters summed over the cells of one pass.
#[derive(Debug, Default)]
struct SimCounters {
    retired: u64,
    cycles: u64,
    cond_branches: u64,
    branch_mispredicts: u64,
    douse_predicted: u64,
    douse_correct: u64,
    d_l1_misses: u64,
    cache_reads: u64,
    cache_read_hits: u64,
    writes_attempted: u64,
    writes_filtered: u64,
    backing_contention: u64,
    replayed: u64,
    wrong_path_squashed: u64,
    recoveries: u64,
    machine_checks: u64,
}

impl SimCounters {
    fn add(&mut self, r: &SimResult) {
        self.retired += r.retired;
        self.cycles += r.cycles;
        self.cond_branches += r.cond_branches;
        self.branch_mispredicts += r.branch_mispredicts;
        self.douse_predicted += r.douse.predicted;
        self.douse_correct += r.douse.correct;
        self.d_l1_misses += r.memsys.d_l1_buffer + r.memsys.d_l2 + r.memsys.d_memory;
        if let Some(c) = &r.regcache {
            self.cache_reads += c.reads;
            self.cache_read_hits += c.read_hits;
            self.writes_attempted += c.writes_attempted;
            self.writes_filtered += c.writes_filtered;
        }
        if let Some(b) = &r.backing {
            self.backing_contention += b.port_contention_cycles;
        }
        self.replayed += r.replayed;
        self.wrong_path_squashed += r.wrong_path_squashed;
        self.recoveries += r.recoveries;
        self.machine_checks += r.machine_checks;
    }

    fn per_kinst(&self, count: u64) -> f64 {
        ratio(count as f64 * 1000.0, self.retired as f64)
    }
}

/// Per-stage profile totals, in schedule order.
#[derive(Debug, Default)]
struct StageTotals(Vec<(&'static str, u64, u64)>);

impl StageTotals {
    fn add(&mut self, r: &SimResult) {
        let Some(p) = &r.profile else { return };
        for s in &p.stages {
            match self.0.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some((_, nanos, calls)) => {
                    *nanos += s.nanos;
                    *calls += s.calls;
                }
                None => self.0.push((s.name, s.nanos, s.calls)),
            }
        }
    }

    /// Each stage's share of the profiled time net of the profiler's own
    /// timer cost. That cost is the per-call time of the cheapest stage
    /// (`storage-tick`, which does nothing outside two-level storage);
    /// a stage within [`STAGE_RESOLUTION`] of it counts as no work.
    fn shares(&self) -> Vec<(&'static str, f64)> {
        let floor = self
            .0
            .iter()
            .filter(|&&(_, _, calls)| calls > 0)
            .map(|&(_, nanos, calls)| nanos as f64 / calls as f64)
            .fold(f64::INFINITY, f64::min);
        let work: Vec<(&'static str, f64)> = self
            .0
            .iter()
            .map(|&(name, nanos, calls)| {
                let excess = nanos as f64 - floor * calls as f64;
                let resolvable = excess > STAGE_RESOLUTION * floor * calls as f64;
                (name, if resolvable { excess } else { 0.0 })
            })
            .collect();
        let total: f64 = work.iter().map(|(_, w)| w).sum();
        work.into_iter()
            .map(|(n, w)| (n, ratio(w, total)))
            .collect()
    }
}

/// Builds and runs one cell directly, without the runner.
fn simulate_direct(programs: Vec<Program>, config: SimConfig) -> Result<SimResult, String> {
    let sim = Simulator::try_new_smt(programs, config).map_err(|e| e.to_string())?;
    sim.run_checked().map_err(|e| e.to_string())
}

/// Runs the traced measurement of `layout` for about `budget` of wall
/// time (at least one round of passes, then the replays once).
pub fn run(layout: &Layout, budget: Duration) -> TracedReport {
    let ticks_start = CpuTicks::now();
    let mut t = Tracer::new();
    let mut failures = Vec::new();
    let mut cells_run = 0;

    // Set-up, one span per layer call.
    let programs = t.span("workloads.generate", "all", |_| layout.generate());
    let refs = t.span("gate.functional_reference", "all", |_| {
        references(&programs)
    });
    let mut assembled: Vec<Option<Program>> = Vec::with_capacity(programs.len());
    for w in &programs {
        match t.span("isa.assemble", w.name, |_| w.assemble()) {
            Ok(p) => assembled.push(Some(p)),
            Err(e) => {
                failures.push(format!("{}: assembly failed: {e}", w.name));
                assembled.push(None);
            }
        }
    }
    let static_insts: usize = assembled.iter().flatten().map(|p| p.text.len()).sum();
    for (w, p) in programs.iter().zip(&assembled) {
        if let Some(p) = p.clone() {
            t.span("emu.machine_new", w.name, |_| {
                std::hint::black_box(Machine::new(p))
            });
        }
    }
    let cell_programs = |cell: &Cell| -> Result<Vec<Program>, String> {
        cell.members
            .iter()
            .map(|&p| assembled[p].clone())
            .collect::<Option<_>>()
            .ok_or_else(|| "a member failed to assemble".to_string())
    };

    // Rounds of (traced pass, untraced direct pass, runner pass), every
    // cell between reference chunks so the overhead ratios compare
    // normalised times.
    let mut yardstick = Yardstick::new();
    let mut counters = SimCounters::default();
    let mut stages = StageTotals::default();
    let (mut traced, mut direct, mut runner) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < budget {
        let first_round = traced.is_empty();
        traced.push(Pass::over(layout, &refs, Some(&mut yardstick), |cell| {
            let mut config = cell.config.clone();
            config.profile = true;
            let progs = cell_programs(cell)?;
            let sim = t
                .span("sim.construct", &cell.label, |_| {
                    Simulator::try_new_smt(progs, config)
                })
                .map_err(|e| e.to_string())?;
            let res = t.span("sim.run_checked", &cell.label, |_| sim.run_checked());
            let id = t.last().expect("the run span was just recorded");
            let r = res.map_err(|e| e.to_string())?;
            if let Some(p) = &r.profile {
                t.nest_profile(id, p.stages.iter().map(|s| (s.name, s.nanos)));
            }
            if first_round {
                counters.add(&r);
            }
            stages.add(&r);
            Ok(r)
        }));
        direct.push(Pass::over(layout, &refs, Some(&mut yardstick), |cell| {
            simulate_direct(cell_programs(cell)?, cell.config.clone())
        }));
        runner.push(runner_pass(layout, &programs, &refs, Some(&mut yardstick)));
    }
    for pass in traced.iter().chain(&direct).chain(&runner) {
        cells_run += pass.cells.len();
        failures.extend(pass.failures.iter().cloned());
    }
    let direct_cpu = total_cost(&direct);
    let trace_overhead = total_cost(&traced) / direct_cpu;
    let runner_overhead = total_cost(&runner) / direct_cpu;
    let chunks = traced.iter().chain(&direct).chain(&runner);
    let chunks = chunks.flat_map(|p| &p.cells).flatten();
    let slowdown = median(chunks.filter_map(|c| c.reference).collect()) / NOMINAL_CHUNK_S;
    let sys_ratio = median(runner.iter().map(|p| p.cpu.sys / p.cpu.total()).collect());
    let rounds = traced.len();

    // Layer replays over each program's functional stream.
    let mut steps = 0u64;
    let mut frontend_calls = 0u64;
    let mut memsys_calls = 0u64;
    let mut dataflow = Vec::with_capacity(programs.len());
    let mem_config = layout.cells[0].config.memsys;
    for (w, p) in programs.iter().zip(&assembled) {
        let Some(p) = p else {
            dataflow.push(Vec::new());
            continue;
        };
        let mut m = Machine::new(p.clone());
        steps += t
            .span("emu.run", w.name, |_| m.run(w.max_steps))
            .unwrap_or(0);
        let records = match t.span("emu.record", w.name, |_| {
            replay::record_stream(p.clone(), w.max_steps)
        }) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("{}: functional run failed: {e}", w.name));
                Vec::new()
            }
        };
        frontend_calls += t.span("frontend.replay", w.name, |_| replay::frontend(&records));
        memsys_calls += t.span("memsys.replay", w.name, |_| {
            replay::memsys(&records, mem_config)
        });
        dataflow.push(t.span("replay.dataflow", w.name, |_| replay::dataflow(&records)));
    }
    let mut core_calls = 0u64;
    for cell in &layout.cells {
        let streams: Vec<&[_]> = cell
            .members
            .iter()
            .map(|&p| dataflow[p].as_slice())
            .collect();
        core_calls += t.span("core.replay", &cell.label, |_| {
            replay::core(&streams, &cell.config)
        });
    }

    let steal = match (ticks_start, CpuTicks::now()) {
        (Some(a), Some(b)) => b.steal_ratio_since(a),
        _ => 0.0,
    };
    let c = &counters;
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("workloads.generate_s", t.cpu_of("workloads.generate")),
        ("isa.assemble_s", t.cpu_of("isa.assemble")),
        (
            "isa.assembled_insts_per_s",
            ratio(static_insts as f64, t.cpu_of("isa.assemble")),
        ),
        ("sim.construct_s", t.cpu_of("sim.construct") / rounds as f64),
        ("emu.machine_new_s", t.cpu_of("emu.machine_new")),
        ("emu.steps_per_s", ratio(steps as f64, t.cpu_of("emu.run"))),
        (
            "frontend.pred_ops_per_s",
            ratio(frontend_calls as f64, t.cpu_of("frontend.replay")),
        ),
        (
            "frontend.cond_mispredict_ratio",
            ratio(c.branch_mispredicts as f64, c.cond_branches as f64),
        ),
        (
            "frontend.douse_accuracy",
            ratio(c.douse_correct as f64, c.douse_predicted as f64),
        ),
        (
            "memsys.accesses_per_s",
            ratio(memsys_calls as f64, t.cpu_of("memsys.replay")),
        ),
        ("memsys.d_l1_miss_per_kinst", c.per_kinst(c.d_l1_misses)),
        (
            "core.regcache_ops_per_s",
            ratio(core_calls as f64, t.cpu_of("core.replay")),
        ),
        (
            "core.read_hit_ratio",
            ratio(c.cache_read_hits as f64, c.cache_reads as f64),
        ),
        (
            "core.writes_filtered_ratio",
            ratio(c.writes_filtered as f64, c.writes_attempted as f64),
        ),
        (
            "core.backing_contention_per_kcycle",
            ratio(c.backing_contention as f64 * 1000.0, c.cycles as f64),
        ),
    ];
    let shares = stages.shares();
    for (stage, metric) in [
        ("fetch", "sim.stage.fetch.share"),
        ("rename", "sim.stage.rename.share"),
        ("issue", "sim.stage.issue.share"),
        ("execute", "sim.stage.execute.share"),
        ("retire", "sim.stage.retire.share"),
        ("storage-tick", "sim.stage.storage-tick.share"),
        ("epoch", "sim.stage.epoch.share"),
        ("inject", "sim.stage.inject.share"),
    ] {
        let share = shares
            .iter()
            .find(|(n, _)| *n == stage)
            .map_or(0.0, |&(_, s)| s);
        metrics.push((metric, share));
    }
    metrics.extend([
        ("sim.replayed_per_kinst", c.per_kinst(c.replayed)),
        (
            "sim.wrong_path_squashed_per_kinst",
            c.per_kinst(c.wrong_path_squashed),
        ),
        ("sim.recoveries", c.recoveries as f64),
        ("sim.machine_checks", c.machine_checks as f64),
        ("bench.runner_overhead_ratio", runner_overhead),
        ("bench.sys_cpu_ratio", sys_ratio),
        ("trace.overhead_ratio", trace_overhead),
        ("host.steal_ratio", steal),
        ("host.slowdown_ratio", slowdown),
    ]);
    TracedReport {
        metrics,
        cells_run,
        failures,
        tracer: t,
    }
}
