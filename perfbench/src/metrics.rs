//! Every metric the benchmark prints, with its unit and direction, and
//! for each per-layer metric the end-to-end metric it should move and
//! the workload where it should move most. `BENCHMARK.json` lists the
//! same names and units; a self-test keeps the two in step.

/// Whether a larger or a smaller value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For a per-layer metric: the end-to-end metric it should move,
    /// and on which workloads. For an end-to-end metric: what it is.
    pub meaning: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        meaning,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
/// Simulated means the modelled machine; host means the simulator's own
/// on-CPU time (user + system, all threads), never wall time.
pub const END_TO_END: &[MetricDef] = &[
    m("sim_insts_per_cpu_s", "insts/s", Higher,
      "simulated instructions retired (all cells, all threads) per host CPU second at nominal host speed; each cell at the mean of its three cheapest normalised runs"),
    m("host_ns_per_cycle", "ns", Lower,
      "host CPU nanoseconds per simulated cycle at nominal host speed; each cell at the mean of its three cheapest normalised runs"),
    m("setup_s", "s", Lower,
      "host CPU seconds at nominal host speed to generate, assemble and construct every cell; median of the set-up repetitions"),
    m("peak_rss_mb", "MiB", Lower, "peak resident memory (VmHWM) of one pass over the cells in a fresh process, large blocks mapped fresh: the largest demand of one cell"),
    m("sim_ipc_geomean", "insts/cycle", Higher,
      "geometric-mean simulated IPC over the cells (aggregate IPC for SMT cells); deterministic"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`), named
/// `<crate>.<metric>`.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.generate_s", "s", Lower,
      "setup_s and peak_rss_mb; most on soft-recovery and smt4-dynpart"),
    m("isa.assemble_s", "s", Lower, "setup_s; most on soft-recovery and smt4-dynpart"),
    m("isa.assembled_insts_per_s", "insts/s", Higher,
      "setup_s; most on soft-recovery and smt4-dynpart"),
    m("sim.construct_s", "s", Lower,
      "setup_s and peak_rss_mb; most on soft-recovery and smt4-dynpart"),
    m("emu.machine_new_s", "s", Lower,
      "setup_s and peak_rss_mb; most on soft-recovery and smt4-dynpart"),
    m("emu.steps_per_s", "steps/s", Higher,
      "sim_insts_per_cpu_s, about equally on every workload"),
    m("frontend.pred_ops_per_s", "ops/s", Higher, "sim_insts_per_cpu_s on every workload"),
    m("frontend.cond_mispredict_ratio", "ratio", Lower,
      "sim_insts_per_cpu_s and host_ns_per_cycle on every workload"),
    m("frontend.douse_accuracy", "ratio", Higher,
      "sim_ipc_geomean on the cached workloads"),
    m("memsys.accesses_per_s", "ops/s", Higher, "sim_insts_per_cpu_s on every workload"),
    m("memsys.d_l1_miss_per_kinst", "1/kinst", Lower,
      "host_ns_per_cycle on every workload"),
    m("core.regcache_ops_per_s", "ops/s", Higher,
      "sim_insts_per_cpu_s on st-usebased, smt4-dynpart and soft-recovery; no change on st-monolithic"),
    m("core.read_hit_ratio", "ratio", Higher,
      "sim_ipc_geomean on the cached workloads; 0 on st-monolithic"),
    m("core.writes_filtered_ratio", "ratio", Higher,
      "sim_insts_per_cpu_s on the cached workloads; 0 on st-monolithic"),
    m("core.backing_contention_per_kcycle", "1/kcycle", Lower,
      "sim_ipc_geomean on the cached workloads; 0 on st-monolithic"),
    m("sim.stage.fetch.share", "ratio", Lower, "host_ns_per_cycle on every workload"),
    m("sim.stage.rename.share", "ratio", Lower, "host_ns_per_cycle on every workload"),
    m("sim.stage.issue.share", "ratio", Lower,
      "host_ns_per_cycle; largest on smt4-dynpart and soft-recovery"),
    m("sim.stage.execute.share", "ratio", Lower, "host_ns_per_cycle on every workload"),
    m("sim.stage.retire.share", "ratio", Lower, "host_ns_per_cycle on every workload"),
    m("sim.stage.storage-tick.share", "ratio", Lower,
      "host_ns_per_cycle; no work on any workload (two-level storage only)"),
    m("sim.stage.epoch.share", "ratio", Lower,
      "host_ns_per_cycle on smt4-dynpart only"),
    m("sim.stage.inject.share", "ratio", Lower,
      "host_ns_per_cycle on soft-recovery only"),
    m("sim.replayed_per_kinst", "1/kinst", Lower, "host_ns_per_cycle on every workload"),
    m("sim.wrong_path_squashed_per_kinst", "1/kinst", Lower,
      "host_ns_per_cycle on every workload"),
    m("sim.recoveries", "count", Lower, "host_ns_per_cycle on soft-recovery only"),
    m("sim.machine_checks", "count", Lower, "host_ns_per_cycle on soft-recovery only"),
    m("bench.runner_overhead_ratio", "ratio", Lower,
      "sim_insts_per_cpu_s on every workload"),
    m("bench.sys_cpu_ratio", "ratio", Lower, "sim_insts_per_cpu_s on every workload"),
    m("trace.overhead_ratio", "ratio", Lower, "diagnostic: traced vs untraced CPU time"),
    m("host.steal_ratio", "ratio", Lower, "diagnostic: machine CPU steal over the run"),
    m("host.slowdown_ratio", "ratio", Lower,
      "diagnostic: median reference-chunk CPU time over its nominal, the host slowdown that normalised times remove"),
];

/// Looks up a metric definition by name in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
