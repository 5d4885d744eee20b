//! The benchmark's workloads: which programs each one generates from
//! the seed, how they are grouped into simulation cells, and the
//! simulator configuration every cell runs under.

use ubrc_core::{CachePartition, IndexPolicy, ProtectionConfig, RegCacheConfig};
use ubrc_sim::{FaultKind, FaultPlan, RecoveryPolicy, RegStorage, SimConfig};
use ubrc_workloads::synthetic::SyntheticSpec;
use ubrc_workloads::{kernel_quads, suite, Scale, Workload};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchWorkload {
    /// Single-thread programs at the paper's design point.
    StUsebased,
    /// The same programs on a monolithic 3-cycle register file.
    StMonolithic,
    /// Four-thread co-schedules under dynamic cache partitioning.
    Smt4Dynpart,
    /// The single-thread programs with parity protection, periodic
    /// faults and recovery.
    SoftRecovery,
}

impl BenchWorkload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [BenchWorkload; 4] = [
        BenchWorkload::StUsebased,
        BenchWorkload::StMonolithic,
        BenchWorkload::Smt4Dynpart,
        BenchWorkload::SoftRecovery,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::StUsebased => "st-usebased",
            BenchWorkload::StMonolithic => "st-monolithic",
            BenchWorkload::Smt4Dynpart => "smt4-dynpart",
            BenchWorkload::SoftRecovery => "soft-recovery",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: the measured size, or a reduced one for self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Default-scale kernels and full-length synthetic programs.
    Full,
    /// Tiny-scale kernels and short synthetic programs.
    Smoke,
}

impl Size {
    fn scale(self) -> Scale {
        match self {
            Size::Full => Scale::Default,
            Size::Smoke => Scale::Tiny,
        }
    }
}

/// A simulation cell: the programs co-scheduled on one core (one per
/// hardware thread, as indices into the programs [`generate`] returns)
/// and the configuration they run under.
#[derive(Clone, Debug)]
pub struct Cell {
    /// `program` or `a+b+c+d`, suffixed with the configuration name.
    pub label: String,
    /// Indices of the member programs, one per hardware thread.
    pub members: Vec<usize>,
    /// Simulator configuration.
    pub config: SimConfig,
}

/// The static shape of a workload run: its cells. Programs themselves
/// come from [`generate`], which is the timed part of set-up.
#[derive(Clone, Debug)]
pub struct Layout {
    /// Which workload this is.
    pub workload: BenchWorkload,
    /// The workload seed.
    pub seed: u64,
    /// Problem size.
    pub size: Size,
    /// The cells, in the order every pass runs them.
    pub cells: Vec<Cell>,
}

/// Names given to the generated synthetic programs (the generator
/// names every program `synthetic`).
const SYNTH_NAMES: [&str; 4] = [
    "synth-single-use",
    "synth-high-use",
    "synth-dead-value",
    "synth-single-use-b",
];

/// The seeded synthetic programs of a workload: the two single-thread
/// workloads take the first two, the four-thread one all four.
///
/// Each keeps its preset's degree-of-use distribution and dynamic
/// length, but generates a 1200-instruction loop body run 20 times
/// instead of a 60-instruction body run 400 times: a short body's IPC
/// swings several-fold from one seed to the next, which would make the
/// workload's figures depend on the seed more than on the simulator.
fn synthetic_specs(seed: u64, count: usize, size: Size) -> Vec<SyntheticSpec> {
    let specs = [
        SyntheticSpec::single_use_heavy(seed),
        SyntheticSpec::high_use(seed),
        SyntheticSpec::dead_value_heavy(seed),
        SyntheticSpec::single_use_heavy(seed.wrapping_add(1)),
    ];
    let blocks = match size {
        Size::Full => 20,
        Size::Smoke => 2,
    };
    specs
        .into_iter()
        .take(count)
        .map(|spec| SyntheticSpec {
            blocks,
            block_len: 1200,
            ..spec
        })
        .collect()
}

fn synthetic_count(workload: BenchWorkload) -> usize {
    match workload {
        BenchWorkload::Smt4Dynpart => 4,
        _ => 2,
    }
}

/// Generates every program of the workload: the twelve suite kernels
/// (their inputs come from fixed seeds inside `ubrc-workloads`), then
/// the synthetic programs generated from `seed`.
pub fn generate(workload: BenchWorkload, seed: u64, size: Size) -> Vec<Workload> {
    let mut programs = suite(size.scale());
    for (spec, name) in synthetic_specs(seed, synthetic_count(workload), size)
        .iter()
        .zip(SYNTH_NAMES)
    {
        let mut w = spec.build();
        w.name = name;
        programs.push(w);
    }
    programs
}

/// A cached configuration on the Table 1 machine with a 2-cycle
/// backing file.
fn cached(cache: RegCacheConfig, index: IndexPolicy) -> SimConfig {
    SimConfig::table1(RegStorage::Cached {
        cache,
        index,
        backing_read: 2,
        backing_write: 2,
    })
}

/// The configurations a workload runs every cell under, with a short
/// name for cell labels.
fn configs(workload: BenchWorkload, seed: u64) -> Vec<(&'static str, SimConfig)> {
    match workload {
        BenchWorkload::StUsebased => vec![("use-based", SimConfig::paper_default())],
        BenchWorkload::StMonolithic => vec![(
            "rf-3",
            SimConfig::table1(RegStorage::Monolithic {
                read_latency: 3,
                write_latency: 3,
            }),
        )],
        BenchWorkload::Smt4Dynpart => {
            let mut lru = RegCacheConfig::lru(64, 4);
            lru.partition = CachePartition::DynamicCap {
                epoch_cycles: 128,
                min_cap: 4,
            };
            vec![
                (
                    "use-based-dynway",
                    SimConfig::table1(RegStorage::dynamic_way(64, 8, 128)),
                ),
                ("lru-dyncap", cached(lru, IndexPolicy::RoundRobin)),
            ]
        }
        BenchWorkload::SoftRecovery => {
            let protected = |plan: FaultPlan| {
                let mut cache = RegCacheConfig::use_based(64, 2);
                cache.protection = ProtectionConfig::full();
                let mut cfg = cached(cache, IndexPolicy::FilteredRoundRobin);
                cfg.recovery = RecoveryPolicy::enabled();
                cfg.fault_plan = Some(plan);
                cfg
            };
            vec![
                (
                    "cache-p200",
                    protected(FaultPlan::periodic(seed, 200, FaultKind::FlipCacheData)),
                ),
                (
                    "backing-p400",
                    protected(FaultPlan::periodic(
                        seed.wrapping_add(1),
                        400,
                        FaultKind::FlipBackingWord,
                    )),
                ),
            ]
        }
    }
}

impl Layout {
    /// The cells of `workload` at `seed`: every program alone for the
    /// single-thread workloads; the three suite quads plus one quad of
    /// the synthetic programs for the four-thread workload. Where a
    /// workload has two configurations, the groups alternate between
    /// them: every configuration still sees kernels and synthetic
    /// programs, and a pass is half as long, so each cell is timed twice
    /// as often in a run.
    pub fn new(workload: BenchWorkload, seed: u64, size: Size) -> Self {
        let mut program_names: Vec<&'static str> =
            suite(Scale::Tiny).iter().map(|w| w.name).collect();
        let kernels = program_names.len();
        program_names.extend(&SYNTH_NAMES[..synthetic_count(workload)]);
        let index = |name: &str| {
            program_names
                .iter()
                .position(|&n| n == name)
                .expect("every quad member is a suite kernel")
        };
        let groups: Vec<Vec<usize>> = match workload {
            BenchWorkload::Smt4Dynpart => {
                let mut quads: Vec<Vec<usize>> = kernel_quads(Scale::Tiny)
                    .iter()
                    .map(|quad| quad.iter().map(|w| index(w.name)).collect())
                    .collect();
                quads.push((kernels..program_names.len()).collect());
                quads
            }
            _ => (0..program_names.len()).map(|i| vec![i]).collect(),
        };
        let configs = configs(workload, seed);
        let cells = groups
            .into_iter()
            .enumerate()
            .map(|(g, members)| {
                let names: Vec<&str> = members.iter().map(|&i| program_names[i]).collect();
                let (config_name, config) = &configs[g % configs.len()];
                Cell {
                    label: format!("{}@{config_name}", names.join("+")),
                    members,
                    config: config.clone(),
                }
            })
            .collect();
        Self {
            workload,
            seed,
            size,
            cells,
        }
    }

    /// Generates this layout's programs (see [`generate`]).
    pub fn generate(&self) -> Vec<Workload> {
        generate(self.workload, self.seed, self.size)
    }
}
