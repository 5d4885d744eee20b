//! Single-run simulator CLI: run one bundled kernel (or an assembly
//! file) under a chosen register storage organization and print a full
//! statistics report.
//!
//! ```text
//! simulate <kernel-name|path.s> [--storage use-based|lru|non-bypass|mono1|mono2|mono3|two-level]
//!          [--entries N] [--ways N] [--backing N] [--scale tiny|small|default]
//!          [--list] [--trace N]
//! ```
//!
//! `--list` prints the disassembly before simulating; `--trace N`
//! renders a pipeline diagram of the first N instructions.
//!
//! Exit status: 0 on success, 2 for bad arguments, an unreadable or
//! unassemblable program, or a configuration the simulator rejects,
//! and 1 when the simulation itself fails (for example, the program's
//! functional execution faults).

use ubrc_core::{IndexPolicy, RegCacheConfig, TwoLevelConfig};
use ubrc_isa::assemble;
use ubrc_sim::{RegStorage, SimConfig, SimResult, Simulator};
use ubrc_stats::Table;
use ubrc_workloads::{workload_by_name, Scale};

struct Options {
    target: String,
    storage: String,
    entries: usize,
    ways: usize,
    backing: u32,
    scale: Scale,
    list: bool,
    trace: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        target: String::new(),
        storage: "use-based".into(),
        entries: 64,
        ways: 2,
        backing: 2,
        scale: Scale::Default,
        list: false,
        trace: 0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or(format!("missing value after {arg}"))
        };
        match arg.as_str() {
            "--storage" => opts.storage = value(&mut i)?,
            "--entries" => {
                opts.entries = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --entries: {e}"))?
            }
            "--ways" => {
                opts.ways = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --ways: {e}"))?
            }
            "--backing" => {
                opts.backing = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --backing: {e}"))?
            }
            "--list" => opts.list = true,
            "--trace" => {
                opts.trace = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --trace: {e}"))?
            }
            "--scale" => {
                opts.scale = match value(&mut i)?.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "default" => Scale::Default,
                    other => return Err(format!("unknown scale `{other}`")),
                }
            }
            other if opts.target.is_empty() && !other.starts_with('-') => {
                opts.target = other.to_string()
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    if opts.target.is_empty() {
        return Err("no kernel or file given".into());
    }
    Ok(opts)
}

fn storage_of(opts: &Options) -> Result<RegStorage, String> {
    let cached = |cache| RegStorage::Cached {
        cache,
        index: IndexPolicy::FilteredRoundRobin,
        backing_read: opts.backing,
        backing_write: opts.backing,
    };
    Ok(match opts.storage.as_str() {
        "use-based" => cached(RegCacheConfig::use_based(opts.entries, opts.ways)),
        "lru" => RegStorage::Cached {
            cache: RegCacheConfig::lru(opts.entries, opts.ways),
            index: IndexPolicy::RoundRobin,
            backing_read: opts.backing,
            backing_write: opts.backing,
        },
        "non-bypass" => RegStorage::Cached {
            cache: RegCacheConfig::non_bypass(opts.entries, opts.ways),
            index: IndexPolicy::RoundRobin,
            backing_read: opts.backing,
            backing_write: opts.backing,
        },
        "mono1" => RegStorage::Monolithic {
            read_latency: 1,
            write_latency: 1,
        },
        "mono2" => RegStorage::Monolithic {
            read_latency: 2,
            write_latency: 2,
        },
        "mono3" => RegStorage::Monolithic {
            read_latency: 3,
            write_latency: 3,
        },
        "two-level" => RegStorage::TwoLevel(TwoLevelConfig::optimistic(opts.entries + 32)),
        other => return Err(format!("unknown storage `{other}`")),
    })
}

fn report(r: &SimResult) {
    let mut t = Table::new(["metric", "value"]);
    t.row(["cycles".to_string(), r.cycles.to_string()]);
    t.row(["instructions retired".to_string(), r.retired.to_string()]);
    t.row(["IPC".to_string(), format!("{:.4}", r.ipc())]);
    t.row([
        "branch mispredict rate".to_string(),
        r.branch_mispredict_rate()
            .map(|v| format!("{:.2}%", v * 100.0))
            .unwrap_or_else(|| "-".into()),
    ]);
    t.row([
        "operands from bypass".to_string(),
        r.bypass_fraction()
            .map(|v| format!("{:.1}%", v * 100.0))
            .unwrap_or_else(|| "-".into()),
    ]);
    if let Some(c) = &r.regcache {
        t.row([
            "regcache miss rate (per operand)".to_string(),
            r.miss_rate_per_operand()
                .map(|v| format!("{:.2}%", v * 100.0))
                .unwrap_or_else(|| "-".into()),
        ]);
        t.row([
            "regcache miss rate (per read)".to_string(),
            c.miss_rate()
                .map(|v| format!("{:.2}%", v * 100.0))
                .unwrap_or_else(|| "-".into()),
        ]);
        t.row([
            "writes filtered".to_string(),
            c.frac_writes_filtered()
                .map(|v| format!("{:.1}%", v * 100.0))
                .unwrap_or_else(|| "-".into()),
        ]);
        t.row([
            "avg occupancy".to_string(),
            c.occupancy
                .average(r.cycles)
                .map(|v| format!("{v:.1} entries"))
                .unwrap_or_else(|| "-".into()),
        ]);
        t.row(["replayed instructions".to_string(), r.replayed.to_string()]);
    }
    if let Some(b) = &r.backing {
        t.row(["backing file reads".to_string(), b.reads.to_string()]);
        t.row(["backing file writes".to_string(), b.writes.to_string()]);
    }
    if let Some(tl) = &r.twolevel {
        t.row(["L1→L2 transfers".to_string(), tl.transfers.to_string()]);
        t.row([
            "rename alloc stalls".to_string(),
            tl.alloc_failures.to_string(),
        ]);
        t.row([
            "recovered registers".to_string(),
            tl.recovered_regs.to_string(),
        ]);
    }
    t.row([
        "degree-of-use accuracy".to_string(),
        r.douse
            .accuracy()
            .map(|v| format!("{:.1}%", v * 100.0))
            .unwrap_or_else(|| "-".into()),
    ]);
    println!("{t}");
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: simulate <kernel|file.s> [--storage use-based|lru|non-bypass|mono1|mono2|mono3|two-level] [--entries N] [--ways N] [--backing N] [--scale S]"
            );
            std::process::exit(2);
        }
    };
    let program = if opts.target.ends_with(".s") || opts.target.contains('/') {
        let src = std::fs::read_to_string(&opts.target).unwrap_or_else(|e| {
            eprintln!("cannot read `{}`: {e}", opts.target);
            std::process::exit(2);
        });
        assemble(&src).unwrap_or_else(|e| {
            eprintln!("assembly failed: {e}");
            std::process::exit(2);
        })
    } else {
        match workload_by_name(&opts.target, opts.scale) {
            Some(w) => w.assemble().expect("bundled kernels assemble"),
            None => {
                eprintln!("unknown kernel `{}`", opts.target);
                std::process::exit(2);
            }
        }
    };
    let storage = match storage_of(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if opts.list {
        print!("{}", ubrc_isa::listing(&program));
        println!();
    }
    let mut config = SimConfig::table1(storage);
    config.trace_instructions = opts.trace;
    let sim = Simulator::try_new(program, config).unwrap_or_else(|e| {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    });
    let result = sim.run_checked().unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });
    if let Some(timeline) = &result.timeline {
        print!("{}", timeline.render(90));
        println!();
    }
    report(&result);
}
