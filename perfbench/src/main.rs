//! Command-line entry point of the benchmark; see the library docs.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use ubrc_perfbench::workload::{BenchWorkload, Layout, Size};
use ubrc_perfbench::{e2e, host, result_json, traced};

const USAGE: &str =
    "usage: perfbench --workload <st-usebased|st-monolithic|smt4-dynpart|soft-recovery> \
[--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: BenchWorkload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: BenchWorkload::StUsebased,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    BenchWorkload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn write_spans(path: &Path, doc: &ubrc_stats::Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_string())
}

/// Set in the environment of the child process that measures peak
/// memory (see [`measure_peak_rss`]).
const RSS_PROBE_ENV: &str = "PERFBENCH_RSS_PROBE";

/// Peak memory is measured in a child process of this program, so the
/// allocator setting it needs never touches the timed passes, and the
/// timed passes' allocation history never touches the peak.
fn measure_peak_rss(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .env(RSS_PROBE_ENV, "1")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(mb)) => Ok(mb),
        _ => Err(format!("peak memory probe failed ({})", out.status)),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One runner worker: cells run one at a time on this thread.
    std::env::set_var("UBRC_BENCH_WORKERS", "1");
    let layout = Layout::new(args.workload, args.seed, Size::Full);
    if std::env::var_os(RSS_PROBE_ENV).is_some() {
        host::map_large_allocations_fresh();
        let (mb, failures) = e2e::rss_probe(&layout);
        for why in &failures {
            eprintln!("perfbench: failed: {why}");
        }
        println!("{mb}");
        return if failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let budget = Duration::from_secs(args.seconds);

    let (values, attempted, failures) = if args.trace {
        let report = traced::run(&layout, budget);
        // Inside the build directory, which the checkout ignores.
        let path = PathBuf::from(format!(
            ".bench_build/perfbench-spans/{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = write_spans(&path, &report.tracer.to_json()) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
        (report.metrics, report.cells_run, report.failures)
    } else {
        let mut r = e2e::run(&layout, budget);
        let peak_rss_mb = measure_peak_rss(&args).unwrap_or_else(|why| {
            r.failures.push(why);
            f64::NAN
        });
        let values = vec![
            ("sim_insts_per_cpu_s", r.sim_insts_per_cpu_s),
            ("host_ns_per_cycle", r.host_ns_per_cycle),
            ("setup_s", r.setup_s),
            ("peak_rss_mb", peak_rss_mb),
            ("sim_ipc_geomean", r.sim_ipc_geomean),
        ];
        println!(
            "perfbench: {} passes of {} simulated cycles; whole-pass median {:.0} insts/CPU-s \
             not normalised; host {:.3}x slower than nominal",
            r.passes, r.sim_cycles, r.pass_median_insts_per_cpu_s, r.host_slowdown
        );
        (values, r.cells_run, r.failures)
    };
    for why in &failures {
        eprintln!("perfbench: failed: {why}");
    }
    println!(
        "perfbench: workload {} seed {} trace {} cells_run {} cells_failed {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        attempted,
        failures.len()
    );
    println!("{}", result_json(&values, attempted, failures.len()));
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
