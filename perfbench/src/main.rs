//! The phj benchmark: four workloads, each stressing different layers,
//! measured end to end and, in a separate traced run, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <join_outcache|grace_incache|serve_mix|disk_spill|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a fingerprint line
//! (seed, host, source revision) precedes it. A wrong answer makes the
//! run exit with status 1. `--scale` shrinks every input for quick
//! self-tests; measurements use the default of 1.

mod alloc;
mod batch;
mod disk;
mod layers;
mod report;
mod serve;

use report::{fingerprint, result_line, Metrics, Window};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Completed ops an end-to-end window needs at least, so that
/// `op_tail_ms` is p90 or above.
pub const MIN_OPS: usize = report::MIN_TAIL_SAMPLES;
/// Completed ops each half of a traced run needs at least: two rounds
/// of the three schemes or modes.
pub const MIN_TRACE_OPS: usize = 6;

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["join_outcache", "grace_incache", "serve_mix", "disk_spill"];

/// Parsed command line.
pub struct Args {
    /// Workload input seed.
    pub seed: u64,
    /// Measurement window per workload, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Input size factor; 1 is the benchmark proper.
    pub scale: f64,
}

/// What one workload run reports.
pub struct Outcome {
    /// The printed metrics.
    pub metrics: Metrics,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed with a typed error or refusal.
    pub failed: u64,
    /// Whether every answer was right.
    pub correct: bool,
}

impl Outcome {
    /// The outcome of one untraced window.
    pub fn new(metrics: Metrics, w: &Window) -> Outcome {
        Outcome {
            metrics,
            attempted: w.attempted,
            failed: w.failed,
            correct: w.wrong == 0,
        }
    }

    /// The outcome of a traced run made of several windows.
    pub fn traced(mut layers: layers::Layers, windows: &[&Window]) -> Outcome {
        layers.set("process.peak_rss_mb", report::peak_rss_mb());
        Outcome {
            metrics: layers.into_metrics(),
            attempted: windows.iter().map(|w| w.attempted).sum(),
            failed: windows.iter().map(|w| w.failed).sum(),
            correct: windows.iter().all(|w| w.wrong == 0),
        }
    }

    /// Set-up could not produce a workload: nothing was measured.
    pub fn failed_setup() -> Outcome {
        Outcome {
            metrics: Metrics::new(),
            attempted: 1,
            failed: 1,
            correct: false,
        }
    }
}

fn parse_args() -> Result<(Vec<&'static str>, Args), String> {
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds_ok = args.seconds.is_finite() && args.seconds > 0.0;
    if !(seconds_ok && args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--seconds must be > 0 and --scale in (0, 1]".to_string());
    }
    let workload = workload.ok_or("--workload is required")?;
    let names = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w => vec![*WORKLOADS
            .iter()
            .find(|&&n| n == w)
            .ok_or_else(|| format!("unknown workload {w}"))?],
    };
    Ok((names, args))
}

fn run(name: &str, args: &Args) -> Outcome {
    match name {
        "join_outcache" => batch::run(name, &batch::outcache(args.scale), args),
        "grace_incache" => batch::run(name, &batch::incache(args.scale), args),
        "serve_mix" => serve::run(args),
        "disk_spill" => disk::run(args),
        _ => unreachable!("workload names are checked while parsing"),
    }
}

fn main() {
    let (names, args) = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workload = if names.len() == 1 { names[0] } else { "all" };
    println!(
        "{}",
        fingerprint(workload, args.seed, args.seconds, args.trace, args.scale)
    );

    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Metrics::new();
    for &name in &names {
        alloc::reset_peak();
        let out = run(name, &args);
        for (metric, m) in &out.metrics {
            println!("{name:>14}  {metric:<36} {:>14.4} {}", m.value, m.unit);
        }
        correct &= out.correct;
        attempted += out.attempted;
        failed += out.failed;
        // One workload prints bare metric names; `all` prefixes each
        // with its workload so the names stay unique.
        for (metric, m) in out.metrics {
            let key = if names.len() == 1 {
                metric
            } else {
                format!("{name}.{metric}")
            };
            metrics.insert(key, m);
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
