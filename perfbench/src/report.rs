//! Measurement plumbing shared by every workload: order statistics,
//! process CPU and memory counters, the host fingerprint, and the
//! result line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Median of `xs` (0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;
/// Samples that put the tail value at p90 or above.
pub const MIN_TAIL_SAMPLES: usize = 10 * TAIL_BEYOND;

/// The highest order statistic with at least [`TAIL_BEYOND`] samples
/// above it, with the percentile it sits at: p90 or above once there
/// are [`MIN_TAIL_SAMPLES`]. `None` when the sample is too small to have
/// one.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() - 1 - TAIL_BEYOND;
    Some((v[k], 100.0 * (k + 1) as f64 / v.len() as f64))
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

/// Process user+system CPU seconds, all threads, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    // USER_HZ is 100 on every Linux ABI the workspace builds for.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one measured window of a workload produced.
#[derive(Default)]
pub struct Window {
    /// Latency of every op that completed, milliseconds.
    pub op_ms: Vec<f64>,
    /// Ops started (completed plus failed).
    pub attempted: u64,
    /// Ops that ended in a typed error, error frame, or refusal.
    pub failed: u64,
    /// Ops whose answer disagreed with the reference.
    pub wrong: u64,
    /// Input tuples joined or aggregated by completed ops.
    pub tuples: u64,
    /// Wall time of the window, seconds.
    pub wall_s: f64,
    /// Process CPU time spent in the window, seconds.
    pub cpu_s: f64,
}

/// How one op ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The answer matched the reference.
    Right,
    /// The op completed with a wrong answer.
    Wrong,
    /// The op ended in a typed error or a refusal.
    Failed,
}

impl Verdict {
    /// `Right` or `Wrong`.
    pub fn of(right: bool) -> Verdict {
        if right {
            Verdict::Right
        } else {
            Verdict::Wrong
        }
    }
}

/// Run ops back to back for at least `seconds` and at least `min_ops`
/// completed ops. `op` gets the op index and returns its latency and
/// verdict; failed ops count as attempted but add no latency sample.
pub fn window(
    seconds: f64,
    min_ops: usize,
    tuples_per_op: u64,
    mut op: impl FnMut(usize) -> (Duration, Verdict),
) -> Window {
    let mut w = Window::default();
    let clock = Clock::start();
    while clock.elapsed_s() < seconds || w.op_ms.len() < min_ops {
        let (dt, verdict) = op(w.op_ms.len());
        w.attempted += 1;
        if verdict == Verdict::Failed {
            w.failed += 1;
            // Give up on a workload that fails every op instead of
            // looping forever short of `min_ops`.
            if w.failed > 2 * min_ops as u64 + w.op_ms.len() as u64 {
                break;
            }
            continue;
        }
        w.wrong += (verdict == Verdict::Wrong) as u64;
        w.op_ms.push(dt.as_secs_f64() * 1e3);
        w.tuples += tuples_per_op;
    }
    clock.stop(&mut w);
    w
}

/// Wall and CPU clocks for a [`Window`], started together.
pub struct Clock {
    t0: Instant,
    cpu0: f64,
}

impl Clock {
    /// Start both clocks.
    pub fn start() -> Clock {
        Clock {
            cpu0: cpu_seconds(),
            t0: Instant::now(),
        }
    }

    /// Seconds of wall time so far.
    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Stop both clocks into `w`.
    pub fn stop(&self, w: &mut Window) {
        w.wall_s = self.elapsed_s();
        w.cpu_s = cpu_seconds() - self.cpu0;
    }
}

/// One printed metric.
pub struct Metric {
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Named metrics in print order.
pub type Metrics = BTreeMap<String, Metric>;

/// The end-to-end metrics of an untraced window plus its set-up times.
/// Two more go to stderr only. `failed_ops_ratio` is 0 on a healthy run,
/// and the result line already carries both of its counts. The peak
/// resident set ranged from 68 to 126 MiB between `serve_mix` runs (see
/// [`crate::alloc`]); `peak_heap_mb` stands in for it.
pub fn end_to_end(name: &str, setup_s: &[f64], w: &Window) -> Metrics {
    let ok = w.op_ms.len() as f64;
    let (tail_ms, tail_pct) = tail(&w.op_ms).unwrap_or((f64::NAN, f64::NAN));
    let mut m = Metrics::new();
    let mut put = |k: &str, unit, value| {
        m.insert(k.to_string(), Metric { unit, value });
    };
    put("setup_s", "s", median(setup_s));
    put("op_p50_ms", "ms", median(&w.op_ms));
    put("op_tail_ms", "ms", tail_ms);
    put("ops_per_s", "1/s", ok / w.wall_s);
    put(
        "mtuples_per_s",
        "Mtuple/s",
        w.tuples as f64 / w.wall_s / 1e6,
    );
    put(
        "cpu_ms_per_op",
        "ms",
        1e3 * w.cpu_s / w.attempted.max(1) as f64,
    );
    put("peak_heap_mb", "MiB", crate::alloc::peak_mb());
    eprintln!(
        "{name}: ops {} in {:.2} s; op_tail_ms is p{tail_pct:.1} of n={}; peak_rss_mb {:.1}; \
         failed_ops_ratio {} = {} failed / {} attempted; wrong answers {}",
        w.op_ms.len(),
        w.wall_s,
        w.op_ms.len(),
        peak_rss_mb(),
        w.failed as f64 / w.attempted.max(1) as f64,
        w.failed,
        w.attempted,
        w.wrong,
    );
    m
}

/// Render the result object the benchmark prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A finite number in JSON syntax with every digit Rust keeps;
/// non-finite values become `null` so a bad value cannot pass as data.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Host and source identity printed with every result, so a claim can
/// be re-checked later on the same kind of machine and code.
pub fn fingerprint(workload: &str, seed: u64, seconds: f64, trace: bool, scale: f64) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']))
        })
        .unwrap_or("unknown")
        .replace('"', "'");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    format!(
        "{{\"fingerprint\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"scale\": {scale}, \"nproc\": {nproc}, \"cpu_model\": \"{model}\", \
         \"l2\": \"{}\", \"l3\": \"{}\", \"git_revision\": \"{}\", \"source_fnv64\": \"{:016x}\"}}}}",
        cache_size(2),
        cache_size(3),
        git_revision(&root),
        source_digest(&root.join("crates")),
    )
}

/// Size of the CPU 0 cache at `level` as sysfs reports it (`"2048K"`).
fn cache_size(level: u32) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .map(|i| base.join(format!("index{i}")))
        .find(|d| {
            std::fs::read_to_string(d.join("level")).is_ok_and(|l| l.trim() == level.to_string())
                && std::fs::read_to_string(d.join("type")).is_ok_and(|t| t.trim() != "Instruction")
        })
        .and_then(|d| std::fs::read_to_string(d.join("size")).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The checked-out commit, when the source tree is a git checkout.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(refname)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the paths and contents of every `.rs` and `Cargo.toml`
/// under `dir`, in sorted order: identifies the measured code even
/// where no git metadata is present.
fn source_digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in files {
        let rel = f
            .strip_prefix(dir)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01B3);
        }
    }
    h
}
