//! `disk_spill`: a 4 MB ⋈ 8 MB join staged as striped file relations,
//! joined by the disk engine at a 1 MB budget, each op in the next of
//! GRACE, hybrid and dynamic mode. The only workload that writes pages
//! as well as reading them. Every answer must equal the in-memory
//! `CountSink` checksum of the same input.
//!
//! The traced run installs the metrics registry, whose disk and storage
//! counters the I/O paths update, and reads them around each join.
//!
//! The workload runs confined to one CPU. Unconfined, its I/O threads
//! keep both vCPUs of a 2-vCPU VM busy, and the hypervisor's steal time
//! then varied from 1% to 20% over minutes, moving `op_p50_ms` by up to
//! a third between runs; on one CPU steal stayed near 1%. The price is that
//! the I/O threads cannot overlap the join on another core, so the
//! workload measures the total work of the I/O paths, not their
//! parallelism.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use phj::grace::{grace_join_with_sink, GraceConfig};
use phj::sink::{CountSink, JoinSink};
use phj_disk::{grace_join_files, DiskGraceConfig, DiskGraceReport, DiskJoinMode, FileRelation};
use phj_memsim::NativeModel;
use phj_metrics::{names, Counter, Registry};

use crate::batch::{scaled, spec};
use crate::layers::{overhead_pct, Layers, MODES};
use crate::report::{end_to_end, median, window, Verdict};
use crate::{Args, Outcome, SETUP_REPS};

const MB: usize = 1 << 20;
const JOIN_MODES: [DiskJoinMode; 3] = [
    DiskJoinMode::Grace,
    DiskJoinMode::Hybrid,
    DiskJoinMode::Dynamic,
];

/// A scratch directory under the benchmark's own directory, removed
/// (with everything in it) when dropped.
struct Scratch(PathBuf);

impl Scratch {
    /// A fresh directory unique to this process.
    fn new() -> std::io::Result<Scratch> {
        let dir = scratch_root().join(format!("disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty root behind either; fails harmlessly while
        // another run still has a directory in it.
        let _ = std::fs::remove_dir(scratch_root());
    }
}

/// Where runs stage files: inside the benchmark's own source directory,
/// so a run reads and writes only inside its checkout.
fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tmp")
}

/// Confines the calling thread, and every thread it starts from then
/// on, to the first CPU it may run on; restores the previous set when
/// dropped.
struct OneCpu(Option<CpuMask>);

/// A `cpu_set_t` of 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl OneCpu {
    fn pin() -> OneCpu {
        let mut old: CpuMask = [0; 16];
        // SAFETY: `old` is a writable buffer of the size passed; pid 0
        // is the calling thread.
        let got = unsafe { sched_getaffinity(0, size_of::<CpuMask>(), old.as_mut_ptr()) };
        let Some(word) = old.iter().position(|&w| w != 0).filter(|_| got >= 0) else {
            eprintln!("disk_spill: cannot read the CPU affinity; running unpinned");
            return OneCpu(None);
        };
        let mut one: CpuMask = [0; 16];
        one[word] = 1 << old[word].trailing_zeros();
        if set_affinity(&one) {
            OneCpu(Some(old))
        } else {
            eprintln!("disk_spill: cannot pin to one CPU; running unpinned");
            OneCpu(None)
        }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(old) = &self.0 {
            set_affinity(old);
        }
    }
}

fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// Staged input with its in-memory reference answer.
struct Staged {
    build: FileRelation,
    probe: FileRelation,
    matches: u64,
    checksum: u64,
    input_bytes: f64,
}

/// Run `disk_spill` and return its metrics.
pub fn run(args: &Args) -> Outcome {
    let _cpu = OneCpu::pin();
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("disk_spill: cannot create scratch directory: {e}");
            return Outcome::failed_setup();
        }
    };
    let budget = scaled(MB, args.scale);
    let (mut setup_s, mut gen_ms, mut stage_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut staged = None;
    for rep in 0..SETUP_REPS {
        drop(staged.take());
        let t = Instant::now();
        let gen = spec(scaled(4 * MB, args.scale), args.seed).generate();
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut reference = CountSink::new();
        let cfg = GraceConfig {
            mem_budget: gen.build.size_bytes(),
            ..GraceConfig::default()
        };
        grace_join_with_sink(
            &mut NativeModel,
            &cfg,
            &gen.build,
            &gen.probe,
            &mut reference,
        );
        if reference.matches() != gen.expected_matches {
            eprintln!("disk_spill: in-memory reference join is wrong");
            return Outcome::failed_setup();
        }
        let dir = scratch.path().join(format!("input-{rep}"));
        let t_stage = Instant::now();
        let staged_rel = |name, rel| FileRelation::create(&dir, name, rel, 6, 32);
        let (build, probe) = match (
            staged_rel("build", &gen.build),
            staged_rel("probe", &gen.probe),
        ) {
            (Ok(b), Ok(p)) => (b, p),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("disk_spill: staging failed: {e}");
                return Outcome::failed_setup();
            }
        };
        stage_ms.push(t_stage.elapsed().as_secs_f64() * 1e3);
        if rep > 0 {
            let _ = std::fs::remove_dir_all(scratch.path().join(format!("input-{}", rep - 1)));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        let input_bytes = (build.size_bytes() + probe.size_bytes()) as f64;
        staged = Some(Staged {
            build,
            probe,
            matches: reference.matches(),
            checksum: reference.checksum(),
            input_bytes,
        });
    }
    let st = staged.expect("at least one set-up");
    let tuples = st.build.num_tuples() + st.probe.num_tuples();
    // Op `i` joins in the next mode; a join that returns has a latency
    // sample and, when `counters` are given, its per-mode numbers.
    let op = |i: usize, counters: Option<&IoCounters>| {
        let mode = i % JOIN_MODES.len();
        let before = counters.map(IoCounters::read);
        let (dt, out) = join(&st, scratch.path(), budget, JOIN_MODES[mode]);
        match out {
            Ok(r) => {
                let io = before.zip(counters.map(IoCounters::read));
                let right = r.matches == st.matches && r.checksum == st.checksum;
                let stats = ModeStats::new(mode, &r, io, st.input_bytes);
                (dt, Verdict::of(right), Some(stats))
            }
            Err(e) => {
                eprintln!("disk_spill: {} join failed: {e}", JOIN_MODES[mode].label());
                (dt, Verdict::Failed, None)
            }
        }
    };

    if !args.trace {
        let w = window(args.seconds, crate::MIN_OPS, tuples, |i| {
            let (dt, verdict, _) = op(i, None);
            (dt, verdict)
        });
        return Outcome::new(end_to_end("disk_spill", &setup_s, &w), &w);
    }

    let half = args.seconds / 2.0;
    let plain = window(half, crate::MIN_TRACE_OPS, tuples, |i| {
        let (dt, verdict, _) = op(i, None);
        (dt, verdict)
    });
    let counters = IoCounters::install();
    let mut stats: Vec<ModeStats> = Vec::new();
    let traced = window(half, crate::MIN_TRACE_OPS, tuples, |i| {
        let (dt, verdict, s) = op(i, Some(&counters));
        stats.extend(s);
        (dt, verdict)
    });
    let mut layers = Layers::new();
    layers.set("workload.generate_ms", median(&gen_ms));
    layers.set("disk.stage_ms", median(&stage_ms));
    // Each number is the median over the traced joins of its mode.
    let med = |mode: usize, f: fn(&ModeStats) -> f64| {
        let xs: Vec<f64> = stats.iter().filter(|s| s.mode == mode).map(f).collect();
        median(&xs)
    };
    for (i, m) in MODES.iter().enumerate() {
        layers.set(&format!("disk.partition_s.{m}"), med(i, |s| s.partition_s));
        layers.set(&format!("disk.join_s.{m}"), med(i, |s| s.join_s));
        layers.set(&format!("disk.input_stall_s.{m}"), med(i, |s| s.input_stall_s));
        layers.set(&format!("disk.degradations.{m}"), med(i, |s| s.degradations));
        layers.set(&format!("disk.spilled_partitions.{m}"), med(i, |s| s.spilled));
        layers.set(&format!("disk.write_amp.{m}"), med(i, |s| s.write_amp));
        layers.set(&format!("disk.read_amp.{m}"), med(i, |s| s.read_amp));
    }
    // Per round of the three modes.
    let storage = |f: fn(&ModeStats) -> f64| (0..MODES.len()).map(|i| med(i, f)).sum::<f64>();
    layers.set("storage.pages_sealed", storage(|s| s.sealed));
    layers.set("storage.pages_verified", storage(|s| s.verified));
    layers.set(
        "storage.checksum_failures",
        storage(|s| s.checksum_failures),
    );
    layers.set(
        "obs.trace_overhead_pct",
        overhead_pct(median(&traced.op_ms), median(&plain.op_ms)),
    );
    Outcome::traced(layers, &[&plain, &traced])
}

/// One disk join in its own directory, with its latency. The directory
/// is removed afterwards, outside the timed span: deleting the spill
/// and output files is the benchmark's housekeeping, not the join's.
fn join(
    st: &Staged,
    scratch: &Path,
    budget: usize,
    mode: DiskJoinMode,
) -> (Duration, phj_disk::Result<DiskGraceReport>) {
    let dir = scratch.join(format!("op-{}", mode.label()));
    let cfg = DiskGraceConfig {
        mem_budget: budget,
        mode,
        ..DiskGraceConfig::new(&dir)
    };
    let t = Instant::now();
    let out = grace_join_files(&cfg, &st.build, &st.probe);
    let dt = t.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    (dt, out)
}

/// The per-mode numbers of one traced join.
#[derive(Default, Clone, Copy)]
struct ModeStats {
    /// Index of the join's mode in [`JOIN_MODES`].
    mode: usize,
    partition_s: f64,
    join_s: f64,
    input_stall_s: f64,
    degradations: f64,
    spilled: f64,
    write_amp: f64,
    read_amp: f64,
    sealed: f64,
    verified: f64,
    checksum_failures: f64,
}

impl ModeStats {
    fn new(
        mode: usize,
        r: &DiskGraceReport,
        io: Option<([u64; 5], [u64; 5])>,
        input_bytes: f64,
    ) -> ModeStats {
        let d = io.map_or([0; 5], |(a, b)| std::array::from_fn(|i| b[i] - a[i]));
        ModeStats {
            mode,
            partition_s: r.partition_s,
            join_s: r.join_s,
            input_stall_s: r.input_stall_s,
            degradations: r.degradation.len() as f64,
            spilled: (r.num_partitions - r.resident_partitions) as f64,
            read_amp: d[0] as f64 / input_bytes,
            write_amp: d[1] as f64 / input_bytes,
            sealed: d[2] as f64,
            verified: d[3] as f64,
            checksum_failures: d[4] as f64,
        }
    }
}

/// The disk and storage counters of the process-global registry.
struct IoCounters([std::sync::Arc<Counter>; 5]);

impl IoCounters {
    /// Install the registry (from here on the I/O paths publish into
    /// it) and fetch the counters the traced run reads.
    fn install() -> IoCounters {
        let reg: &Registry = phj_metrics::install();
        IoCounters(
            [
                names::DISK_BYTES_READ,
                names::DISK_BYTES_WRITTEN,
                names::STORAGE_PAGES_SEALED,
                names::STORAGE_PAGES_VERIFIED,
                names::STORAGE_CHECKSUM_FAILURES,
            ]
            .map(|n| reg.counter(n, n)),
        )
    }

    fn read(&self) -> [u64; 5] {
        self.0.each_ref().map(|c| c.value())
    }
}
