//! The two in-memory batch workloads, `join_outcache` and
//! `grace_incache`: one generated pivot-shaped input, and ops that each
//! run the GRACE driver once with a checksumming sink, taking the three
//! join schemes in turn.
//!
//! The traced op runs the same driver with a span recorder attached and
//! reads the partition, build and probe times from its spans. It runs
//! the join a second time with a count-only sink, so the cost of the
//! `CountSink` checksum can be told apart from the probe.

use std::time::{Duration, Instant};

use phj::grace::{grace_join_with_sink, grace_join_with_sink_rec, GraceConfig};
use phj::join::JoinScheme;
use phj::partition::PartitionScheme;
use phj::sink::{CountSink, JoinSink};
use phj_memsim::{MemConfig, MemoryModel, NativeModel, SimEngine};
use phj_obs::{Recorder, SpanRecord};
use phj_workload::{GeneratedJoin, JoinSpec};

use crate::layers::{overhead_pct, Layers, SCHEMES};
use crate::report::{end_to_end, median, window, Verdict};
use crate::{Args, Outcome, SETUP_REPS};

const MB: usize = 1 << 20;
/// The paper's partition-phase default, as `GraceConfig::default` has it.
const MAX_ACTIVE_PARTITIONS: usize = 1000;
/// Build size of the scaled copy the memory simulator runs.
const SIM_BUILD_BYTES: usize = 2 * MB;

/// The three join schemes the batch ops take in turn, in [`SCHEMES`]
/// order.
pub const JOIN_SCHEMES: [JoinScheme; 3] = [
    JoinScheme::Baseline,
    JoinScheme::Group { g: 16 },
    JoinScheme::Swp { d: 4 },
];

/// Input size and join budget of one batch workload.
pub struct Shape {
    /// Bytes of build relation (probe is twice that).
    pub build_bytes: usize,
    /// Join-phase budget; `None` sizes it to the whole build relation,
    /// so the join runs as one partition pair.
    pub budget: Option<usize>,
}

/// `join_outcache`: one 16 MB ⋈ 32 MB pair, no partitioning.
pub fn outcache(scale: f64) -> Shape {
    Shape {
        build_bytes: scaled(16 * MB, scale),
        budget: None,
    }
}

/// `grace_incache`: the same input at a 512 KB budget (~32 partitions).
pub fn incache(scale: f64) -> Shape {
    Shape {
        build_bytes: scaled(16 * MB, scale),
        budget: Some(scaled(MB / 2, scale)),
    }
}

/// `bytes` times `scale`, at least a few pages.
pub fn scaled(bytes: usize, scale: f64) -> usize {
    ((bytes as f64 * scale) as usize).max(64 << 10)
}

/// The pivot-shaped join spec of `build_bytes` under the run's seed.
pub fn spec(build_bytes: usize, seed: u64) -> JoinSpec {
    JoinSpec {
        seed,
        ..JoinSpec::pivot(build_bytes)
    }
}

fn grace_cfg(budget: usize, scheme: JoinScheme) -> GraceConfig {
    GraceConfig {
        mem_budget: budget,
        partition_scheme: PartitionScheme::combined_default(),
        join_scheme: scheme,
        max_active_partitions: MAX_ACTIVE_PARTITIONS,
    }
}

/// Run a batch workload and return its metrics.
pub fn run(name: &str, shape: &Shape, args: &Args) -> Outcome {
    let mut setup_s = Vec::new();
    let mut gen = None;
    for _ in 0..SETUP_REPS {
        drop(gen.take());
        let t = Instant::now();
        gen = Some(spec(shape.build_bytes, args.seed).generate());
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let gen = gen.expect("at least one set-up");
    let budget = shape.budget.unwrap_or(gen.build.size_bytes());
    let tuples = (gen.build.num_tuples() + gen.probe.num_tuples()) as u64;
    let mut oracle = Oracle {
        expected: gen.expected_matches,
        checksum: None,
    };

    let mut plain_op = |i| {
        let t = Instant::now();
        let sink = join(&gen, budget, JOIN_SCHEMES[i % JOIN_SCHEMES.len()]);
        (t.elapsed(), Verdict::of(oracle.check(&sink)))
    };
    if !args.trace {
        let w = window(args.seconds, crate::MIN_OPS, tuples, &mut plain_op);
        return Outcome::new(end_to_end(name, &setup_s, &w), &w);
    }

    let half = args.seconds / 2.0;
    let plain = window(half, crate::MIN_TRACE_OPS, tuples, &mut plain_op);
    let mut splits = Vec::new();
    let traced = window(half, crate::MIN_TRACE_OPS, tuples, |i| {
        let (sink, split) = traced_join(&gen, budget, i);
        let verdict = Verdict::of(oracle.check(&sink));
        let op = Duration::from_secs_f64(split.op_ms / 1e3);
        splits.push(split);
        (op, verdict)
    });
    let mut layers = Layers::new();
    let gen_ms: Vec<f64> = setup_s.iter().map(|s| s * 1e3).collect();
    layers.set("workload.generate_ms", median(&gen_ms));
    publish(&splits, &mut layers);
    let sim_ok = memsim(shape, args, &mut layers);
    layers.set(
        "obs.trace_overhead_pct",
        overhead_pct(median(&traced.op_ms), median(&plain.op_ms)),
    );
    let mut out = Outcome::traced(layers, &[&plain, &traced]);
    out.correct &= sim_ok;
    out
}

/// Expected answer of every op: the workload's match count, and the
/// checksum the first op produced, which every later op, whatever its
/// scheme, must reproduce.
pub struct Oracle {
    /// Matches the generator guarantees.
    pub expected: u64,
    /// Checksum of the first op.
    pub checksum: Option<u64>,
}

impl Oracle {
    /// Whether one op's sink is right.
    pub fn check(&mut self, sink: &CountSink) -> bool {
        let reference = *self.checksum.get_or_insert(sink.checksum());
        sink.matches() == self.expected && sink.checksum() == reference
    }
}

/// The untraced op: the GRACE driver with one scheme.
fn join(gen: &GeneratedJoin, budget: usize, scheme: JoinScheme) -> CountSink {
    let mut sink = CountSink::new();
    grace_join_with_sink(
        &mut NativeModel,
        &grace_cfg(budget, scheme),
        &gen.build,
        &gen.probe,
        &mut sink,
    );
    sink
}

/// Wall time of one traced join, split by layer:
/// `partition + build + probe + sink + unattributed == op`.
#[derive(Debug, Default)]
pub struct Split {
    /// Index of the join's scheme in [`JOIN_SCHEMES`].
    pub scheme: usize,
    /// Partition-phase time over all passes.
    pub partition_ms: f64,
    /// Tuples the partition phase read over all passes.
    pub partitioned_tuples: u64,
    /// First-pass fan-out (1 when the build fits the budget).
    pub fanout: usize,
    /// Partition pairs joined.
    pub pairs: usize,
    /// Hash-table build time.
    pub build_ms: f64,
    /// Probe time with a count-only sink.
    pub probe_ms: f64,
    /// Extra probe time the `CountSink` checksum costs.
    pub sink_ms: f64,
    /// Time in the driver outside partition, build and probe spans.
    pub unattributed_ms: f64,
    /// The join's wall time with `CountSink`, as the untraced op runs it.
    pub op_ms: f64,
}

/// Write the `core.*` metrics: each the median over `splits`, the
/// per-scheme ones over that scheme's joins.
pub fn publish(splits: &[Split], layers: &mut Layers) {
    let med = |scheme: Option<usize>, f: fn(&Split) -> f64| {
        let xs: Vec<f64> = splits
            .iter()
            .filter(|s| scheme.is_none_or(|k| s.scheme == k))
            .map(f)
            .collect();
        median(&xs)
    };
    layers.set("core.partition.ms", med(None, |s| s.partition_ms));
    layers.set(
        "core.partition.ns_per_tuple",
        med(None, |s| {
            if s.partitioned_tuples == 0 {
                0.0
            } else {
                s.partition_ms * 1e6 / s.partitioned_tuples as f64
            }
        }),
    );
    layers.set("core.partition.fanout", med(None, |s| s.fanout as f64));
    for (i, s) in SCHEMES.iter().enumerate() {
        layers.set(&format!("core.join.build_ms.{s}"), med(Some(i), |s| s.build_ms));
        layers.set(&format!("core.join.probe_ms.{s}"), med(Some(i), |s| s.probe_ms));
        layers.set(&format!("core.sink.ms.{s}"), med(Some(i), |s| s.sink_ms));
    }
    layers.set("core.grace.pairs", med(None, |s| s.pairs as f64));
    layers.set(
        "core.grace.unattributed_ms",
        med(None, |s| s.unattributed_ms),
    );
}

/// Traced op `i`: the scheme the untraced op `i` would run, joined
/// through `grace_join_with_sink_rec` once with `CountSink` and once
/// with a count-only sink. Which of the two runs first alternates from
/// one round of schemes to the next, so each scheme's split counts the
/// cache-warming advantage of going second for both sinks equally.
pub fn traced_join(gen: &GeneratedJoin, budget: usize, i: usize) -> (CountSink, Split) {
    let scheme = i % JOIN_SCHEMES.len();
    let cfg = grace_cfg(budget, JOIN_SCHEMES[scheme]);
    let mut checked = CountSink::new();
    let mut counted = CountOnly(0);
    let (fanout, checked_spans, counted_spans) = if (i / JOIN_SCHEMES.len()).is_multiple_of(2) {
        let (fanout, spans) = recorded(&cfg, gen, &mut checked);
        (fanout, spans, recorded(&cfg, gen, &mut counted).1)
    } else {
        let (_, counted_spans) = recorded(&cfg, gen, &mut counted);
        let (fanout, spans) = recorded(&cfg, gen, &mut checked);
        (fanout, spans, counted_spans)
    };
    assert_eq!(
        counted.0,
        checked.matches(),
        "count-only and checksum joins disagree"
    );
    let ms = |spans: &[SpanRecord], name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.wall_ns as f64 / 1e6)
            .sum::<f64>()
    };
    let partitioned_tuples = checked_spans
        .iter()
        .filter(|s| s.name == "partition")
        .flat_map(|s| &s.meta)
        .filter(|(k, _)| k == "tuples")
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .sum();
    let op_ms = ms(&checked_spans, "grace_join");
    let pairs = checked_spans.iter().filter(|s| s.name == "pair").count();
    assert!(
        op_ms > 0.0 && pairs > 0,
        "the GRACE driver recorded no grace_join or pair span"
    );
    let partition_ms = ms(&checked_spans, "partition_pass");
    let build_ms = ms(&checked_spans, "build");
    let checked_probe_ms = ms(&checked_spans, "probe");
    let probe_ms = ms(&counted_spans, "probe");
    let split = Split {
        scheme,
        partition_ms,
        partitioned_tuples,
        fanout,
        pairs,
        build_ms,
        probe_ms,
        sink_ms: checked_probe_ms - probe_ms,
        unattributed_ms: op_ms - partition_ms - build_ms - checked_probe_ms,
        op_ms,
    };
    (checked, split)
}

/// One GRACE join into `sink` with a span recorder: the first-pass
/// fan-out and the finished spans.
fn recorded<S: JoinSink>(
    cfg: &GraceConfig,
    gen: &GeneratedJoin,
    sink: &mut S,
) -> (usize, Vec<SpanRecord>) {
    let mut rec = Recorder::new();
    let fanout = grace_join_with_sink_rec(
        &mut NativeModel,
        cfg,
        &gen.build,
        &gen.probe,
        sink,
        Some(&mut rec),
    );
    (fanout, rec.finish())
}

/// `reps` traced joins on `gen`, taking schemes and sink order in turn
/// as the traced window does, with whether every answer was right.
pub fn traced_joins(gen: &GeneratedJoin, budget: usize, reps: usize) -> (Vec<Split>, bool) {
    let mut oracle = Oracle {
        expected: gen.expected_matches,
        checksum: None,
    };
    let mut ok = true;
    let splits = (0..reps)
        .map(|i| {
            let (sink, split) = traced_join(gen, budget, i);
            ok &= oracle.check(&sink);
            split
        })
        .collect();
    (splits, ok)
}

/// A sink that only counts: the probe cost without the checksum.
struct CountOnly(u64);

impl JoinSink for CountOnly {
    fn emit<M: MemoryModel>(&mut self, _mem: &mut M, _build: &[u8], _probe: &[u8]) {
        self.0 += 1;
    }

    fn matches(&self) -> u64 {
        self.0
    }
}

/// Simulated cycles per input tuple and data-cache stall share of each
/// scheme, on a copy of the workload scaled to a 2 MB build (budget
/// scaled alike, so the partition count and which side of the simulated
/// L2 a pair's table falls on stay the same). Returns whether every
/// simulated join produced the expected matches.
fn memsim(shape: &Shape, args: &Args, layers: &mut Layers) -> bool {
    let sim_build = scaled(SIM_BUILD_BYTES, args.scale);
    let gen = spec(sim_build, args.seed).generate();
    let budget = shape.budget.map_or(gen.build.size_bytes(), |b| {
        scaled(
            (b as f64 * SIM_BUILD_BYTES as f64 / shape.build_bytes as f64) as usize,
            args.scale,
        )
    });
    let tuples = (gen.build.num_tuples() + gen.probe.num_tuples()) as f64;
    let mut ok = true;
    for (i, &scheme) in JOIN_SCHEMES.iter().enumerate() {
        let mut sim = SimEngine::new(MemConfig::paper());
        let mut sink = CountSink::new();
        grace_join_with_sink(
            &mut sim,
            &grace_cfg(budget, scheme),
            &gen.build,
            &gen.probe,
            &mut sink,
        );
        ok &= sink.matches() == gen.expected_matches;
        let b = sim.snapshot().breakdown;
        layers.set(
            &format!("memsim.cycles_per_tuple.{}", SCHEMES[i]),
            b.total() as f64 / tuples,
        );
        layers.set(
            &format!("memsim.dcache_stall_share.{}", SCHEMES[i]),
            b.dcache_fraction(),
        );
    }
    ok
}
