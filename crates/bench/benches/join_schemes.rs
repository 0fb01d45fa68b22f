//! Criterion wall-clock benchmarks of the four join schemes on real
//! hardware (native model: the prefetch hooks become real `prefetcht0`
//! instructions, everything else compiles away). The native counterpart
//! of Fig 10's pivot column. The `sink` group prices the checksum every
//! other group pays per match.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::sink::{CountSink, JoinSink};
use phj_memsim::{MemoryModel, NativeModel};
use phj_workload::JoinSpec;

fn bench_join_schemes(c: &mut Criterion) {
    // ~8 MB build, 16 MB probe: beyond L2 so prefetching matters.
    let spec = JoinSpec {
        build_tuples: 80_000,
        tuple_size: 100,
        matches_per_build: 2,
        pct_match: 100,
        seed: 11,
    };
    let gen = spec.generate();
    let mut g = c.benchmark_group("join_schemes");
    g.throughput(Throughput::Elements(gen.probe.num_tuples() as u64));
    g.sample_size(10);
    for (name, scheme) in [
        ("baseline", JoinScheme::Baseline),
        ("simple", JoinScheme::Simple),
        ("group_g16", JoinScheme::Group { g: 16 }),
        ("swp_d4", JoinScheme::Swp { d: 4 }),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &scheme, |b, &scheme| {
            b.iter(|| {
                let mut mem = NativeModel;
                let mut sink = CountSink::new();
                join_pair(
                    &mut mem,
                    &JoinParams { scheme, use_stored_hash: true },
                    &gen.build,
                    &gen.probe,
                    1,
                    &mut sink,
                );
                assert_eq!(sink.matches(), gen.expected_matches);
                sink.checksum()
            })
        });
    }
    g.finish();
}

fn bench_tuple_sizes(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_group_by_tuple_size");
    g.sample_size(10);
    for size in [20usize, 100, 140] {
        let spec = JoinSpec {
            build_tuples: 65_536,
            tuple_size: size,
            matches_per_build: 2,
            pct_match: 100,
            seed: 5,
        };
        let gen = spec.generate();
        g.bench_with_input(BenchmarkId::from_parameter(size), &gen, |b, gen| {
            b.iter(|| {
                let mut mem = NativeModel;
                let mut sink = CountSink::new();
                join_pair(
                    &mut mem,
                    &JoinParams { scheme: JoinScheme::Group { g: 16 }, use_stored_hash: true },
                    &gen.build,
                    &gen.probe,
                    1,
                    &mut sink,
                );
                sink.checksum()
            })
        });
    }
    g.finish();
}

/// Counts matches and reads nothing: the floor under [`CountSink`].
#[derive(Default)]
struct CountOnly(u64);

impl JoinSink for CountOnly {
    fn emit<M: MemoryModel>(&mut self, _mem: &mut M, _build: &[u8], _probe: &[u8]) {
        self.0 += 1;
    }

    fn matches(&self) -> u64 {
        self.0
    }
}

/// Drive `sink` over every pair, hiding the slices from the optimizer.
fn feed<S: JoinSink>(sink: &mut S, pairs: &[(&[u8], &[u8])]) {
    for &(build, probe) in pairs {
        sink.emit(&mut NativeModel, black_box(build), black_box(probe));
    }
}

fn bench_sink(c: &mut Criterion) {
    // 4096 pivot-shaped 100 B x 100 B pairs (800 KB, L2-resident, as the
    // tuples a join just matched are).
    let spec = JoinSpec {
        build_tuples: 4096,
        tuple_size: 100,
        matches_per_build: 1,
        pct_match: 100,
        seed: 3,
    };
    let gen = spec.generate();
    let pairs: Vec<(&[u8], &[u8])> = gen
        .build
        .iter()
        .map(|(_, b, _)| b)
        .zip(gen.probe.iter().map(|(_, p, _)| p))
        .collect();
    let mut g = c.benchmark_group("sink");
    g.throughput(Throughput::Elements(pairs.len() as u64));
    g.sample_size(200);
    g.bench_function("count_only", |b| {
        b.iter(|| {
            let mut sink = CountOnly::default();
            feed(&mut sink, &pairs);
            sink.matches()
        })
    });
    g.bench_function("count_sink", |b| {
        b.iter(|| {
            let mut sink = CountSink::new();
            feed(&mut sink, &pairs);
            sink.checksum()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_join_schemes, bench_tuple_sizes, bench_sink);
criterion_main!(benches);
