//! The per-layer metrics a traced run prints. Every traced run prints
//! every name, so all workloads share one result schema; a layer a
//! workload does not run reads 0 there. `BENCHMARK.json` lists the same
//! names and units, and `perfbench/LAYERS.md` maps each one to the
//! end-to-end metric and workload it should move.

use crate::report::{Metric, Metrics};

/// Join schemes every batch op runs, in report order.
pub const SCHEMES: [&str; 3] = ["baseline", "group", "swp"];
/// Disk join modes every `disk_spill` op runs, in report order.
pub const MODES: [&str; 3] = ["grace", "hybrid", "dynamic"];

/// `(name, unit)` of every per-layer metric.
pub fn all() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: String, u| v.push((n, u));
    add("workload.generate_ms".into(), "ms");
    add("core.partition.ms".into(), "ms");
    add("core.partition.ns_per_tuple".into(), "ns");
    add("core.partition.fanout".into(), "count");
    for s in SCHEMES {
        add(format!("core.join.build_ms.{s}"), "ms");
        add(format!("core.join.probe_ms.{s}"), "ms");
        add(format!("core.sink.ms.{s}"), "ms");
        add(format!("memsim.cycles_per_tuple.{s}"), "cycles");
        add(format!("memsim.dcache_stall_share.{s}"), "ratio");
    }
    add("core.grace.pairs".into(), "count");
    add("core.grace.unattributed_ms".into(), "ms");
    add("core.aggregate.ms".into(), "ms");
    for part in [
        "client.send_us",
        "client.wait_us",
        "client.recv_us",
        "queue_wait_us",
    ]
    .into_iter()
    .chain([
        "grant_wait_us",
        "exec_us",
        "serialize_us",
        "unattributed_us",
    ]) {
        for q in ["p50", "p99"] {
            add(format!("server.{part}.{q}"), "us");
        }
    }
    add("server.response_bytes.mean".into(), "B");
    add("server.admission.peak_waiting".into(), "count");
    add("server.admission.rejected".into(), "count");
    for c in ["join_small", "agg", "join_large"] {
        add(format!("server.query.standalone_ms.{c}"), "ms");
    }
    for m in MODES {
        add(format!("disk.partition_s.{m}"), "s");
        add(format!("disk.join_s.{m}"), "s");
        add(format!("disk.input_stall_s.{m}"), "s");
        add(format!("disk.degradations.{m}"), "count");
        add(format!("disk.spilled_partitions.{m}"), "count");
        add(format!("disk.write_amp.{m}"), "ratio");
        add(format!("disk.read_amp.{m}"), "ratio");
    }
    add("disk.stage_ms".into(), "ms");
    add("storage.pages_sealed".into(), "count");
    add("storage.pages_verified".into(), "count");
    add("storage.checksum_failures".into(), "count");
    add("obs.trace_overhead_pct".into(), "%");
    add("process.peak_rss_mb".into(), "MiB");
    v
}

/// Per-layer values being filled in by one traced run.
pub struct Layers(Metrics);

impl Layers {
    /// Every per-layer metric at 0.
    pub fn new() -> Layers {
        Layers(
            all()
                .into_iter()
                .map(|(n, unit)| (n, Metric { unit, value: 0.0 }))
                .collect(),
        )
    }

    /// Set a metric. Panics on a name outside [`all`]: a typo must not
    /// print a metric the benchmark does not declare.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"))
            .value = value;
    }

    /// The finished metric set.
    pub fn into_metrics(self) -> Metrics {
        self.0
    }
}

/// Percent by which `traced` exceeds `untraced`.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    100.0 * (traced - untraced) / untraced
}
