//! Morsel-driven parallel aggregation.
//!
//! Each worker aggregates its page-range morsels into private
//! [`AggTable`]s with the unmodified sequential kernel
//! ([`aggregate_page_range`]); the per-morsel tables are folded together
//! at the barrier with [`AggTable::merge_from`] (COUNT and SUM are
//! commutative and associative, so the merged table equals the
//! sequential one for any morsel split). The simulated driver mirrors
//! [`parallel_join_sim`](crate::join::parallel_join_sim): static LPT
//! lanes, critical-path cycles, summed event counts.

use phj::aggregate::{aggregate, aggregate_page_range, AggScheme, AggTable};
use phj::sink::pair_digest;
use phj_memsim::{NativeModel, SimEngine, Snapshot};
use phj_obs::{Recorder, RegionsSection};
use phj_storage::Relation;

use crate::join::LaneStats;
use crate::pool::{self, WorkerStats};
use crate::schedule::{lpt_assign, page_morsels};

/// Morsels per worker (over-decomposed for stealing, as in the join).
const MORSELS_PER_WORKER: usize = 4;

/// Result of [`parallel_agg_native`].
pub struct NativeAggOutcome {
    /// The merged aggregation table.
    pub table: AggTable,
    /// Merged span recorder (present when observability was requested).
    pub recorder: Option<Recorder>,
    /// Per-worker execution counters.
    pub stats: Vec<WorkerStats>,
}

/// Result of [`parallel_agg_sim`].
pub struct SimAggOutcome {
    /// The merged aggregation table.
    pub table: AggTable,
    /// Merged run totals: critical-path breakdown, summed event counts.
    pub totals: Snapshot,
    /// Merged span recorder (present when observability was requested).
    pub recorder: Option<Recorder>,
    /// Merged per-region attribution (present when profiling was on).
    pub regions: Option<RegionsSection>,
    /// Per-lane share of the simulated work.
    pub lanes: Vec<LaneStats>,
}

/// Order-independent digest of an aggregation result: XOR of one
/// [`pair_digest`] per group over (key, count ‖ sum). Two tables built
/// from the same input in any morsel/merge order digest identically.
pub fn agg_checksum(table: &AggTable) -> u64 {
    table
        .iter()
        .map(|e| {
            let mut totals = [0u8; 16];
            totals[..8].copy_from_slice(&e.count.to_le_bytes());
            totals[8..].copy_from_slice(&e.sum.to_le_bytes());
            pair_digest(e.key(), &totals).max(1)
        })
        .fold(0u64, |acc, h| acc ^ h)
}

/// Fold per-morsel tables (in task order) into one, sized for the sum of
/// the per-morsel group counts.
fn merge_tables(buckets: usize, parts: Vec<AggTable>) -> AggTable {
    let groups: usize = parts.iter().map(|t| t.num_groups()).sum();
    let mut table = AggTable::new(buckets, groups.max(1));
    for part in &parts {
        table.merge_from(part);
    }
    table
}

/// In debug builds, replay the aggregation sequentially and require the
/// identical group set.
fn debug_check_against_sequential<F>(
    scheme: AggScheme,
    input: &Relation,
    buckets: usize,
    extract: &F,
    got: &AggTable,
) where
    F: Fn(&[u8]) -> i64,
{
    if cfg!(debug_assertions) {
        let seq = aggregate(&mut NativeModel, scheme, input, buckets, extract);
        debug_assert_eq!(
            (seq.num_groups(), agg_checksum(&seq)),
            (got.num_groups(), agg_checksum(got)),
            "parallel aggregation diverged from sequential"
        );
    }
}

/// Parallel aggregation on real threads (native model).
pub fn parallel_agg_native<F>(
    scheme: AggScheme,
    input: &Relation,
    buckets: usize,
    extract: F,
    threads: usize,
    want_obs: bool,
) -> NativeAggOutcome
where
    F: Fn(&[u8]) -> i64 + Sync,
{
    let threads = threads.max(1);
    let mut rec = want_obs.then(Recorder::new);
    let origin = rec.as_ref().map(|r| r.origin());
    let root = rec.as_mut().map(|r| {
        let id = r.begin("run", Snapshot::default());
        r.meta("threads", threads);
        id
    });
    let pass = rec.as_mut().map(|r| {
        let id = r.begin("aggregate", Snapshot::default());
        r.meta("threads", threads);
        id
    });
    let tasks = page_morsels(input.num_pages(), threads, MORSELS_PER_WORKER);
    let weights: Vec<u64> = tasks.iter().map(|r| r.len() as u64).collect();
    let states: Vec<(NativeModel, Option<Recorder>)> = (0..threads)
        .map(|_| (NativeModel, origin.map(Recorder::with_origin)))
        .collect();
    let (parts, states, stats) = pool::execute(states, &tasks, &weights, |st, _i, range| {
        let span = st.1.as_mut().map(|r| {
            let id = r.begin("agg_morsel", Snapshot::default());
            r.meta("pages", range.len());
            id
        });
        let t = aggregate_page_range(&mut st.0, scheme, input, range.clone(), buckets, &extract);
        if let (Some(r), Some(id)) = (st.1.as_mut(), span) {
            r.end(id, Snapshot::default());
        }
        t
    });
    if let Some(r) = rec.as_mut() {
        for (w, (_, wrec)) in states.into_iter().enumerate() {
            if let Some(wr) = wrec {
                r.graft(w, Snapshot::default(), wr.finish());
            }
        }
    }
    if let (Some(r), Some(id)) = (rec.as_mut(), pass) {
        r.end(id, Snapshot::default());
    }
    let table = merge_tables(buckets, parts);
    if let (Some(r), Some(id)) = (rec.as_mut(), root) {
        r.end(id, Snapshot::default());
    }
    debug_check_against_sequential(scheme, input, buckets, &extract, &table);
    NativeAggOutcome { table, recorder: rec, stats }
}

/// Parallel aggregation under the cycle simulator on `threads`
/// deterministic virtual lanes.
pub fn parallel_agg_sim<F>(
    scheme: AggScheme,
    input: &Relation,
    buckets: usize,
    extract: F,
    threads: usize,
    want_obs: bool,
    want_regions: bool,
) -> SimAggOutcome
where
    F: Fn(&[u8]) -> i64,
{
    let threads = threads.max(1);
    let mut rec = want_obs.then(Recorder::new);
    let root = rec.as_mut().map(|r| {
        let id = r.begin("run", Snapshot::default());
        r.meta("threads", threads);
        id
    });
    let pass = rec.as_mut().map(|r| {
        let id = r.begin("aggregate", Snapshot::default());
        r.meta("threads", threads);
        id
    });
    let tasks = page_morsels(input.num_pages(), threads, MORSELS_PER_WORKER);
    let weights: Vec<u64> = tasks.iter().map(|r| r.len() as u64).collect();
    let assignment = lpt_assign(&weights, threads);
    let mut regions = want_regions.then(RegionsSection::default);
    let mut lanes: Vec<LaneStats> =
        (0..threads).map(|lane| LaneStats { lane, ..Default::default() }).collect();
    let mut slots: Vec<Option<AggTable>> = (0..tasks.len()).map(|_| None).collect();
    let mut phase = Snapshot::default();
    for (w, list) in assignment.iter().enumerate() {
        let mut engine = SimEngine::paper();
        if want_regions {
            engine.enable_region_profiling();
        }
        let mut lane_rec = rec.as_ref().map(|_| Recorder::new());
        for &i in list {
            let span = lane_rec.as_mut().map(|r| {
                let id = r.begin("agg_morsel", engine.snapshot());
                r.meta("pages", tasks[i].len());
                id
            });
            let t = aggregate_page_range(
                &mut engine,
                scheme,
                input,
                tasks[i].clone(),
                buckets,
                &extract,
            );
            if let (Some(r), Some(id)) = (lane_rec.as_mut(), span) {
                r.end(id, engine.snapshot());
            }
            slots[i] = Some(t);
        }
        let snap = engine.snapshot();
        lanes[w].tasks += list.len() as u64;
        lanes[w].cycles += snap.breakdown.total();
        phase.stats = phase.stats + snap.stats;
        if snap.breakdown.total() > phase.breakdown.total() {
            phase.breakdown = snap.breakdown;
        }
        if let (Some(reg), Some(prof)) = (regions.as_mut(), engine.region_profile()) {
            reg.merge(&RegionsSection::from_profiler(prof));
        }
        if let (Some(r), Some(lr)) = (rec.as_mut(), lane_rec) {
            r.graft(w, Snapshot::default(), lr.finish());
        }
    }
    if let (Some(r), Some(id)) = (rec.as_mut(), pass) {
        r.end(id, phase);
    }
    let table = merge_tables(buckets, slots.into_iter().map(|t| t.expect("morsel ran")).collect());
    if let (Some(r), Some(id)) = (rec.as_mut(), root) {
        r.end(id, phase);
    }
    debug_check_against_sequential(scheme, input, buckets, &extract, &table);
    SimAggOutcome { table, totals: phase, recorder: rec, regions, lanes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phj::hash::hash_key;
    use phj_storage::{RelationBuilder, Schema};

    fn input(rows: usize, keys: usize) -> Relation {
        let mut b = RelationBuilder::new(Schema::key_payload(24));
        let mut t = [0u8; 24];
        for i in 0..rows {
            t[..4].copy_from_slice(&((i % keys) as u32).to_le_bytes());
            t[4] = (i % 7) as u8;
            b.push(&t);
        }
        b.finish()
    }

    #[test]
    fn parallel_agg_equals_sequential() {
        let rel = input(5000, 97);
        let extract = |t: &[u8]| t[4] as i64;
        let seq = aggregate(&mut NativeModel, AggScheme::Group { g: 8 }, &rel, 101, extract);
        for threads in [1, 2, 4] {
            let nat = parallel_agg_native(AggScheme::Group { g: 8 }, &rel, 101, extract, threads, false);
            assert_eq!(nat.table.num_groups(), seq.num_groups(), "threads={threads}");
            assert_eq!(agg_checksum(&nat.table), agg_checksum(&seq), "threads={threads}");
            let sim = parallel_agg_sim(AggScheme::Swp { d: 2 }, &rel, 101, extract, threads, false, false);
            assert_eq!(sim.table.num_groups(), seq.num_groups());
            assert_eq!(agg_checksum(&sim.table), agg_checksum(&seq));
            assert!(threads == 1 || sim.totals.breakdown.total() > 0);
        }
        // Every group's accumulators survive the merge exactly.
        let key = 11u32.to_le_bytes();
        let nat = parallel_agg_native(AggScheme::Baseline, &rel, 101, extract, 3, false);
        let a = nat.table.lookup(hash_key(&key), &key).unwrap();
        let b = seq.lookup(hash_key(&key), &key).unwrap();
        assert_eq!((a.count, a.sum), (b.count, b.sum));
    }

    #[test]
    fn checksum_is_order_independent_but_value_sensitive() {
        let rel = input(400, 13);
        let extract = |t: &[u8]| t[4] as i64;
        let a = aggregate(&mut NativeModel, AggScheme::Baseline, &rel, 17, extract);
        let b = aggregate(&mut NativeModel, AggScheme::Baseline, &rel, 5, extract);
        // Different bucket counts order entries differently; same digest.
        assert_eq!(agg_checksum(&a), agg_checksum(&b));
        let other = aggregate(&mut NativeModel, AggScheme::Baseline, &rel, 17, |t| t[4] as i64 + 1);
        assert_ne!(agg_checksum(&a), agg_checksum(&other));
    }
}
