//! The disk join driver: GRACE, hybrid and dynamic hybrid hash join
//! over file relations, run as one algorithm.
//!
//! Classic GRACE writes *every* partition to disk and reads it all
//! back, even when the build side nearly fits in memory — the I/O bill
//! is flat across the budget axis. The hybrid join instead keeps as
//! many build partitions memory-resident as the budget allows and joins
//! their probe tuples on the fly; only the overflow partitions
//! round-trip through the spill file. With a generous budget it
//! converges on a single in-memory join; with a starved one it
//! converges on GRACE (with a finer fanout), and in between it degrades
//! *linearly* instead of falling off a cliff. GRACE is the special case
//! with no resident partitions, so [`DiskJoinMode`] only sets three
//! policy values, read once at the top of [`hybrid_join_files_rec`]:
//!
//! | mode      | fan-out                 | resident at start | re-absorb |
//! |-----------|-------------------------|-------------------|-----------|
//! | `Grace`   | [`plan::num_partitions`] | none             | no        |
//! | `Hybrid`  | [`plan::hybrid_fanout`]  | all              | no        |
//! | `Dynamic` | [`plan::hybrid_fanout`]  | all              | yes       |
//!
//! **Residency protocol.** The build pass appends tuples into
//! per-partition page lists and checks, at page granularity, whether
//! `resident_bytes + reserve` still fits the live budget. When it does
//! not, the **largest** resident partition is evicted — its pages
//! stream to the spill file through a background writer, a
//! [`MemTransition`] records the partition's byte size and the live
//! budget at the moment of the decision, and the partition's future
//! tuples route straight to disk. The same check runs during the probe
//! pass (evicting there first drains the partition's pending probe
//! batch through its hash table, then serializes the build pages back
//! out), so a mid-run budget shrink from a [`LiveBudget`] grantor is
//! honored within one page's worth of work. A partition holding no
//! bytes is never a victim. [`DiskJoinMode::Dynamic`] additionally
//! *re-absorbs* spilled partitions (smallest-first) at the build→probe
//! phase boundary when the budget has headroom again — e.g. after a
//! neighboring query finished and the grantor raised the limit.
//!
//! The `reserve` slice ([`plan::hybrid_reserve`]) is held back from
//! residency to cover the probe-side batch buffers, hash-table
//! overhead, and the join-phase working space for spilled pairs.
//!
//! **Spilled pairs.** Whatever is on disk after the probe pass runs
//! through [`join_partition_pair`] — recursive reseeded repartition,
//! block-NLJ fallback, typed overflow, fault plans and retries — with
//! each pair's budget sampled from the live budget at pair start.
//!
//! **Timers.** `partition_s` covers both input scans (build pass,
//! absorb, resident table builds, probe pass); `join_s` covers the
//! spilled pairs and the output flush. Both come from one clock, so
//! they add up to the run.
//!
//! [`LiveBudget`]: crate::budget::LiveBudget
//! [`DiskJoinMode`]: crate::grace::DiskJoinMode
//! [`DiskJoinMode::Dynamic`]: crate::grace::DiskJoinMode::Dynamic
//! [`MemTransition`]: crate::grace::MemTransition

use std::cmp::Reverse;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use phj::join::{dispatch_build, dispatch_probe, JoinParams};
use phj::table::HashTable;
use phj::{hash, plan};
use phj_memsim::NativeModel;
use phj_obs::{self as obs, Recorder};
use phj_storage::{tuple::key_bytes_of, Page, Relation, Schema, PAGE_SIZE};

use crate::budget::LiveBudget;
use crate::error::{PhjError, Result};
use crate::grace::{
    join_partition_pair, Degrade, DiskGraceConfig, DiskGraceReport, DiskJoinMode, DiskSink,
    MemTransition, SpillFile, TransitionKind,
};
use crate::FileRelation;

/// Probe tuples for a resident partition accumulate in a small batch
/// before flushing through the partition's hash table, so the probe
/// loop amortizes dispatch overhead without holding unbounded memory.
const PROBE_BATCH_BYTES: usize = PAGE_SIZE;

/// One build partition.
enum Part {
    /// Memory-resident during the build pass: sealed-full pages plus
    /// the open append page.
    Filling { pages: Vec<Page>, open: Page },
    /// Memory-resident during the probe pass: the build relation, its
    /// hash table, and the pending probe batch.
    Built { rel: Relation, table: Box<HashTable>, batch: Relation },
    /// In the build spill file.
    Spilled,
}

impl Part {
    /// Bytes the partition holds on the residency ledger (an open page
    /// counts as full); `None` when it is spilled.
    fn resident_bytes(&self) -> Option<u64> {
        match self {
            Part::Filling { pages, .. } => Some(((pages.len() + 1) * PAGE_SIZE) as u64),
            Part::Built { rel, .. } => Some(rel.size_bytes() as u64),
            Part::Spilled => None,
        }
    }
}

/// The pressure victim among partitions of the given resident sizes
/// (`None` = spilled): the largest, lowest index first on ties. A
/// partition holding no bytes is never chosen — evicting it frees
/// nothing.
fn choose_victim(sizes: impl Iterator<Item = Option<u64>>) -> Option<(usize, u64)> {
    sizes
        .enumerate()
        .filter_map(|(i, bytes)| Some((i, bytes.filter(|&b| b > 0)?)))
        .max_by_key(|&(i, bytes)| (bytes, Reverse(i)))
}

/// The join's state across both input scans.
struct Driver<'a> {
    live: &'a LiveBudget,
    reserve: u64,
    parts: Vec<Part>,
    /// Bytes held by resident partitions, counting each open page as a
    /// full page. Hash tables and batch buffers ride on `reserve`.
    resident_bytes: u64,
    bspill: SpillFile,
    pspill: SpillFile,
    transitions: Vec<MemTransition>,
    native: NativeModel,
    params: JoinParams,
    sink: DiskSink,
}

impl Driver<'_> {
    fn push_build(&mut self, part: usize, tuple: &[u8], h: u32) -> Result<()> {
        match &mut self.parts[part] {
            Part::Filling { pages, open } => {
                if !open.fits(tuple.len()) {
                    pages.push(std::mem::replace(open, Page::new()));
                    self.resident_bytes += PAGE_SIZE as u64;
                }
                open.insert(tuple, h)
                    .ok_or(PhjError::TupleTooLarge { bytes: tuple.len() })?;
            }
            Part::Spilled => self.bspill.push(part, tuple, h)?,
            Part::Built { .. } => unreachable!("hash tables are built after the build pass"),
        }
        self.enforce("build")
    }

    /// Route one probe tuple: batch-join it against a resident
    /// partition, spill it for a disk pair, or drop it when the spilled
    /// build partition is empty (an inner join can never match it).
    fn push_probe(&mut self, part: usize, tuple: &[u8], h: u32) -> Result<()> {
        match &mut self.parts[part] {
            Part::Built { batch, .. } => {
                batch.append(tuple, h);
                if batch.tuple_bytes() >= PROBE_BATCH_BYTES {
                    self.flush_batch(part)?;
                }
            }
            Part::Spilled if self.bspill.part_tuples[part] > 0 => {
                self.pspill.push(part, tuple, h)?
            }
            _ => {}
        }
        self.enforce("probe")
    }

    /// Join a resident partition's pending probe batch through its
    /// hash table.
    fn flush_batch(&mut self, part: usize) -> Result<()> {
        let Part::Built { rel, table, batch } = &mut self.parts[part] else { return Ok(()) };
        if batch.num_tuples() == 0 {
            return Ok(());
        }
        let empty = Relation::new(batch.schema().clone());
        let prel = std::mem::replace(batch, empty);
        dispatch_probe(&mut self.native, &self.params, table, rel, &prel, &mut self.sink);
        self.sink.check()
    }

    /// Page-granular safe point: spill victims until residency (plus
    /// the reserve) fits the live budget, then ack.
    fn enforce(&mut self, phase: &'static str) -> Result<()> {
        let limit = self.live.limit();
        if self.resident_bytes + self.reserve <= limit {
            if self.live.acked() > limit {
                // Already compliant with a shrink we never had to act on.
                self.live.ack(limit);
            }
            return Ok(());
        }
        while self.resident_bytes + self.reserve > limit {
            let sizes = self.parts.iter().map(Part::resident_bytes);
            let Some((v, bytes)) = choose_victim(sizes) else { break };
            self.evict(v)?;
            self.resident_bytes -= bytes;
            self.record(v, bytes, limit, TransitionKind::SpillVictim, phase);
        }
        // Floor: with everything spilled we still hold the reserve.
        self.live.ack(limit.max(self.resident_bytes + self.reserve));
        Ok(())
    }

    /// Move resident partition `v` to the build spill file. A build-pass
    /// partition keeps filling its former open page as the spill
    /// buffer; a probe-pass partition first drains its pending batch,
    /// so every probe tuple is joined exactly once.
    fn evict(&mut self, v: usize) -> Result<()> {
        self.flush_batch(v)?;
        match std::mem::replace(&mut self.parts[v], Part::Spilled) {
            Part::Filling { pages, open } => {
                for page in &pages {
                    self.bspill.push_page(v, page)?;
                }
                self.bspill.adopt_buffer(v, open);
            }
            Part::Built { rel, .. } => {
                for page in rel.pages() {
                    self.bspill.push_page(v, page)?;
                }
            }
            Part::Spilled => unreachable!("victims are resident"),
        }
        Ok(())
    }

    /// Journal one residency transition: a report row and a flightrec
    /// grant event.
    fn record(
        &mut self,
        partition: usize,
        bytes: u64,
        budget: u64,
        kind: TransitionKind,
        phase: &'static str,
    ) {
        let op = match kind {
            TransitionKind::SpillVictim => phj_flightrec::grant_op::SPILL_VICTIM,
            TransitionKind::Absorb => phj_flightrec::grant_op::ABSORB,
        };
        phj_flightrec::event(phj_flightrec::EventKind::Grant, op, partition as u64, bytes);
        self.transitions.push(MemTransition { partition, bytes, budget, kind, phase });
    }

    /// Phase-boundary re-absorption: pull spilled partitions back into
    /// memory, smallest-first, while the live budget has headroom.
    /// Requires the build spill file flushed.
    fn absorb(&mut self) -> Result<()> {
        loop {
            let limit = self.live.limit();
            let headroom = limit.saturating_sub(self.resident_bytes + self.reserve);
            let cand = (0..self.parts.len())
                .filter(|&i| {
                    matches!(self.parts[i], Part::Spilled) && !self.bspill.part_pages[i].is_empty()
                })
                .map(|i| (i, ((self.bspill.part_pages[i].len() + 1) * PAGE_SIZE) as u64))
                .filter(|&(_, bytes)| bytes <= headroom)
                .min_by_key(|&(i, bytes)| (bytes, i));
            let Some((v, bytes)) = cand else { break };
            let pages = self.bspill.take_back(v)?;
            self.parts[v] = Part::Filling { pages, open: Page::new() };
            self.resident_bytes += bytes;
            self.record(v, bytes, limit, TransitionKind::Absorb, "absorb");
        }
        self.live.ack(self.live.limit().max(self.resident_bytes + self.reserve));
        Ok(())
    }

    /// Turn every resident partition into its relation and hash table;
    /// spilled partitions keep their page lists.
    fn build_tables(&mut self, bschema: &Schema, pschema: &Schema) {
        let p = self.parts.len();
        for part in &mut self.parts {
            let Part::Filling { pages, open } = std::mem::replace(part, Part::Spilled) else {
                continue;
            };
            let mut rel = Relation::new(bschema.clone());
            for page in pages {
                rel.push_page(page);
            }
            if open.nslots() > 0 {
                rel.push_page(open);
            } else {
                // The empty open page leaves residency with its owner.
                self.resident_bytes -= PAGE_SIZE as u64;
            }
            let n = rel.num_tuples();
            let mut table = HashTable::new(plan::hash_table_buckets(n, p), n);
            dispatch_build(&mut self.native, &self.params, &mut table, &rel);
            table.assert_quiescent();
            *part = Part::Built { rel, table: Box::new(table), batch: Relation::new(pschema.clone()) };
        }
    }

    /// Join every spilled pair through the degradation ladder, each
    /// budgeted by the live limit at its start.
    fn join_spilled(
        &mut self,
        cfg: &DiskGraceConfig,
        bschema: &Schema,
        pschema: &Schema,
        rec: &mut Option<&mut Recorder>,
    ) -> Result<Degrade> {
        let p = self.bspill.part_tuples.len();
        let mut deg = Degrade::default();
        for part in 0..p {
            if self.bspill.part_tuples[part] == 0 || self.pspill.part_tuples[part] == 0 {
                continue; // one side empty: no matches possible
            }
            let pair_budget = self.live.limit();
            self.live.ack(pair_budget.max(self.reserve));
            join_partition_pair(
                cfg,
                pair_budget,
                &self.params,
                &mut self.native,
                bschema,
                pschema,
                &self.bspill,
                &self.pspill,
                part,
                part.to_string(),
                0,
                p,
                &mut self.sink,
                &mut deg,
                rec,
            )?;
            self.sink.check()?;
        }
        Ok(deg)
    }
}

/// Run the disk hash join in `cfg.mode` (see the module docs). Entered
/// from [`crate::grace::grace_join_files_rec`] for every mode.
pub(crate) fn hybrid_join_files_rec(
    cfg: &DiskGraceConfig,
    build: &FileRelation,
    probe: &FileRelation,
    mut rec: Option<&mut Recorder>,
) -> Result<DiskGraceReport> {
    let t0 = Instant::now();
    let live: Arc<LiveBudget> = cfg
        .live_budget
        .clone()
        .unwrap_or_else(|| Arc::new(LiveBudget::new(cfg.mem_budget as u64)));
    let budget0 = live.limit().max(PAGE_SIZE as u64);
    let build_bytes = build.size_bytes() as usize;
    // The mode's three policy values: fan-out, whether partitions start
    // memory-resident, and whether spilled ones re-absorb between passes.
    let (fanout, resident, absorb) = match cfg.mode {
        DiskJoinMode::Grace => (plan::num_partitions(build_bytes, budget0 as usize), false, false),
        DiskJoinMode::Hybrid => (plan::hybrid_fanout(build_bytes, budget0 as usize), true, false),
        DiskJoinMode::Dynamic => (plan::hybrid_fanout(build_bytes, budget0 as usize), true, true),
    };
    let p = fanout.max(1);
    // Journal the budget this run starts under. `a` carries the host's
    // query id in full; `code` is the grant operation.
    phj_flightrec::event(
        phj_flightrec::EventKind::Grant,
        phj_flightrec::grant_op::BUDGET,
        cfg.grant_tag,
        budget0,
    );

    let native = NativeModel;
    let span = obs::span_begin(&mut rec, &native, "partition");
    obs::span_meta(&mut rec, "partitions", p);
    obs::span_meta(&mut rec, "mode", cfg.mode.label());
    let (bschema, pschema) = (build.schema(), probe.schema());
    let new_part = || {
        if resident {
            Part::Filling { pages: Vec::new(), open: Page::new() }
        } else {
            Part::Spilled
        }
    };
    let mut d = Driver {
        live: &live,
        reserve: plan::hybrid_reserve(budget0 as usize) as u64,
        parts: (0..p).map(|_| new_part()).collect(),
        resident_bytes: if resident { (p * PAGE_SIZE) as u64 } else { 0 },
        bspill: SpillFile::new(cfg, "build_spill", p)?,
        pspill: SpillFile::new(cfg, "probe_spill", p)?,
        transitions: Vec::new(),
        native,
        params: JoinParams { scheme: cfg.join_scheme, use_stored_hash: true },
        sink: DiskSink::create(cfg, bschema, pschema)?,
    };

    // ---- Build pass: stream the build side into its partitions,
    // evicting victims whenever residency outgrows the live budget.
    let mut scan = build.scan(cfg.read_ahead);
    while let Some(page) = scan.next_page()? {
        for (_, tuple, _) in page.iter() {
            let h = hash::hash_key(key_bytes_of(bschema, tuple));
            d.push_build(hash::partition_of(h, p), tuple, h)?;
        }
    }
    let mut input_stall_s = scan.stall_seconds();
    d.bspill.flush()?;
    if absorb {
        // The grantor may have freed memory since the victims spilled;
        // pull the cheapest ones back before building tables.
        d.absorb()?;
    }
    d.build_tables(bschema, pschema);

    // ---- Probe pass: resident partitions join on the fly; tuples for
    // spilled partitions go to the probe spill file.
    let mut scan = probe.scan(cfg.read_ahead);
    while let Some(page) = scan.next_page()? {
        for (_, tuple, _) in page.iter() {
            let h = hash::hash_key(key_bytes_of(pschema, tuple));
            d.push_probe(hash::partition_of(h, p), tuple, h)?;
        }
    }
    input_stall_s += scan.stall_seconds();
    for part in 0..p {
        d.flush_batch(part)?;
    }
    let resident_partitions = d.parts.iter().filter(|x| matches!(x, Part::Built { .. })).count();
    // Resident partitions are fully joined; release them before the
    // disk pairs so pair working memory has the whole budget.
    d.parts.clear();
    d.bspill.flush()?;
    d.pspill.flush()?;
    obs::span_end(&mut rec, &native, span);
    let partition_s = t0.elapsed().as_secs_f64();

    // ---- Spilled pairs: the degradation ladder, then the output tail.
    let span = obs::span_begin(&mut rec, &native, "join");
    let joined = d.join_spilled(cfg, bschema, pschema, &mut rec);
    let Driver { sink, transitions, .. } = d;
    let joined = joined.and_then(|deg| Ok((deg, sink.finish()?)));
    // Closed on failure too: a postmortem shows where the phase ended.
    obs::span_end(&mut rec, &native, span);
    let (deg, (output, matches, checksum)) = joined?;
    let join_s = t0.elapsed().as_secs_f64() - partition_s;
    let final_budget = live.limit();
    live.ack(final_budget);

    let stats = cfg.fault.stats();
    Ok(DiskGraceReport {
        output,
        num_partitions: p,
        partition_s,
        join_s,
        input_stall_s,
        matches,
        checksum,
        degradation: deg.events,
        read_retries: stats.read_retries.load(Ordering::Relaxed),
        write_retries: stats.write_retries.load(Ordering::Relaxed),
        faults_injected: stats.total_injected(),
        slow_stall_us: stats.slow_stall_us.load(Ordering::Relaxed),
        transitions,
        resident_partitions,
        final_budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grace::{grace_join_files, DegradationKind, DiskGraceConfig};
    use phj_workload::JoinSpec;
    use std::path::{Path, PathBuf};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("phj-hybrid-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec() -> JoinSpec {
        JoinSpec { build_tuples: 4000, tuple_size: 48, matches_per_build: 2, pct_match: 70, seed: 11 }
    }

    fn run(dir: &Path, mode: DiskJoinMode, budget: usize) -> DiskGraceReport {
        let gen = spec().generate();
        let fb = FileRelation::create(dir, "build", &gen.build, 3, 4).unwrap();
        let fp = FileRelation::create(dir, "probe", &gen.probe, 3, 4).unwrap();
        let cfg = DiskGraceConfig { mem_budget: budget, mode, ..DiskGraceConfig::new(dir) };
        grace_join_files(&cfg, &fb, &fp).unwrap()
    }

    /// Stage `spec`'s relations under `dir`.
    fn stage(dir: &Path, spec: JoinSpec) -> (FileRelation, FileRelation, u64) {
        let gen = spec.generate();
        let fb = FileRelation::create(dir, "build", &gen.build, 6, 32).unwrap();
        let fp = FileRelation::create(dir, "probe", &gen.probe, 6, 32).unwrap();
        (fb, fp, gen.expected_matches)
    }

    /// Every mode gives GRACE's answer, and GRACE mode keeps its shape:
    /// the static fan-out, nothing resident, no transitions, and the
    /// exact degradation steps (partition, depth, kind) it took before
    /// it ran as the hybrid driver with no resident partitions.
    #[test]
    fn hybrid_matches_grace_at_every_budget() {
        let rp = DegradationKind::Repartition { fanout: 2, seed: 1 };
        let cases = [
            ("b32k", spec(), 32 * 1024, vec![("2", 0, rp.clone())]),
            ("b128k", spec(), 128 * 1024, vec![]),
            ("b4m", spec(), 4 << 20, vec![]),
            // The disk_spill shape scaled down 8x (pivot tuples, build
            // 4x the budget), on which GRACE degrades twice.
            (
                "pivot",
                JoinSpec { seed: 1, ..JoinSpec::pivot(512 << 10) },
                128 * 1024,
                vec![("0", 0, rp.clone()), ("2", 0, rp)],
            ),
        ];
        for (tag, spec, budget, grace_steps) in cases {
            let dir = temp_dir(tag);
            let (fb, fp, want) = stage(&dir, spec);
            let join = |mode: DiskJoinMode| {
                let out = dir.join(mode.label());
                std::fs::create_dir_all(&out).unwrap();
                let cfg = DiskGraceConfig { mem_budget: budget, mode, ..DiskGraceConfig::new(&out) };
                grace_join_files(&cfg, &fb, &fp).unwrap()
            };
            let build_bytes = fb.size_bytes() as usize;
            let g = join(DiskJoinMode::Grace);
            assert_eq!(g.matches, want, "{tag}");
            assert_eq!(g.num_partitions, plan::num_partitions(build_bytes, budget), "{tag}");
            assert_eq!(g.resident_partitions, 0, "{tag}");
            assert!(g.transitions.is_empty(), "{tag}: {:?}", g.transitions);
            let steps: Vec<_> =
                g.degradation.iter().map(|e| (e.partition.as_str(), e.depth, e.kind.clone())).collect();
            assert_eq!(steps, grace_steps, "{tag}");
            for mode in [DiskJoinMode::Hybrid, DiskJoinMode::Dynamic] {
                let r = join(mode);
                let what = format!("{tag} {}", mode.label());
                assert_eq!(r.num_partitions, plan::hybrid_fanout(build_bytes, budget), "{what}");
                assert_eq!((r.matches, r.checksum), (g.matches, g.checksum), "{what}");
                assert_eq!(r.output.num_tuples(), r.matches, "{what}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The two phase timers share one clock: together they cover the
    /// whole call but the budget setup before the first scan and the
    /// report assembly after the output flush.
    #[test]
    fn phase_timers_add_up_to_the_run() {
        let dir = temp_dir("timers");
        let (fb, fp, _) = stage(&dir, JoinSpec { seed: 1, ..JoinSpec::pivot(512 << 10) });
        for mode in [DiskJoinMode::Grace, DiskJoinMode::Hybrid, DiskJoinMode::Dynamic] {
            let out = dir.join(mode.label());
            std::fs::create_dir_all(&out).unwrap();
            let cfg = DiskGraceConfig { mem_budget: 128 * 1024, mode, ..DiskGraceConfig::new(&out) };
            let t = Instant::now();
            let r = grace_join_files(&cfg, &fb, &fp).unwrap();
            let wall = t.elapsed().as_secs_f64();
            let phases = r.partition_s + r.join_s;
            let what = format!("{}: {phases}s of {wall}s", mode.label());
            assert!(phases <= wall, "{what}");
            assert!(phases >= 0.9 * wall, "{what}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn victim_is_the_largest_partition_holding_bytes() {
        let page = PAGE_SIZE as u64;
        // An empty resident partition frees nothing: never a victim,
        // not even when it is the only resident one.
        assert_eq!(choose_victim([Some(0), None].into_iter()), None);
        assert_eq!(choose_victim([Some(page), Some(0)].into_iter()), Some((0, page)));
        // Largest first, lowest index on ties; spilled ones are skipped.
        let sizes = [Some(0), Some(page), None, Some(2 * page), Some(2 * page)];
        assert_eq!(choose_victim(sizes.into_iter()), Some((3, 2 * page)));
    }

    #[test]
    fn generous_budget_keeps_everything_resident() {
        let dir = temp_dir("resident");
        let r = run(&dir, DiskJoinMode::Hybrid, 64 << 20);
        assert_eq!(r.resident_partitions, r.num_partitions);
        assert!(r.transitions.is_empty(), "{:?}", r.transitions);
        assert!(r.degradation.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn starved_budget_spills_victims_and_still_answers() {
        let dir = temp_dir("starved");
        let r = run(&dir, DiskJoinMode::Hybrid, 24 * 1024);
        assert!(
            r.transitions.iter().any(|t| t.kind == TransitionKind::SpillVictim),
            "expected victim spills under a starved budget"
        );
        for t in &r.transitions {
            assert!(t.bytes > 0);
            assert!(t.budget > 0);
        }
        let gdir = temp_dir("starved-ref");
        let g = run(&gdir, DiskJoinMode::Grace, 24 * 1024);
        assert_eq!(g.checksum, r.checksum);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&gdir).ok();
    }

    #[test]
    fn mid_run_shrink_spills_victims_and_budgets_the_ladder() {
        let dir = temp_dir("shrink");
        let gen = spec().generate();
        let fb = FileRelation::create(&dir, "build", &gen.build, 3, 4).unwrap();
        let fp = FileRelation::create(&dir, "probe", &gen.probe, 3, 4).unwrap();
        // The pending pre-run shrink (64 MiB → 8 MiB) makes the join's
        // very first safe point ack — and the ack hook then lands a
        // *mid-run* shrink to 32 KiB, deterministically, while the
        // build pass is streaming.
        let live = Arc::new(LiveBudget::new(64 << 20));
        live.request_shrink(8 << 20);
        let hooked = Arc::clone(&live);
        live.set_on_ack(move |_| hooked.request_shrink(32 * 1024));
        let cfg = DiskGraceConfig {
            mem_budget: 64 << 20,
            mode: DiskJoinMode::Dynamic,
            live_budget: Some(Arc::clone(&live)),
            ..DiskGraceConfig::new(&dir)
        };
        let r = grace_join_files(&cfg, &fb, &fp).unwrap();
        assert_eq!(r.final_budget, 32 * 1024);
        // The shrink was observed mid-build: victims spilled against
        // the 32 KiB live budget, not the configured 64 MiB.
        assert!(
            r.transitions
                .iter()
                .any(|t| t.kind == TransitionKind::SpillVictim && t.budget == 32 * 1024),
            "{:?}",
            r.transitions
        );
        // The spilled pairs walked the degradation ladder against the
        // *live* budget.
        for d in &r.degradation {
            assert_eq!(d.budget, 32 * 1024, "{d}");
        }
        let gdir = temp_dir("shrink-ref");
        let g = run(&gdir, DiskJoinMode::Grace, 8 << 20);
        assert_eq!(g.checksum, r.checksum);
        assert_eq!(g.matches, r.matches);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&gdir).ok();
    }

    #[test]
    fn dynamic_reabsorbs_after_budget_raise() {
        let dir = temp_dir("absorb");
        let gen = spec().generate();
        let fb = FileRelation::create(&dir, "build", &gen.build, 3, 4).unwrap();
        let fp = FileRelation::create(&dir, "probe", &gen.probe, 3, 4).unwrap();
        // Start starved (a pending shrink to one page forces the first
        // safe point to spill everything and ack); the ack hook then
        // raises the budget mid-build, and the dynamic mode re-absorbs
        // the spilled partitions at the build→probe phase boundary.
        let live = Arc::new(LiveBudget::new(64 * 1024));
        live.request_shrink(8 * 1024);
        let hooked = Arc::clone(&live);
        live.set_on_ack(move |_| hooked.request(32 << 20));
        let cfg = DiskGraceConfig {
            mem_budget: 64 * 1024,
            mode: DiskJoinMode::Dynamic,
            live_budget: Some(Arc::clone(&live)),
            ..DiskGraceConfig::new(&dir)
        };
        let r = grace_join_files(&cfg, &fb, &fp).unwrap();
        assert!(
            r.transitions.iter().any(|t| t.kind == TransitionKind::Absorb),
            "expected re-absorption after the mid-run raise: {:?}",
            r.transitions
        );
        // Every partition that received build tuples was re-absorbed
        // (empty ones have nothing to pull back), so no pair ever
        // reaches the disk-join ladder.
        assert!(r.resident_partitions > 0);
        assert!(r.degradation.is_empty(), "{:?}", r.degradation);
        let gdir = temp_dir("absorb-ref");
        let g = run(&gdir, DiskJoinMode::Grace, 64 * 1024);
        assert_eq!(g.checksum, r.checksum);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&gdir).ok();
    }
}
