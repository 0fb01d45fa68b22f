//! GRACE hash join over file relations — the disk-oriented execution the
//! paper's real-machine experiments run (§7.2), with real files, real
//! background I/O threads, and a graceful-degradation ladder for when the
//! memory-budget estimate turns out wrong.
//!
//! GRACE, hybrid and dynamic hybrid hash join are one algorithm here: the
//! single driver in `disk::hybrid` partitions both inputs through a
//! [`crate::SequentialReader`] (background read-ahead), keeps some build
//! partitions memory-resident, spills the rest to striped spill files
//! through a [`BackgroundWriter`], and joins the spilled partition pairs
//! afterwards; output pages stream to disk through another background
//! writer. GRACE mode is that driver with no resident partitions and the
//! classic fan-out. This module holds the public configuration and report
//! types, the `SpillFile` every partitioning pass writes, and the
//! per-pair ladder.
//!
//! **Degradation ladder.** A build partition larger than the memory
//! budget (skew, or an under-estimated partition count) does not abort
//! and does not silently thrash:
//!
//! 1. *Recursive repartition* — the oversized partition is re-partitioned
//!    on disk with a different hash seed ([`phj::hash::hash_key_seeded`]),
//!    up to [`DiskGraceConfig::max_repartition_depth`] levels deep. The
//!    sub-spill pages keep the original seed-0 stashed hash codes, so the
//!    join phase's stored-hash optimization stays correct.
//! 2. *Block nested-loop fallback* — when repartitioning stops helping
//!    (all tuples share one key) or the depth bound is hit, the partition
//!    is joined in build chunks of at most the memory budget, streaming
//!    the probe side past each chunk.
//! 3. *Typed failure* — with the fallback disabled, the join returns
//!    [`PhjError::PartitionOverflow`] instead of a wrong answer.
//!
//! Every step is recorded as a [`DegradationEvent`] in the report, and
//! the report carries an order-insensitive result checksum so a degraded
//! run can be verified against a fault-free one without loading the
//! output.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, SyncSender};

use phj::join::{dispatch_build, dispatch_probe, join_pair, JoinParams, JoinScheme};
use phj::sink::{CountSink, JoinSink};
use phj::table::HashTable;
use phj::{hash, plan};
use phj_memsim::{MemoryModel, NativeModel};
use phj_obs::{self as obs, Recorder};
use phj_storage::{
    tuple::key_bytes_of, tuple::materialize_join_output, Page, Relation, Schema, PAGE_SIZE,
};

use crate::error::{PhjError, Result};
use crate::fault::{FaultPlan, RetryPolicy};
use crate::stripe::StripeSet;
use crate::writer::BackgroundWriter;
use crate::FileRelation;

/// Which disk-join execution strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskJoinMode {
    /// Classic GRACE: partition everything to disk, then join pairs.
    /// The budget is static for the whole run.
    #[default]
    Grace,
    /// Hybrid: keep as many build partitions memory-resident as the
    /// budget allows, join their probe tuples on the fly, and spill
    /// largest-first victims when residency outgrows the budget. The
    /// budget is still static.
    Hybrid,
    /// Hybrid plus runtime adaptation: the budget is a [`LiveBudget`]
    /// the grantor may shrink mid-run (victims spill at the next safe
    /// point) or raise (spilled partitions re-absorb at the next phase
    /// boundary).
    ///
    /// [`LiveBudget`]: crate::budget::LiveBudget
    Dynamic,
}

impl DiskJoinMode {
    /// Stable label (CLI flag value, bench rows, report keys).
    pub fn label(self) -> &'static str {
        match self {
            DiskJoinMode::Grace => "grace",
            DiskJoinMode::Hybrid => "hybrid",
            DiskJoinMode::Dynamic => "dynamic",
        }
    }

    /// Inverse of [`DiskJoinMode::label`].
    pub fn parse(s: &str) -> Option<DiskJoinMode> {
        match s {
            "grace" => Some(DiskJoinMode::Grace),
            "hybrid" => Some(DiskJoinMode::Hybrid),
            "dynamic" => Some(DiskJoinMode::Dynamic),
            _ => None,
        }
    }
}

/// Configuration for the on-disk GRACE join.
#[derive(Debug, Clone)]
pub struct DiskGraceConfig {
    /// Join-phase memory budget (build partition size), as in §7.1.
    pub mem_budget: usize,
    /// Stripe files per relation (the paper's "disks"; 6 in §7.2).
    pub num_stripes: usize,
    /// Stripe unit in pages (256 KB = 32 pages of 8 KB in §7.2).
    pub stripe_pages: u64,
    /// Read-ahead window in pages.
    pub read_ahead: usize,
    /// Background-writer in-flight window in pages.
    pub write_window: usize,
    /// In-memory join scheme for each partition pair.
    pub join_scheme: JoinScheme,
    /// Working directory for spill and output files.
    pub dir: PathBuf,
    /// Fault plan injected into every spill/output stripe set (the
    /// *input* relations carry their own plan; see
    /// [`FileRelation::set_faults`]). Disabled by default.
    pub fault: FaultPlan,
    /// Retry policy for every page read/write.
    pub retry: RetryPolicy,
    /// How many levels of recursive reseeded repartitioning to try for
    /// an oversized build partition before falling back.
    pub max_repartition_depth: u32,
    /// Whether to fall back to a streaming block nested-loop join when
    /// repartitioning cannot shrink a partition under the budget. With
    /// this off, such a partition is a [`PhjError::PartitionOverflow`].
    pub nlj_fallback: bool,
    /// Query id stamped (full u64, payload `a`) on the flight-recorder
    /// `Grant` event this run journals, so a host multiplexing several
    /// joins through one journal (the query daemon tags by query id)
    /// can tell the grants apart. 0 for standalone runs.
    pub grant_tag: u64,
    /// Execution strategy; [`DiskJoinMode::Grace`] preserves the
    /// classic partition-everything behavior exactly.
    pub mode: DiskJoinMode,
    /// Revocable budget for [`DiskJoinMode::Dynamic`]. When `None`, a
    /// fixed [`LiveBudget`](crate::budget::LiveBudget) is created from
    /// `mem_budget`; a host that wants to shrink the run mid-flight
    /// (the query daemon's admission table) installs a shared one here.
    pub live_budget: Option<std::sync::Arc<crate::budget::LiveBudget>>,
}

impl DiskGraceConfig {
    /// Paper-shaped defaults under `dir`.
    pub fn new(dir: &Path) -> Self {
        DiskGraceConfig {
            mem_budget: 50 << 20,
            num_stripes: 6,
            stripe_pages: 32,
            read_ahead: 256,
            write_window: 256,
            join_scheme: JoinScheme::Group { g: 16 },
            dir: dir.to_path_buf(),
            fault: FaultPlan::disabled(),
            retry: RetryPolicy::default(),
            max_repartition_depth: 2,
            nlj_fallback: true,
            grant_tag: 0,
            mode: DiskJoinMode::Grace,
            live_budget: None,
        }
    }
}

/// One degradation step taken for an oversized build partition.
#[derive(Debug, Clone)]
pub struct DegradationEvent {
    /// Hierarchical partition label: `"3"` at the top level, `"3.1"` for
    /// sub-partition 1 of a depth-1 repartition of partition 3, …
    pub partition: String,
    /// Repartition depth at which the step was taken (0 = top level).
    pub depth: u32,
    /// Size of the oversized build partition in bytes (whole pages).
    pub bytes: u64,
    /// The memory budget it failed to fit — the *live* budget at the
    /// time of the event, which under [`DiskJoinMode::Dynamic`] may be
    /// smaller than the configured `mem_budget` if the grantor shrank
    /// the run. Robustness curves and `phj explain` attribute spills
    /// from this pair.
    pub budget: u64,
    /// What the engine did about it.
    pub kind: DegradationKind,
}

/// What the degradation ladder did at one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradationKind {
    /// Re-partitioned on disk with a fresh hash seed into `fanout`
    /// sub-partitions.
    Repartition {
        /// Number of sub-partitions.
        fanout: usize,
        /// Hash seed used for the re-partitioning.
        seed: u32,
    },
    /// Joined via streaming block nested-loop in `chunks` build chunks.
    NljFallback {
        /// Number of build chunks (each at most the memory budget).
        chunks: usize,
    },
}

impl DegradationKind {
    /// Stable label (report rows, CLI logs).
    pub fn label(&self) -> &'static str {
        match self {
            DegradationKind::Repartition { .. } => "repartition",
            DegradationKind::NljFallback { .. } => "nlj_fallback",
        }
    }

    /// The step's size: the sub-partition count of a repartition, the
    /// build-chunk count of a nested-loop fallback.
    pub fn detail(&self) -> u64 {
        match *self {
            DegradationKind::Repartition { fanout, .. } => fanout as u64,
            DegradationKind::NljFallback { chunks } => chunks as u64,
        }
    }
}

impl std::fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            DegradationKind::Repartition { fanout, seed } => write!(
                f,
                "partition {} ({} B > budget {} B): repartitioned x{fanout} with seed {seed} at depth {}",
                self.partition, self.bytes, self.budget, self.depth
            ),
            DegradationKind::NljFallback { chunks } => write!(
                f,
                "partition {} ({} B > budget {} B): block nested-loop fallback in {chunks} chunk(s) at depth {}",
                self.partition, self.bytes, self.budget, self.depth
            ),
        }
    }
}

/// Which way a partition crossed the memory/disk boundary mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// A resident partition was evicted (largest-first victim) because
    /// residency outgrew the live budget.
    SpillVictim,
    /// A spilled partition was re-absorbed into memory after the live
    /// budget freed up between phases.
    Absorb,
}

impl TransitionKind {
    /// Stable label (report rows, CLI logs).
    pub fn label(self) -> &'static str {
        match self {
            TransitionKind::SpillVictim => "spill_victim",
            TransitionKind::Absorb => "absorb",
        }
    }
}

/// One residency transition taken by the hybrid/dynamic join, with the
/// partition's byte size and the live budget at the moment of the
/// decision — the attribution trail for robustness curves.
#[derive(Debug, Clone)]
pub struct MemTransition {
    /// Top-level partition index.
    pub partition: usize,
    /// Bytes the partition held when the transition fired.
    pub bytes: u64,
    /// The live budget at that moment.
    pub budget: u64,
    /// Eviction or re-absorption.
    pub kind: TransitionKind,
    /// Phase during which it happened (`"build"`, `"absorb"`, `"probe"`).
    pub phase: &'static str,
}

impl std::fmt::Display for MemTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            TransitionKind::SpillVictim => write!(
                f,
                "partition {} ({} B) spilled as pressure victim during {} (live budget {} B)",
                self.partition, self.bytes, self.phase, self.budget
            ),
            TransitionKind::Absorb => write!(
                f,
                "partition {} ({} B) re-absorbed during {} (live budget {} B)",
                self.partition, self.bytes, self.phase, self.budget
            ),
        }
    }
}

/// Timing and outcome of an on-disk GRACE run.
#[derive(Debug)]
pub struct DiskGraceReport {
    /// The join output, on disk.
    pub output: FileRelation,
    /// Number of top-level partitions.
    pub num_partitions: usize,
    /// Wall-clock seconds for both input scans: the build pass, any
    /// re-absorption, the resident hash-table builds and the probe pass.
    pub partition_s: f64,
    /// Wall-clock seconds for the spilled pairs and the output flush.
    /// Taken from the same clock as `partition_s`, so the two add up to
    /// the run.
    pub join_s: f64,
    /// Seconds the main thread blocked waiting for input pages (the
    /// Fig-9 "main thread stall").
    pub input_stall_s: f64,
    /// Matches produced.
    pub matches: u64,
    /// Order-insensitive checksum over the emitted (build, probe) pairs —
    /// equal joins produce equal checksums regardless of partition
    /// order, degradation path, or faults survived along the way.
    pub checksum: u64,
    /// Degradation steps taken for oversized partitions (empty on a
    /// well-budgeted run).
    pub degradation: Vec<DegradationEvent>,
    /// Read attempts repeated after retryable failures.
    pub read_retries: u64,
    /// Write attempts repeated after retryable failures.
    pub write_retries: u64,
    /// Faults injected by the run's fault plans (input + spill/output).
    pub faults_injected: u64,
    /// Microseconds of injected slow-disk stall.
    pub slow_stall_us: u64,
    /// Residency transitions (victim spills, re-absorptions) the
    /// hybrid/dynamic modes took; empty for classic GRACE.
    pub transitions: Vec<MemTransition>,
    /// Build partitions still memory-resident when the probe pass
    /// ended (0 for classic GRACE — it spills everything up front).
    pub resident_partitions: usize,
    /// The live budget when the run finished (equals `mem_budget`
    /// unless a grantor resized the run).
    pub final_budget: u64,
}

/// One relation's partitions in a spill file. Tuples route into one
/// buffer page per partition, sealed pages stream out through a
/// background writer, and the page map records which spill pages belong
/// to which partition. [`SpillFile::flush`] stops the writer so every
/// page written so far can be read back; the next write restarts it.
pub(crate) struct SpillFile {
    stripes: StripeSet,
    writer: Option<BackgroundWriter>,
    window: usize,
    next_page: u64,
    bufs: Vec<Page>,
    pub(crate) part_pages: Vec<Vec<u64>>,
    /// Tuples each partition holds in the file, buffered ones included.
    pub(crate) part_tuples: Vec<u64>,
}

impl SpillFile {
    pub(crate) fn new(cfg: &DiskGraceConfig, name: &str, p: usize) -> Result<SpillFile> {
        let stripes = StripeSet::create(&cfg.dir, name, cfg.num_stripes, cfg.stripe_pages)
            .map_err(|e| PhjError::io(cfg.dir.join(name), e))?
            .with_faults(cfg.fault.clone(), cfg.retry);
        Ok(SpillFile {
            stripes,
            writer: None,
            window: cfg.write_window,
            next_page: 0,
            bufs: (0..p).map(|_| Page::new()).collect(),
            part_pages: vec![Vec::new(); p],
            part_tuples: vec![0; p],
        })
    }

    /// Append `tuple` to partition `part`, stashing `hash` in its slot.
    pub(crate) fn push(&mut self, part: usize, tuple: &[u8], hash: u32) -> Result<()> {
        if !self.bufs[part].fits(tuple.len()) {
            self.write(part, self.bufs[part].sealed_image())?;
            self.bufs[part].reset();
            // Per-page spill marks are full-mode only: one per sealed page
            // would dominate the ring at phase granularity.
            phj_flightrec::event_full(
                phj_flightrec::EventKind::Spill,
                part.min(u16::MAX as usize) as u16,
                self.part_pages[part].len() as u64,
                self.part_tuples[part],
            );
        }
        self.bufs[part]
            .insert(tuple, hash)
            .ok_or(PhjError::TupleTooLarge { bytes: tuple.len() })?;
        self.part_tuples[part] += 1;
        Ok(())
    }

    /// Append a whole memory-resident page to partition `part`.
    pub(crate) fn push_page(&mut self, part: usize, page: &Page) -> Result<()> {
        self.write(part, page.sealed_image())?;
        self.part_tuples[part] += page.nslots() as u64;
        Ok(())
    }

    /// Make a partly filled `page` partition `part`'s buffer page, so
    /// the partition's next tuples fill it before it is sealed.
    pub(crate) fn adopt_buffer(&mut self, part: usize, page: Page) {
        debug_assert_eq!(self.bufs[part].nslots(), 0, "buffer adopted over live tuples");
        self.part_tuples[part] += page.nslots() as u64;
        self.bufs[part] = page;
    }

    /// Read partition `part`'s pages back and drop them from the page
    /// map. Requires the file flushed.
    pub(crate) fn take_back(&mut self, part: usize) -> Result<Vec<Page>> {
        let pages = self.part_pages[part]
            .iter()
            .map(|&pid| self.stripes.read_page_verified(pid))
            .collect::<Result<Vec<_>>>()?;
        self.part_pages[part].clear();
        self.part_tuples[part] = 0;
        Ok(pages)
    }

    fn write(&mut self, part: usize, image: Box<[u8; PAGE_SIZE]>) -> Result<()> {
        let writer = self
            .writer
            .get_or_insert_with(|| BackgroundWriter::start(self.stripes.clone(), self.window));
        writer.write(self.next_page, image)?;
        self.part_pages[part].push(self.next_page);
        self.next_page += 1;
        Ok(())
    }

    /// Write out every partly filled buffer page and stop the writer:
    /// every tuple pushed so far is then on disk and readable.
    pub(crate) fn flush(&mut self) -> Result<()> {
        for part in 0..self.bufs.len() {
            if self.bufs[part].nslots() > 0 {
                self.write(part, self.bufs[part].sealed_image())?;
                self.bufs[part].reset();
            }
        }
        let Some(writer) = self.writer.take() else { return Ok(()) };
        writer.finish()?;
        // One flush mark per writer run: a = pages written so far, b =
        // tuples the file holds.
        phj_flightrec::event(
            phj_flightrec::EventKind::Flush,
            self.part_pages.len().min(u16::MAX as usize) as u16,
            self.next_page,
            self.part_tuples.iter().sum(),
        );
        Ok(())
    }
}

/// Re-partition one oversized partition of `parent` into `fanout`
/// sub-partitions, routing by the `seed`-reseeded key hash. The stashed
/// hash codes written to the sub-spill pages are the *original* seed-0
/// codes, so the join phase's `use_stored_hash` bucketing stays valid.
fn repartition_spill(
    cfg: &DiskGraceConfig,
    schema: &Schema,
    parent: &SpillFile,
    part: usize,
    name: &str,
    fanout: usize,
    seed: u32,
) -> Result<SpillFile> {
    let mut sub = SpillFile::new(cfg, name, fanout)?;
    for &pid in &parent.part_pages[part] {
        let page = parent.stripes.read_page_verified(pid)?;
        for (_, tuple, stash) in page.iter() {
            let route = hash::hash_key_seeded(key_bytes_of(schema, tuple), seed);
            sub.push(hash::partition_of(route, fanout), tuple, stash)?;
        }
    }
    sub.flush()?;
    Ok(sub)
}

/// Load one partition's pages from the spill file into memory, with a
/// single background prefetch worker streaming the page list. Pages
/// arrive checksum-verified.
fn load_partition(
    spill: &SpillFile,
    part: usize,
    schema: &Schema,
    window: usize,
) -> Result<Relation> {
    let pages = &spill.part_pages[part];
    let mut rel = Relation::new(schema.clone());
    if pages.is_empty() {
        return Ok(rel);
    }
    type Msg = Result<Page>;
    let (tx, rx): (SyncSender<Msg>, Receiver<Msg>) =
        std::sync::mpsc::sync_channel(window.max(1));
    let stripes = spill.stripes.clone();
    let list = pages.clone();
    let worker = std::thread::spawn(move || {
        for pid in list {
            let msg = stripes.read_page_verified(pid);
            let failed = msg.is_err();
            if tx.send(msg).is_err() || failed {
                return;
            }
        }
    });
    let mut result = Ok(());
    for _ in 0..pages.len() {
        match rx.recv() {
            Ok(Ok(page)) => rel.push_page(page),
            Ok(Err(e)) => {
                result = Err(e);
                break;
            }
            Err(_) => {
                result = Err(PhjError::WorkerLost { what: "partition prefetch" });
                break;
            }
        }
    }
    drop(rx);
    let _ = worker.join();
    result.map(|()| rel)
}

/// Streams join output pages to `<dir>/out.N` as they fill, keeping an
/// order-insensitive checksum of the emitted pairs. Errors inside the
/// sink (the `JoinSink` trait is infallible) stick until
/// [`DiskSink::check`] surfaces them.
pub(crate) struct DiskSink {
    stripes: StripeSet,
    build_schema: Schema,
    probe_schema: Schema,
    writer: BackgroundWriter,
    page: Page,
    next_page: u64,
    buf: Vec<u8>,
    tuples: u64,
    count: CountSink,
    error: Option<PhjError>,
}

impl DiskSink {
    pub(crate) fn create(
        cfg: &DiskGraceConfig,
        build_schema: &Schema,
        probe_schema: &Schema,
    ) -> Result<DiskSink> {
        let stripes = StripeSet::create(&cfg.dir, "out", cfg.num_stripes, cfg.stripe_pages)
            .map_err(|e| PhjError::io(cfg.dir.join("out"), e))?
            .with_faults(cfg.fault.clone(), cfg.retry);
        Ok(DiskSink {
            writer: BackgroundWriter::start(stripes.clone(), cfg.write_window),
            stripes,
            build_schema: build_schema.clone(),
            probe_schema: probe_schema.clone(),
            page: Page::new(),
            next_page: 0,
            buf: Vec::new(),
            tuples: 0,
            count: CountSink::new(),
            error: None,
        })
    }

    /// Surface the first error an `emit` hit, if any.
    pub(crate) fn check(&mut self) -> Result<()> {
        self.error.take().map_or(Ok(()), Err)
    }

    /// Flush the output tail and stop the writer. Returns the output
    /// relation, the match count and the pair checksum.
    pub(crate) fn finish(mut self) -> Result<(FileRelation, u64, u64)> {
        if self.page.nslots() > 0 {
            self.writer.write(self.next_page, self.page.sealed_image())?;
            self.next_page += 1;
        }
        self.writer.finish()?;
        let schema = Schema::join_output(&self.build_schema, &self.probe_schema);
        let output = FileRelation::from_parts(schema, self.stripes, self.next_page, self.tuples);
        Ok((output, self.count.matches(), self.count.checksum()))
    }
}

impl JoinSink for DiskSink {
    fn emit<M: MemoryModel>(&mut self, mem: &mut M, build: &[u8], probe: &[u8]) {
        if self.error.is_some() {
            return;
        }
        self.count.emit(mem, build, probe);
        materialize_join_output(&self.build_schema, &self.probe_schema, build, probe, &mut self.buf);
        if !self.page.fits(self.buf.len()) {
            if self.page.nslots() == 0 {
                self.error = Some(PhjError::TupleTooLarge { bytes: self.buf.len() });
                return;
            }
            if let Err(e) = self.writer.write(self.next_page, self.page.sealed_image()) {
                self.error = Some(e);
                return;
            }
            self.next_page += 1;
            self.page.reset();
        }
        if self.page.insert(&self.buf, 0).is_none() {
            self.error = Some(PhjError::TupleTooLarge { bytes: self.buf.len() });
            return;
        }
        self.tuples += 1;
    }

    fn matches(&self) -> u64 {
        self.count.matches()
    }
}

/// Mutable state threaded through the recursive join phase.
#[derive(Default)]
pub(crate) struct Degrade {
    pub(crate) events: Vec<DegradationEvent>,
    /// Fresh names for recursive spill sets.
    pub(crate) spill_counter: u64,
}

/// Join one (build, probe) partition pair, degrading as needed. `label`
/// is the hierarchical partition name for diagnostics; `top_p` is the
/// top-level partition count (kept as the bucket-coprimality modulus).
/// `budget` is the budget *live at this pair* — the current
/// [`LiveBudget`](crate::budget::LiveBudget) limit, which is the static
/// `cfg.mem_budget` unless a grantor resized the run — so degradation
/// events attribute against what the run actually had.
#[allow(clippy::too_many_arguments)]
pub(crate) fn join_partition_pair(
    cfg: &DiskGraceConfig,
    budget: u64,
    params: &JoinParams,
    native: &mut NativeModel,
    build_schema: &Schema,
    probe_schema: &Schema,
    bspill: &SpillFile,
    pspill: &SpillFile,
    part: usize,
    label: String,
    depth: u32,
    top_p: usize,
    sink: &mut DiskSink,
    deg: &mut Degrade,
    rec: &mut Option<&mut Recorder>,
) -> Result<()> {
    let budget = budget.max(PAGE_SIZE as u64);
    let bpages = bspill.part_pages[part].len();
    let bytes = (bpages * PAGE_SIZE) as u64;
    if bytes <= budget {
        let b = load_partition(bspill, part, build_schema, cfg.read_ahead)?;
        let pr = load_partition(pspill, part, probe_schema, cfg.read_ahead)?;
        debug_assert_eq!(b.num_tuples() as u64, bspill.part_tuples[part]);
        debug_assert_eq!(pr.num_tuples() as u64, pspill.part_tuples[part]);
        join_pair(native, params, &b, &pr, top_p, sink);
        return Ok(());
    }

    // Oversized build partition: walk the degradation ladder.
    if depth < cfg.max_repartition_depth {
        let fanout = plan::num_partitions(bytes as usize, budget as usize).max(2);
        let seed = depth + 1;
        deg.spill_counter += 1;
        let tag = deg.spill_counter;
        let sub_b = repartition_spill(
            cfg, build_schema, bspill, part, &format!("rp{tag}_b"), fanout, seed,
        )?;
        let max_sub = sub_b.part_pages.iter().map(Vec::len).max().unwrap_or(0);
        if max_sub < bpages {
            deg.events.push(DegradationEvent {
                partition: label.clone(),
                depth,
                bytes,
                budget,
                kind: DegradationKind::Repartition { fanout, seed },
            });
            if let Some(m) = crate::telemetry::disk_metrics() {
                m.degradation_depth.set_max(depth as u64 + 1);
            }
            // code 0 = recursive repartition step.
            phj_flightrec::event(
                phj_flightrec::EventKind::Degrade,
                0,
                depth as u64 + 1,
                fanout as u64,
            );
            let span = obs::span_begin(rec, native, "repartition");
            obs::span_meta(rec, "partition", &label);
            obs::span_meta(rec, "fanout", fanout);
            let sub_p = repartition_spill(
                cfg, probe_schema, pspill, part, &format!("rp{tag}_p"), fanout, seed,
            )?;
            let mut res = Ok(());
            for sp in 0..fanout {
                res = join_partition_pair(
                    cfg,
                    budget,
                    params,
                    native,
                    build_schema,
                    probe_schema,
                    &sub_b,
                    &sub_p,
                    sp,
                    format!("{label}.{sp}"),
                    depth + 1,
                    top_p,
                    sink,
                    deg,
                    rec,
                );
                if res.is_err() {
                    break;
                }
            }
            obs::span_end(rec, native, span);
            cleanup_spill(&sub_b);
            cleanup_spill(&sub_p);
            return res;
        }
        // Repartitioning did not reduce the partition (one dominant key):
        // drop the useless sub-spill and fall through to the next rung.
        cleanup_spill(&sub_b);
    }

    if cfg.nlj_fallback {
        let span = obs::span_begin(rec, native, "nlj_fallback");
        obs::span_meta(rec, "partition", &label);
        let chunks = block_nlj(
            budget, params, native, build_schema, probe_schema, bspill, pspill, part, top_p, sink,
        )?;
        obs::span_end(rec, native, span);
        deg.events.push(DegradationEvent {
            partition: label,
            depth,
            bytes,
            budget,
            kind: DegradationKind::NljFallback { chunks },
        });
        if let Some(m) = crate::telemetry::disk_metrics() {
            m.degradation_depth.set_max(depth as u64 + 1);
        }
        // code 1 = block nested-loop fallback.
        phj_flightrec::event(
            phj_flightrec::EventKind::Degrade,
            1,
            depth as u64 + 1,
            chunks as u64,
        );
        return Ok(());
    }

    Err(PhjError::PartitionOverflow { partition: part, depth, bytes, budget })
}

/// Remove a recursive sub-spill's files once its partitions are joined
/// (best-effort; the working directory is the caller's to delete anyway).
fn cleanup_spill(spill: &SpillFile) {
    for path in spill.stripes.paths() {
        let _ = std::fs::remove_file(path);
    }
}

/// Streaming block nested-loop join over one oversized partition pair:
/// the build side is processed in chunks of at most the memory budget;
/// for each chunk, the probe side streams past in bounded batches. Joins
/// any build partition in bounded memory at the cost of re-reading the
/// probe partition once per chunk. Returns the number of build chunks.
#[allow(clippy::too_many_arguments)]
fn block_nlj(
    budget: u64,
    params: &JoinParams,
    native: &mut NativeModel,
    build_schema: &Schema,
    probe_schema: &Schema,
    bspill: &SpillFile,
    pspill: &SpillFile,
    part: usize,
    top_p: usize,
    sink: &mut DiskSink,
) -> Result<usize> {
    let chunk_pages = (budget as usize / PAGE_SIZE).max(1);
    let bpages = &bspill.part_pages[part];
    let ppages = &pspill.part_pages[part];
    let mut chunks = 0usize;
    for bchunk in bpages.chunks(chunk_pages) {
        let mut brel = Relation::new(build_schema.clone());
        for &pid in bchunk {
            brel.push_page(bspill.stripes.read_page_verified(pid)?);
        }
        chunks += 1;
        if brel.num_tuples() == 0 {
            continue;
        }
        let buckets = plan::hash_table_buckets(brel.num_tuples(), top_p);
        let mut table = HashTable::new(buckets, brel.num_tuples());
        dispatch_build(native, params, &mut table, &brel);
        table.assert_quiescent();
        for pbatch in ppages.chunks(chunk_pages) {
            let mut prel = Relation::new(probe_schema.clone());
            for &pid in pbatch {
                prel.push_page(pspill.stripes.read_page_verified(pid)?);
            }
            dispatch_probe(native, params, &table, &brel, &prel, sink);
        }
    }
    Ok(chunks)
}

/// Run the GRACE hash join over two file relations, writing the output
/// to `<dir>/out.N`.
pub fn grace_join_files(
    cfg: &DiskGraceConfig,
    build: &FileRelation,
    probe: &FileRelation,
) -> Result<DiskGraceReport> {
    grace_join_files_rec(cfg, build, probe, None)
}

/// [`grace_join_files`] with an optional span recorder: the partition
/// and join phases get top-level spans, and every degradation step
/// (repartition, nested-loop fallback) gets its own nested span. Every
/// [`DiskJoinMode`] runs the one driver in `disk::hybrid`.
pub fn grace_join_files_rec(
    cfg: &DiskGraceConfig,
    build: &FileRelation,
    probe: &FileRelation,
    rec: Option<&mut Recorder>,
) -> Result<DiskGraceReport> {
    crate::hybrid::hybrid_join_files_rec(cfg, build, probe, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phj::grace::{grace_join_with_sink, GraceConfig};
    use phj::sink::CountSink;
    use phj_memsim::NativeModel;
    use phj_workload::JoinSpec;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("phj-diskgrace-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disk_grace_matches_in_memory_grace() {
        let dir = temp_dir("parity");
        let gen = JoinSpec {
            build_tuples: 6000,
            tuple_size: 48,
            matches_per_build: 2,
            pct_match: 75,
            seed: 77,
        }
        .generate();
        let fb = FileRelation::create(&dir, "build", &gen.build, 3, 4).unwrap();
        let fp = FileRelation::create(&dir, "probe", &gen.probe, 3, 4).unwrap();
        let cfg = DiskGraceConfig {
            mem_budget: 64 * 1024,
            ..DiskGraceConfig::new(&dir)
        };
        let report = grace_join_files(&cfg, &fb, &fp).unwrap();
        assert!(report.num_partitions > 1);
        assert_eq!(report.matches, gen.expected_matches);
        assert_eq!(report.output.num_tuples(), gen.expected_matches);
        assert!(report.degradation.is_empty(), "{:?}", report.degradation);
        // The in-memory engine agrees — on the count and on the
        // order-insensitive pair checksum.
        let mut sink = CountSink::new();
        grace_join_with_sink(
            &mut NativeModel,
            &GraceConfig { mem_budget: 64 * 1024, ..Default::default() },
            &gen.build,
            &gen.probe,
            &mut sink,
        );
        assert_eq!(sink.matches(), report.matches);
        assert_eq!(sink.checksum(), report.checksum);
        // Output pages parse back and have the joined arity.
        let out = report.output.load().unwrap();
        assert_eq!(out.num_tuples() as u64, report.matches);
        for (_, t, _) in out.iter().take(5) {
            assert_eq!(t.len(), 96);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_partition_disk_join() {
        let dir = temp_dir("single");
        let gen = JoinSpec {
            build_tuples: 500,
            tuple_size: 20,
            matches_per_build: 1,
            pct_match: 100,
            seed: 3,
        }
        .generate();
        let fb = FileRelation::create(&dir, "build", &gen.build, 2, 2).unwrap();
        let fp = FileRelation::create(&dir, "probe", &gen.probe, 2, 2).unwrap();
        let cfg = DiskGraceConfig { mem_budget: 1 << 30, ..DiskGraceConfig::new(&dir) };
        let report = grace_join_files(&cfg, &fb, &fp).unwrap();
        assert_eq!(report.num_partitions, 1);
        assert_eq!(report.matches, 500);
        assert!(report.degradation.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
