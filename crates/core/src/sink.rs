//! Join output sinks: where matched tuple pairs go.
//!
//! The paper's experiments materialize full output tuples ("an output
//! tuple contains all the fields of the matching build and probe tuples",
//! §7.1); [`OutputWriter`] does that into an output [`Relation`], charging
//! the memory model for the output-buffer writes (these sequential writes
//! are a real part of the join's cache behaviour). [`CountSink`] is a
//! non-materializing sink for tests, benchmarks and the daemon: it keeps
//! an order-insensitive checksum, the XOR of one [`pair_digest`] per
//! match, so any two correct schemes can be compared exactly.

use phj_memsim::MemoryModel;
use phj_storage::{tuple::materialize_join_output, Page, Relation, Schema};

use crate::cost;

/// Consumer of join matches.
pub trait JoinSink {
    /// A probe tuple matched a build tuple.
    fn emit<M: MemoryModel>(&mut self, mem: &mut M, build: &[u8], probe: &[u8]);

    /// Number of matches emitted so far.
    fn matches(&self) -> u64;
}

/// Materializes output tuples into a relation.
pub struct OutputWriter {
    build_schema: Schema,
    probe_schema: Schema,
    out: Relation,
    page: Page,
    buf: Vec<u8>,
    matches: u64,
    prefetch_ahead: bool,
}

impl OutputWriter {
    /// A writer joining tuples of the given schemas.
    pub fn new(build_schema: Schema, probe_schema: Schema) -> Self {
        let out_schema = Schema::join_output(&build_schema, &probe_schema);
        OutputWriter {
            build_schema,
            probe_schema,
            out: Relation::new(out_schema),
            page: Page::new(),
            buf: Vec::new(),
            matches: 0,
            prefetch_ahead: false,
        }
    }

    /// Enable output-buffer prefetching: after each emit, prefetch the
    /// location the *next* output tuple will occupy. Output is strictly
    /// sequential, so this is one of the "multiple independent prefetches"
    /// a staged scheme issues per stage (§4.4); the baseline and simple
    /// schemes leave it off.
    pub fn with_output_prefetch(mut self) -> Self {
        self.prefetch_ahead = true;
        self
    }

    /// Finish, returning the output relation.
    pub fn finish(mut self) -> Relation {
        if self.page.nslots() > 0 {
            self.out.push_page(self.page.clone());
        }
        self.out
    }
}

impl JoinSink for OutputWriter {
    fn emit<M: MemoryModel>(&mut self, mem: &mut M, build: &[u8], probe: &[u8]) {
        materialize_join_output(
            &self.build_schema,
            &self.probe_schema,
            build,
            probe,
            &mut self.buf,
        );
        if !self.page.fits(self.buf.len()) {
            // "Write out" the full buffer (uncharged, DMA-like) and keep
            // reusing the same buffer page, as the engine's buffer
            // manager would — its lines stay cache-resident.
            self.out.push_page(self.page.clone());
            self.page.reset();
        }
        let (data_addr, slot_addr) = self.page.next_insert_addrs(self.buf.len());
        mem.write(data_addr, self.buf.len());
        mem.write(slot_addr, 8);
        mem.busy(cost::copy_cost(self.buf.len()));
        self.page
            .insert(&self.buf, 0)
            .expect("output tuple larger than a page");
        self.matches += 1;
        if self.prefetch_ahead {
            // Two tuples of lead time: back-to-back emits (group stage 3)
            // are closer together than the memory latency, so one emit of
            // lead would leave the fill chronically half-finished.
            let span = 2 * self.buf.len();
            if self.page.fits(span) {
                let (next_data, next_slot) = self.page.next_insert_addrs(span);
                mem.prefetch(next_data, span);
                mem.prefetch(next_slot, 16);
            }
        }
    }

    fn matches(&self) -> u64 {
        self.matches
    }
}

/// Hands matches to a parent operator in bounded batches — the hook for
/// pipelined query processing. §5.4: "the join phase can pause at group
/// boundaries and send outputs to the parent operator to support
/// pipelined query processing" — a staged probe emits at most `G`
/// matches' worth of output per stage, so a batch of a few `G` keeps the
/// parent fed without unbounded buffering.
pub struct BatchingSink<F: FnMut(&[(Vec<u8>, Vec<u8>)])> {
    batch: Vec<(Vec<u8>, Vec<u8>)>,
    capacity: usize,
    consumer: F,
    matches: u64,
}

impl<F: FnMut(&[(Vec<u8>, Vec<u8>)])> BatchingSink<F> {
    /// A sink delivering batches of up to `capacity` (build, probe) pairs
    /// to `consumer`.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, consumer: F) -> Self {
        assert!(capacity > 0, "batch capacity must be non-zero");
        BatchingSink { batch: Vec::with_capacity(capacity), capacity, consumer, matches: 0 }
    }

    /// Deliver any buffered matches and return the total count.
    pub fn finish(mut self) -> u64 {
        self.flush();
        self.matches
    }

    fn flush(&mut self) {
        if !self.batch.is_empty() {
            (self.consumer)(&self.batch);
            self.batch.clear();
        }
    }
}

impl<F: FnMut(&[(Vec<u8>, Vec<u8>)])> JoinSink for BatchingSink<F> {
    fn emit<M: MemoryModel>(&mut self, _mem: &mut M, build: &[u8], probe: &[u8]) {
        self.batch.push((build.to_vec(), probe.to_vec()));
        self.matches += 1;
        if self.batch.len() == self.capacity {
            self.flush();
        }
    }

    fn matches(&self) -> u64 {
        self.matches
    }
}

/// Lane start values (hex digits of pi): four distinct states, so equal
/// words in different lanes do not produce equal lane states.
const LANE_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Fold one word into a lane. For a fixed word it is a bijection of the
/// lane, and for a fixed lane a bijection of the word (odd multipliers,
/// add, rotate).
#[inline(always)]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Up to 8 bytes as one little-endian word, zero-padded.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Deal `bytes` as 8-byte words round-robin over the four lanes: whole
/// 32-byte stripes first, then the tail's words from lane 0 on, the last
/// one zero-padded.
#[inline(always)]
fn absorb(lanes: &mut [u64; 4], bytes: &[u8]) {
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, le_word(w));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(stripes.remainder().chunks(8)) {
        *lane = round(*lane, le_word(w));
    }
}

/// 64-bit finalizer: a bijection that spreads every input bit over the
/// whole word.
#[inline(always)]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Digest of one (build, probe) pair: the term every order-insensitive
/// result checksum XORs together ([`CountSink`], and through it the disk
/// engine and the daemon, plus the aggregation checksum).
///
/// Word at a time: each side is read as little-endian 8-byte words
/// (`u64::from_le_bytes`, so the value is the same on every host and at
/// every alignment) spread over four independent multiply lanes. The two
/// lengths are folded in after the lanes merge, so the build/probe
/// boundary cannot shift: `("ab", "c")` and `("a", "bc")` differ. A
/// 64-bit avalanche finishes it.
///
/// Each step from any one input word to the result is a bijection while
/// the other inputs stay fixed, so changing any single word, and so any
/// single bit, always changes the digest.
#[inline]
pub fn pair_digest(build: &[u8], probe: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    absorb(&mut lanes, build);
    absorb(&mut lanes, probe);
    let merged = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    // Injective for lengths below 2^32 (a tuple lives in one page).
    let lengths = (build.len() as u64).rotate_left(32) ^ probe.len() as u64;
    avalanche(round(merged, lengths))
}

/// Order-insensitive counting/checksumming sink.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountSink {
    matches: u64,
    /// XOR of per-pair [`pair_digest`]s (each at least 1): equal multisets
    /// of (build, probe) pairs produce equal checksums regardless of
    /// emission order.
    checksum: u64,
}

impl CountSink {
    /// A fresh sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The order-insensitive checksum.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Fold another sink's matches into this one. Because the checksum is
    /// an XOR of per-pair digests, merging per-worker sinks yields exactly
    /// the checksum a single sequential sink would have produced.
    pub fn merge(&mut self, other: CountSink) {
        self.matches += other.matches;
        self.checksum ^= other.checksum;
    }
}

impl JoinSink for CountSink {
    fn emit<M: MemoryModel>(&mut self, _mem: &mut M, build: &[u8], probe: &[u8]) {
        self.matches += 1;
        self.checksum ^= pair_digest(build, probe).max(1); // never XOR 0: keep pair visible
    }

    fn matches(&self) -> u64 {
        self.matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phj_memsim::NativeModel;

    #[test]
    fn count_sink_is_order_insensitive() {
        let mut m = NativeModel;
        let mut a = CountSink::new();
        a.emit(&mut m, b"b1", b"p1");
        a.emit(&mut m, b"b2", b"p2");
        let mut b = CountSink::new();
        b.emit(&mut m, b"b2", b"p2");
        b.emit(&mut m, b"b1", b"p1");
        assert_eq!(a, b);
        assert_eq!(a.matches(), 2);
    }

    #[test]
    fn count_sink_detects_difference() {
        let mut m = NativeModel;
        let mut a = CountSink::new();
        a.emit(&mut m, b"b1", b"p1");
        let mut b = CountSink::new();
        b.emit(&mut m, b"b1", b"p2");
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn count_sink_merge_equals_sequential() {
        let mut m = NativeModel;
        let mut seq = CountSink::new();
        let mut w0 = CountSink::new();
        let mut w1 = CountSink::new();
        for i in 0u32..20 {
            let t = i.to_le_bytes();
            seq.emit(&mut m, &t, &t);
            if i % 2 == 0 { &mut w0 } else { &mut w1 }.emit(&mut m, &t, &t);
        }
        let mut merged = CountSink::new();
        merged.merge(w1);
        merged.merge(w0);
        assert_eq!(merged, seq);
    }

    #[test]
    fn count_sink_multiset_semantics() {
        // Duplicate pairs XOR to different checksums for odd/even counts.
        let mut m = NativeModel;
        let mut once = CountSink::new();
        once.emit(&mut m, b"x", b"y");
        let mut thrice = CountSink::new();
        for _ in 0..3 {
            thrice.emit(&mut m, b"x", b"y");
        }
        assert_eq!(once.checksum(), thrice.checksum());
        assert_ne!(once.matches(), thrice.matches());
    }

    #[test]
    fn count_sink_separates_build_from_probe() {
        // Moving the build/probe boundary inside the same bytes is a
        // different pair.
        let mut m = NativeModel;
        let mut a = CountSink::new();
        a.emit(&mut m, b"ab", b"c");
        let mut b = CountSink::new();
        b.emit(&mut m, b"a", b"bc");
        assert_ne!(a.checksum(), b.checksum());
        let mut c = CountSink::new();
        c.emit(&mut m, b"", b"abc");
        let mut d = CountSink::new();
        d.emit(&mut m, b"abc", b"");
        assert_ne!(c.checksum(), d.checksum());
    }

    /// Every tail length mod 8 and mod 32, twice over, plus the paper's
    /// 100 B tuple and a 200 B one.
    fn digest_lengths() -> impl Iterator<Item = usize> + Clone {
        (0..=72).chain([100, 200])
    }

    /// `n` bytes that differ from position to position and with `salt`.
    fn pattern(n: usize, salt: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn pair_digest_sees_every_bit() {
        for bl in digest_lengths() {
            for pl in digest_lengths() {
                let mut build = pattern(bl, 1);
                let mut probe = pattern(pl, 2);
                let d = pair_digest(&build, &probe);
                for bit in 0..bl * 8 {
                    build[bit / 8] ^= 1 << (bit % 8);
                    assert_ne!(pair_digest(&build, &probe), d, "build {bl} B, bit {bit}");
                    build[bit / 8] ^= 1 << (bit % 8);
                }
                for bit in 0..pl * 8 {
                    probe[bit / 8] ^= 1 << (bit % 8);
                    assert_ne!(pair_digest(&build, &probe), d, "probe {pl} B, bit {bit}");
                    probe[bit / 8] ^= 1 << (bit % 8);
                }
            }
        }
    }

    #[test]
    fn pair_digest_is_not_symmetric() {
        for al in digest_lengths() {
            for bl in digest_lengths() {
                let (a, b) = (pattern(al, 3), pattern(bl, 4));
                if a == b {
                    continue; // both empty
                }
                assert_ne!(pair_digest(&a, &b), pair_digest(&b, &a), "{al} B, {bl} B");
            }
        }
    }

    #[test]
    fn pair_digest_ignores_alignment() {
        for bl in digest_lengths() {
            let (build, probe) = (pattern(bl, 5), pattern(bl / 2, 6));
            let want = pair_digest(&build, &probe);
            for offset in 0..8 {
                let mut buf = vec![0xA5u8; offset];
                buf.extend_from_slice(&build);
                buf.extend_from_slice(&probe);
                let (b, p) = buf[offset..].split_at(bl);
                assert_eq!(pair_digest(b, p), want, "{bl} B at offset {offset}");
            }
        }
    }

    #[test]
    fn pair_digest_has_no_collisions_on_pivot_pairs() {
        // The pivot workload's shape: 100 B tuples, a distinct 4-byte key,
        // payload bytes counting up from a per-tuple salt (the index on
        // the build side, its complement on the probe side).
        fn tuple(key: u32, salt: u32) -> [u8; 100] {
            let mut t = [0u8; 100];
            t[..4].copy_from_slice(&key.to_le_bytes());
            for (j, b) in t[4..].iter_mut().enumerate() {
                *b = (salt as usize + j) as u8;
            }
            t
        }
        const N: u32 = 1 << 20;
        let mut digests: Vec<u64> = (0..N)
            .map(|i| {
                let key = i.wrapping_mul(0x9E37_79B1).rotate_left(13);
                pair_digest(&tuple(key, i), &tuple(key, !i))
            })
            .collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), N as usize);
    }

    #[test]
    fn batching_sink_delivers_everything_in_order() {
        let mut m = NativeModel;
        let mut seen: Vec<u32> = Vec::new();
        let mut batches = 0usize;
        {
            let mut sink = BatchingSink::new(7, |batch| {
                batches += 1;
                assert!(batch.len() <= 7);
                for (b, p) in batch {
                    assert_eq!(b, p);
                    seen.push(u32::from_le_bytes(b[..4].try_into().unwrap()));
                }
            });
            for i in 0u32..23 {
                let t = i.to_le_bytes().to_vec();
                sink.emit(&mut m, &t, &t);
            }
            assert_eq!(sink.matches(), 23);
            assert_eq!(sink.finish(), 23);
        }
        assert_eq!(batches, 4, "3 full + 1 tail batch");
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn batching_sink_empty() {
        let mut called = false;
        let sink = BatchingSink::new(4, |_| called = true);
        assert_eq!(sink.finish(), 0);
        assert!(!called, "no empty batches delivered");
    }

    #[test]
    fn output_prefetch_writer_equals_plain() {
        let bs = Schema::key_payload(8);
        let ps = Schema::key_payload(8);
        let mut m = phj_memsim::SimEngine::paper();
        let mut plain = OutputWriter::new(bs.clone(), ps.clone());
        let mut pf = OutputWriter::new(bs.clone(), ps.clone()).with_output_prefetch();
        for i in 0u32..500 {
            let t = i.to_le_bytes().repeat(2);
            plain.emit(&mut m, &t, &t);
            pf.emit(&mut m, &t, &t);
        }
        assert_eq!(plain.finish().to_tuple_vec(), pf.finish().to_tuple_vec());
    }

    #[test]
    fn output_writer_materializes() {
        let bs = Schema::key_payload(8);
        let ps = Schema::key_payload(12);
        let mut w = OutputWriter::new(bs.clone(), ps.clone());
        let mut m = NativeModel;
        let bt = [1u8; 8];
        let pt = [2u8; 12];
        for _ in 0..1000 {
            w.emit(&mut m, &bt, &pt);
        }
        assert_eq!(w.matches(), 1000);
        let rel = w.finish();
        assert_eq!(rel.num_tuples(), 1000);
        assert!(rel.num_pages() > 1);
        for (_, t, _) in rel.iter() {
            assert_eq!(t.len(), 20);
            assert_eq!(&t[..8], &bt);
            assert_eq!(&t[8..], &pt);
        }
    }
}
