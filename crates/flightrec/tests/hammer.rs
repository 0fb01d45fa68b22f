//! Concurrency hammer for the flight-recorder rings: seeded writer
//! threads race cold readers, and every recovered record must be whole.
//!
//! Each writer owns one ring (the production arrangement — rings are
//! single-writer by construction) and stamps every event with a
//! self-checking payload: `b = a ^ SALT` with `a = (tid << 32) | i`.
//! Readers snapshot continuously while writers run; any torn record
//! would fail the payload check or break per-thread ordering. After the
//! writers quiesce, drop accounting must be exact: `written -
//! recovered == max(0, written - capacity)`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use phj_flightrec::{Event, EventKind, ThreadRing};

const SALT: u64 = 0x9e37_79b9_7f4a_7c15;

fn checked_event(tid: u16, i: u64) -> Event {
    let a = ((tid as u64) << 32) | i;
    Event { ts_ns: i, kind: EventKind::Mark, code: tid, tid, a, b: a ^ SALT }
}

/// Every invariant a snapshot must satisfy, mid-run or quiescent.
fn check_snapshot(snap: &phj_flightrec::RingSnapshot, cap: usize) {
    assert!(snap.events.len() <= cap, "recovered more than capacity");
    assert!(snap.dropped() <= snap.written);
    let mut prev: Option<u64> = None;
    for ev in &snap.events {
        assert_eq!(ev.kind, EventKind::Mark);
        assert_eq!(ev.tid, snap.tid, "record from a foreign ring");
        assert_eq!(ev.code, snap.tid);
        assert_eq!(ev.b, ev.a ^ SALT, "torn record: payload halves disagree");
        assert_eq!((ev.a >> 32) as u16, snap.tid, "torn record: tid half mismatch");
        let i = ev.a & 0xffff_ffff;
        assert_eq!(ev.ts_ns, i, "torn record: timestamp from a different write");
        if let Some(p) = prev {
            assert!(i > p, "per-thread order violated: {i} after {p}");
        }
        prev = Some(i);
    }
}

#[test]
fn concurrent_writers_and_readers_never_tear() {
    // Three seeded geometries: tiny ring (constant wrapping), medium,
    // and one larger than the write count (no wrap at all).
    for (seed, cap, writes) in [(1u64, 32usize, 20_000u64), (2, 1024, 20_000), (3, 4096, 3_000)] {
        let writers = 4u16;
        let rings: Vec<Arc<ThreadRing>> =
            (0..writers).map(|tid| Arc::new(ThreadRing::new(tid, cap))).collect();
        let stop = Arc::new(AtomicBool::new(false));
        // Writers start only once every reader is snapshotting, so a
        // reader the scheduler starts late still races the writers.
        let readers = 2;
        let started = Arc::new(Barrier::new(readers + 1));

        let reader_handles: Vec<_> = (0..readers)
            .map(|r| {
                let rings = rings.clone();
                let stop = Arc::clone(&stop);
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    let mut snaps = 0u64;
                    loop {
                        // Seeded skew: readers start on different rings.
                        for ring in rings.iter().cycle().skip(r + seed as usize).take(rings.len())
                        {
                            check_snapshot(&ring.snapshot(), cap);
                            snaps += 1;
                        }
                        if snaps == rings.len() as u64 {
                            started.wait();
                        }
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    snaps
                })
            })
            .collect();
        started.wait();

        let writer_handles: Vec<_> = rings
            .iter()
            .map(|ring| {
                let ring = Arc::clone(ring);
                std::thread::spawn(move || {
                    let tid = ring.tid();
                    for i in 0..writes {
                        ring.record(&checked_event(tid, i));
                    }
                })
            })
            .collect();

        for h in writer_handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        for h in reader_handles {
            let snaps = h.join().unwrap();
            assert!(snaps > 0, "reader never snapshotted");
        }

        // Quiescent: exact drop accounting and exact survivors.
        for ring in &rings {
            let snap = ring.snapshot();
            check_snapshot(&snap, cap);
            assert_eq!(snap.written, writes);
            let expect_recovered = (cap as u64).min(writes);
            assert_eq!(
                snap.events.len() as u64,
                expect_recovered,
                "seed {seed}: quiescent ring must hold exactly min(cap, writes)"
            );
            assert_eq!(snap.dropped(), writes - expect_recovered);
            let first = snap.events.first().unwrap().a & 0xffff_ffff;
            assert_eq!(first, writes - expect_recovered, "survivors are the newest events");
            let counts = ring.counts();
            assert_eq!(counts[EventKind::Mark as usize], writes, "totals survive wrap");
        }
    }
}

#[test]
fn global_recorder_survives_thread_churn() {
    // Rings must outlive their threads: spawn short-lived workers that
    // each record a burst, then snapshot after they are gone.
    let rec = phj_flightrec::install_with(phj_flightrec::Mode::Full, 256);
    let before: u64 = rec.summary().written();
    for round in 0..8u64 {
        let handles: Vec<_> = (0..4)
            .map(|w| {
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        phj_flightrec::event(EventKind::Task, w as u16, round * 50 + i, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
    let summary = rec.summary();
    assert_eq!(summary.written() - before, 8 * 4 * 50);
    assert_eq!(summary.counts[EventKind::Task as usize], 8 * 4 * 50);
    // Dead threads' rings are still snapshottable.
    assert!(summary.threads.len() >= 32, "one ring per short-lived thread");
    let timeline = rec.timeline();
    assert!(timeline.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
}
