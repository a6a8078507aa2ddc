//! Simulated-disk accounting.
//!
//! The paper's I/O cost term is
//! `(|C| / PF) * SEEK + |C| * READ`, scaled by `(1 - F)` for the fraction
//! of pages already resident. Our benchmarks run on a machine whose page
//! cache makes real 2006-era I/O unobservable, so instead of timing the
//! disk we *count* what a cold disk would have done: every buffer-pool
//! miss records one block read, and a read that is not physically
//! contiguous with the previous read of the same file records a seek.
//! Harnesses price these counters with the model constants to report a
//! modeled cold-I/O time next to the measured CPU time.
//!
//! The meter keeps the store-wide totals only. Who else pays for a read
//! — the statement whose worker made it — and whether it continued that
//! worker's read stream are decided by the per-query ledger
//! ([`matstrat_common::query_io`]): sequentiality is judged per (file,
//! worker), so a parallel scan whose workers each walk their own span
//! counts the head movements per-worker disk arms would make.

use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};

use matstrat_common::query_io;

/// Counters of simulated disk activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Blocks fetched from "disk" (buffer-pool misses).
    pub block_reads: u64,
    /// Non-sequential fetches (head movements a spinning disk would make).
    pub seeks: u64,
}

impl IoStats {
    /// Difference of two snapshots (`self` after, `earlier` before).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            block_reads: self.block_reads - earlier.block_reads,
            seeks: self.seeks - earlier.seeks,
        }
    }

    /// Price the counters: `seeks * seek_us + block_reads * read_us`,
    /// in microseconds.
    pub fn modeled_micros(&self, seek_us: f64, read_us: f64) -> f64 {
        self.seeks as f64 * seek_us + self.block_reads as f64 * read_us
    }
}

/// Associative, commutative merge — the parallel executor folds the
/// per-worker fragments into query totals with it.
impl AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        self.block_reads += rhs.block_reads;
        self.seeks += rhs.seeks;
    }
}

/// Hands out meter epochs: every meter, and every reset of one, gets a
/// number no read stream has seen, so no worker's stream outlives the
/// meter state it was measured against.
fn fresh_epoch() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Thread-safe seek/read counter shared by every column reader.
#[derive(Debug)]
pub struct IoMeter {
    block_reads: AtomicU64,
    seeks: AtomicU64,
    /// Names this meter and its last reset to the workers' read streams.
    epoch: AtomicU64,
}

impl Default for IoMeter {
    fn default() -> IoMeter {
        IoMeter {
            block_reads: AtomicU64::new(0),
            seeks: AtomicU64::new(0),
            epoch: AtomicU64::new(fresh_epoch()),
        }
    }
}

impl IoMeter {
    /// New meter with zeroed counters.
    pub fn new() -> IoMeter {
        IoMeter::default()
    }

    /// Record a block fetch of `len` bytes at `offset` of `file`, charged
    /// to the store-wide counters and to the ledger installed on the
    /// calling thread, if any.
    pub fn record_read(&self, file: &str, offset: u64, len: u64) {
        let epoch = self.epoch.load(Ordering::Relaxed);
        let seek = query_io::charge_read(epoch, file, offset, len);
        self.block_reads.fetch_add(1, Ordering::Relaxed);
        self.seeks.fetch_add(u64::from(seek), Ordering::Relaxed);
    }

    /// Snapshot the store-wide counters (all threads).
    pub fn snapshot(&self) -> IoStats {
        IoStats {
            block_reads: self.block_reads.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
        }
    }

    /// Reset the counters and restart every read stream: the next read
    /// of any file, on any thread, is a seek.
    pub fn reset(&self) {
        self.block_reads.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
        self.epoch.store(fresh_epoch(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reads_seek_once() {
        let m = IoMeter::new();
        m.record_read("f", 0, 100);
        m.record_read("f", 100, 100);
        m.record_read("f", 200, 100);
        let s = m.snapshot();
        assert_eq!(s.block_reads, 3);
        assert_eq!(s.seeks, 1);
    }

    #[test]
    fn jumps_count_as_seeks() {
        let m = IoMeter::new();
        m.record_read("f", 0, 100);
        m.record_read("f", 500, 100); // jump
        m.record_read("f", 600, 100); // sequential
        m.record_read("f", 0, 100); // jump back
        assert_eq!(m.snapshot().seeks, 3);
    }

    #[test]
    fn interleaved_files_each_track_position() {
        let m = IoMeter::new();
        m.record_read("a", 0, 100);
        m.record_read("b", 0, 100);
        m.record_read("a", 100, 100); // still sequential for a
        m.record_read("b", 100, 100); // still sequential for b
        assert_eq!(m.snapshot().seeks, 2);
        assert_eq!(m.snapshot().block_reads, 4);
    }

    #[test]
    fn since_and_pricing() {
        let m = IoMeter::new();
        m.record_read("f", 0, 10);
        let before = m.snapshot();
        m.record_read("f", 10, 10);
        m.record_read("f", 999, 10);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.block_reads, 2);
        assert_eq!(delta.seeks, 1);
        // 1 seek * 2500us + 2 reads * 1000us
        assert_eq!(delta.modeled_micros(2500.0, 1000.0), 4500.0);
    }

    #[test]
    fn reset_clears_position_tracking() {
        let m = IoMeter::new();
        m.record_read("f", 0, 10);
        m.reset();
        assert_eq!(m.snapshot(), IoStats::default());
        assert_eq!(m.thread_snapshot(), IoStats::default());
        // After reset, the next read at offset 10 is a seek again.
        m.record_read("f", 10, 10);
        assert_eq!(m.snapshot().seeks, 1);
    }

    #[test]
    fn add_assign_sums_fields() {
        let mut a = IoStats {
            block_reads: 3,
            seeks: 1,
        };
        a += IoStats {
            block_reads: 4,
            seeks: 2,
        };
        assert_eq!(
            a,
            IoStats {
                block_reads: 7,
                seeks: 3
            }
        );
    }

    #[test]
    fn interleaved_threads_each_stay_sequential() {
        // Two readers of one file, strictly alternating: with a global
        // last-end every read would jump (4 seeks); per (file, thread)
        // tracking sees two sequential streams (1 seek each).
        use std::sync::mpsc;
        let m = IoMeter::new();
        let (to_b, from_a) = mpsc::channel::<()>();
        let (to_a, from_b) = mpsc::channel::<()>();
        let m = &m;
        std::thread::scope(|s| {
            s.spawn(move || {
                m.record_read("f", 0, 100);
                to_b.send(()).unwrap();
                from_b.recv().unwrap();
                m.record_read("f", 100, 100);
                to_b.send(()).unwrap();
            });
            s.spawn(move || {
                from_a.recv().unwrap();
                m.record_read("f", 500, 100);
                to_a.send(()).unwrap();
                from_a.recv().unwrap();
                m.record_read("f", 600, 100);
            });
        });
        let s = m.snapshot();
        assert_eq!(s.block_reads, 4);
        assert_eq!(s.seeks, 2, "one seek per worker stream, not per switch");
    }

    #[test]
    fn a_ledger_sees_its_own_reads_and_the_meter_sees_all() {
        use matstrat_common::{fan_out, QueryIo};
        let m = IoMeter::new();
        m.record_read("f", 0, 10); // no ledger installed: global only
        let (a, b) = (QueryIo::new(), QueryIo::new());
        std::thread::scope(|s| {
            s.spawn(|| a.run(|| fan_out(0..2u64, |w| m.record_read("f", 100 + w * 50, 10))));
            s.spawn(|| {
                b.run(|| {
                    m.record_read("g", 0, 10);
                    m.record_read("g", 10, 10);
                })
            });
        });
        assert_eq!(
            (a.block_reads(), a.seeks()),
            (2, 2),
            "one stream per worker"
        );
        assert_eq!((b.block_reads(), b.seeks()), (2, 1), "one stream on g");
        assert_eq!(
            m.snapshot(),
            IoStats {
                block_reads: 5,
                seeks: 4
            },
            "the ledgers' reads plus the unattributed one"
        );
    }

    #[test]
    fn forget_returns_the_dropped_share_and_sinks_sum_exactly() {
        // A tenure's end is the harvest: each thread's share folds into
        // its ledger once, and the ledgers sum to the meter exactly.
        use matstrat_common::QueryIo;
        let m = IoMeter::new();
        let (main, worker) = (QueryIo::new(), QueryIo::new());
        main.run(|| m.record_read("f", 0, 10));
        std::thread::scope(|s| {
            s.spawn(|| {
                worker.run(|| {
                    m.record_read("f", 100, 10);
                    m.record_read("f", 110, 10);
                })
            });
        });
        let mut total = ledger_stats(&main);
        total += ledger_stats(&worker);
        assert_eq!(total, m.snapshot(), "harvests cover every read");
        assert_eq!(total.block_reads, 3);
        // A second tenure harvests nothing: the state really was dropped.
        let before = ledger_stats(&worker);
        worker.run(|| {});
        assert_eq!(ledger_stats(&worker), before);
        assert_eq!(m.thread_snapshot(), IoStats::default());
    }

    #[test]
    fn thread_snapshot_isolates_and_sums_to_global() {
        use matstrat_common::QueryIo;
        let m = IoMeter::new();
        let (main, worker) = (QueryIo::new(), QueryIo::new());
        main.run(|| m.record_read("f", 0, 10));
        let main_before = ledger_stats(&main);
        assert_eq!(main_before.block_reads, 1);
        let worker_stats = std::thread::scope(|s| {
            s.spawn(|| {
                worker.run(|| {
                    m.record_read("f", 100, 10);
                    m.record_read("f", 110, 10);
                });
                ledger_stats(&worker)
            })
            .join()
            .unwrap()
        });
        assert_eq!(worker_stats.block_reads, 2);
        assert_eq!(worker_stats.seeks, 1, "worker stream starts with a seek");
        // Worker reads never leak into the main statement's view...
        assert_eq!(ledger_stats(&main), main_before);
        // ...but the global snapshot has everything.
        let mut total = main_before;
        total += worker_stats;
        assert_eq!(m.snapshot(), total);
    }

    /// What `io` has been charged, as meter counters.
    fn ledger_stats(io: &matstrat_common::QueryIo) -> IoStats {
        IoStats {
            block_reads: io.block_reads(),
            seeks: io.seeks(),
        }
    }

    /// The calling thread's statement share, as the reset test reads it:
    /// what the ledger installed here has been charged, and nothing when
    /// none is — such reads reach the store-wide counters only.
    trait ThreadSnapshot {
        fn thread_snapshot(&self) -> IoStats;
    }

    impl ThreadSnapshot for IoMeter {
        fn thread_snapshot(&self) -> IoStats {
            matstrat_common::QueryIo::current()
                .map_or_else(IoStats::default, |io| ledger_stats(&io))
        }
    }
}
