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
//! Sequentiality is judged per **(file, reading thread)**: the parallel
//! executor gives each worker its own contiguous granule span, so every
//! worker's read stream is sequential on its own, and interleaving at the
//! shared meter must not invent head movements a per-worker disk arm
//! would never make. Counters are kept both globally (for
//! [`IoMeter::snapshot`]) and per thread (for
//! [`IoMeter::thread_snapshot`], which lets a worker report exactly the
//! I/O it caused).

use std::collections::HashMap;
use std::ops::AddAssign;
use std::thread::{self, ThreadId};

use parking_lot::Mutex;

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

#[derive(Debug, Default)]
struct MeterInner {
    stats: IoStats,
    /// Per-thread share of `stats`, so a worker can report the I/O it
    /// caused without seeing its siblings'.
    per_thread: HashMap<ThreadId, IoStats>,
    /// Offset one past the last byte read, per (file, reading thread), to
    /// detect seeks against each worker's own read stream.
    last_end: HashMap<(String, ThreadId), u64>,
}

/// Thread-safe seek/read counter shared by every column reader.
#[derive(Debug, Default)]
pub struct IoMeter {
    inner: Mutex<MeterInner>,
}

/// Lock-free accumulator for one query's I/O, fed by
/// [`IoMeter::forget_current_thread`] harvests from the threads that ran
/// the query (scoped pipeline workers and the calling thread). Summing
/// per-thread forgets — instead of diffing the global counters — keeps a
/// query's [`IoStats`] exact when several sessions execute concurrently
/// on one store: the global snapshot would interleave every session's
/// reads, the sink sees only its own query's threads.
#[derive(Debug, Default)]
pub struct IoSink {
    block_reads: std::sync::atomic::AtomicU64,
    seeks: std::sync::atomic::AtomicU64,
}

impl IoSink {
    /// A zeroed sink.
    pub fn new() -> IoSink {
        IoSink::default()
    }

    /// Fold one thread's forgotten counters in.
    pub fn add(&self, s: IoStats) {
        use std::sync::atomic::Ordering;
        self.block_reads.fetch_add(s.block_reads, Ordering::Relaxed);
        self.seeks.fetch_add(s.seeks, Ordering::Relaxed);
    }

    /// The accumulated total.
    pub fn total(&self) -> IoStats {
        use std::sync::atomic::Ordering;
        IoStats {
            block_reads: self.block_reads.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
        }
    }
}

impl IoMeter {
    /// New meter with zeroed counters.
    pub fn new() -> IoMeter {
        IoMeter::default()
    }

    /// Record a block fetch of `len` bytes at `offset` of `file`,
    /// attributed to the calling thread.
    pub fn record_read(&self, file: &str, offset: u64, len: u64) {
        let tid = thread::current().id();
        let mut inner = self.inner.lock();
        let key = (file.to_string(), tid);
        let sequential = inner.last_end.get(&key) == Some(&offset);
        let thread_stats = inner.per_thread.entry(tid).or_default();
        if !sequential {
            thread_stats.seeks += 1;
        }
        thread_stats.block_reads += 1;
        if !sequential {
            inner.stats.seeks += 1;
        }
        inner.stats.block_reads += 1;
        inner.last_end.insert(key, offset + len);
    }

    /// Snapshot the global counters (all threads).
    pub fn snapshot(&self) -> IoStats {
        self.inner.lock().stats
    }

    /// Snapshot the calling thread's share of the counters.
    pub fn thread_snapshot(&self) -> IoStats {
        let tid = thread::current().id();
        self.inner
            .lock()
            .per_thread
            .get(&tid)
            .copied()
            .unwrap_or_default()
    }

    /// Drop the calling thread's per-thread state (counters and
    /// sequential-position tracking), returning the dropped counters.
    /// The query executor calls this at the end of every execution —
    /// worker threads and the serial path alike — so a long-lived meter
    /// does not accumulate entries for dead threads; code driving
    /// [`record_read`](Self::record_read) directly from short-lived
    /// threads should do the same. The global counters are unaffected.
    ///
    /// The returned delta is what makes **per-query** accounting possible
    /// under concurrency: a query funnels every forget of its own threads
    /// (scoped pipeline workers and the session thread between pipeline
    /// runs) into an [`IoSink`], and the sink total is exactly the I/O
    /// that query caused — no other session's reads can reach it, because
    /// no other session's query ever runs on these threads.
    pub fn forget_current_thread(&self) -> IoStats {
        let tid = thread::current().id();
        let mut inner = self.inner.lock();
        let dropped = inner.per_thread.remove(&tid).unwrap_or_default();
        inner.last_end.retain(|(_, t), _| *t != tid);
        dropped
    }

    /// Reset counters and sequential-position tracking.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.stats = IoStats::default();
        inner.per_thread.clear();
        inner.last_end.clear();
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
    fn forget_returns_the_dropped_share_and_sinks_sum_exactly() {
        let m = IoMeter::new();
        let sink = IoSink::new();
        m.record_read("f", 0, 10);
        std::thread::scope(|s| {
            s.spawn(|| {
                m.record_read("f", 100, 10);
                m.record_read("f", 110, 10);
                sink.add(m.forget_current_thread());
            });
        });
        sink.add(m.forget_current_thread());
        assert_eq!(sink.total(), m.snapshot(), "harvests cover every read");
        assert_eq!(sink.total().block_reads, 3);
        // A second forget harvests nothing: the state really was dropped.
        assert_eq!(m.forget_current_thread(), IoStats::default());
    }

    #[test]
    fn thread_snapshot_isolates_and_sums_to_global() {
        let m = IoMeter::new();
        m.record_read("f", 0, 10);
        let main_before = m.thread_snapshot();
        assert_eq!(main_before.block_reads, 1);
        let worker_stats = std::thread::scope(|s| {
            s.spawn(|| {
                m.record_read("f", 100, 10);
                m.record_read("f", 110, 10);
                let mine = m.thread_snapshot();
                m.forget_current_thread();
                mine
            })
            .join()
            .unwrap()
        });
        assert_eq!(worker_stats.block_reads, 2);
        assert_eq!(worker_stats.seeks, 1, "worker stream starts with a seek");
        // Worker reads never leak into the main thread's view...
        assert_eq!(m.thread_snapshot(), main_before);
        // ...but the global snapshot has everything.
        let mut total = main_before;
        total += worker_stats;
        assert_eq!(m.snapshot(), total);
    }
}
