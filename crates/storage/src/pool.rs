//! Buffer pool: a capacity-bounded LRU cache of parsed blocks, striped
//! into independently locked shards.
//!
//! Parsed blocks stay in their compressed form ([`EncodedBlock`]), so the
//! pool is the in-memory home of the paper's mini-columns: a multi-column
//! holds `Arc`s to pooled blocks, which is the "essentially just a pointer
//! to the page in the buffer pool" of §3.6. Handing out `Arc`s also means
//! eviction never invalidates an operator's data — no pinning protocol is
//! needed.
//!
//! # Sharding
//!
//! A single LRU mutex serializes every block lookup once the
//! granule-parallel executor and the parallel join probe put eight-plus
//! workers on the pool at once. The pool therefore stripes by block key:
//! each shard owns its own entry map, LRU clock, single-flight stripes,
//! and share of the capacity, so lookups of different blocks proceed in
//! parallel and only true same-block races synchronize. The striping is
//! invisible from outside:
//!
//! * a key maps to exactly one shard, so every lookup is still exactly
//!   one hit or one miss and [`PoolStats`] — summed over shards — stays
//!   **globally exact** at any worker count;
//! * per-shard capacities sum to the requested capacity, so the global
//!   bound holds at every moment;
//! * `MATSTRAT_POOL_SHARDS=1` collapses to the previous single-LRU pool,
//!   byte-for-byte (the CI degenerate leg).
//!
//! Eviction is LRU *within a shard*. Shard count is capped by capacity so
//! every shard owns at least one block. The stripe count is fixed when the
//! pool is built; a lookup takes only its own shard's mutex.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::block::EncodedBlock;

/// Number of single-flight stripes guarding concurrent cold fills, per
/// shard — kept at the pre-sharding pool's stripe count so even a
/// single-shard pool serializes concurrent fills of *distinct* blocks
/// no more often than it ever did.
const FLIGHT_STRIPES: usize = 64;

/// Cache key: (column file name, block index within the file).
pub type BlockKey = (String, u32);

/// The shard-count default: `MATSTRAT_POOL_SHARDS` when set (`0` means
/// "all available cores"), otherwise the `MATSTRAT_THREADS` worker
/// default. Tying the fallback to the thread knob keeps the paper's
/// serial configuration (threads unset → 1 worker → 1 shard) on the
/// exact single-LRU eviction behavior of the pre-sharding pool — shard
/// count only grows when workers exist to contend — while
/// `MATSTRAT_POOL_SHARDS` still pins it independently (CI's `=1` leg
/// proves the degenerate equivalence under 4 workers). Read once per
/// process.
pub fn default_pool_shards() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        matstrat_common::env_worker_count(
            "MATSTRAT_POOL_SHARDS",
            matstrat_common::default_parallelism(),
        )
    })
}

/// Hit/miss counters for one pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Lookups satisfied from the pool.
    pub hits: u64,
    /// Lookups that had to go to disk.
    pub misses: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
}

impl PoolStats {
    /// Hit fraction in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::ops::AddAssign for PoolStats {
    fn add_assign(&mut self, rhs: PoolStats) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.evictions += rhs.evictions;
    }
}

#[derive(Debug)]
struct Entry {
    block: Arc<EncodedBlock>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct ShardInner {
    entries: HashMap<BlockKey, Entry>,
    tick: u64,
    stats: PoolStats,
}

/// One stripe of the pool: its own LRU, counters, and single-flight
/// locks. Lock order within a shard is flight stripe → inner mutex,
/// never the reverse; shards never lock each other.
#[derive(Debug)]
struct Shard {
    capacity: usize,
    inner: Mutex<ShardInner>,
    /// Single-flight stripes: a cold fill holds its key's stripe for the
    /// duration of the disk read, so concurrent misses on one block do one
    /// read and charge one `block_read` — parallel cold runs keep the
    /// exact counters of a serial run.
    flight: Vec<Mutex<()>>,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            capacity,
            inner: Mutex::new(ShardInner::default()),
            flight: std::iter::repeat_with(|| Mutex::new(()))
                .take(FLIGHT_STRIPES)
                .collect(),
        }
    }

    /// Look up `key` in one critical section: refresh recency and count
    /// the hit; on absence count a miss only when `count_miss` is set.
    /// The single-flight path defers its miss — a first probe that turns
    /// into a hit after the stripe wait is one hit, not a miss plus a
    /// hit.
    fn find(&self, key: &BlockKey, count_miss: bool) -> Option<Arc<EncodedBlock>> {
        let inner = &mut *self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                let b = Arc::clone(&e.block);
                inner.stats.hits += 1;
                Some(b)
            }
            None => {
                if count_miss {
                    inner.stats.misses += 1;
                }
                None
            }
        }
    }

    fn record_miss(&self) {
        self.inner.lock().stats.misses += 1;
    }

    fn insert(&self, key: BlockKey, block: Arc<EncodedBlock>) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(&key) && inner.entries.len() >= self.capacity {
            // Evict the LRU entry. Linear scan: eviction is rare relative
            // to lookups and pools are sized in thousands of blocks.
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
                inner.stats.evictions += 1;
            }
        }
        inner.entries.insert(
            key,
            Entry {
                block,
                last_used: tick,
            },
        );
    }
}

/// A sharded LRU cache of `Arc<EncodedBlock>` bounded by block count.
///
/// Capacity is in blocks (each ≤ 64 KB), so `capacity = 16384` ≈ 1 GB —
/// the knob used to emulate the paper's `F` (fraction of a column already
/// resident). [`BufferPool::new`] stripes over the `MATSTRAT_POOL_SHARDS`
/// default; [`BufferPool::with_shards`] pins the shard count (1 restores
/// the single global LRU).
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    shards: Box<[Shard]>,
}

impl BufferPool {
    /// Pool holding at most `capacity` blocks (minimum 1), striped over
    /// the process-default shard count.
    pub fn new(capacity: usize) -> BufferPool {
        BufferPool::with_shards(capacity, default_pool_shards())
    }

    /// Pool holding at most `capacity` blocks over exactly `shards`
    /// stripes (both clamped to ≥ 1; shards additionally capped by the
    /// capacity so every shard owns at least one block). Per-shard
    /// capacities sum to `capacity`: the first `capacity % shards`
    /// stripes take the remainder, one block each.
    pub fn with_shards(capacity: usize, shards: usize) -> BufferPool {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let (per, rem) = (capacity / shards, capacity % shards);
        BufferPool {
            capacity,
            shards: (0..shards)
                .map(|s| Shard::new(per + usize::from(s < rem)))
                .collect(),
        }
    }

    /// Total capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of blocks currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.lock().entries.len())
            .sum()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stripe `key` lives in, plus the full hash (whose high bits
    /// pick the single-flight stripe).
    fn shard_of(&self, key: &BlockKey) -> (&Shard, u64) {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let hash = h.finish();
        (&self.shards[hash as usize % self.shards.len()], hash)
    }

    /// Look up a block, refreshing its recency on hit.
    pub fn get(&self, key: &BlockKey) -> Option<Arc<EncodedBlock>> {
        self.shard_of(key).0.find(key, true)
    }

    /// Look up `key`, filling it with `fill` on a miss. Concurrent callers
    /// of the same key are single-flighted: exactly one runs `fill`, the
    /// rest wait on the key's stripe and are served from the pool. Each
    /// call counts exactly one hit (served from cache) or miss (`fill`
    /// ran, or was attempted and failed). A waiter is a hit like any
    /// other: whatever `fill` meters is charged to the one caller whose
    /// `fill` ran, however the callers interleave.
    pub fn get_or_insert_with<E>(
        &self,
        key: &BlockKey,
        fill: impl FnOnce() -> std::result::Result<Arc<EncodedBlock>, E>,
    ) -> std::result::Result<Arc<EncodedBlock>, E> {
        let (shard, hash) = self.shard_of(key);
        if let Some(b) = shard.find(key, false) {
            return Ok(b);
        }
        // The shard index consumed the low hash bits; pick the flight
        // stripe from the high bits so one shard's keys still spread over
        // its stripes.
        let _inflight = shard.flight[(hash >> 32) as usize % shard.flight.len()].lock();
        if let Some(b) = shard.find(key, false) {
            // Another caller filled it while we waited on the stripe.
            return Ok(b);
        }
        shard.record_miss();
        let block = fill()?;
        shard.insert(key.clone(), Arc::clone(&block));
        Ok(block)
    }

    /// Insert a block, evicting the shard's least-recently-used entry if
    /// the shard is full.
    pub fn insert(&self, key: BlockKey, block: Arc<EncodedBlock>) {
        self.shard_of(&key).0.insert(key, block);
    }

    /// Drop every cached block of `file`, returning how many were
    /// dropped. A retired generation of column files calls this as its
    /// last pin drops, just before the files themselves are removed
    /// ([`crate::generation`]): with no pin left there is no reader left
    /// to fault a block back in, so the entries — which nothing evicts
    /// from a pool this much larger than the working set — are gone for
    /// good, not until the next racing read. Counters are untouched —
    /// the history of hits and misses happened.
    pub fn invalidate_file(&self, file: &str) -> usize {
        let mut dropped = 0;
        for s in self.shards.iter() {
            let mut inner = s.inner.lock();
            let before = inner.entries.len();
            inner.entries.retain(|(f, _), _| f != file);
            dropped += before - inner.entries.len();
        }
        dropped
    }

    /// How many blocks of `file` are currently resident — the numerator of
    /// the model's `F` for that column.
    pub fn resident_blocks(&self, file: &str) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.inner
                    .lock()
                    .entries
                    .keys()
                    .filter(|(f, _)| f == file)
                    .count()
            })
            .sum()
    }

    /// Counter snapshot, summed over shards — exact: every lookup lands
    /// in exactly one shard and counts exactly one hit or miss there.
    pub fn stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for s in self.shards.iter() {
            total += s.inner.lock().stats;
        }
        total
    }

    /// Drop all cached blocks and zero the counters (a "cold cache" reset
    /// for benchmarks).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            let mut inner = s.inner.lock();
            inner.entries.clear();
            inner.stats = PoolStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::PlainBlock;
    use matstrat_common::Width;

    fn block(start: u64) -> Arc<EncodedBlock> {
        Arc::new(EncodedBlock::Plain(PlainBlock::from_values(
            start,
            Width::W1,
            &[1, 2, 3],
        )))
    }

    fn key(i: u32) -> BlockKey {
        ("f.col".to_string(), i)
    }

    #[test]
    fn hit_and_miss_counters() {
        let pool = BufferPool::new(4);
        assert!(pool.get(&key(0)).is_none());
        pool.insert(key(0), block(0));
        assert!(pool.get(&key(0)).is_some());
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        // One shard: the historical global-LRU behavior, exactly.
        let pool = BufferPool::with_shards(2, 1);
        pool.insert(key(0), block(0));
        pool.insert(key(1), block(1));
        // Touch 0 so 1 becomes LRU.
        pool.get(&key(0));
        pool.insert(key(2), block(2));
        assert!(pool.get(&key(0)).is_some());
        assert!(pool.get(&key(1)).is_none(), "LRU entry should be evicted");
        assert!(pool.get(&key(2)).is_some());
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn reinsert_does_not_evict() {
        let pool = BufferPool::with_shards(2, 1);
        pool.insert(key(0), block(0));
        pool.insert(key(1), block(1));
        pool.insert(key(0), block(0)); // same key: no eviction needed
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.stats().evictions, 0);
    }

    #[test]
    fn resident_blocks_per_file() {
        let pool = BufferPool::new(8);
        pool.insert(("a".into(), 0), block(0));
        pool.insert(("a".into(), 1), block(0));
        pool.insert(("b".into(), 0), block(0));
        assert_eq!(pool.resident_blocks("a"), 2);
        assert_eq!(pool.resident_blocks("b"), 1);
        assert_eq!(pool.resident_blocks("c"), 0);
    }

    #[test]
    fn arc_survives_eviction() {
        let pool = BufferPool::with_shards(1, 1);
        let b = block(7);
        pool.insert(key(0), Arc::clone(&b));
        let held = pool.get(&key(0)).unwrap();
        pool.insert(key(1), block(8)); // evicts key(0)
        assert!(pool.get(&key(0)).is_none());
        // The operator's Arc is still valid.
        assert_eq!(held.start_pos(), 7);
    }

    #[test]
    fn clear_resets_counters_but_not_the_stripe_count() {
        let pool = BufferPool::new(4);
        let shards = pool.num_shards();
        pool.insert(key(0), block(0));
        pool.get(&key(0));
        pool.clear();
        assert!(pool.is_empty());
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 0, 0));
        assert_eq!(pool.num_shards(), shards, "structure survives");
    }

    #[test]
    fn get_or_insert_counts_one_lookup_per_call() {
        let pool = BufferPool::new(4);
        let b: Result<_, ()> = pool.get_or_insert_with(&key(0), || Ok(block(0)));
        assert!(b.is_ok());
        let b: Result<_, ()> = pool.get_or_insert_with(&key(0), || panic!("must not refill"));
        assert!(b.is_ok());
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn get_or_insert_failed_fill_counts_miss_and_caches_nothing() {
        let pool = BufferPool::new(4);
        let r = pool.get_or_insert_with(&key(0), || Err("disk gone"));
        assert_eq!(r.unwrap_err(), "disk gone");
        assert_eq!(pool.stats().misses, 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn concurrent_misses_single_flight() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = BufferPool::new(8);
        let fills = AtomicUsize::new(0);
        const THREADS: usize = 8;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let b: Result<_, ()> = pool.get_or_insert_with(&key(7), || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window: everyone else must wait on
                        // the stripe, not refill.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(block(7))
                    });
                    assert_eq!(b.unwrap().start_pos(), 7);
                });
            }
        });
        assert_eq!(fills.load(Ordering::SeqCst), 1, "exactly one fill");
        let s = pool.stats();
        assert_eq!(s.misses, 1, "one counted miss for one disk read");
        assert_eq!(s.hits as usize, THREADS - 1);
    }

    #[test]
    fn a_waiter_on_anothers_fill_is_served_and_charged_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;
        // Cold reads are metered inside `fill`, so "charged" is "whose
        // closure ran". The filler parks inside its fill, holding the
        // stripe, until the second caller has probed and missed; from
        // there the second caller can only queue on the stripe and be
        // served by the filler's block.
        let pool = BufferPool::with_shards(8, 1);
        let charged = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (pool, charged) = (&pool, &charged);
        std::thread::scope(|s| {
            let filler = s.spawn(move || {
                pool.get_or_insert_with(&key(3), || {
                    charged[0].fetch_add(1, Ordering::SeqCst);
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok::<_, ()>(block(3))
                })
            });
            entered_rx.recv().unwrap();
            let waiter = s.spawn(move || {
                pool.get_or_insert_with(&key(3), || {
                    charged[1].fetch_add(1, Ordering::SeqCst);
                    Ok::<_, ()>(block(3))
                })
            });
            // Probes tick the shard's clock: two by the filler (before
            // and after taking the stripe), the third is the waiter's.
            while pool.shards[0].inner.lock().tick < 3 {
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            assert_eq!(filler.join().unwrap().unwrap().start_pos(), 3);
            assert_eq!(waiter.join().unwrap().unwrap().start_pos(), 3);
        });
        let charged = [0, 1].map(|i| charged[i].load(Ordering::SeqCst));
        assert_eq!(charged, [1, 0], "only the filler pays for the read");
        let s = pool.stats();
        assert_eq!((s.misses, s.hits), (1, 1), "one read, one served waiter");
    }

    #[test]
    fn invalidate_file_drops_only_that_file() {
        let pool = BufferPool::new(8);
        pool.insert(("a".into(), 0), block(0));
        pool.insert(("a".into(), 1), block(1));
        pool.insert(("b".into(), 0), block(2));
        let before = pool.stats();
        assert_eq!(pool.invalidate_file("a"), 2);
        assert_eq!(pool.resident_blocks("a"), 0);
        assert_eq!(pool.resident_blocks("b"), 1);
        assert_eq!(pool.invalidate_file("a"), 0, "second pass finds nothing");
        let after = pool.stats();
        assert_eq!(
            (after.hits, after.misses, after.evictions),
            (before.hits, before.misses, before.evictions),
            "invalidation is not an eviction"
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let pool = BufferPool::new(0);
        assert_eq!(pool.capacity(), 1);
        assert_eq!(pool.num_shards(), 1, "shards capped by capacity");
        pool.insert(key(0), block(0));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn shard_capacities_sum_to_total() {
        // 10 blocks over 4 shards: 3+3+2+2, never more.
        let pool = BufferPool::with_shards(10, 4);
        assert_eq!(pool.num_shards(), 4);
        let caps: Vec<usize> = pool.shards.iter().map(|s| s.capacity).collect();
        assert_eq!(caps.iter().sum::<usize>(), 10);
        assert_eq!(caps, vec![3, 3, 2, 2]);
        // Shard count is capped by capacity.
        let tiny = BufferPool::with_shards(3, 64);
        assert_eq!(tiny.num_shards(), 3);
        assert!(tiny.shards.iter().all(|s| s.capacity == 1));
    }

    #[test]
    fn sharded_pool_bounds_capacity_under_churn() {
        let pool = BufferPool::with_shards(8, 4);
        for i in 0..200u32 {
            pool.insert(key(i), block(u64::from(i)));
            assert!(pool.len() <= 8, "global bound holds at every moment");
        }
        let s = pool.stats();
        assert!(s.evictions >= 192, "churn evicts: {}", s.evictions);
    }

    #[test]
    fn degenerate_single_shard_matches_multi_shard_counters() {
        // The same deterministic workload against 1 shard and 4 shards:
        // hits and misses must agree exactly (a key lands in exactly one
        // shard, so lookup outcomes are sharding-invariant as long as
        // nothing evicts), proving the striping never double- or
        // under-counts.
        let run = |pool: &BufferPool| {
            for i in 0..32u32 {
                let _: Result<_, ()> = pool.get_or_insert_with(&key(i), || Ok(block(u64::from(i))));
            }
            for i in 0..32u32 {
                assert!(pool.get(&key(i)).is_some());
            }
            pool.stats()
        };
        // Capacity 128 over 4 shards: 32 per shard, so even a worst-case
        // hash distribution (all 32 keys in one shard) cannot evict —
        // the no-eviction precondition holds for any hasher.
        let single = run(&BufferPool::with_shards(128, 1));
        let sharded = run(&BufferPool::with_shards(128, 4));
        assert_eq!(single.hits, sharded.hits);
        assert_eq!(single.misses, sharded.misses);
        assert_eq!(single.evictions, 0);
        assert_eq!(sharded.evictions, 0);
    }
}
