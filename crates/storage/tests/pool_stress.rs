//! Buffer-pool stress test: eight threads hammering a tiny-capacity pool.
//!
//! The parallel executor shares one `BufferPool` among all workers, so the
//! pool must keep its invariants under real contention, not just in
//! single-threaded unit tests:
//!
//! * the capacity bound holds at every observable moment;
//! * no deadlock (single-flight stripes are only ever taken before the
//!   inner mutex, never after; shards never lock each other);
//! * the hit/miss counters reconcile with the number of lookups issued,
//!   and misses reconcile with the number of fills actually run —
//!   **globally exact across shards**, even while every shard is
//!   evicting under churn.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use matstrat_common::Width;
use matstrat_storage::{BufferPool, EncodedBlock, PlainBlock};

fn block(start: u64) -> Arc<EncodedBlock> {
    Arc::new(EncodedBlock::Plain(PlainBlock::from_values(
        start,
        Width::W1,
        &[1, 2, 3],
    )))
}

#[test]
fn tiny_pool_survives_eight_thread_hammering() {
    hammer(BufferPool::new(4), 4);
}

#[test]
fn single_shard_pool_survives_eight_thread_hammering() {
    // The degenerate-sharding configuration (`MATSTRAT_POOL_SHARDS=1`
    // in CI): one global LRU, exactly the pre-sharding pool.
    hammer(BufferPool::with_shards(4, 1), 4);
}

#[test]
fn sharded_pool_counters_reconcile_under_cross_stripe_eviction() {
    // Capacity 8 over 4 stripes (2 blocks each) with a 64-key space:
    // every stripe evicts constantly, and the walk crosses stripes on
    // almost every step. The global counters must still account for
    // every lookup exactly.
    let pool = BufferPool::with_shards(8, 4);
    assert_eq!(pool.num_shards(), 4);
    hammer(pool, 8);
}

/// Deterministic multi-threaded churn against `pool`, asserting the
/// capacity bound at every moment and exact counter reconciliation at
/// the end.
fn hammer(pool: BufferPool, capacity: usize) {
    const THREADS: usize = 8;
    const OPS: usize = 4_000;
    const KEYS: u64 = 64;
    let lookups = AtomicUsize::new(0);
    let fills = AtomicUsize::new(0);

    // Serial prologue: one miss, then one hit on the same key, so the
    // ledger holds both outcomes whatever the threads' schedule does.
    for _ in 0..2 {
        lookups.fetch_add(1, Ordering::Relaxed);
        let b: Result<_, ()> = pool.get_or_insert_with(&("stress.col".to_string(), 0), || {
            fills.fetch_add(1, Ordering::Relaxed);
            Ok(block(0))
        });
        assert_eq!(b.unwrap().start_pos(), 0);
    }

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = &pool;
            let lookups = &lookups;
            let fills = &fills;
            s.spawn(move || {
                // Deterministic per-thread walk over a key space much
                // larger than the pool, so eviction churns constantly.
                // Keys come from the high bits: the low six bits of this
                // power-of-two LCG cycle with period exactly 64, which
                // would walk every thread through its keys in one fixed
                // order and leave a small pool with hits only when
                // threads happen to overlap.
                let mut x = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for i in 0..OPS {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = ("stress.col".to_string(), ((x >> 33) % KEYS) as u32);
                    if i % 3 == 0 {
                        // Plain lookup; on miss, insert directly.
                        lookups.fetch_add(1, Ordering::Relaxed);
                        let idx = key_idx(&key);
                        if pool.get(&key).is_none() {
                            pool.insert(key, block(u64::from(idx)));
                        }
                    } else {
                        // Single-flight path, as the executor uses it.
                        lookups.fetch_add(1, Ordering::Relaxed);
                        let b: Result<_, ()> = pool.get_or_insert_with(&key, || {
                            fills.fetch_add(1, Ordering::Relaxed);
                            Ok(block(u64::from(key_idx(&key))))
                        });
                        assert_eq!(b.unwrap().start_pos(), u64::from(key_idx(&key)));
                    }
                    // The capacity bound must hold at every moment, not
                    // just after the dust settles.
                    assert!(
                        pool.len() <= capacity,
                        "pool overflowed: {} > {capacity}",
                        pool.len()
                    );
                }
            });
        }
    });

    let stats = pool.stats();
    assert!(pool.len() <= capacity);
    assert_eq!(
        stats.hits + stats.misses,
        lookups.load(Ordering::Relaxed) as u64,
        "every lookup is exactly one hit or one miss"
    );
    // Every single-flight miss ran exactly one fill; plain `get` misses
    // ran none. Misses from both paths are counted, so:
    //   misses = get-misses + fills  and  fills <= misses.
    assert!(
        fills.load(Ordering::Relaxed) as u64 <= stats.misses,
        "more fills than misses: {} > {}",
        fills.load(Ordering::Relaxed),
        stats.misses
    );
    assert!(stats.misses > 0 && stats.hits > 0, "workload too easy");
    assert!(stats.evictions > 0, "tiny pool must evict under churn");
}

fn key_idx(key: &(String, u32)) -> u32 {
    key.1
}
