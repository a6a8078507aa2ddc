//! The fragment pipeline: one parallel execution substrate for every
//! operator that decomposes into independent position spans.
//!
//! Step 1 of every read statement runs here, through
//! [`crate::exec`]'s one driver, on a **work-stealing granule
//! scheduler**. The engine's parallelism contract rests on four
//! invariants, all owned by this module:
//!
//! * **Partitioning** — the position range `[0, rows)` splits into
//!   contiguous, granule-aligned spans of near-equal granule counts, one
//!   per worker. The skew guard lives here and only here: when the table
//!   has fewer granules than the knob requests workers, the pipeline
//!   collapses to granule-count workers, so a one-granule table runs
//!   serially no matter the setting and every caller (executor, join,
//!   planner pricing) observes the same effective worker count.
//! * **Work stealing** — a worker *starts* on its own span and claims
//!   chunk-sized granule runs from the span's **head**, so its read
//!   stream stays sequential and the per-(file, worker) seek accounting
//!   of the per-query ledger keeps meaning. A worker whose span is
//!   drained turns thief: it steals a chunk-sized granule run from the **tail**
//!   of the most loaded worker's remaining span, and exits only when
//!   every span is empty. Clustered selectivity can no longer strand one
//!   worker with all the matches while its siblings idle.
//! * **Granule-ordered merge** — every claimed run produces one
//!   fragment tagged with its start position; [`FragmentPipeline::run`]
//!   sorts the fragments into **global granule order** before returning
//!   them. Runs are contiguous, granule-aligned, and disjoint, and
//!   together they partition `[0, rows)`, so concatenating the fragments
//!   reproduces the serial output byte for byte at any worker count —
//!   stealing moves *who* computes a granule, never *what* or *where in
//!   the output* it lands. Cold `block_reads` stay exact for the same
//!   reason: the same granule windows are fetched exactly once each
//!   (the buffer pool single-flights concurrent misses).
//! * **Per-query ledger** — workers are spawned through
//!   [`matstrat_common::fan_out`], which installs the calling statement's
//!   [`QueryIo`](matstrat_common::QueryIo) ledger on each of them, so every
//!   block read and code operation a worker makes is charged to that
//!   statement and folded in once, when the worker finishes. A worker
//!   keeps one read stream per file across all its claims.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use matstrat_common::{PosRange, Result};

/// Granule runs each worker is expected to claim over its lifetime: the
/// scheduler sizes its chunk as `num_granules / (workers ×
/// CHUNKS_PER_WORKER)` (clamped to ≥ 1 granule), so claim bookkeeping
/// stays a ~16th-order overhead while the tail of every span remains
/// fine-grained enough to steal. The cost model mirrors this constant
/// when pricing scheduler overhead (`CostModel::steal_overhead`).
pub const CHUNKS_PER_WORKER: u64 = 16;

/// A reusable span-parallel execution plan over a position range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentPipeline {
    spans: Vec<PosRange>,
    granule: u64,
    /// Granules per claim/steal.
    chunk: u64,
}

/// Remaining granule range `[head, tail)` of one worker's span, on the
/// global granule grid. The owner claims from `head`; thieves steal
/// from `tail`.
type SpanQueue = Mutex<(u64, u64)>;

impl FragmentPipeline {
    /// Plan `[0, rows)` as contiguous, granule-aligned spans for up to
    /// `workers` workers. `granule` and `workers` are clamped to ≥ 1; the
    /// worker count is capped by the granule count (the skew guard).
    pub fn new(rows: u64, granule: u64, workers: usize) -> FragmentPipeline {
        let granule = granule.max(1);
        let num_granules = rows.div_ceil(granule);
        let workers = Self::effective_workers(rows, granule, workers) as u64;
        let per = num_granules / workers;
        let rem = num_granules % workers;
        let mut spans = Vec::with_capacity(workers as usize);
        let mut at = 0u64; // in granules
        for w in 0..workers {
            let take = per + u64::from(w < rem);
            let start = at * granule;
            let end = ((at + take) * granule).min(rows);
            spans.push(PosRange::new(start, end.max(start)));
            at += take;
        }
        let chunk = (num_granules / (workers * CHUNKS_PER_WORKER)).max(1);
        FragmentPipeline {
            spans,
            granule,
            chunk,
        }
    }

    /// The worker count a `rows`/`granule`/`workers` pipeline actually
    /// runs with: `workers` clamped to `[1, ceil(rows / granule)]`. The
    /// single source of truth for the skew guard — the planner prices
    /// plans with this so CPU terms never divide by threads that will
    /// not spawn.
    pub fn effective_workers(rows: u64, granule: u64, workers: usize) -> usize {
        let num_granules = rows.div_ceil(granule.max(1)).max(1);
        (workers as u64).clamp(1, num_granules) as usize
    }

    /// The planned spans, in ascending position order. Spans partition
    /// `[0, rows)` exactly. With stealing, a span names where its worker
    /// *starts*, not everything it will execute.
    pub fn spans(&self) -> &[PosRange] {
        &self.spans
    }

    /// The effective worker count (number of spans).
    pub fn workers(&self) -> usize {
        self.spans.len()
    }

    /// Granules per scheduler claim/steal.
    pub fn chunk_granules(&self) -> u64 {
        self.chunk
    }

    /// Run `task` over the position range and return the fragments **in
    /// global granule order**, plus how many granule runs were
    /// **stolen** — claimed from the tail of another worker's span by a
    /// worker that had drained its own. Concatenating the fragments
    /// reproduces the serial output byte for byte at any worker count. A
    /// single-span (serial) plan never steals; a multi-span plan steals
    /// exactly when the work is skewed enough (or the host slow enough)
    /// for some worker to go idle while another still holds unclaimed
    /// granules.
    ///
    /// The first span runs on the calling thread and the rest on
    /// [`fan_out`](matstrat_common::fan_out) workers, one per span, so an
    /// N-span plan occupies exactly N threads. Each worker processes
    /// chunk-sized granule runs: its own span head-first (sequential read
    /// stream), then stolen tail runs. The first error in granule order
    /// wins; worker panics propagate to the caller; every granule runs
    /// even when an earlier one errors (matching the serial executor's
    /// whole-range semantics under the differential batteries).
    pub fn run<T, F>(&self, task: F) -> Result<(Vec<T>, u64)>
    where
        T: Send,
        F: Fn(PosRange) -> Result<T> + Sync,
    {
        // The constructor always plans at least one (possibly empty)
        // span; a single span belongs to the calling thread, runs whole
        // (no chunking overhead), and cannot steal.
        if self.spans.len() <= 1 {
            return Ok((vec![task(self.spans[0])?], 0));
        }

        let rows = self.spans.last().expect("planned above").end;
        let queues: Vec<SpanQueue> = self
            .spans
            .iter()
            .map(|s| Mutex::new((s.start / self.granule, s.end.div_ceil(self.granule))))
            .collect();
        let steals = AtomicU64::new(0);

        let mut tagged: Vec<(u64, Result<T>)> =
            matstrat_common::fan_out(0..self.spans.len(), |w| {
                let mut frags = Vec::new();
                while let Some((g0, g1)) = self.claim(&queues, w, &steals) {
                    let span = PosRange::new(g0 * self.granule, (g1 * self.granule).min(rows));
                    frags.push((span.start, task(span)));
                }
                frags
            })
            .into_iter()
            .flatten()
            .collect();

        // Global granule order: runs are disjoint and granule-aligned,
        // so sorting by start position restores the serial layout.
        tagged.sort_unstable_by_key(|&(start, _)| start);
        debug_assert!(
            tagged.windows(2).all(|w| w[0].0 < w[1].0),
            "claimed runs must be disjoint"
        );
        let mut out = Vec::with_capacity(tagged.len());
        for (_, r) in tagged {
            out.push(r?);
        }
        Ok((out, steals.load(Ordering::Relaxed)))
    }

    /// Claim the next chunk-sized granule run for worker `w`: from the
    /// head of its own span while any remains, otherwise stolen from the
    /// tail of the most loaded span. `None` when every span is drained.
    fn claim(&self, queues: &[SpanQueue], w: usize, steals: &AtomicU64) -> Option<(u64, u64)> {
        {
            let mut q = queues[w].lock().expect("span queue poisoned");
            let (head, tail) = *q;
            if head < tail {
                let take = self.chunk.min(tail - head);
                q.0 = head + take;
                return Some((head, head + take));
            }
        }
        loop {
            // Pick the victim with the most unclaimed granules — the
            // best rebalance per steal, and the span least likely to be
            // drained by the time we lock it.
            let mut best: Option<(usize, u64)> = None;
            for (i, q) in queues.iter().enumerate() {
                if i == w {
                    continue;
                }
                let (head, tail) = *q.lock().expect("span queue poisoned");
                let remaining = tail.saturating_sub(head);
                if remaining > 0 && best.is_none_or(|(_, r)| remaining > r) {
                    best = Some((i, remaining));
                }
            }
            let (victim, _) = best?;
            let mut q = queues[victim].lock().expect("span queue poisoned");
            let (head, tail) = *q;
            if head < tail {
                let take = self.chunk.min(tail - head);
                q.1 = tail - take;
                steals.fetch_add(1, Ordering::Relaxed);
                return Some((tail - take, tail));
            }
            // Lost the race for this victim; rescan for another.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn spans_partition_range_exactly() {
        for (rows, granule, workers) in [
            (10_000u64, 128u64, 4usize),
            (10_000, 128, 7),
            (1, 128, 8),
            (0, 128, 8),
            (999, 1, 3),
        ] {
            let p = FragmentPipeline::new(rows, granule, workers);
            let spans = p.spans();
            assert_eq!(spans.first().map(|s| s.start), Some(0));
            assert_eq!(spans.last().map(|s| s.end), Some(rows));
            for w in spans.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                assert!(w[1].start % granule == 0, "granule aligned");
            }
            let total: u64 = spans.iter().map(|s| s.len()).sum();
            assert_eq!(total, rows);
        }
    }

    #[test]
    fn skew_guard_caps_workers_at_granule_count() {
        // 3 granules, 8 requested workers: 3 spans.
        let p = FragmentPipeline::new(3 * 64, 64, 8);
        assert_eq!(p.workers(), 3);
        assert_eq!(FragmentPipeline::effective_workers(3 * 64, 64, 8), 3);
        // One-granule table runs serially no matter the knob.
        assert_eq!(FragmentPipeline::effective_workers(10, 64, 8), 1);
        // Degenerate inputs clamp rather than panic.
        assert_eq!(FragmentPipeline::effective_workers(0, 64, 8), 1);
        assert_eq!(FragmentPipeline::effective_workers(100, 0, 0), 1);
        assert_eq!(FragmentPipeline::new(0, 64, 4).workers(), 1);
    }

    #[test]
    fn near_equal_granule_counts() {
        // 10 granules over 4 workers: 3,3,2,2.
        let p = FragmentPipeline::new(10 * 32, 32, 4);
        let counts: Vec<u64> = p.spans().iter().map(|s| s.len() / 32).collect();
        assert_eq!(counts, vec![3, 3, 2, 2]);
    }

    #[test]
    fn chunking_policy_matches_cost_model() {
        // The model prices scheduler bookkeeping from its mirror of the
        // chunking constant; the two must not drift apart.
        assert_eq!(
            CHUNKS_PER_WORKER as f64,
            matstrat_model::plans::SCHED_CHUNKS_PER_WORKER
        );
    }

    #[test]
    fn chunk_scales_with_granules_per_worker() {
        // Few granules: chunk clamps to one granule.
        assert_eq!(FragmentPipeline::new(10 * 32, 32, 4).chunk_granules(), 1);
        // Many granules: ~CHUNKS_PER_WORKER claims per worker.
        let p = FragmentPipeline::new(1280 * 32, 32, 4);
        assert_eq!(p.chunk_granules(), 1280 / (4 * CHUNKS_PER_WORKER));
    }

    #[test]
    fn degenerate_parallelism_never_spins_or_emits_zero_chunks() {
        // The session layer lets callers ask for any worker count, so the
        // scheduler must stay well-formed at the degenerate corners:
        // workers = 0 and granule counts of 0, 1, and workers − 1 — all
        // far below the `workers × CHUNKS_PER_WORKER` chunking regime.
        // Every configuration must (a) clamp to ≥ 1 worker, (b) never
        // plan a zero-sized steal chunk, and (c) run to completion with
        // each granule executed exactly once (an idle-spinning worker
        // would either hang the scope or double-claim a granule).
        const GRANULE: u64 = 32;
        for workers in [0usize, 1, 4, 8] {
            for granules in [0u64, 1, workers.saturating_sub(1) as u64] {
                let rows = granules * GRANULE;
                let p = FragmentPipeline::new(rows, GRANULE, workers);
                assert!(p.workers() >= 1, "w={workers} g={granules}: worker clamp");
                assert!(
                    p.workers() as u64 <= granules.max(1),
                    "w={workers} g={granules}: skew guard"
                );
                assert!(
                    p.chunk_granules() >= 1,
                    "w={workers} g={granules}: zero-sized steal chunk"
                );
                let hits = AtomicUsize::new(0);
                let (frags, _steals) = p
                    .run(|span| {
                        hits.fetch_add(span.len().div_ceil(GRANULE) as usize, Ordering::Relaxed);
                        Ok(span)
                    })
                    .unwrap();
                assert_eq!(
                    hits.load(Ordering::Relaxed) as u64,
                    granules,
                    "w={workers} g={granules}: every granule exactly once"
                );
                // Fragments concatenate back to [0, rows) exactly.
                let covered: u64 = frags.iter().map(|s| s.len()).sum();
                assert_eq!(covered, rows, "w={workers} g={granules}");
            }
        }
        // workers = 0 with a non-trivial table behaves as serial.
        let p = FragmentPipeline::new(10 * GRANULE, GRANULE, 0);
        assert_eq!(p.workers(), 1);
        let (frags, steals) = p.run(Ok).unwrap();
        assert_eq!(steals, 0, "serial plans cannot steal");
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], PosRange::new(0, 10 * GRANULE));
    }

    #[test]
    fn run_returns_fragments_in_global_granule_order() {
        let p = FragmentPipeline::new(1000, 10, 8);
        let frags = p.run(Ok).unwrap().0;
        // Fragments partition [0, 1000) in ascending position order,
        // chunked on the granule grid — regardless of who ran them.
        assert_eq!(frags.first().map(|s| s.start), Some(0));
        assert_eq!(frags.last().map(|s| s.end), Some(1000));
        for w in frags.windows(2) {
            assert_eq!(w[0].end, w[1].start, "contiguous in position order");
            assert_eq!(w[1].start % 10, 0, "granule aligned");
        }
    }

    #[test]
    fn run_serial_uses_calling_thread_and_never_steals() {
        let p = FragmentPipeline::new(100, 64 * 1024, 8);
        assert_eq!(p.workers(), 1);
        let caller = std::thread::current().id();
        let (frags, steals) = p.run(|_| Ok(std::thread::current().id())).unwrap();
        assert_eq!(frags, vec![caller]);
        assert_eq!(steals, 0);
    }

    #[test]
    fn run_multi_span_uses_worker_threads() {
        let p = FragmentPipeline::new(400, 100, 4);
        let caller = std::thread::current().id();
        let done = AtomicUsize::new(0);
        // Park granule 0's runner until the rest ran. If the caller
        // parks, the other three granules ran on worker threads; if a
        // worker parks (it stole granule 0 first), that worker is the
        // non-caller participant. Either way ≥ 1 granule provably ran
        // off the calling thread.
        let (ids, _) = p
            .run(|span| {
                if span.start == 0 {
                    while done.load(Ordering::SeqCst) < 3 {
                        std::thread::yield_now();
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
                Ok(std::thread::current().id())
            })
            .unwrap();
        assert_eq!(ids.len(), 4);
        assert!(
            ids.iter().any(|id| *id != caller),
            "worker threads participated"
        );
    }

    #[test]
    fn idle_workers_steal_from_a_loaded_span() {
        // Two workers, two granules each, chunk = 1. The task for
        // granule 0 blocks until three other granules completed: worker
        // 0 claims granule 0 (its own head — heads are never stolen) and
        // parks in it, so granule 1 can only ever be executed by worker
        // 1 stealing it from worker 0's tail. Deterministic: worker 1
        // exits only when every span queue is empty, and worker 0's
        // queue still holds granule 1 while worker 0 is parked.
        let p = FragmentPipeline::new(4 * 64, 64, 2);
        assert_eq!(p.chunk_granules(), 1);
        let done = AtomicUsize::new(0);
        let (frags, steals) = p
            .run(|span| {
                if span.start == 0 {
                    while done.load(Ordering::SeqCst) < 3 {
                        std::thread::yield_now();
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
                Ok(span.start)
            })
            .unwrap();
        assert_eq!(frags, vec![0, 64, 128, 192], "global granule order");
        assert!(steals >= 1, "granule 64 must have been stolen");
    }

    #[test]
    fn stolen_results_merge_in_granule_order() {
        // Same gating trick at a larger scale: worker 0 parks on its
        // first granule until everything else ran (mostly via steals),
        // and the merged output must still be the serial layout.
        let p = FragmentPipeline::new(64 * 16, 16, 4);
        let total_granules = 64usize;
        let done = AtomicUsize::new(0);
        let (frags, steals) = p
            .run(|span| {
                if span.start == 0 {
                    while done.load(Ordering::SeqCst) < total_granules - 1 {
                        std::thread::yield_now();
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
                Ok(span)
            })
            .unwrap();
        let rejoined: Vec<u64> = frags.iter().map(|s| s.start).collect();
        let mut expect = rejoined.clone();
        expect.sort_unstable();
        assert_eq!(rejoined, expect, "fragments in ascending position order");
        assert_eq!(frags.iter().map(|s| s.len()).sum::<u64>(), 64 * 16);
        assert!(steals >= 1, "worker 0's span tail must have been stolen");
    }

    #[test]
    fn run_propagates_first_error_in_granule_order() {
        let p = FragmentPipeline::new(400, 100, 4);
        let calls = AtomicUsize::new(0);
        let err = p
            .run(|span| {
                calls.fetch_add(1, Ordering::SeqCst);
                if span.start >= 100 {
                    Err(matstrat_common::Error::invalid(format!(
                        "boom@{}",
                        span.start
                    )))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(
            err.to_string().contains("boom@100"),
            "first error in granule order wins: {err}"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 4, "all granules still ran");
    }

    #[test]
    fn run_charges_every_workers_reads_to_the_callers_ledger() {
        let meter = matstrat_storage::IoMeter::new();
        let io = matstrat_common::QueryIo::new();
        let p = FragmentPipeline::new(400, 100, 4);
        io.run(|| {
            p.run(|span| {
                meter.record_read("f", span.start, 10);
                Ok(())
            })
        })
        .unwrap();
        assert_eq!(meter.snapshot().block_reads, 4);
        assert_eq!(io.block_reads(), 4, "every worker's read, folded once");
    }
}
