//! Granule-at-a-time execution of the four materialization strategies.
//!
//! The executor processes one position granule ([`crate::GRANULE`]
//! positions) per iteration, mirroring C-Store's block-oriented operator
//! loop: multi-columns are horizontal partitions, and "single
//! multi-column blocks are worked on in each operator iteration, so that
//! column-subsets can be pipelined up the query tree" (§3.6).
//!
//! Per-strategy data flow within a granule:
//!
//! * **LM-parallel** — DS1 every filter column → AND the multi-columns →
//!   DS3 the output columns: filter columns re-use the mini-columns
//!   already in hand (re-access costs no I/O), while no-predicate output
//!   columns are fetched selectively, reading only the blocks that hold
//!   AND survivors → MERGE (or aggregate straight off the compressed
//!   group column).
//! * **LM-pipelined** — DS1 the first filter column; for each later
//!   filter, fetch **only the blocks containing surviving positions**
//!   and filter the survivors: a range descriptor runs the column's own
//!   DS1 restricted to its ranges (per run on RLE, per code on Dict, a
//!   word at a time on Plain), any other descriptor fetches the
//!   survivors' values (DS3 — on bit-vector, by decoding only the blocks
//!   that hold survivors) and re-tests them → MERGE. An empty
//!   descriptor skips every later column entirely — the block-skipping
//!   win on selective, clustered predicates.
//! * **EM-parallel** — SPC: read all accessed columns fully, construct
//!   tuples at the leaf, short-circuit predicates.
//! * **EM-pipelined** — DS2 the first column into (pos, value) tuples,
//!   then DS4-probe each later column tuple-at-a-time.
//!
//! # Two steps: the granule pipeline, then one MERGE
//!
//! A statement runs in two steps. Step 1 is the granule loop above; it
//! does every filter and **every block fetch** — an LM granule fetches
//! its output columns' blocks exactly where DS3 needs them — and leaves
//! one `Part` per granule with output rows: an LM granule its
//! descriptor and output mini-columns, an EM granule its constructed
//! tuples, and a join tree's span its probed positions with the sources
//! of its output columns (base mini-columns, inner-table
//! representations), no value fetched. Step 1 only produces parts; what
//! consumes them `drive` decides once, through `Finish`. Without an
//! aggregate, step 2 is one MERGE ([`crate::ops::merge`]): the parts' row
//! counts size the result once, and every output value is written once,
//! straight from its compressed block (or a join's inner
//! representation) into its row-major slot. Under an aggregate the
//! parts carry the group column, then the value column unless the
//! function is COUNT, and `drive` folds each into its fragment's partial
//! accumulator as soon as it is made, on the worker that made it
//! (`Part::fold`); step 2 merges the partials. So no I/O happens in
//! step 2, and cold `(block_reads, seeks)` are step 1's alone.
//! Both steps, the tail window and the ordered fold belong to one
//! driver, `drive`, which the join tree shares, as it shares the
//! LM-parallel filter step (`filter_window`) as its base-side filter.
//!
//! # Parallel execution
//!
//! Granules are independent by construction — every strategy's pipeline
//! reads a position window, filters it, and emits its part of the
//! result without looking at any other window. The executor exploits
//! this morsel-style through the shared [`FragmentPipeline`] substrate
//! (also used by the parallel join probe): [`ExecOptions::parallelism`]
//! workers each start on one contiguous, granule-aligned span of the
//! position range and run the full DS1→AND→DS3 (or SPC / DS2→DS4)
//! pipeline over chunk-sized granule runs claimed from it; a worker
//! that drains its span **steals** runs from the tail of the most
//! loaded sibling's span (the [`QueryStats::steals`] counter), so
//! clustered selectivity cannot strand the matches on one core. The
//! per-run fragments — parts, partial aggregates, [`QueryStats`] — come
//! back in global granule order, so the parts are the serial output's
//! rows in order. MERGE then writes each part into its own disjoint
//! slice of the result on up to the pipeline's worker count, at most one
//! worker per granule of output rows (a smaller output is assembled on
//! the caller, with no spawn); a join part is cut between rows, so the
//! workers' shares of a join's rows are equal. The produced [`QueryResult`] is therefore
//! **byte-identical** to the serial run at any worker count, and the
//! deterministic counters (`positions_matched`, `rows_out`, cold
//! `block_reads`) are exact: the buffer pool single-flights concurrent
//! cold misses, and the statement's ledger
//! ([`QueryIo`](matstrat_common::QueryIo)) collects every worker's reads
//! and tracks sequentiality per (file, worker).
//!
//! # The write store is the last block
//!
//! A table with pending writes is *immutable blocks + delta*
//! (`matstrat_storage::TableDelta`). The executor takes one consistent
//! `Store::scan_snapshot` up front and opens every [`ColumnReader`] on
//! that snapshot, so a compaction racing the query can never mix
//! generations. Such a reader covers the table's logical positions
//! `[0, base_rows + inserts)`: the file's blocks, then in-memory Plain
//! **tail blocks** holding the delta's inserted rows. The driver runs the
//! base window `[0, base_rows)` on the [`FragmentPipeline`]; the tail
//! window `[base_rows, total)` then runs the very same granule loop
//! once more, serially — every strategy, unchanged — and its parts are
//! the last parts, which is where inserted rows sit in the table's
//! logical order. The result is therefore byte-identical to
//! a run over the compacted table at any thread count, and the tail
//! never touches the buffer pool or the I/O meter. Deleted positions,
//! base and tail alike, are filtered inside each granule through one
//! [`Tombstones`] cursor — after the AND for LM-parallel, after the
//! descriptor pipeline for LM-pipelined, and on the constructed tuples
//! for both EM shapes — before `positions_matched` counts them. The aggregate domain is widened
//! with the delta's group values up front (the dense accumulator's
//! `seen` bitmap keeps widening output-invariant).

use std::collections::HashMap;
use std::time::Instant;

use matstrat_common::{Error, Pos, PosRange, Predicate, Result, Value};
use matstrat_poslist::{PosList, PosListBuilder, PosVec, Repr};
use matstrat_storage::{ColumnReader, Store, TableDelta, Tombstones};

use crate::multicol::{FetchKind, MiniColumn};
use crate::ops::agg::{AggFunc, Aggregator};
use crate::ops::merge::{merge, Part};
use crate::ops::probe::ds4_extend;
use crate::ops::spc::spc_scan;
use crate::pipeline::FragmentPipeline;
use crate::query::{metered, QueryResult, QuerySpec, QueryStats};
use crate::Strategy;
use crate::GRANULE;

// The process-wide `MATSTRAT_THREADS` default now lives in
// `matstrat-common` so the storage loader can share it; re-exported here
// to keep the historical `matstrat_core::exec::default_parallelism` path.
pub use matstrat_common::default_parallelism;

/// Executor tuning knobs, used by the ablation benchmarks to isolate the
/// contribution of individual design choices. Defaults reproduce the
/// paper's configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOptions {
    /// Reuse mini-columns already fetched by DS1 when DS3 re-accesses a
    /// column (§3.6's multi-column optimization). Disabling it forces a
    /// re-fetch through the buffer pool, restoring the re-access cost the
    /// optimization removes.
    pub multicolumn_reuse: bool,
    /// Force every DS1 position list into one representation, overriding
    /// the per-codec choice (ranges from RLE, bitmaps from bit-vector,
    /// heuristic otherwise). `None` keeps the paper's behavior.
    pub force_repr: Option<matstrat_poslist::Repr>,
    /// Positions per pipeline granule.
    pub granule: u64,
    /// Worker threads to spread the granule range over. 1 runs serially
    /// on the calling thread; the effective count is capped by the number
    /// of granules. The result is identical at any setting. Defaults to
    /// [`default_parallelism`] (the `MATSTRAT_THREADS` environment knob).
    pub parallelism: usize,
    /// Consult per-block min/max zone maps when scanning a **filter**
    /// column: blocks whose value range cannot satisfy the predicate are
    /// never read (their positions would not survive the scan anyway, so
    /// the result is byte-identical). Applies to the LM strategies' DS1
    /// scans and to join/tree probe-side filters; EM reads every block by
    /// definition. [`QueryStats::zone_skips`] counts the pruned blocks.
    /// Granule partitioning is deterministic, so in the scan executor the
    /// set of read blocks — and exact cold `block_reads` — is
    /// data-dependent only, at any worker count.
    pub zone_maps: bool,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            multicolumn_reuse: true,
            force_repr: None,
            granule: GRANULE,
            parallelism: default_parallelism(),
            zone_maps: true,
        }
    }
}

impl ExecOptions {
    /// Default options at an explicit worker count (clamped to ≥ 1) —
    /// the shape schedulers like the query service's fair-share
    /// admission hand to the executor.
    pub fn with_parallelism(workers: usize) -> ExecOptions {
        ExecOptions {
            parallelism: workers.max(1),
            ..ExecOptions::default()
        }
    }
}

/// Execute `q` under `strategy` with explicit [`ExecOptions`].
pub fn execute_with_options(
    store: &Store,
    q: &QuerySpec,
    strategy: Strategy,
    opts: &ExecOptions,
) -> Result<(QueryResult, QueryStats)> {
    metered(|| execute_scan(store, q, strategy, opts))
}

/// [`execute_with_options`] under the statement's ledger.
fn execute_scan(
    store: &Store,
    q: &QuerySpec,
    strategy: Strategy,
    opts: &ExecOptions,
) -> Result<(QueryResult, QueryStats)> {
    let (proj, delta) = store.scan_snapshot(q.table)?;
    let accessed = q.accessed_columns();
    if accessed.is_empty() {
        return Err(Error::invalid("query accesses no columns"));
    }
    // Readers are pinned to the snapshot's catalog entries: even if a
    // compaction swaps the table mid-query, every granule resolves
    // against the generation the snapshot captured.
    // With a delta they also cover its inserted rows, as tail blocks.
    // Opening them validates every column index.
    let readers: HashMap<usize, ColumnReader> = accessed
        .iter()
        .map(|&c| Ok((c, store.reader_for(&proj, delta.as_ref(), c)?)))
        .collect::<Result<_>>()?;

    // Output shape: under an aggregate, the columns its parts carry.
    let name = |c: usize| proj.column(c).map(|ci| ci.name.clone());
    let (out_cols, finish) = match q.aggregate {
        Some(a) => {
            let g = proj.column(a.group_col)?;
            // Widen the block-statistics domain with the delta's group
            // values (all of them — a slice scan is cheaper than asking
            // which rows will match); the dense accumulator's `seen`
            // bitmap keeps the widening invisible in the output.
            let (mut lo, mut hi) = (g.stats.min, g.stats.max);
            for &v in delta
                .iter()
                .flat_map(|d| d.column_chunks(a.group_col).flatten())
            {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let finish = Finish::Aggregate {
                func: a.func,
                domain: Some((lo, hi)),
                group: name(a.group_col)?,
                value: name(a.value_col)?,
            };
            (a.part_columns(), finish)
        }
        None => {
            if q.output.is_empty() {
                return Err(Error::invalid("non-aggregated query must output columns"));
            }
            let names = q.output.iter().map(|&c| name(c)).collect::<Result<_>>()?;
            (q.output.clone(), Finish::Merge(names))
        }
    };

    // Where each output column sits in an EM tuple (`accessed` order).
    let fields: Vec<usize> = out_cols
        .iter()
        .map(|c| {
            accessed
                .iter()
                .position(|a| a == c)
                .expect("output column is accessed")
        })
        .collect();
    let task = SpanTask {
        q,
        readers: &readers,
        accessed: &accessed,
        opts,
        out_cols: &out_cols,
        fields: &fields,
        strategy,
        deletes: delta.as_ref().map_or(&[], |d| d.deletes()),
    };
    drive(
        Instant::now(),
        QueryStats::default(),
        proj.num_rows,
        delta.as_deref(),
        opts,
        finish,
        |span, sink| task.run_span(span, sink),
    )
}

/// What consumes step 1's parts, decided once per statement.
pub(crate) enum Finish {
    /// One MERGE of the parts into rows of these columns.
    Merge(Vec<String>),
    /// A GROUP BY fold of (group, value) parts into `(group, func_value)`
    /// rows. Groups known to lie in `domain` get the dense accumulator,
    /// any others the hash map.
    Aggregate {
        func: AggFunc,
        domain: Option<(Value, Value)>,
        group: String,
        value: String,
    },
}

impl Finish {
    /// An empty sink for one fragment's parts. Every fragment's partial
    /// aggregate has the same representation, so partials merge
    /// representation-for-representation.
    fn sink<'a>(&self) -> Sink<'a> {
        match *self {
            Finish::Merge(_) => Sink::Parts(Vec::new()),
            Finish::Aggregate { func, domain, .. } => Sink::Fold(match domain {
                Some((lo, hi)) => Aggregator::with_domain_fn(func, lo, hi),
                None => Aggregator::new_fn(func),
            }),
        }
    }
}

/// Where step 1 puts each part as it is made: kept for MERGE, or folded
/// at once, on the worker that made it, into the fragment's partial
/// aggregate.
pub(crate) enum Sink<'a> {
    Parts(Vec<Part<'a>>),
    Fold(Aggregator),
}

impl<'a> Sink<'a> {
    pub(crate) fn push(&mut self, part: Part<'a>) -> Result<()> {
        match self {
            Sink::Parts(parts) => parts.push(part),
            Sink::Fold(acc) => part.fold(acc)?,
        }
        Ok(())
    }

    /// Append a later fragment's sink: parts concatenate, partial
    /// aggregates merge.
    fn absorb(mut self, later: Sink<'a>) -> Sink<'a> {
        match (&mut self, later) {
            (Sink::Parts(parts), Sink::Parts(more)) => parts.extend(more),
            (Sink::Fold(acc), Sink::Fold(partial)) => acc.merge(partial),
            _ => unreachable!("one finish makes every sink"),
        }
        self
    }
}

/// Steps 1 and 2 of every read statement: the one driver the scan and
/// the join tree share.
///
/// Step 1 runs `task` over the base table's file rows `[0, base_rows)`
/// on the [`FragmentPipeline`], then once more, serially, over the tail
/// window of `delta`'s inserted rows, whose fragment lands after every
/// other — exactly where those rows sit in the table's logical order.
/// Each run of `task` hands its parts to a fresh [`Sink`] of `finish`'s
/// and returns its stats. Fragments arrive in global granule order
/// (stealing moves who computes a granule, never where it lands), so
/// their parts, in turn, are the serial output's rows in order; partial
/// aggregates merge and stats add onto `stats` associatively. Step 2 is
/// `finish`. `steals`, `rows_out` and `wall` (since `t0`) are set last.
pub(crate) fn drive<'a>(
    t0: Instant,
    mut stats: QueryStats,
    base_rows: u64,
    delta: Option<&TableDelta>,
    opts: &ExecOptions,
    finish: Finish,
    task: impl Fn(PosRange, &mut Sink<'a>) -> Result<QueryStats> + Sync,
) -> Result<(QueryResult, QueryStats)> {
    let granule = opts.granule.max(1);
    let pipeline = FragmentPipeline::new(base_rows, granule, opts.parallelism.max(1));
    let run = |span| {
        let mut sink = finish.sink();
        task(span, &mut sink).map(|s| (sink, s))
    };
    let (mut fragments, steals) = pipeline.run(run)?;
    if let Some(d) = delta.filter(|d| d.num_inserts() > 0) {
        fragments.push(run(PosRange::new(base_rows, d.total_rows()))?);
    }
    let all = fragments.into_iter().map(|(sink, s)| {
        stats += s;
        sink
    });
    let result = match (finish, all.reduce(Sink::absorb)) {
        (Finish::Merge(names), Some(Sink::Parts(parts))) => {
            let flat = merge(&parts, names.len(), pipeline.workers(), granule as usize)?;
            QueryResult::from_flat(names, flat)
        }
        (Finish::Aggregate { group, value, .. }, Some(Sink::Fold(acc))) => {
            acc.into_result(&group, &value)
        }
        _ => unreachable!("the pipeline plans at least one span"),
    };
    stats.wall = t0.elapsed();
    stats.rows_out = result.num_rows() as u64;
    stats.steals = steals;
    Ok((result, stats))
}

/// What the LM-parallel filter step leaves for one window.
pub(crate) struct Filtered {
    /// The surviving positions.
    pub(crate) desc: PosList,
    /// The filter columns' mini-columns, by column.
    pub(crate) minis: HashMap<usize, MiniColumn>,
    /// Blocks the zone maps kept from being read.
    pub(crate) zone_skips: u64,
}

/// The LM-parallel filter step over `window`, which a join tree's base
/// side and `delete_where` share: DS1 every filter column — reading only the blocks whose
/// zone map admits its predicate, when `zone_maps` is on; a skipped block
/// contributes no positions, which is exactly what scanning it would have
/// produced — then AND the descriptors and drop `deletes`, the window's
/// tombstones (sorted). With no filter every position survives.
/// `opts.force_repr` coerces each produced list.
pub(crate) fn filter_window(
    readers: &HashMap<usize, ColumnReader>,
    filters: &[(usize, Predicate)],
    window: PosRange,
    deletes: &[u64],
    opts: &ExecOptions,
) -> Result<Filtered> {
    let repr = opts.force_repr;
    let (mut desc, mut minis, mut zone_skips) = (None::<PosList>, HashMap::new(), 0);
    for (col, pred) in filters {
        let (mini, pruned) = if opts.zone_maps {
            MiniColumn::fetch_pruned(&readers[col], window, pred)?
        } else {
            (MiniColumn::fetch(&readers[col], window)?, 0)
        };
        zone_skips += pruned;
        let pl = coerce_repr(mini.scan_positions(pred), window, repr);
        // AND the multi-columns (§3.6): descriptors intersect, and the
        // first mini-column of each attribute is kept.
        desc = Some(match desc {
            Some(d) => d.and(&pl),
            None => pl,
        });
        minis.entry(*col).or_insert(mini);
    }
    let desc = desc.unwrap_or_else(|| PosList::full(window));
    Ok(Filtered {
        desc: drop_deleted(desc, deletes, window, repr),
        minis,
        zone_skips,
    })
}

/// The sorted `deletes` that fall inside `window`.
pub(crate) fn deletes_in(deletes: &[u64], window: PosRange) -> &[u64] {
    let lo = deletes.partition_point(|&p| p < window.start);
    let hi = deletes.partition_point(|&p| p < window.end);
    &deletes[lo..hi]
}

/// Apply the ablation override to a freshly produced position list.
fn coerce_repr(pl: PosList, window: PosRange, repr: Option<Repr>) -> PosList {
    match repr {
        None => pl,
        Some(Repr::Ranges) => PosList::Ranges(pl.to_ranges()),
        Some(Repr::Bitmap) => PosList::Bitmap(pl.to_bitmap(window)),
        Some(Repr::Explicit) => PosList::Explicit(pl.to_explicit()),
    }
}

/// Drop the tombstones `deletes` (sorted, within `window`) from a
/// surviving descriptor. A no-op (and no rebuild) when there are none —
/// the read-only fast path pays one emptiness check.
fn drop_deleted(desc: PosList, deletes: &[u64], window: PosRange, repr: Option<Repr>) -> PosList {
    if deletes.is_empty() {
        return desc;
    }
    let mut dead = Tombstones::new(deletes, window.start);
    let mut b = PosListBuilder::new();
    for p in desc.iter().filter(|&p| !dead.is_deleted(p)) {
        b.push(p);
    }
    coerce_repr(b.finish(), window, repr)
}

/// The per-worker execution context: everything needed to run the
/// granule loop over one span. All references are shared, immutable
/// query/catalog state; per-granule scratch (mini-column caches, position
/// lists) stays inside the worker.
struct SpanTask<'a> {
    q: &'a QuerySpec,
    readers: &'a HashMap<usize, ColumnReader>,
    accessed: &'a [usize],
    opts: &'a ExecOptions,
    out_cols: &'a [usize],
    /// Each output column's field in an EM tuple.
    fields: &'a [usize],
    strategy: Strategy,
    /// Deleted positions (sorted), base and tail — each granule filters
    /// its window's slice of them out of the surviving descriptor/tuples.
    deletes: &'a [u64],
}

impl<'a> SpanTask<'a> {
    /// The serial granule loop over `span`, exactly as the paper's
    /// executor runs it over the whole table, each granule's part going
    /// to `sink` as soon as it is made.
    fn run_span(&self, span: PosRange, sink: &mut Sink<'a>) -> Result<QueryStats> {
        let t0 = Instant::now();
        // rows_out and steals are set by the driver; io and code_path_ops
        // come from the statement's ledger.
        let mut stats = QueryStats {
            strategy: Some(self.strategy),
            ..QueryStats::default()
        };

        let granule = self.opts.granule.max(1);
        let mut start = span.start;
        while start < span.end {
            let window = PosRange::new(start, (start + granule).min(span.end));
            start = window.end;
            let g = Granule {
                task: self,
                window,
                deletes: deletes_in(self.deletes, window),
            };
            let got = match self.strategy {
                Strategy::LmParallel => g.lm_parallel()?,
                Strategy::LmPipelined => g.lm_pipelined()?,
                Strategy::EmParallel => g.em_parallel()?,
                Strategy::EmPipelined => g.em_pipelined()?,
            };
            stats.positions_matched += got.matched;
            stats.decompressed_fetch |= got.decompressed;
            stats.zone_skips += got.zone_skips;
            if let Some(part) = got.part {
                sink.push(part)?;
            }
        }
        stats.wall = t0.elapsed();
        Ok(stats)
    }
}

/// Per-granule outcome: counters, and the granule's rows (`None` when
/// it has none).
#[derive(Default)]
struct GranuleOut<'f> {
    matched: u64,
    decompressed: bool,
    zone_skips: u64,
    part: Option<Part<'f>>,
}

/// One granule's worth of execution context.
struct Granule<'t, 'a> {
    task: &'t SpanTask<'a>,
    window: PosRange,
    /// Deleted positions within `window` (sorted) — the write path's
    /// tombstones, filtered before positions count as matched.
    deletes: &'a [u64],
}

impl<'a> Granule<'_, 'a> {
    fn reader(&self, col: usize) -> &ColumnReader {
        &self.task.readers[&col]
    }

    /// Drop deleted rows from an EM `(positions, tuples)` pair in place.
    fn filter_em(&self, positions: &mut Vec<Pos>, tuples: &mut Vec<Value>, width: usize) {
        if self.deletes.is_empty() {
            return;
        }
        let mut dead = Tombstones::new(self.deletes, self.window.start);
        retain_rows(positions, tuples, width, |pos, _| !dead.is_deleted(pos));
    }

    /// All predicates on `col`, in filter order.
    fn preds_for(&self, col: usize) -> Vec<Predicate> {
        self.task
            .q
            .filters
            .iter()
            .filter(|(c, _)| *c == col)
            .map(|(_, p)| *p)
            .collect()
    }

    /// LM-parallel: DS1 ∥ DS1 → AND → DS3 ∥ DS3 → MERGE. Survivor
    /// positions always live in blocks the zone maps kept, so the pruned
    /// filter minis are safe to re-access for output values.
    fn lm_parallel(&self) -> Result<GranuleOut<'a>> {
        let t = self.task;
        let mut f = filter_window(t.readers, &t.q.filters, self.window, self.deletes, t.opts)?;
        self.finish_lm(f.desc, &mut f.minis, f.zone_skips)
    }

    /// Count a granule's surviving positions and, if any, fetch the
    /// output columns' blocks for them: the granule's part.
    fn finish_lm(
        &self,
        desc: PosList,
        minis: &mut HashMap<usize, MiniColumn>,
        zone_skips: u64,
    ) -> Result<GranuleOut<'a>> {
        let matched = desc.count();
        if matched == 0 {
            return Ok(GranuleOut {
                zone_skips,
                ..GranuleOut::default()
            });
        }
        let out = self
            .task
            .out_cols
            .iter()
            .map(|&col| {
                if self.task.opts.multicolumn_reuse {
                    if let Some(m) = minis.get(&col) {
                        return Ok(m.clone()); // multi-column re-access: no I/O
                    }
                }
                // Output columns without predicates were not touched by
                // DS1, so DS3 fetches only the blocks holding survivors
                // (§3.6) — skipping whole blocks is the LM I/O win on
                // selective queries.
                let m = MiniColumn::fetch_selective(self.reader(col), self.window, &desc)?;
                minis.insert(col, m.clone());
                Ok(m)
            })
            .collect::<Result<Vec<_>>>()?;
        // A value fetch decompresses exactly when it touches bit-vector
        // data. An aggregate's group column is consumed by runs, not
        // fetched.
        let fetched = &out[self.task.q.aggregate.is_some() as usize..];
        Ok(GranuleOut {
            matched,
            decompressed: fetched
                .iter()
                .any(|m| m.fetch_kind() == FetchKind::Decompressed),
            zone_skips,
            part: Some(Part::Late { desc, minis: out }),
        })
    }

    /// LM-pipelined: DS1 → (DS1 within the descriptor's ranges, or
    /// DS3 + filter)* → DS3 outputs.
    fn lm_pipelined(&self) -> Result<GranuleOut<'a>> {
        // The first filter's DS1 is the LM-parallel step over one filter
        // (every position, with none).
        let t = self.task;
        let (first, later) = t.q.filters.split_at(t.q.filters.len().min(1));
        let mut f = filter_window(t.readers, first, self.window, &[], t.opts)?;
        let (mut desc, minis) = (f.desc, &mut f.minis);
        let mut decompressed = false;
        for (col, pred) in later {
            if desc.is_empty() {
                break; // skip all later columns: their blocks are never read
            }
            let mini = match minis.get(col) {
                Some(m) => m.clone(),
                None => {
                    let m = MiniColumn::fetch_selective(self.reader(*col), self.window, &desc)?;
                    minis.insert(*col, m.clone());
                    m
                }
            };
            desc = match &desc {
                // The column's own DS1 over the descriptor's ranges:
                // per run on RLE, per code on Dict, a word at a time on
                // Plain — no survivor is decoded to be re-tested.
                PosList::Ranges(r) => mini.scan_positions_within(pred, r),
                _ => {
                    let mut vals = Vec::new();
                    decompressed |= mini.fetch_values(&desc, &mut vals)? == FetchKind::Decompressed;
                    let mut b = PosListBuilder::new();
                    for (p, v) in desc.iter().zip(&vals) {
                        if pred.matches(*v) {
                            b.push(p);
                        }
                    }
                    b.finish()
                }
            };
        }
        let desc = drop_deleted(desc, self.deletes, self.window, t.opts.force_repr);
        let mut out = self.finish_lm(desc, minis, f.zone_skips)?;
        out.decompressed |= decompressed;
        Ok(out)
    }

    /// EM-parallel: SPC leaf over all accessed columns.
    fn em_parallel(&self) -> Result<GranuleOut<'a>> {
        // Read every accessed column in full — EM-parallel never skips.
        let mut spc_cols: Vec<(MiniColumn, Option<Predicate>)> =
            Vec::with_capacity(self.task.accessed.len());
        let mut extra_preds: Vec<(usize, Predicate)> = Vec::new(); // (tuple idx, pred)
        for (ti, &col) in self.task.accessed.iter().enumerate() {
            let mini = MiniColumn::fetch(self.reader(col), self.window)?;
            let mut preds = self.preds_for(col);
            let first = if preds.is_empty() {
                None
            } else {
                Some(preds.remove(0))
            };
            for p in preds {
                extra_preds.push((ti, p));
            }
            spc_cols.push((mini, first));
        }
        let mut out = spc_scan(&spc_cols)?;
        // Rare path: multiple predicates on one column.
        for (ti, p) in extra_preds {
            retain_rows(&mut out.positions, &mut out.tuples, out.width, |_, row| {
                p.matches(row[ti])
            });
        }
        self.filter_em(&mut out.positions, &mut out.tuples, out.width);
        let matched = out.positions.len() as u64;
        Ok(GranuleOut {
            matched,
            decompressed: out.decompressed,
            zone_skips: 0, // EM reads every block by definition
            part: self.em_part(out.tuples, out.width),
        })
    }

    /// EM-pipelined: DS2 leaf, DS4 probes for every later column.
    fn em_pipelined(&self) -> Result<GranuleOut<'a>> {
        let first_col = self.task.accessed[0];
        let mini = MiniColumn::fetch(self.reader(first_col), self.window)?;
        let mut preds = self.preds_for(first_col);
        let leaf_pred = if preds.is_empty() {
            Predicate::always_true()
        } else {
            preds.remove(0)
        };
        let mut positions: Vec<Pos> = Vec::new();
        let mut tuples: Vec<Value> = Vec::new();
        mini.scan_pairs(&leaf_pred, &mut positions, &mut tuples);
        for p in preds {
            retain_rows(&mut positions, &mut tuples, 1, |_, row| p.matches(row[0]));
        }
        // Tombstones drop out at the leaf, before any DS4 probe spends
        // I/O on them.
        self.filter_em(&mut positions, &mut tuples, 1);
        let mut width = 1usize;
        for &col in &self.task.accessed[1..] {
            if positions.is_empty() {
                break;
            }
            let pl = PosList::Explicit(PosVec::from_sorted(positions.clone()));
            let mini = MiniColumn::fetch_selective(self.reader(col), self.window, &pl)?;
            let col_preds = self.preds_for(col);
            let mut preds_iter = col_preds.into_iter();
            width = ds4_extend(
                &mini,
                preds_iter.next().as_ref(),
                &mut positions,
                &mut tuples,
                width,
            )?;
            for p in preds_iter {
                retain_rows(&mut positions, &mut tuples, width, |_, row| {
                    p.matches(row[width - 1])
                });
            }
        }
        // Tuples are narrower than `accessed` only after an early break,
        // which leaves no rows.
        debug_assert!(positions.is_empty() || width == self.task.accessed.len());
        Ok(GranuleOut {
            matched: positions.len() as u64,
            decompressed: false,
            zone_skips: 0, // EM reads every block by definition
            part: self.em_part(tuples, width),
        })
    }

    /// The granule's constructed tuples (`width` values per row) as its
    /// part, when there are any.
    fn em_part(&self, tuples: Vec<Value>, width: usize) -> Option<Part<'a>> {
        (!tuples.is_empty()).then_some(Part::Tuples {
            tuples,
            width,
            fields: self.task.fields,
        })
    }
}

/// Keep the rows of a row-major EM `(positions, tuples)` pair — `width`
/// values per row — for which `keep(position, row)` holds.
fn retain_rows(
    positions: &mut Vec<Pos>,
    tuples: &mut Vec<Value>,
    width: usize,
    mut keep: impl FnMut(Pos, &[Value]) -> bool,
) {
    let mut keep_pos = Vec::with_capacity(positions.len());
    let mut keep_tup = Vec::with_capacity(tuples.len());
    for (&pos, row) in positions.iter().zip(tuples.chunks_exact(width)) {
        if keep(pos, row) {
            keep_pos.push(pos);
            keep_tup.extend_from_slice(row);
        }
    }
    *positions = keep_pos;
    *tuples = keep_tup;
}
