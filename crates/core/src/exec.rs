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
//!   word at a time on Plain), any other descriptor gathers the
//!   survivors' values (DS3) and re-tests them → MERGE. An empty
//!   descriptor skips every later column entirely — the block-skipping
//!   win on selective, clustered predicates. Bit-vector later filters
//!   stay unsupported (§4.1).
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
//! tuples. Aggregates fold in step 1 and never reach step 2. Step 2 is
//! one MERGE ([`crate::ops::merge`]): the parts' row counts size the
//! result once, and every output value is written once, straight from
//! its compressed block into its row-major slot. So no I/O happens in
//! step 2, and cold `(block_reads, seeks)` are step 1's alone.
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
//! the caller, with no spawn). The produced [`QueryResult`] is therefore
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
//! **tail blocks** holding the delta's inserted rows. The base window
//! `[0, base_rows)` runs on the [`FragmentPipeline`] as always; the tail
//! window `[base_rows, total)` then runs the very same granule loop
//! once more, serially — every strategy, unchanged — and its parts are
//! the last parts, which is where inserted rows sit in the table's
//! logical order. The result is therefore byte-identical to
//! a run over the compacted table at any thread count, and the tail
//! never touches the buffer pool or the I/O meter. Deleted positions,
//! base and tail alike, are filtered inside each granule — after the
//! AND for LM-parallel, after the descriptor pipeline for LM-pipelined,
//! and on the constructed tuples for both EM shapes — before
//! `positions_matched` counts them. The aggregate domain is widened
//! with the delta's group values up front (the dense accumulator's
//! `seen` bitmap keeps widening output-invariant).

use std::collections::HashMap;
use std::time::Instant;

use matstrat_common::{Error, Pos, PosRange, Predicate, Result, Value};
use matstrat_poslist::{PosList, PosListBuilder, PosVec};
use matstrat_storage::{ColumnReader, EncodingKind, Store};

use crate::multicol::{FetchKind, MiniColumn, MultiColumn};
use crate::ops::agg::{aggregate_runs, aggregate_runs_compressed, AggFunc, Aggregator};
use crate::ops::join::filter_deleted;
use crate::ops::merge::{merge, Part};
use crate::ops::probe::ds4_extend;
use crate::ops::spc::spc_scan;
use crate::pipeline::FragmentPipeline;
use crate::query::{metered, QueryResult, QuerySpec, QueryStats};
use crate::strategy::Strategy;
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
    for &c in &accessed {
        proj.column(c)?; // validate indices early
    }
    if strategy == Strategy::LmPipelined {
        // Later filter columns are position-fetched then filtered; the
        // bit-vector codec cannot do that (§4.1): the paper omits
        // LM-pipelined from Figures 11(c)/12(c) for this reason.
        for (col, _) in q.filters.iter().skip(1) {
            if proj.column(*col)?.encoding == EncodingKind::BitVec {
                return Err(Error::unsupported(
                    "LM-pipelined requires DS3 on later filter columns; \
                     bit-vector encoding does not support position fetch",
                ));
            }
        }
    }

    // Readers are pinned to the snapshot's catalog entries: even if a
    // compaction swaps the table mid-query, every granule resolves
    // against the generation the snapshot captured.
    // With a delta they also cover its inserted rows, as tail blocks.
    let readers: HashMap<usize, ColumnReader> = accessed
        .iter()
        .map(|&c| Ok((c, store.reader_for(&proj, delta.as_ref(), c)?)))
        .collect::<Result<_>>()?;

    // Output shape. Workers build their own accumulator from the shared
    // domain so partial aggregates merge representation-for-representation.
    let (out_cols, agg_domain): (Vec<usize>, Option<(AggFunc, Value, Value)>) = match q.aggregate {
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
            (vec![a.group_col, a.value_col], Some((a.func, lo, hi)))
        }
        None => {
            if q.output.is_empty() {
                return Err(Error::invalid("non-aggregated query must output columns"));
            }
            (q.output.clone(), None)
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
    let base_rows = proj.num_rows;
    let granule = opts.granule.max(1);
    let pipeline = FragmentPipeline::new(base_rows, granule, opts.parallelism.max(1));
    let task = SpanTask {
        q,
        readers: &readers,
        accessed: &accessed,
        opts,
        out_cols: &out_cols,
        fields: &fields,
        agg_domain,
        strategy,
        deletes: delta.as_ref().map_or(&[], |d| d.deletes()),
    };

    // Step 1: every filter and every block fetch, granule by granule.
    let t0 = Instant::now();
    let (mut fragments, steals) = pipeline.run(|span| task.run_span(span))?;
    // The tail window — the delta's inserted rows — runs the same granule
    // loop once more, serially, after every base fragment: exactly where
    // those rows sit in the table's logical order, so its parts are the
    // last parts.
    if let Some(d) = delta.as_ref().filter(|d| d.num_inserts() > 0) {
        fragments.push(task.run_span(PosRange::new(base_rows, d.total_rows()))?);
    }

    // Fragments arrive in global granule order (stealing moves who
    // computes a granule, never where it lands), so their parts, in turn,
    // are the serial output's rows in order; aggregates fold and stats
    // merge associatively.
    let mut fragments = fragments.into_iter();
    let first = fragments.next().expect("at least one span");
    let mut parts = first.parts;
    let mut agg = first.agg;
    let mut stats = first.stats;
    for frag in fragments {
        stats += frag.stats;
        parts.extend(frag.parts);
        if let (Some(a), Some(partial)) = (agg.as_mut(), frag.agg) {
            a.merge(partial);
        }
    }

    // Step 2: one MERGE, or the aggregate's finish.
    let result = match (agg, q.aggregate) {
        (Some(a), Some(spec)) => a.into_result(
            &proj.column(spec.group_col)?.name,
            &proj.column(spec.value_col)?.name,
        ),
        _ => {
            let names = q
                .output
                .iter()
                .map(|&c| proj.column(c).map(|ci| ci.name.clone()))
                .collect::<Result<Vec<_>>>()?;
            let flat = merge(&parts, names.len(), pipeline.workers(), granule as usize)?;
            QueryResult::from_flat(names, flat)
        }
    };

    stats.wall = t0.elapsed();
    stats.rows_out = result.num_rows() as u64;
    stats.steals = steals;
    Ok((result, stats))
}

/// One result fragment: everything a worker's run of granules produced.
struct Fragment<'a> {
    /// One part per granule with output rows, in granule order.
    parts: Vec<Part<'a>>,
    agg: Option<Aggregator>,
    stats: QueryStats,
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
    agg_domain: Option<(AggFunc, Value, Value)>,
    strategy: Strategy,
    /// Deleted positions (sorted), base and tail — each granule filters
    /// its window's slice of them out of the surviving descriptor/tuples.
    deletes: &'a [u64],
}

impl<'a> SpanTask<'a> {
    /// The serial granule loop over `span`, exactly as the paper's
    /// executor runs it over the whole table.
    fn run_span(&self, span: PosRange) -> Result<Fragment<'a>> {
        let t0 = Instant::now();
        let mut agg = self
            .agg_domain
            .map(|(func, lo, hi)| Aggregator::with_domain_fn(func, lo, hi));
        let mut parts = Vec::new();
        let mut positions_matched = 0u64;
        let mut decompressed = false;
        let mut zone_skips = 0u64;

        let granule = self.opts.granule.max(1);
        let mut start = span.start;
        while start < span.end {
            let window = PosRange::new(start, (start + granule).min(span.end));
            start = window.end;
            let lo = self.deletes.partition_point(|&p| p < window.start);
            let hi = self.deletes.partition_point(|&p| p < window.end);
            let g = Granule {
                q: self.q,
                readers: self.readers,
                window,
                accessed: self.accessed,
                opts: self.opts,
                deletes: &self.deletes[lo..hi],
            };
            let got = match self.strategy {
                Strategy::LmParallel => g.lm_parallel(self.out_cols, &mut agg)?,
                Strategy::LmPipelined => g.lm_pipelined(self.out_cols, &mut agg)?,
                Strategy::EmParallel => g.em_parallel(self.fields, &mut agg)?,
                Strategy::EmPipelined => g.em_pipelined(self.fields, &mut agg)?,
            };
            positions_matched += got.matched;
            decompressed |= got.decompressed;
            zone_skips += got.zone_skips;
            parts.extend(got.part);
        }

        Ok(Fragment {
            parts,
            agg,
            stats: QueryStats {
                strategy: Some(self.strategy),
                wall: t0.elapsed(),
                positions_matched,
                decompressed_fetch: decompressed,
                zone_skips,
                // rows_out is set after the merged result is assembled;
                // steals is a scheduler-level count, set after the merge;
                // io and code_path_ops come from the statement's ledger.
                ..QueryStats::default()
            },
        })
    }
}

/// Per-granule outcome: counters, and the granule's rows for MERGE
/// (`None` when it has none or feeds an aggregate).
struct GranuleOut<'f> {
    matched: u64,
    decompressed: bool,
    zone_skips: u64,
    part: Option<Part<'f>>,
}

/// One granule's worth of execution context.
struct Granule<'a> {
    q: &'a QuerySpec,
    readers: &'a HashMap<usize, ColumnReader>,
    window: PosRange,
    accessed: &'a [usize],
    opts: &'a ExecOptions,
    /// Deleted positions within `window` (sorted) — the write path's
    /// tombstones, filtered before positions count as matched.
    deletes: &'a [u64],
}

impl Granule<'_> {
    fn reader(&self, col: usize) -> &ColumnReader {
        &self.readers[&col]
    }

    /// Apply the ablation override to a freshly produced position list.
    fn coerce_repr(&self, pl: PosList) -> PosList {
        match self.opts.force_repr {
            None => pl,
            Some(matstrat_poslist::Repr::Ranges) => PosList::Ranges(pl.to_ranges()),
            Some(matstrat_poslist::Repr::Bitmap) => PosList::Bitmap(pl.to_bitmap(self.window)),
            Some(matstrat_poslist::Repr::Explicit) => PosList::Explicit(pl.to_explicit()),
        }
    }

    /// Drop deleted positions from a surviving descriptor. A no-op (and
    /// no rebuild) when the window holds no tombstones — the read-only
    /// fast path pays one emptiness check.
    fn filter_desc(&self, desc: PosList) -> PosList {
        if self.deletes.is_empty() {
            return desc;
        }
        self.coerce_repr(filter_deleted(desc, self.deletes))
    }

    /// Drop deleted rows from an EM `(positions, tuples)` pair in place.
    fn filter_em(&self, positions: &mut Vec<Pos>, tuples: &mut Vec<Value>, width: usize) {
        if self.deletes.is_empty() {
            return;
        }
        let mut di = 0usize;
        retain_rows(positions, tuples, width, |pos, _| {
            while di < self.deletes.len() && self.deletes[di] < pos {
                di += 1;
            }
            !(di < self.deletes.len() && self.deletes[di] == pos)
        });
    }

    /// Fetch a filter column's mini for a DS1 scan, consulting zone maps
    /// when enabled: blocks whose min/max range cannot satisfy `pred` are
    /// skipped (counted into `zone_skips`) and never read.
    fn fetch_filter_mini(
        &self,
        col: usize,
        pred: &Predicate,
        zone_skips: &mut u64,
    ) -> Result<MiniColumn> {
        if self.opts.zone_maps {
            let (mini, pruned) = MiniColumn::fetch_pruned(self.reader(col), self.window, pred)?;
            *zone_skips += pruned;
            Ok(mini)
        } else {
            MiniColumn::fetch(self.reader(col), self.window)
        }
    }

    /// All predicates on `col`, in filter order.
    fn preds_for(&self, col: usize) -> Vec<Predicate> {
        self.q
            .filters
            .iter()
            .filter(|(c, _)| *c == col)
            .map(|(_, p)| *p)
            .collect()
    }

    /// Consume the surviving positions: feed the aggregator from the
    /// compressed group column, or fetch the output columns' blocks and
    /// hand them, with the descriptor, to MERGE. Returns whether a value
    /// fetch decompresses (bit-vector), and the granule's part.
    fn consume_lm<'f>(
        &self,
        desc: PosList,
        minis: &mut HashMap<usize, MiniColumn>,
        out_cols: &[usize],
        agg: &mut Option<Aggregator>,
    ) -> Result<(bool, Option<Part<'f>>)> {
        let mut decompressed = false;
        // Output columns without predicates were not touched by DS1, so
        // DS3 fetches only the blocks holding survivors (§3.6) — skipping
        // whole blocks is the LM I/O win on selective queries.
        let fetch_mini =
            |col: usize, minis: &mut HashMap<usize, MiniColumn>| -> Result<MiniColumn> {
                if self.opts.multicolumn_reuse {
                    if let Some(m) = minis.get(&col) {
                        return Ok(m.clone()); // multi-column re-access: no I/O
                    }
                }
                let m = MiniColumn::fetch_selective(self.reader(col), self.window, &desc)?;
                minis.insert(col, m.clone());
                Ok(m)
            };
        match self.q.aggregate {
            Some(a) => {
                let gmini = fetch_mini(a.group_col, minis)?;
                if a.func.needs_values() {
                    let vmini = fetch_mini(a.value_col, minis)?;
                    if vmini.runs_without_decode() {
                        // Compressed execution: the RLE value column is
                        // consumed run-at-a-time — no value vector is
                        // ever materialized. Same blocks were fetched,
                        // so I/O accounting is unchanged; the result is
                        // byte-identical (see `aggregate_runs_compressed`).
                        aggregate_runs_compressed(
                            &desc,
                            &gmini,
                            &vmini,
                            agg.as_mut().expect("agg set"),
                        )?;
                    } else {
                        let mut vals = Vec::with_capacity(desc.count() as usize);
                        if vmini.fetch_values(&desc, &mut vals)? == FetchKind::Decompressed {
                            decompressed = true;
                        }
                        aggregate_runs(&desc, &gmini, &vals, agg.as_mut().expect("agg set"))?;
                    }
                } else {
                    // COUNT never touches the value column — an LM-only win.
                    aggregate_runs(&desc, &gmini, &[], agg.as_mut().expect("agg set"))?;
                }
                Ok((decompressed, None))
            }
            None => {
                let minis = out_cols
                    .iter()
                    .map(|&c| fetch_mini(c, minis))
                    .collect::<Result<Vec<_>>>()?;
                // MERGE decompresses exactly when a block cannot gather.
                let decompressed = minis.iter().any(|m| !m.supports_position_fetch());
                Ok((decompressed, Some(Part::Late { desc, minis })))
            }
        }
    }

    /// LM-parallel: DS1 ∥ DS1 → AND → DS3 ∥ DS3 → MERGE.
    fn lm_parallel<'f>(
        &self,
        out_cols: &[usize],
        agg: &mut Option<Aggregator>,
    ) -> Result<GranuleOut<'f>> {
        let mut mcs = Vec::with_capacity(self.q.filters.len());
        let mut zone_skips = 0u64;
        for (col, pred) in &self.q.filters {
            // Zone maps prune the DS1 scan: a block whose min/max range
            // cannot satisfy the predicate contributes no positions, so
            // skipping the read leaves the descriptor unchanged. Survivor
            // positions always live in present blocks, so the pruned mini
            // is safe to re-access for output values.
            let mini = self.fetch_filter_mini(*col, pred, &mut zone_skips)?;
            let pl = self.coerce_repr(mini.scan_positions(pred));
            let mut mc = MultiColumn::with_descriptor(self.window, pl);
            mc.add_mini(*col, mini);
            mcs.push(mc);
        }
        let mc = MultiColumn::and_many(mcs, self.window);
        let desc = self.filter_desc(mc.descriptor().clone());
        let mut minis: HashMap<usize, MiniColumn> = mc
            .columns()
            .map(|c| (c, mc.mini(c).expect("listed").clone()))
            .collect();
        self.finish_lm(desc, &mut minis, out_cols, agg, zone_skips)
    }

    /// Count a granule's surviving positions and, if any, consume them.
    fn finish_lm<'f>(
        &self,
        desc: PosList,
        minis: &mut HashMap<usize, MiniColumn>,
        out_cols: &[usize],
        agg: &mut Option<Aggregator>,
        zone_skips: u64,
    ) -> Result<GranuleOut<'f>> {
        let matched = desc.count();
        let (decompressed, part) = if matched == 0 {
            (false, None)
        } else {
            self.consume_lm(desc, minis, out_cols, agg)?
        };
        Ok(GranuleOut {
            matched,
            decompressed,
            zone_skips,
            part,
        })
    }

    /// LM-pipelined: DS1 → (DS1 within the descriptor's ranges, or
    /// DS3 + filter)* → DS3 outputs.
    fn lm_pipelined<'f>(
        &self,
        out_cols: &[usize],
        agg: &mut Option<Aggregator>,
    ) -> Result<GranuleOut<'f>> {
        let mut minis: HashMap<usize, MiniColumn> = HashMap::new();
        let mut desc: PosList = PosList::full(self.window);
        let mut zone_skips = 0u64;
        for (i, (col, pred)) in self.q.filters.iter().enumerate() {
            if i == 0 {
                let mini = self.fetch_filter_mini(*col, pred, &mut zone_skips)?;
                desc = self.coerce_repr(mini.scan_positions(pred));
                minis.insert(*col, mini);
            } else {
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
                        let mut vals = Vec::with_capacity(desc.count() as usize);
                        mini.gather(&desc, &mut vals)?;
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
        }
        let desc = self.filter_desc(desc);
        self.finish_lm(desc, &mut minis, out_cols, agg, zone_skips)
    }

    /// EM-parallel: SPC leaf over all accessed columns.
    fn em_parallel<'f>(
        &self,
        fields: &'f [usize],
        agg: &mut Option<Aggregator>,
    ) -> Result<GranuleOut<'f>> {
        // Read every accessed column in full — EM-parallel never skips.
        let mut spc_cols: Vec<(MiniColumn, Option<Predicate>)> =
            Vec::with_capacity(self.accessed.len());
        let mut extra_preds: Vec<(usize, Predicate)> = Vec::new(); // (tuple idx, pred)
        for (ti, &col) in self.accessed.iter().enumerate() {
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
            part: consume_em(out.tuples, out.width, fields, agg),
        })
    }

    /// EM-pipelined: DS2 leaf, DS4 probes for every later column.
    fn em_pipelined<'f>(
        &self,
        fields: &'f [usize],
        agg: &mut Option<Aggregator>,
    ) -> Result<GranuleOut<'f>> {
        let first_col = self.accessed[0];
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
        for &col in &self.accessed[1..] {
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
        let matched = positions.len() as u64;
        let part = if matched > 0 {
            // Tuples may be narrower than `accessed` if we broke early —
            // but break only happens when positions is empty.
            debug_assert_eq!(width, self.accessed.len());
            consume_em(tuples, width, fields, agg)
        } else {
            None
        };
        Ok(GranuleOut {
            matched,
            decompressed: false,
            zone_skips: 0, // EM reads every block by definition
            part,
        })
    }
}

/// Consume constructed tuples (`width` values per row, output column `c`
/// at field `fields[c]`): aggregate them tuple-at-a-time — the EM agg
/// path, over `(group, value)` fields — or hand them to MERGE.
fn consume_em<'f>(
    tuples: Vec<Value>,
    width: usize,
    fields: &'f [usize],
    agg: &mut Option<Aggregator>,
) -> Option<Part<'f>> {
    match agg {
        Some(a) => {
            for row in tuples.chunks_exact(width) {
                a.add(row[fields[0]], row[fields[1]]);
            }
            None
        }
        None if tuples.is_empty() => None,
        None => Some(Part::Tuples {
            tuples,
            width,
            fields,
        }),
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
