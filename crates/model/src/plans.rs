//! Whole-plan cost composition: the statement a scan or a join tree
//! runs, priced as the sum of its operators (§3).
//!
//! A scan is described by [`ScanParams`] — its own filters, in order,
//! each with the share of blocks its zone maps admit, its own output (or
//! group and value) columns, and every column it reads — and
//! [`CostModel::estimate`] prices it under every strategy, composing the
//! per-operator formulas of [`crate::ops`] over those columns in each
//! strategy's §3.5 order. On the paper's query
//!
//! ```sql
//! SELECT shipdate, linenum FROM lineitem
//! WHERE shipdate < X AND linenum < Y
//! ```
//!
//! (optionally with `GROUP BY shipdate, SUM(linenum)` on top) these are
//! the curves of Figure 10, and the decision procedure the paper's §6
//! suggests embedding in an optimizer. The §4.3 join is priced the same
//! way: [`CostModel::hash_join`] for one join, [`CostModel::join_tree`]
//! for a tree of them.

use crate::constants::Constants;
use crate::ops::{and_cost, ds1, ds1_code, ds2, ds3, ds4, merge_cost, spc, AndInput, ColumnParams};
use crate::strategy::{InnerStrategy, Strategy};

/// Granule runs each worker claims from the work-stealing scheduler
/// over a query's lifetime — mirrors the executor's chunking policy
/// (`FragmentPipeline::CHUNKS_PER_WORKER` in `matstrat-core`; the core
/// crate asserts the two stay equal). The scheduler's own cost is
/// `workers × CHUNKS_PER_WORKER` claim/steal bookkeeping operations, one
/// `FC` each.
pub const SCHED_CHUNKS_PER_WORKER: f64 = 16.0;

/// CPU/IO split of an estimate, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// CPU microseconds.
    pub cpu_us: f64,
    /// I/O microseconds (cold-disk model).
    pub io_us: f64,
}

impl CostBreakdown {
    fn add(&mut self, (cpu, io): (f64, f64)) -> &mut Self {
        self.cpu_us += cpu;
        self.io_us += io;
        self
    }

    fn add_cpu(&mut self, cpu: f64) -> &mut Self {
        self.cpu_us += cpu;
        self
    }

    /// The estimate when the plan's CPU work is spread over `workers`
    /// granule-parallel threads: CPU divides (granules are independent,
    /// so the operator work splits evenly), I/O does not (the workers
    /// share one disk arm and one buffer pool, and a cold run still
    /// reads every block exactly once).
    pub fn with_workers(self, workers: usize) -> CostBreakdown {
        CostBreakdown {
            cpu_us: self.cpu_us / workers.max(1) as f64,
            io_us: self.io_us,
        }
    }

    /// Total microseconds.
    pub fn total_us(&self) -> f64 {
        self.cpu_us + self.io_us
    }

    /// Total milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_us() / 1000.0
    }
}

/// One conjunct of a scan's WHERE clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanFilter {
    /// The filtered column, as an index into [`ScanParams::columns`].
    pub column: usize,
    /// Selectivity of the predicate.
    pub sf: f64,
    /// `RL_p` of the position list DS1 emits for it.
    pub pos_run_len: f64,
    /// The share of the column's rows in blocks whose zone map admits
    /// the predicate: all a zone-pruned DS1 reads (1 without zone maps).
    pub zone: f64,
}

/// The scan statement the model prices.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanParams {
    /// Row count `N` of the projection.
    pub rows: f64,
    /// Every column the statement reads, once each: the filter columns
    /// in filter order, then the output columns.
    pub columns: Vec<ColumnParams>,
    /// The conjuncts, in the order they are applied.
    pub filters: Vec<ScanFilter>,
    /// The output columns as indices into `columns`; under an aggregate,
    /// the group column, then the value column.
    pub outputs: Vec<usize>,
    /// The number of groups an aggregate produces, or `None` for a plain
    /// selection.
    pub groups: Option<f64>,
}

impl ScanParams {
    /// Combined selectivity of the filters on `column` (1 if none).
    fn column_sf(&self, column: usize) -> f64 {
        self.filters
            .iter()
            .filter(|f| f.column == column)
            .fold(1.0, |sf, f| sf * f.sf)
    }

    /// Rows surviving every filter.
    pub fn out_rows(&self) -> f64 {
        self.filters.iter().fold(self.rows, |n, f| n * f.sf)
    }
}

/// The assembled analytical model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    constants: Constants,
}

impl CostModel {
    /// Model with the given constants.
    pub fn new(constants: Constants) -> CostModel {
        CostModel { constants }
    }

    /// The constants in use.
    pub fn constants(&self) -> &Constants {
        &self.constants
    }

    /// CPU the work-stealing scheduler itself burns at `workers`
    /// granule-parallel threads: every worker performs about
    /// [`SCHED_CHUNKS_PER_WORKER`] chunk claims (own-span head claims
    /// and tail steals cost the same bookkeeping), each one mutex
    /// round-trip priced at `FC`. Zero for a serial run — a single-span
    /// plan never enters the scheduler loop.
    pub fn steal_overhead(&self, workers: usize) -> f64 {
        if workers <= 1 {
            0.0
        } else {
            workers as f64 * SCHED_CHUNKS_PER_WORKER * self.constants.fc
        }
    }

    /// Price scan `q` under `strategy` as executed by `workers`
    /// granule-parallel threads under the work-stealing scheduler: CPU
    /// divides, I/O does not, and the scheduler's claim/steal bookkeeping
    /// is added on top. `workers = 1` is the serial plan exactly.
    ///
    /// The operators compose in the strategy's §3.5 order:
    ///
    /// * **EM-parallel**: SPC over every column read.
    /// * **EM-pipelined**: DS2 on the first column, then DS4 on each later
    ///   one at the running tuple count.
    /// * **LM-parallel**: DS1 on each filter, AND, then DS3 on each output
    ///   at the surviving positions — a re-access (no I/O) when the
    ///   column was filtered.
    /// * **LM-pipelined**: DS1 on the first filter, then DS3 and the
    ///   predicate on each later filter at the running positions (a
    ///   bit-vector column's DS3 pays its decode), then DS3 on each
    ///   output whose values are not already in hand.
    ///
    /// An LM leaf DS1 reads only the blocks its filter's zone maps admit
    /// (see [`ScanFilter::zone`]); EM plans read every block.
    ///
    /// Then the consumer: an EM plan iterates its tuples; an LM plan
    /// MERGEs its output columns, or aggregates straight from them, one
    /// step per run of the group column.
    pub fn estimate(&self, strategy: Strategy, q: &ScanParams, workers: usize) -> CostBreakdown {
        let c = &self.constants;
        let mut cost = CostBreakdown::default();
        match strategy {
            Strategy::EmParallel => {
                let sfs: Vec<f64> = (0..q.columns.len()).map(|i| q.column_sf(i)).collect();
                cost.add(spc(&q.columns, &sfs, c));
            }
            Strategy::EmPipelined => {
                let mut tuples = q.rows;
                for (i, col) in q.columns.iter().enumerate() {
                    let sf = q.column_sf(i);
                    cost.add(if i == 0 {
                        ds2(col, sf, c)
                    } else {
                        ds4(col, tuples, sf, c)
                    });
                    tuples *= sf;
                }
            }
            Strategy::LmParallel => {
                let inputs: Vec<AndInput> = q
                    .filters
                    .iter()
                    .map(|f| AndInput {
                        positions: q.rows * f.sf,
                        run_len: f.pos_run_len,
                        is_bitstring: q.columns[f.column].bit_vector,
                    })
                    .collect();
                for f in &q.filters {
                    cost.add(self.leaf_ds1(q, f));
                }
                cost.add_cpu(and_cost(&inputs, c));
                // AND output: ranges only if every input was ranges.
                let runs = if inputs.iter().any(|i| i.is_bitstring) {
                    1.0
                } else {
                    inputs.iter().fold(q.rows, |r, i| r.min(i.run_len))
                };
                self.fetch_outputs(&mut cost, q, runs, vec![false; q.columns.len()]);
            }
            Strategy::LmPipelined => {
                let (mut positions, mut sel, mut runs) = (q.rows, 1.0, q.rows);
                let mut in_hand = vec![false; q.columns.len()];
                for (k, f) in q.filters.iter().enumerate() {
                    if k == 0 {
                        cost.add(self.leaf_ds1(q, f));
                    } else {
                        // Fetch the values at the surviving positions,
                        // then apply the predicate to them.
                        let reaccess = q.filters[..k].iter().any(|g| g.column == f.column);
                        cost.add(ds3(&q.columns[f.column], positions, runs, sel, reaccess, c));
                        cost.add_cpu(positions * c.fc);
                        in_hand[f.column] = true;
                    }
                    positions *= f.sf;
                    sel *= f.sf;
                    runs = runs.min(f.pos_run_len);
                }
                self.fetch_outputs(&mut cost, q, runs, in_hand);
            }
        }
        cost.add_cpu(self.consume(strategy.is_late(), q));
        let mut cost = cost.with_workers(workers);
        cost.cpu_us += self.steal_overhead(workers);
        cost
    }

    /// DS1 of filter `f` over only the blocks its zone maps admit: the
    /// column's blocks and rows scale by `zone`, the selectivity within
    /// them is `sf / zone`, and a filter no block admits reads nothing.
    fn leaf_ds1(&self, q: &ScanParams, f: &ScanFilter) -> (f64, f64) {
        if f.zone <= 0.0 {
            return (0.0, 0.0);
        }
        let mut col = q.columns[f.column];
        col.blocks *= f.zone;
        col.rows *= f.zone;
        ds1(&col, f.sf / f.zone, &self.constants)
    }

    /// DS3 on each output column not `in_hand`, at the surviving
    /// positions in runs of `runs`: a re-access (no I/O) when a filter
    /// already read the column.
    fn fetch_outputs(
        &self,
        cost: &mut CostBreakdown,
        q: &ScanParams,
        runs: f64,
        mut in_hand: Vec<bool>,
    ) {
        let (out, sel) = (q.out_rows(), q.filters.iter().fold(1.0, |s, f| s * f.sf));
        for &i in &q.outputs {
            if !in_hand[i] {
                let reaccess = q.filters.iter().any(|f| f.column == i);
                cost.add(ds3(
                    &q.columns[i],
                    out,
                    runs,
                    sel,
                    reaccess,
                    &self.constants,
                ));
                in_hand[i] = true;
            }
        }
    }

    /// Final consumption cost: iterate results, or aggregate them.
    ///
    /// * EM plans hand tuples to the consumer: the aggregator pays a
    ///   tuple-iterator step per input; a plain query pays one per output.
    /// * LM plans MERGE their output columns into tuples, or (aggregated)
    ///   feed the aggregator the columns directly: it consumes the group
    ///   column's value *runs* (`TICCOL + FC` per run, the operate-on-
    ///   compressed-data win) and only the groups are built as tuples.
    fn consume(&self, late: bool, q: &ScanParams) -> f64 {
        let c = &self.constants;
        let out = q.out_rows();
        match (q.groups, late) {
            (None, false) => out * c.tic_tup,
            (None, true) => merge_cost(out, q.outputs.len() as f64, c) + out * c.tic_tup,
            (Some(groups), false) => out * c.tic_tup + groups * c.tic_tup,
            (Some(groups), true) => {
                let runs = out / q.columns[q.outputs[0]].run_len.max(1.0);
                runs * (c.tic_col + c.fc) + out * c.fc + groups * c.tic_tup
            }
        }
    }

    /// The serial phases [`Self::hash_join`] prices: the key table, the
    /// right representation and the probe.
    fn join_phases(&self, q: &JoinParams, kind: InnerStrategy, build_reused: bool) -> JoinCost {
        let c = &self.constants;
        let out = q.out_rows();

        // ---- Build: the key table ---------------------------------------
        let mut key_table = CostBreakdown::default();
        if !build_reused {
            // Right key: a DS1-shaped full scan whose "emit" term (SF = 1)
            // is the hash insert per row. Code-keyed builds hash the
            // stored codes and skip the per-unit decode.
            key_table.add(if q.code_keyed {
                ds1_code(&q.right_key, 1.0, c)
            } else {
                ds1(&q.right_key, 1.0, c)
            });
        }

        // ---- Build: the representation ----------------------------------
        let mut rep = CostBreakdown::default();
        // Right output blocks enter the pool at build for every
        // representation (compressed mini-columns or full decode).
        rep.add((q.right_out_blocks * c.bic, q.right_out_io(c)));
        if kind == InnerStrategy::Materialized {
            // Decode every output column and construct row-major tuples.
            rep.add_cpu(q.right_rows() * q.right_out_cols * (c.tic_col + c.tic_tup));
        }

        // ---- Probe ------------------------------------------------------
        let mut probe = CostBreakdown::default();
        // Left key: a DS1 at the filter's selectivity, plus one hash
        // probe per surviving row.
        probe.add(if q.code_keyed {
            ds1_code(&q.left_key, q.sf, c)
        } else {
            ds1(&q.left_key, q.sf, c)
        });
        probe.add_cpu(q.left_rows() * q.sf * c.fc);
        // Left output values: merge on sorted positions (one column-
        // iterator step + function call per output value), blocks read in
        // full like the executor's span-local fetch.
        probe.add((
            q.left_out_blocks * c.bic + out * q.left_out_cols * (c.tic_col + c.fc),
            q.left_out_io(c),
        ));
        // Right output values per representation.
        let right_fetch = match kind {
            // Array index + tuple copy.
            InnerStrategy::Materialized => out * q.right_out_cols * c.tic_tup,
            // Positional probe into compressed blocks: block binary
            // search (FC-scaled) + column-iterator step + tuple write.
            InnerStrategy::MultiColumn => {
                out * q.right_out_cols * (q.right_block_search(c) + c.tic_col + c.tic_tup)
            }
            // The same positional probes, plus the extra positional join
            // on unsorted right positions: sort the matches, gather, and
            // scatter back into output order (§4.3, Figure 13).
            InnerStrategy::SingleColumn => {
                out * q.right_out_cols * (q.right_block_search(c) + c.tic_col + c.tic_tup)
                    + out * (2.0 * c.fc) * (out.max(2.0)).log2()
                    + out * q.right_out_cols * c.fc
            }
        };
        probe.add_cpu(right_fetch);
        // Stitch the final tuples.
        probe.add_cpu(out * c.tic_tup);

        JoinCost {
            key_table,
            rep,
            probe,
        }
    }

    /// Price a hash join under the chosen inner-table representation,
    /// as executed with `build_workers` representation threads and
    /// `probe_workers` probe threads.
    ///
    /// * **Key table** (serial): read the right key column fully, decode
    ///   it, and insert every row into the one hash table. A
    ///   `build_reused` table already exists (an earlier edge of the same
    ///   tree, or an earlier statement, built it on the same inner table
    ///   and key), so the key-column scan, its cold I/O and the inserts
    ///   drop out.
    /// * **Representation** (column-parallel over `build_workers`): the
    ///   right output blocks enter the pool for every representation,
    ///   and `Materialized` additionally decodes every right output
    ///   column and constructs the full right tuples up front; the other
    ///   representations ship the output columns compressed. It is
    ///   priced even on a reused table, since an edge may project other
    ///   columns than the edge that built it.
    /// * **Probe** (span-parallel over `probe_workers`): read the left
    ///   key and output columns, probe the table once per surviving left
    ///   row, fetch left values with a merge on the sorted positions, and
    ///   fetch right values per representation: an array index for
    ///   `Materialized`, a positional probe into the compressed
    ///   mini-columns for `MultiColumn`, and the Figure 13
    ///   positional-join penalty (sort + gather + scatter over the
    ///   *unsorted* right positions) for `SingleColumn`.
    ///
    /// CPU divides by each phase's worker count, I/O is shared by all,
    /// and the probe pays the work-stealing scheduler's claim overhead
    /// ([`Self::steal_overhead`]). At one worker each and no reuse this
    /// is the serial join.
    pub fn hash_join(
        &self,
        q: &JoinParams,
        kind: InnerStrategy,
        build_workers: usize,
        probe_workers: usize,
        build_reused: bool,
    ) -> CostBreakdown {
        let mut cost = self
            .join_phases(q, kind, build_reused)
            .with_workers(build_workers, probe_workers);
        cost.cpu_us += self.steal_overhead(probe_workers);
        cost
    }

    /// Price a join tree whose edges execute in slice order, each probing
    /// the running intermediate with the hash table built (or reused) on
    /// its inner table, and pick each edge's cheapest inner-table
    /// representation.
    ///
    /// The composition is where multi-way pricing differs from summing
    /// independent joins: each edge's probe-side row count is **rewritten
    /// to the previous edge's estimated output cardinality** (`left_rows
    /// × sf × match_rate × fanout`, chained), so a plan that shrinks the
    /// intermediate early makes every later probe cheaper — the quantity
    /// edge ordering optimizes. All three representations are priced at
    /// that chained cardinality and the cheapest is kept per slot: the
    /// representation changes an edge's own cost but never the
    /// cardinality it passes on, so per-slot minimization is optimal for
    /// the order.
    ///
    /// **Bushy** semi-join `reductions` thin a parent edge's hash table:
    /// the dimension subtree is built ahead of its parent, so the parent
    /// edge's match rate drops by the child's `keep_rate` — the
    /// intermediate shrinks one edge *earlier* than the left-deep chain
    /// would shrink it. (The caller re-rates the bushy child edge itself
    /// at match rate 1.0, so the final cardinality is unchanged —
    /// bushiness moves where rows die, never how many.) Applying a
    /// reduction is not free: the parent's build additionally probes the
    /// child's table once per parent row (`FC` each, on one worker, as
    /// the executor runs every reducer in one serial loop), which is
    /// added to the parent slot's chosen cost.
    pub fn join_tree(
        &self,
        edges: &[JoinTreeEdgeParams],
        reductions: &[BushyReduction],
    ) -> JoinTreeCost {
        let c = &self.constants;
        let mut tree = JoinTreeCost {
            edges: Vec::with_capacity(edges.len()),
            alternatives: Vec::with_capacity(edges.len()),
            cards: Vec::with_capacity(edges.len()),
            total: CostBreakdown::default(),
        };
        let mut rows = edges.first().map_or(0.0, |e| e.params.left_rows());
        for (slot, e) in edges.iter().enumerate() {
            let mut p = e.params;
            p.left_key.rows = rows;
            for r in reductions.iter().filter(|r| r.parent_slot == slot) {
                p.match_rate *= r.keep_rate.clamp(0.0, 1.0);
            }
            let alternatives = InnerStrategy::ALL.map(|kind| {
                let cost =
                    self.hash_join(&p, kind, e.build_workers, e.probe_workers, e.build_reused);
                (kind, cost)
            });
            let (kind, mut cost) = *alternatives
                .iter()
                .min_by(|a, b| a.1.total_us().total_cmp(&b.1.total_us()))
                .expect("three join plans always estimable");
            for r in reductions.iter().filter(|r| r.parent_slot == slot) {
                cost.cpu_us += r.scan_rows * c.fc;
            }
            rows = p.out_rows();
            tree.cards.push(rows);
            tree.total.cpu_us += cost.cpu_us;
            tree.total.io_us += cost.io_us;
            tree.edges.push((kind, cost));
            tree.alternatives.push(alternatives);
        }
        tree
    }
}

/// One bushy semi-join reduction for [`CostModel::join_tree`]: the
/// child subtree's hash table is built first and thins the parent's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BushyReduction {
    /// Execution slot (index into the `edges` slice) of the parent edge
    /// whose build the reduction thins.
    pub parent_slot: usize,
    /// Fraction of the parent table's rows that survive the child's
    /// semi-join — the child edge's own match rate against the parent.
    pub keep_rate: f64,
    /// Rows the reduction inspects at parent-build time (the parent
    /// table's row count): each pays one child-table probe.
    pub scan_rows: f64,
}

/// One edge of a join-tree pricing request, in execution order.
///
/// `params.left_key.rows` is only honored for the first edge (the base
/// table's surviving row count enters there); later edges have it
/// overwritten by the chained intermediate cardinality — callers
/// describe each edge *locally* (key column shape, filter selectivity,
/// match rate, fan-out, output widths) and [`CostModel::join_tree`]
/// does the composing and picks the representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinTreeEdgeParams {
    /// The edge's single-join parameters (probe rows chained by the
    /// composition for all but the first edge).
    pub params: JoinParams,
    /// Workers the right output representation is built with (the skew
    /// guard on the inner table). The key table is built serially, so
    /// this divides the representation's CPU only.
    pub build_workers: usize,
    /// Workers the probe pipeline uses (skew-guarded on the base table).
    pub probe_workers: usize,
    /// Whether this edge reuses a hash table an earlier edge built on
    /// the same (inner table, key column).
    pub build_reused: bool,
}

/// The priced join tree: per-edge picks and estimates (execution
/// order), every representation each edge was priced at, the chained
/// intermediate-cardinality estimates, and the plan total the planner
/// minimizes over edge orders.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JoinTreeCost {
    /// Per-edge cheapest representation and its estimate (including the
    /// edge's bushy-reduction scans), in execution order.
    pub edges: Vec<(InnerStrategy, CostBreakdown)>,
    /// Per edge, all three representations priced at the edge's chained
    /// cardinality (the rejected ones included; reduction scans not).
    pub alternatives: Vec<[(InnerStrategy, CostBreakdown); 3]>,
    /// Estimated output cardinality *after* each edge (same order); the
    /// last entry is the tree's estimated result rows.
    pub cards: Vec<f64>,
    /// Sum of the per-edge estimates (a planner may add surcharges that
    /// no single edge carries).
    pub total: CostBreakdown,
}

impl JoinTreeCost {
    /// Total microseconds of the whole tree.
    pub fn total_us(&self) -> f64 {
        self.total.total_us()
    }

    /// Estimated result rows of the whole tree.
    pub fn out_rows(&self) -> f64 {
        self.cards.last().copied().unwrap_or(0.0)
    }
}

/// Parameters of the §4.3 equi-join: `left ⋈ right` on a key pair with
/// an optional filter on the left side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinParams {
    /// Left (probe-side) key column.
    pub left_key: ColumnParams,
    /// Right (build-side) key column.
    pub right_key: ColumnParams,
    /// Selectivity of the optional left filter (1.0 = no filter).
    pub sf: f64,
    /// Fraction of surviving left rows that find a match (1.0 for a
    /// foreign-key join).
    pub match_rate: f64,
    /// Average matches per matching probe — the duplication factor of
    /// the right key (`right_rows / distinct right keys`; 1.0 for a
    /// primary-key build side). Output rows multiply by this, which is
    /// what makes intermediate cardinalities compose across a join tree.
    pub fanout: f64,
    /// Number of left output columns.
    pub left_out_cols: f64,
    /// Total blocks across the left output columns.
    pub left_out_blocks: f64,
    /// Number of right output columns.
    pub right_out_cols: f64,
    /// Total blocks across the right output columns.
    pub right_out_blocks: f64,
    /// Resident fraction of the left output blocks.
    pub left_out_resident: f64,
    /// Resident fraction of the right output blocks.
    pub right_out_resident: f64,
    /// Whether both key columns carry one shared sorted dictionary over
    /// the same domain, so the join hashes and probes u32 codes and
    /// never decodes a key (compressed execution). Key scans are then
    /// priced with [`ds1_code`]; I/O is unchanged.
    pub code_keyed: bool,
}

impl JoinParams {
    /// A cold foreign-key join with sensible defaults.
    pub fn fk_join(left_key: ColumnParams, right_key: ColumnParams, sf: f64) -> JoinParams {
        JoinParams {
            left_key,
            right_key,
            sf,
            match_rate: 1.0,
            fanout: 1.0,
            left_out_cols: 1.0,
            left_out_blocks: left_key.blocks,
            right_out_cols: 1.0,
            right_out_blocks: right_key.blocks,
            left_out_resident: 0.0,
            right_out_resident: 0.0,
            code_keyed: false,
        }
    }

    /// Left row count.
    pub fn left_rows(&self) -> f64 {
        self.left_key.rows
    }

    /// Right row count.
    pub fn right_rows(&self) -> f64 {
        self.right_key.rows
    }

    /// Output rows: surviving left rows that match, times the right
    /// key's duplication fan-out.
    pub fn out_rows(&self) -> f64 {
        self.left_rows() * self.sf * self.match_rate * self.fanout
    }

    /// Cold-I/O term for the left output columns.
    pub fn left_out_io(&self, c: &Constants) -> f64 {
        (self.left_out_blocks / c.pf * c.seek + self.left_out_blocks * c.read)
            * (1.0 - self.left_out_resident)
    }

    /// Cold-I/O term for the right output columns.
    pub fn right_out_io(&self, c: &Constants) -> f64 {
        (self.right_out_blocks / c.pf * c.seek + self.right_out_blocks * c.read)
            * (1.0 - self.right_out_resident)
    }

    /// CPU of locating one right position's block: a binary search over
    /// the per-column block index, FC per comparison.
    fn right_block_search(&self, c: &Constants) -> f64 {
        let per_col_blocks = (self.right_out_blocks / self.right_out_cols.max(1.0)).max(2.0);
        c.fc * per_col_blocks.log2()
    }
}

/// CPU/IO split of a join estimate by phase, so parallelism is priced
/// as the executor runs it: the key table is built serially, the right
/// representation column-parallel over the right table's workers, and
/// the probe span-parallel over the left table's; the shared I/O
/// divides by none of them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct JoinCost {
    /// The key column's scan and hash inserts, on one worker; zero for
    /// a reused table.
    key_table: CostBreakdown,
    /// The right output representation, column-parallel over the right
    /// table's workers.
    rep: CostBreakdown,
    /// The probe phase, span-parallel over the left table.
    probe: CostBreakdown,
}

impl JoinCost {
    /// Collapse to one estimate: representation CPU divides by the
    /// workers the inner table gives it (the skew guard applied to the
    /// *right* table), probe CPU by the probe's (the guard on the *left*
    /// table), key-table CPU by neither, and the shared cold-I/O terms
    /// are unchanged (the workers share one disk arm and one buffer
    /// pool). Raw division only — [`CostModel::hash_join`] adds the
    /// probe scheduler's overhead.
    fn with_workers(self, build_workers: usize, probe_workers: usize) -> CostBreakdown {
        CostBreakdown {
            cpu_us: self.key_table.cpu_us
                + self.rep.cpu_us / build_workers.max(1) as f64
                + self.probe.cpu_us / probe_workers.max(1) as f64,
            io_us: self.key_table.io_us + self.rep.io_us + self.probe.io_us,
        }
    }

    /// Serial total microseconds.
    #[cfg(test)]
    fn total_us(&self) -> f64 {
        self.key_table.total_us() + self.rep.total_us() + self.probe.total_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(Constants::paper())
    }

    /// The cheapest strategy plan at `workers` — the §6 optimizer
    /// decision.
    fn best_plan(m: &CostModel, q: &ScanParams, workers: usize) -> (Strategy, CostBreakdown) {
        Strategy::ALL
            .map(|k| (k, m.estimate(k, q, workers)))
            .into_iter()
            .min_by(|a, b| a.1.total_us().total_cmp(&b.1.total_us()))
            .expect("four strategies")
    }

    /// Serial total of a plan.
    fn total(m: &CostModel, s: Strategy, q: &ScanParams) -> f64 {
        m.estimate(s, q, 1).total_us()
    }

    /// One tree edge at the given worker counts, built fresh.
    fn edge(params: JoinParams, workers: usize) -> JoinTreeEdgeParams {
        JoinTreeEdgeParams {
            params,
            build_workers: workers,
            probe_workers: workers,
            build_reused: false,
        }
    }

    /// The paper's query over 60 M rows: `c1 < X AND c2 < Y` at
    /// selectivities `sf1` and 0.96, selecting both columns, with the
    /// position lists' run lengths `prl`.
    fn paper_query(c1: ColumnParams, c2: ColumnParams, sf1: f64, prl: [f64; 2]) -> ScanParams {
        let filter = |column, sf, pos_run_len| ScanFilter {
            column,
            sf,
            pos_run_len,
            zone: 1.0,
        };
        ScanParams {
            rows: 60_000_000.0,
            columns: vec![c1, c2],
            filters: vec![filter(0, sf1, prl[0]), filter(1, 0.96, prl[1])],
            outputs: vec![0, 1],
            groups: None,
        }
    }

    /// Paper-scale RLE setup (§3.7): shipdate 1 block / 3,800 "tuples"
    /// (runs), linenum 5 blocks / 26,726 runs, 60 M rows.
    fn rle_params(sf1: f64) -> ScanParams {
        let n = 60_000_000.0;
        let c1 = ColumnParams::cold(1.0, n, n / 3800.0);
        let c2 = ColumnParams::cold(5.0, n, n / 26_726.0);
        // Positions from a range predicate over the semi-sorted shipdate
        // coalesce into a few long runs (one per RETURNFLAG group).
        let prl = [(n * sf1 / 3.0).max(1.0), (n * 0.96 / 26_726.0).max(1.0)];
        paper_query(c1, c2, sf1, prl)
    }

    fn uncompressed_params(sf1: f64) -> ScanParams {
        let n = 60_000_000.0;
        let c1 = ColumnParams::cold(1.0, n, n / 3800.0);
        let c2 = ColumnParams::cold(916.0, n, 1.0);
        paper_query(c1, c2, sf1, [(n * sf1 / 3.0).max(1.0), 1.0])
    }

    #[test]
    fn costs_increase_with_selectivity() {
        let m = model();
        for kind in Strategy::ALL {
            let lo = total(&m, kind, &rle_params(0.1));
            let hi = total(&m, kind, &rle_params(0.9));
            assert!(hi > lo, "{kind:?} should cost more at higher selectivity");
        }
    }

    #[test]
    fn rle_lm_beats_em_at_high_selectivity() {
        // Figure 11(b): both LM strategies beat both EM strategies for
        // RLE-compressed data once selectivity is non-trivial.
        let m = model();
        let q = rle_params(0.5);
        let lm = total(&m, Strategy::LmParallel, &q);
        let lmp = total(&m, Strategy::LmPipelined, &q);
        let emp = total(&m, Strategy::EmParallel, &q);
        let emd = total(&m, Strategy::EmPipelined, &q);
        assert!(lm < emp && lm < emd, "LM-parallel {lm} vs EM {emp}/{emd}");
        assert!(lmp < emp && lmp < emd);
    }

    #[test]
    fn uncompressed_lm_pipelined_wins_low_selectivity_loses_high() {
        // Figure 11(a): LM-pipelined is best at low selectivity (block
        // skipping on the big uncompressed column) and worst-or-near at
        // high selectivity (per-position jumps).
        let m = model();
        let low = uncompressed_params(0.01);
        let high = uncompressed_params(0.9);
        let lmp_low = total(&m, Strategy::LmPipelined, &low);
        let emp_low = total(&m, Strategy::EmParallel, &low);
        assert!(
            lmp_low < emp_low,
            "low sel: {lmp_low} should beat {emp_low}"
        );
        let lmp_high = total(&m, Strategy::LmPipelined, &high);
        let emp_high = total(&m, Strategy::EmParallel, &high);
        assert!(
            emp_high < lmp_high,
            "high sel: EM-parallel {emp_high} should beat LM-pipelined {lmp_high}"
        );
    }

    #[test]
    fn aggregation_flattens_lm_but_not_em() {
        // Figure 12 vs Figure 11: adding the aggregator leaves EM costs
        // nearly unchanged but cuts LM costs (no tuples constructed).
        let m = model();
        let sel = rle_params(0.8);
        let mut agg = sel.clone();
        agg.groups = Some(2526.0);
        let lm_sel = total(&m, Strategy::LmParallel, &sel);
        let lm_agg = total(&m, Strategy::LmParallel, &agg);
        assert!(
            lm_agg < 0.5 * lm_sel,
            "agg should slash LM cost: {lm_agg} vs {lm_sel}"
        );
        let em_sel = total(&m, Strategy::EmParallel, &sel);
        let em_agg = total(&m, Strategy::EmParallel, &agg);
        assert!((em_agg - em_sel).abs() / em_sel < 0.25, "EM barely changes");
    }

    #[test]
    fn bitvec_later_filter_pays_its_decode_under_lm_pipelined() {
        // A bit-vector later filter is DS3 plus the predicate like any
        // other; its DS3 adds the column's decode, one TICCOL per row.
        let m = model();
        let q = rle_params(0.5);
        let mut qb = q.clone();
        qb.columns[1].bit_vector = true;
        let decode = qb.rows * m.constants().tic_col;
        let plain = m.estimate(Strategy::LmPipelined, &q, 1);
        let bits = m.estimate(Strategy::LmPipelined, &qb, 1);
        assert!((bits.cpu_us - plain.cpu_us - decode).abs() < 1e-6 * decode);
        assert_eq!(bits.io_us, plain.io_us);
    }

    #[test]
    fn best_plan_picks_minimum() {
        let m = model();
        let q = rle_params(0.5);
        let (kind, cost) = best_plan(&m, &q, 1);
        for k in Strategy::ALL {
            let c = m.estimate(k, &q, 1);
            assert!(cost.total_us() <= c.total_us() + 1e-9, "{kind:?} vs {k:?}");
        }
    }

    #[test]
    fn zone_maps_shrink_lm_leaf_scans_only() {
        // Zone maps admit a tenth of the first filter's blocks: every LM
        // leaf DS1 over it scans a tenth of the column at ten times the
        // selectivity, and EM plans, which read every block, do not move.
        let m = model();
        let c = *m.constants();
        let q = uncompressed_params(0.05);
        let mut zoned = q.clone();
        zoned.filters[0].zone = 0.1;
        let first = q.columns[0];
        let mut admitted = first;
        admitted.blocks *= 0.1;
        admitted.rows *= 0.1;
        let (full, part) = (ds1(&first, 0.05, &c), ds1(&admitted, 0.5, &c));
        for s in [Strategy::LmParallel, Strategy::LmPipelined] {
            let (a, b) = (m.estimate(s, &q, 1), m.estimate(s, &zoned, 1));
            assert!(
                (a.cpu_us - b.cpu_us - (full.0 - part.0)).abs() < 1e-6,
                "{s:?}"
            );
            assert!(
                (a.io_us - b.io_us - (full.1 - part.1)).abs() < 1e-6,
                "{s:?}"
            );
        }
        for s in [Strategy::EmParallel, Strategy::EmPipelined] {
            assert_eq!(m.estimate(s, &q, 1), m.estimate(s, &zoned, 1), "{s:?}");
        }
        // A filter no block admits scans nothing at all.
        let mut none = q.clone();
        none.filters[0].sf = 0.0;
        let mut pruned = none.clone();
        pruned.filters[0].zone = 0.0;
        let leaf = ds1(&first, 0.0, &c);
        for s in [Strategy::LmParallel, Strategy::LmPipelined] {
            let (a, b) = (m.estimate(s, &none, 1), m.estimate(s, &pruned, 1));
            assert!((a.cpu_us - b.cpu_us - leaf.0).abs() < 1e-6, "{s:?}");
            assert!((a.io_us - b.io_us - leaf.1).abs() < 1e-6, "{s:?}");
        }
    }

    #[test]
    fn decompress_fetch_penalizes_lm_fetch_paths() {
        let m = model();
        let q = rle_params(0.5);
        let mut qb = q.clone();
        qb.columns[1].bit_vector = true;
        assert!(total(&m, Strategy::LmParallel, &qb) > total(&m, Strategy::LmParallel, &q));
    }

    #[test]
    fn unfiltered_outputs_are_fetched_at_the_surviving_positions() {
        // A third, unfiltered output column: LM plans pay a first-access
        // DS3 (I/O on the matching fraction of its blocks) and one more
        // MERGE input; EM plans carry it through the leaf or a DS4.
        let m = model();
        let q = uncompressed_params(0.1);
        let mut wide = q.clone();
        wide.columns
            .push(ColumnParams::cold(916.0, 60_000_000.0, 1.0));
        wide.outputs.push(2);
        let c = *m.constants();
        let out = q.out_rows();
        let fetch = ds3(&wide.columns[2], out, 1.0, 0.1 * 0.96, false, &c);
        let merge = merge_cost(out, 3.0, &c) - merge_cost(out, 2.0, &c);
        let narrow = m.estimate(Strategy::LmParallel, &q, 1);
        let got = m.estimate(Strategy::LmParallel, &wide, 1);
        assert!((got.cpu_us - (narrow.cpu_us + fetch.0 + merge)).abs() < 1e-6);
        assert!((got.io_us - (narrow.io_us + fetch.1)).abs() < 1e-6);
        assert!(fetch.1 > 0.0, "a first access reads the matching blocks");
        for s in Strategy::ALL {
            assert!(total(&m, s, &wide) > total(&m, s, &q), "{s:?}");
        }
    }

    #[test]
    fn lm_aggregate_steps_over_the_group_columns_runs() {
        // Grouping on the long-run column steps over far fewer runs than
        // grouping on the short-run one; the EM consumer is blind to it.
        let m = model();
        let mut by_first = rle_params(0.5);
        by_first.groups = Some(100.0);
        let mut by_second = by_first.clone();
        by_second.outputs = vec![1, 0];
        let c = *m.constants();
        let out = by_first.out_rows();
        let step = c.tic_col + c.fc;
        let runs = |q: &ScanParams| out / q.columns[q.outputs[0]].run_len * step;
        let lm = |q: &ScanParams| total(&m, Strategy::LmParallel, q);
        let want = runs(&by_second) - runs(&by_first);
        assert!(want > 0.0);
        assert!(((lm(&by_second) - lm(&by_first)) - want).abs() < 1e-6 * want);
        let em = |q: &ScanParams| total(&m, Strategy::EmParallel, q);
        assert!((em(&by_second) - em(&by_first)).abs() < 1e-6);
    }

    #[test]
    fn workers_divide_cpu_not_io() {
        let m = model();
        let q = rle_params(0.5);
        for kind in Strategy::ALL {
            let (serial, four) = (m.estimate(kind, &q, 1), m.estimate(kind, &q, 4));
            // CPU divides, plus the scheduler's claim/steal bookkeeping.
            let expect = serial.cpu_us / 4.0 + m.steal_overhead(4);
            assert!((four.cpu_us - expect).abs() < 1e-9, "{kind:?}");
            assert!(
                (four.io_us - serial.io_us).abs() < 1e-9,
                "{kind:?}: io is shared"
            );
        }
        // Degenerate worker counts clamp to serial, with no scheduler
        // overhead (a single-span plan never enters the steal loop).
        assert_eq!(m.steal_overhead(0), 0.0);
        assert_eq!(m.steal_overhead(1), 0.0);
        let s = m.estimate(Strategy::EmParallel, &q, 1);
        assert_eq!(s.with_workers(0).total_us(), s.total_us());
        assert_eq!(s.with_workers(1).total_us(), s.total_us());
        assert_eq!(m.estimate(Strategy::EmParallel, &q, 0), s);
    }

    #[test]
    fn steal_overhead_is_small_but_priced() {
        let m = model();
        // workers × CHUNKS_PER_WORKER × FC, microseconds.
        let c = m.constants();
        assert!((m.steal_overhead(8) - 8.0 * SCHED_CHUNKS_PER_WORKER * c.fc).abs() < 1e-12);
        // Monotone in workers — more claimants, more bookkeeping.
        assert!(m.steal_overhead(8) > m.steal_overhead(2));
    }

    #[test]
    fn best_plan_parallel_never_worse_than_serial_estimate() {
        let m = model();
        for sf in [0.05, 0.5, 0.95] {
            let q = rle_params(sf);
            let (_, serial) = best_plan(&m, &q, 1);
            let (_, four) = best_plan(&m, &q, 4);
            assert!(
                four.total_us() <= serial.total_us() + 1e-9,
                "sf={sf}: more workers cannot make the best plan dearer"
            );
        }
    }

    #[test]
    fn plan_names() {
        assert_eq!(Strategy::EmParallel.name(), "EM-parallel");
        assert_eq!(Strategy::LmPipelined.name(), "LM-pipelined");
    }

    /// Figure 13-scale FK join: 1.5 M orders probing 150 K customers.
    fn join_params(sf: f64) -> JoinParams {
        let left_key = ColumnParams::cold(23.0, 1_500_000.0, 1.0);
        let right_key = ColumnParams::cold(3.0, 150_000.0, 1.0);
        JoinParams::fk_join(left_key, right_key, sf)
    }

    #[test]
    fn join_cpu_orders_single_column_worst() {
        // Figure 13: materialized ≈ multi-column, single-column pays the
        // extra positional join and lands clearly slower.
        let m = model();
        let q = join_params(0.5);
        let mat = m.join_phases(&q, InnerStrategy::Materialized, false);
        let mc = m.join_phases(&q, InnerStrategy::MultiColumn, false);
        let sc = m.join_phases(&q, InnerStrategy::SingleColumn, false);
        assert!(
            mc.probe.cpu_us < sc.probe.cpu_us,
            "single-column pays the positional join: {} vs {}",
            mc.probe.cpu_us,
            sc.probe.cpu_us
        );
        // All three read the same blocks.
        assert!((mat.rep.io_us - mc.rep.io_us).abs() < 1e-9);
        assert!((mc.rep.io_us - sc.rep.io_us).abs() < 1e-9);
        assert!((mat.probe.io_us - sc.probe.io_us).abs() < 1e-9);
        // Materialized fronts the tuple construction at build time.
        assert!(mat.rep.cpu_us > mc.rep.cpu_us);
    }

    #[test]
    fn join_cost_grows_with_selectivity() {
        let m = model();
        for kind in InnerStrategy::ALL {
            let lo = m.hash_join(&join_params(0.1), kind, 1, 1, false).total_us();
            let hi = m.hash_join(&join_params(0.9), kind, 1, 1, false).total_us();
            assert!(hi > lo, "{kind:?}");
        }
    }

    #[test]
    fn join_workers_divide_each_phase_cpu_only() {
        let m = model();
        let q = join_params(0.5);
        for kind in InnerStrategy::ALL {
            let cost = m.join_phases(&q, kind, false);
            let serial = cost.with_workers(1, 1);
            // Probe workers alone: probe CPU divides, build CPU and all
            // I/O stay put.
            let probe4 = cost.with_workers(1, 4);
            let build = cost.key_table.cpu_us + cost.rep.cpu_us;
            let expect_cpu = build + cost.probe.cpu_us / 4.0;
            assert!((probe4.cpu_us - expect_cpu).abs() < 1e-9, "{kind:?}");
            assert!((probe4.io_us - serial.io_us).abs() < 1e-9, "{kind:?}");
            // Build workers divide the representation independently; the
            // key table is built on one worker.
            let both4 = cost.with_workers(4, 4);
            let expect_cpu =
                cost.key_table.cpu_us + cost.rep.cpu_us / 4.0 + cost.probe.cpu_us / 4.0;
            assert!((both4.cpu_us - expect_cpu).abs() < 1e-9, "{kind:?}");
            assert!((both4.io_us - serial.io_us).abs() < 1e-9, "{kind:?}");
            assert!(both4.cpu_us < probe4.cpu_us && probe4.cpu_us < serial.cpu_us);
            // Degenerate worker counts clamp to serial.
            assert_eq!(cost.with_workers(0, 0).total_us(), serial.total_us());
            // Serial collapse equals the two-phase total.
            assert!((serial.total_us() - cost.total_us()).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_join_divides_the_representation_never_the_key_table() {
        let m = model();
        let q = join_params(0.5);
        for kind in InnerStrategy::ALL {
            let cost = m.join_phases(&q, kind, false);
            // Serial worker counts collapse to the raw estimate: no
            // scheduler.
            let serial = m.hash_join(&q, kind, 1, 1, false);
            assert!(
                (serial.total_us() - cost.total_us()).abs() < 1e-9,
                "{kind:?}"
            );
            // The key table stays whole on one worker, the
            // representation divides by the build workers, the probe by
            // its own, and only the probe pays the scheduler.
            let par = m.hash_join(&q, kind, 4, 8, false);
            let expect = cost.key_table.cpu_us
                + cost.rep.cpu_us / 4.0
                + cost.probe.cpu_us / 8.0
                + m.steal_overhead(8);
            assert!((par.cpu_us - expect).abs() < 1e-6, "{kind:?}");
            let probe_only = m.hash_join(&q, kind, 1, 8, false);
            let expect = cost.key_table.cpu_us
                + cost.rep.cpu_us
                + cost.probe.cpu_us / 8.0
                + m.steal_overhead(8);
            assert!((probe_only.cpu_us - expect).abs() < 1e-6, "{kind:?}");
            assert!(cost.key_table.cpu_us > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn join_parallelism_cannot_flip_to_a_dearer_plan() {
        let m = model();
        for sf in [0.1, 0.5, 1.0] {
            let q = join_params(sf);
            let serial = m.join_tree(&[edge(q, 1)], &[]).total;
            let eight = m.join_tree(&[edge(q, 8)], &[]).total;
            assert!(eight.total_us() <= serial.total_us() + 1e-9, "sf={sf}");
        }
    }

    #[test]
    fn build_reuse_discounts_key_scan_but_not_representations() {
        let m = model();
        let q = join_params(0.5);
        for kind in InnerStrategy::ALL {
            let fresh = m.join_phases(&q, kind, false);
            let reused = m.join_phases(&q, kind, true);
            // The probe and the representation are untouched; the key
            // table, its scan + hash inserts (CPU) and the key column's
            // cold read (I/O), drops out.
            assert_eq!(reused.probe, fresh.probe, "{kind:?}");
            assert_eq!(reused.rep, fresh.rep, "{kind:?}");
            assert_eq!(reused.key_table, CostBreakdown::default(), "{kind:?}");
            assert!(fresh.key_table.cpu_us > 0.0, "{kind:?}");
            assert!(fresh.key_table.io_us > 0.0, "{kind:?}");
            // Representations are still priced: Materialized keeps its
            // up-front tuple construction even on a reused table.
            if kind == InnerStrategy::Materialized {
                let mc = m.join_phases(&q, InnerStrategy::MultiColumn, true);
                assert!(reused.rep.cpu_us > mc.rep.cpu_us);
            }
        }
    }

    #[test]
    fn code_keyed_join_drops_key_decode_from_both_scans() {
        let m = model();
        let c = *m.constants();
        let mut q = join_params(0.5);
        q.left_key.code_width = 2.0;
        q.left_key.shared_dict = true;
        q.right_key.code_width = 2.0;
        q.right_key.shared_dict = true;
        let mut qc = q;
        qc.code_keyed = true;
        // Per key scan: the per-unit decode (FC) disappears and the
        // iterator step narrows to W/8 of TICCOL; the emit term and all
        // I/O are untouched. SF cancels out of the difference.
        let save = |col: &ColumnParams| {
            col.rows * ((c.tic_col + c.fc) - c.tic_col * col.code_cpu_factor())
                / col.run_len.max(1.0)
        };
        for kind in InnerStrategy::ALL {
            let plain = m.join_phases(&q, kind, false);
            let coded = m.join_phases(&qc, kind, false);
            let expect_build = plain.key_table.cpu_us - save(&qc.right_key);
            let expect_probe = plain.probe.cpu_us - save(&qc.left_key);
            assert!(
                (coded.key_table.cpu_us - expect_build).abs() < 1e-6,
                "{kind:?}"
            );
            assert!((coded.probe.cpu_us - expect_probe).abs() < 1e-6, "{kind:?}");
            assert_eq!(coded.rep, plain.rep, "{kind:?}");
            assert_eq!(coded.key_table.io_us, plain.key_table.io_us, "{kind:?}");
            assert_eq!(coded.probe.io_us, plain.probe.io_us, "{kind:?}");
            assert!(coded.total_us() < plain.total_us(), "{kind:?}");
        }
        // A reused build skips its key scan entirely — nothing left for
        // the code path to discount on that side.
        for kind in InnerStrategy::ALL {
            let plain = m.join_phases(&q, kind, true);
            let coded = m.join_phases(&qc, kind, true);
            assert_eq!(coded.key_table, plain.key_table, "{kind:?}");
            assert_eq!(coded.rep, plain.rep, "{kind:?}");
        }
    }

    #[test]
    fn parallel_reuse_prices_the_representation_alone() {
        let m = model();
        let q = join_params(0.5);
        for kind in InnerStrategy::ALL {
            let cost = m.join_phases(&q, kind, true);
            let par = m.hash_join(&q, kind, 4, 8, true);
            // No key table; the representation still divides by the
            // build workers, and the probe pays its own scheduler.
            let expect = cost.rep.cpu_us / 4.0 + cost.probe.cpu_us / 8.0 + m.steal_overhead(8);
            assert!((par.cpu_us - expect).abs() < 1e-6, "{kind:?}");
            // A fresh build at the same worker counts costs its serial
            // key table more.
            let fresh = m.hash_join(&q, kind, 4, 8, false);
            let key_table = m.join_phases(&q, kind, false).key_table;
            assert!(
                (fresh.cpu_us - par.cpu_us - key_table.cpu_us).abs() < 1e-6,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn fanout_multiplies_output_cardinality() {
        let mut q = join_params(0.5);
        let base = q.out_rows();
        q.fanout = 3.0;
        assert!((q.out_rows() - 3.0 * base).abs() < 1e-9);
    }

    #[test]
    fn join_tree_chains_intermediate_cardinalities() {
        let m = model();
        // Edge 1 filters to half; edge 2's probe must be priced at the
        // intermediate cardinality, not its own left_rows.
        let e1 = join_params(0.5);
        let mut e2 = join_params(1.0);
        e2.sf = 1.0;
        let tree = m.join_tree(&[edge(e1, 1), edge(e2, 1)], &[]);
        assert_eq!(tree.edges.len(), 2);
        assert_eq!(tree.alternatives.len(), 2);
        assert_eq!(tree.cards.len(), 2);
        // Edge 1: 1.5 M × 0.5 = 750 K; edge 2 probes 750 K.
        assert!((tree.cards[0] - 750_000.0).abs() < 1e-6);
        assert!((tree.out_rows() - 750_000.0).abs() < 1e-6);
        let mut chained = e2;
        chained.left_key.rows = 750_000.0;
        for (kind, cost) in tree.alternatives[1] {
            let alone = m.hash_join(&chained, kind, 1, 1, false);
            assert_eq!(cost, alone, "{kind:?} priced at the chained cardinality");
        }
        // Each slot keeps its cheapest representation.
        for (slot, alts) in tree.alternatives.iter().enumerate() {
            let (kind, cost) = tree.edges[slot];
            assert_eq!(alts.iter().find(|(k, _)| *k == kind).unwrap().1, cost);
            assert!(alts.iter().all(|(_, c)| cost.total_us() <= c.total_us()));
        }
        // Totals sum.
        let sum: f64 = tree.edges.iter().map(|(_, c)| c.total_us()).sum();
        assert!((tree.total_us() - sum).abs() < 1e-6);
        // A selective edge first makes the whole tree cheaper than the
        // reverse order — the quantity edge ordering optimizes.
        let rev = m.join_tree(&[edge(e2, 1), edge(e1, 1)], &[]);
        // Note: the filter's sf travels with its edge here, so both
        // orders produce the same final cardinality...
        assert!((rev.out_rows() - tree.out_rows()).abs() < 1e-6);
        // ...but the selective-first order pays less along the way.
        assert!(tree.total_us() < rev.total_us());
    }

    #[test]
    fn join_tree_reuse_is_cheaper_than_rebuild() {
        let m = model();
        let e = edge(join_params(0.5), 1);
        let rebuilt = m.join_tree(&[e, e], &[]);
        let mut reused_edge = e;
        reused_edge.build_reused = true;
        let reused = m.join_tree(&[e, reused_edge], &[]);
        assert!(reused.total_us() < rebuilt.total_us());
        assert!((reused.out_rows() - rebuilt.out_rows()).abs() < 1e-9);
    }

    #[test]
    fn bushy_reduction_scan_runs_on_one_worker() {
        let m = model();
        let c = *m.constants();
        let q = join_params(0.5);
        let reduction = BushyReduction {
            parent_slot: 0,
            keep_rate: 0.5,
            scan_rows: q.right_rows(),
        };
        // The executor runs every reducer in one serial loop, so the
        // reduction's probes cost the same at any build worker count.
        for workers in [1, 4] {
            let tree = m.join_tree(&[edge(q, workers)], &[reduction]);
            let mut reduced = q;
            reduced.match_rate *= 0.5;
            let bare = m.join_tree(&[edge(reduced, workers)], &[]);
            let scan = tree.total.cpu_us - bare.total.cpu_us;
            assert!(
                (scan - q.right_rows() * c.fc).abs() < 1e-6,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn empty_join_tree_prices_to_zero() {
        let m = model();
        let tree = m.join_tree(&[], &[]);
        assert_eq!(tree.total_us(), 0.0);
        assert_eq!(tree.out_rows(), 0.0);
        assert!(tree.edges.is_empty());
    }

    #[test]
    fn join_kind_names_match_figure13() {
        assert_eq!(
            InnerStrategy::Materialized.name(),
            "Right Table Materialized"
        );
        assert_eq!(
            InnerStrategy::MultiColumn.name(),
            "Right Table Multi-Column"
        );
        assert_eq!(
            InnerStrategy::SingleColumn.name(),
            "Right Table Single Column"
        );
    }
}
