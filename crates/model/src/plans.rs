//! Whole-plan cost composition for the four materialization strategies.
//!
//! The paper models the query
//!
//! ```sql
//! SELECT shipdate, linenum FROM lineitem
//! WHERE shipdate < X AND linenum < Y
//! ```
//!
//! (optionally with `GROUP BY shipdate, SUM(linenum)` on top) under the
//! four strategies of §3.5. [`CostModel`] composes the per-operator
//! formulas of [`crate::ops`] into end-to-end estimates; these are the
//! curves of Figure 10, and the decision procedure the paper's §6
//! suggests embedding in an optimizer. The §4.3 join is priced the same
//! way: [`CostModel::hash_join`] for one join, [`CostModel::join_tree`]
//! for a tree of them.

use crate::constants::Constants;
use crate::ops::{and_cost, ds1, ds1_code, ds2, ds3, ds4, merge_cost, spc, AndInput, ColumnParams};

/// Granule runs each worker claims from the work-stealing scheduler
/// over a query's lifetime — mirrors the executor's chunking policy
/// (`FragmentPipeline::CHUNKS_PER_WORKER` in `matstrat-core`; the core
/// crate asserts the two stay equal). The scheduler's own cost is
/// `workers × CHUNKS_PER_WORKER` claim/steal bookkeeping operations, one
/// `FC` each.
pub const SCHED_CHUNKS_PER_WORKER: f64 = 16.0;

/// Which of the four strategy plans to price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// DS2 → DS4 chain: tuples grow one column at a time.
    EmPipelined,
    /// SPC leaf: full tuples constructed immediately.
    EmParallel,
    /// DS1 → DS3 chain: positions flow, later columns only touched at
    /// surviving positions.
    LmPipelined,
    /// DS1 ∥ DS1 → AND → DS3 ∥ DS3 → MERGE.
    LmParallel,
}

impl PlanKind {
    /// All four strategies.
    pub const ALL: [PlanKind; 4] = [
        PlanKind::EmPipelined,
        PlanKind::EmParallel,
        PlanKind::LmPipelined,
        PlanKind::LmParallel,
    ];

    /// Short name used in harness output.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::EmPipelined => "EM-pipelined",
            PlanKind::EmParallel => "EM-parallel",
            PlanKind::LmPipelined => "LM-pipelined",
            PlanKind::LmParallel => "LM-parallel",
        }
    }
}

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

/// Parameters of the two-predicate selection/aggregation query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryParams {
    /// Row count `N` of the projection.
    pub n: f64,
    /// First predicate column (the paper's SHIPDATE).
    pub c1: ColumnParams,
    /// Second predicate column (the paper's LINENUM).
    pub c2: ColumnParams,
    /// Selectivity of the first predicate.
    pub sf1: f64,
    /// Selectivity of the second predicate.
    pub sf2: f64,
    /// `RL_p` of the position list DS1 emits for column 1.
    pub pos_run_len1: f64,
    /// `RL_p` of the position list DS1 emits for column 2.
    pub pos_run_len2: f64,
    /// Whether DS1 on column 1 emits a bit-string (bit-vector encoding).
    pub bitstring1: bool,
    /// Whether DS1 on column 2 emits a bit-string.
    pub bitstring2: bool,
    /// Whether column 2 supports DS3 (false for bit-vector encoding —
    /// disables LM-pipelined and forces a decompress on fetch).
    pub c2_supports_ds3: bool,
    /// Whether value fetch on column 1 must decompress the whole column
    /// (bit-vector encoding).
    pub c1_decompress_fetch: bool,
    /// Whether value fetch on column 2 must decompress the whole column.
    pub c2_decompress_fetch: bool,
    /// `true` for the aggregation query (GROUP BY c1, SUM(c2)).
    pub aggregated: bool,
    /// Number of groups the aggregation produces.
    pub num_groups: f64,
}

impl QueryParams {
    /// Plain selection query with sensible defaults: positions ungrouped
    /// (`RL_p` from the column run lengths), value encodings supporting
    /// DS3.
    pub fn selection(
        n: f64,
        c1: ColumnParams,
        c2: ColumnParams,
        sf1: f64,
        sf2: f64,
    ) -> QueryParams {
        QueryParams {
            n,
            c1,
            c2,
            sf1,
            sf2,
            pos_run_len1: c1.run_len,
            pos_run_len2: c2.run_len,
            bitstring1: false,
            bitstring2: false,
            c2_supports_ds3: true,
            c1_decompress_fetch: false,
            c2_decompress_fetch: false,
            aggregated: false,
            num_groups: 0.0,
        }
    }

    /// Rows surviving both predicates.
    pub fn out_rows(&self) -> f64 {
        self.n * self.sf1 * self.sf2
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

    /// Final consumption cost: iterate results, or aggregate them.
    ///
    /// * EM plans hand tuples to the consumer: the aggregator pays a
    ///   tuple-iterator step per input; a plain query pays one per output.
    /// * LM plans (aggregated) feed the aggregator columns directly:
    ///   it consumes value *runs* (`TICCOL + FC` per run, the operate-on-
    ///   compressed-data win) and only `num_groups` tuples are built.
    fn consume_em(&self, q: &QueryParams) -> f64 {
        let c = &self.constants;
        if q.aggregated {
            q.out_rows() * c.tic_tup + q.num_groups * c.tic_tup
        } else {
            q.out_rows() * c.tic_tup
        }
    }

    fn consume_lm(&self, q: &QueryParams) -> f64 {
        let c = &self.constants;
        if q.aggregated {
            // Group column arrives in runs of its stored run length.
            let runs = q.out_rows() / q.c1.run_len.max(1.0);
            runs * (c.tic_col + c.fc) + q.out_rows() * c.fc + q.num_groups * c.tic_tup
        } else {
            // Tuples must be merged and iterated.
            merge_cost(q.out_rows(), 2.0, c) + q.out_rows() * c.tic_tup
        }
    }

    /// Extra CPU when fetching values from a bit-vector column: the whole
    /// column must be decompressed (one column-iterator step per row).
    fn decompress_penalty(&self, col: &ColumnParams) -> f64 {
        col.rows * self.constants.tic_col
    }

    /// EM-parallel: SPC over both columns, then consume.
    pub fn em_parallel(&self, q: &QueryParams) -> CostBreakdown {
        let c = &self.constants;
        let mut cost = CostBreakdown::default();
        cost.add(spc(&[q.c1, q.c2], &[q.sf1, q.sf2], c));
        if q.c1_decompress_fetch {
            cost.add_cpu(self.decompress_penalty(&q.c1));
        }
        if q.c2_decompress_fetch {
            cost.add_cpu(self.decompress_penalty(&q.c2));
        }
        cost.add_cpu(self.consume_em(q));
        cost
    }

    /// EM-pipelined: DS2 on column 1, DS4 on column 2, then consume.
    pub fn em_pipelined(&self, q: &QueryParams) -> CostBreakdown {
        let c = &self.constants;
        let mut cost = CostBreakdown::default();
        cost.add(ds2(&q.c1, q.sf1, c));
        if q.c1_decompress_fetch {
            cost.add_cpu(self.decompress_penalty(&q.c1));
        }
        cost.add(ds4(&q.c2, q.n * q.sf1, q.sf2, c));
        cost.add_cpu(self.consume_em(q));
        cost
    }

    /// LM-parallel: two DS1s, AND, two (re-access) DS3s, merge/aggregate.
    pub fn lm_parallel(&self, q: &QueryParams) -> CostBreakdown {
        let c = &self.constants;
        let mut cost = CostBreakdown::default();
        cost.add(ds1(&q.c1, q.sf1, c));
        cost.add(ds1(&q.c2, q.sf2, c));
        cost.add_cpu(and_cost(
            &[
                AndInput {
                    positions: q.n * q.sf1,
                    run_len: q.pos_run_len1,
                    is_bitstring: q.bitstring1,
                },
                AndInput {
                    positions: q.n * q.sf2,
                    run_len: q.pos_run_len2,
                    is_bitstring: q.bitstring2,
                },
            ],
            c,
        ));
        // AND output: ranges only if both inputs were ranges.
        let out_runs = if q.bitstring1 || q.bitstring2 {
            1.0
        } else {
            q.pos_run_len1.min(q.pos_run_len2)
        };
        let out = q.out_rows();
        // Re-access both columns at the surviving positions (multi-column
        // optimization: I/O is zero).
        cost.add(ds3(&q.c1, out, out_runs, q.sf1 * q.sf2, true, c));
        if q.c1_decompress_fetch {
            cost.add_cpu(self.decompress_penalty(&q.c1));
        }
        cost.add(ds3(&q.c2, out, out_runs, q.sf1 * q.sf2, true, c));
        if q.c2_decompress_fetch {
            cost.add_cpu(self.decompress_penalty(&q.c2));
        }
        cost.add_cpu(self.consume_lm(q));
        cost
    }

    /// LM-pipelined: DS1 on column 1; DS3 on column 2 at only the
    /// surviving positions (first access — I/O is the `SF`-scaled read);
    /// predicate on the fetched subset; final re-access of column 1.
    ///
    /// Returns `None` when column 2 does not support DS3 (bit-vector).
    pub fn lm_pipelined(&self, q: &QueryParams) -> Option<CostBreakdown> {
        if !q.c2_supports_ds3 {
            return None;
        }
        let c = &self.constants;
        let mut cost = CostBreakdown::default();
        cost.add(ds1(&q.c1, q.sf1, c));
        // Fetch c2 values at positions passing predicate 1, then filter.
        cost.add(ds3(&q.c2, q.n * q.sf1, q.pos_run_len1, q.sf1, false, c));
        cost.add_cpu(q.n * q.sf1 * c.fc); // apply predicate 2 to the subset
                                          // Re-access c1 for its values at the final positions.
        let out = q.out_rows();
        let out_runs = q.pos_run_len1.min(q.pos_run_len2);
        cost.add(ds3(&q.c1, out, out_runs, q.sf1 * q.sf2, true, c));
        if q.c1_decompress_fetch {
            cost.add_cpu(self.decompress_penalty(&q.c1));
        }
        cost.add_cpu(self.consume_lm(q));
        Some(cost)
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

    /// Price one strategy plan as executed by `workers` granule-parallel
    /// threads under the work-stealing scheduler: CPU divides, I/O does
    /// not, and the scheduler's claim/steal bookkeeping is added on top.
    /// `workers = 1` is the serial plan exactly. `None` when the plan is
    /// unsupported for the parameters.
    pub fn estimate(
        &self,
        kind: PlanKind,
        q: &QueryParams,
        workers: usize,
    ) -> Option<CostBreakdown> {
        let serial = match kind {
            PlanKind::EmPipelined => self.em_pipelined(q),
            PlanKind::EmParallel => self.em_parallel(q),
            PlanKind::LmPipelined => self.lm_pipelined(q)?,
            PlanKind::LmParallel => self.lm_parallel(q),
        };
        let mut cost = serial.with_workers(workers);
        cost.cpu_us += self.steal_overhead(workers);
        Some(cost)
    }

    /// The serial build and probe phases [`Self::hash_join`] prices.
    fn join_phases(&self, q: &JoinParams, kind: JoinInnerKind, build_reused: bool) -> JoinCost {
        let c = &self.constants;
        let out = q.out_rows();

        // ---- Build ------------------------------------------------------
        let mut build = CostBreakdown::default();
        if !build_reused {
            // Right key: a DS1-shaped full scan whose "emit" term (SF = 1)
            // is the hash insert per row. Code-keyed builds hash the
            // stored codes and skip the per-unit decode.
            build.add(if q.code_keyed {
                ds1_code(&q.right_key, 1.0, c)
            } else {
                ds1(&q.right_key, 1.0, c)
            });
        }
        // Right output blocks enter the pool at build for every
        // representation (compressed mini-columns or full decode).
        build.add((q.right_out_blocks * c.bic, q.right_out_io(c)));
        if kind == JoinInnerKind::Materialized {
            // Decode every output column and construct row-major tuples.
            build.add_cpu(q.right_rows() * q.right_out_cols * (c.tic_col + c.tic_tup));
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
            JoinInnerKind::Materialized => out * q.right_out_cols * c.tic_tup,
            // Positional probe into compressed blocks: block binary
            // search (FC-scaled) + column-iterator step + tuple write.
            JoinInnerKind::MultiColumn => {
                out * q.right_out_cols * (q.right_block_search(c) + c.tic_col + c.tic_tup)
            }
            // The same positional probes, plus the extra positional join
            // on unsorted right positions: sort the matches, gather, and
            // scatter back into output order (§4.3, Figure 13).
            JoinInnerKind::SingleColumn => {
                out * q.right_out_cols * (q.right_block_search(c) + c.tic_col + c.tic_tup)
                    + out * (2.0 * c.fc) * (out.max(2.0)).log2()
                    + out * q.right_out_cols * c.fc
            }
        };
        probe.add_cpu(right_fetch);
        // Stitch the final tuples.
        probe.add_cpu(out * c.tic_tup);

        JoinCost { build, probe }
    }

    /// Price a hash join under the chosen inner-table representation,
    /// as executed with `build_workers` build threads and `probe_workers`
    /// probe threads.
    ///
    ///
    /// * **Build** (span- and column-parallel): read the right key
    ///   column fully, decode it, and hash every row into the
    ///   partitioned table. `Materialized` additionally decodes every
    ///   right output column and constructs the full right tuples up
    ///   front; the other representations ship the output columns
    ///   compressed (their blocks are still read at build time — all
    ///   three representations touch the same blocks, as the executor
    ///   does). A `build_reused` table already exists (an earlier edge
    ///   of the same tree built it on the same inner table and key), so
    ///   the key-column scan, its cold I/O and the hash inserts drop
    ///   out; the right output representations are still priced, since
    ///   an edge may project other columns than the edge that built it.
    /// * **Probe** (span-parallel): read the left key and output columns,
    ///   probe the table once per surviving left row, fetch left values
    ///   with a merge on the sorted positions, and fetch right values per
    ///   representation: an array index for `Materialized`, a positional
    ///   probe into the compressed mini-columns for `MultiColumn`, and
    ///   the Figure 13 positional-join penalty (sort + gather + scatter
    ///   over the *unsorted* right positions) for `SingleColumn`.
    ///
    /// Build CPU divides by the build count, probe CPU by the probe
    /// count, I/O is shared by all. On top of the division the parallel
    /// machinery itself is priced:
    ///
    /// * **Radix partitioning** (`build_workers > 1`) — the partitioned
    ///   build hashes and scatters every right row once more than the
    ///   serial insertion loop does (`FC` each, parallel across build
    ///   workers), and every surviving probe pays one extra partition
    ///   hash (`FC`, parallel across probe workers).
    /// * **Scheduler bookkeeping** — each parallel phase pays the
    ///   work-stealing claim overhead ([`Self::steal_overhead`]).
    ///
    /// A `build_reused` join runs no build pipeline at all: it skips the
    /// radix scatter and the build phase's scheduler bookkeeping, while
    /// the probe still pays its per-row partition hash when the cached
    /// table was built partitioned (`build_workers > 1` describes how
    /// the table was built, whether by this edge or the one it reuses).
    /// At one worker each and no reuse this is the serial join.
    pub fn hash_join(
        &self,
        q: &JoinParams,
        kind: JoinInnerKind,
        build_workers: usize,
        probe_workers: usize,
        build_reused: bool,
    ) -> CostBreakdown {
        let c = &self.constants;
        let mut cost = self
            .join_phases(q, kind, build_reused)
            .with_workers(build_workers, probe_workers);
        if build_workers > 1 {
            if !build_reused {
                cost.cpu_us += q.right_rows() * c.fc / build_workers as f64;
            }
            cost.cpu_us += q.left_rows() * q.sf * c.fc / probe_workers.max(1) as f64;
        }
        if !build_reused {
            cost.cpu_us += self.steal_overhead(build_workers);
        }
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
    /// child's table once per parent row (`FC` each, across the build
    /// workers), which is added to the parent slot's chosen cost.
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
            let alternatives = JoinInnerKind::ALL.map(|kind| {
                let cost =
                    self.hash_join(&p, kind, e.build_workers, e.probe_workers, e.build_reused);
                (kind, cost)
            });
            let (kind, mut cost) = *alternatives
                .iter()
                .min_by(|a, b| a.1.total_us().total_cmp(&b.1.total_us()))
                .expect("three join plans always estimable");
            for r in reductions.iter().filter(|r| r.parent_slot == slot) {
                cost.cpu_us += r.scan_rows * c.fc / e.build_workers.max(1) as f64;
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
    /// Workers the partitioned build would use (how the table is
    /// partitioned — also for a reused build, which was built by the
    /// edge it reuses).
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
    pub edges: Vec<(JoinInnerKind, CostBreakdown)>,
    /// Per edge, all three representations priced at the edge's chained
    /// cardinality (the rejected ones included; reduction scans not).
    pub alternatives: Vec<[(JoinInnerKind, CostBreakdown); 3]>,
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

/// Which inner-table representation a hash join uses (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinInnerKind {
    /// Right tuples constructed before the join (EM).
    Materialized,
    /// Right columns shipped compressed; tuples built per match.
    MultiColumn,
    /// Only the key column enters the join; values fetched by position
    /// afterwards (pure LM).
    SingleColumn,
}

impl JoinInnerKind {
    /// All three representations, in the paper's Figure 13 order.
    pub const ALL: [JoinInnerKind; 3] = [
        JoinInnerKind::Materialized,
        JoinInnerKind::MultiColumn,
        JoinInnerKind::SingleColumn,
    ];

    /// Short name used in harness output.
    pub fn name(self) -> &'static str {
        match self {
            JoinInnerKind::Materialized => "Right Table Materialized",
            JoinInnerKind::MultiColumn => "Right Table Multi-Column",
            JoinInnerKind::SingleColumn => "Right Table Single Column",
        }
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

/// CPU/IO split of a join estimate, separating the build from the probe
/// so parallelism can be priced honestly: the two phases run on
/// different tables (right vs left), so each divides by its *own*
/// effective worker count, and the shared I/O divides by neither.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct JoinCost {
    /// The build phase (partitioned hash table + right representations),
    /// span-parallel over the right table.
    build: CostBreakdown,
    /// The probe phase, span-parallel over the left table.
    probe: CostBreakdown,
}

impl JoinCost {
    /// Collapse to one estimate: build CPU divides by the worker count
    /// the partitioned build will actually use (the skew guard applied
    /// to the *right* table), probe CPU by the probe's (the guard on the
    /// *left* table), and the shared cold-I/O terms are unchanged (the
    /// workers share one disk arm and one buffer pool). Raw division
    /// only — [`CostModel::hash_join`] layers the partitioning and
    /// scheduler overheads on top.
    fn with_workers(self, build_workers: usize, probe_workers: usize) -> CostBreakdown {
        CostBreakdown {
            cpu_us: self.build.cpu_us / build_workers.max(1) as f64
                + self.probe.cpu_us / probe_workers.max(1) as f64,
            io_us: self.build.io_us + self.probe.io_us,
        }
    }

    /// Serial total microseconds.
    #[cfg(test)]
    fn total_us(&self) -> f64 {
        self.build.total_us() + self.probe.total_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(Constants::paper())
    }

    /// The cheapest supported strategy plan at `workers` — the §6
    /// optimizer decision.
    fn best_plan(m: &CostModel, q: &QueryParams, workers: usize) -> (PlanKind, CostBreakdown) {
        PlanKind::ALL
            .iter()
            .filter_map(|&k| m.estimate(k, q, workers).map(|c| (k, c)))
            .min_by(|a, b| a.1.total_us().total_cmp(&b.1.total_us()))
            .expect("EM plans are always supported")
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

    /// Paper-scale RLE setup (§3.7): shipdate 1 block / 3,800 "tuples"
    /// (runs), linenum 5 blocks / 26,726 runs, 60 M rows.
    fn rle_params(sf1: f64) -> QueryParams {
        let n = 60_000_000.0;
        let c1 = ColumnParams {
            blocks: 1.0,
            rows: n,
            run_len: n / 3800.0,
            resident: 0.0,
            code_width: 8.0,
            shared_dict: false,
        };
        let c2 = ColumnParams {
            blocks: 5.0,
            rows: n,
            run_len: n / 26_726.0,
            resident: 0.0,
            code_width: 8.0,
            shared_dict: false,
        };
        let mut q = QueryParams::selection(n, c1, c2, sf1, 0.96);
        // Positions from a range predicate over the semi-sorted shipdate
        // coalesce into a few long runs (one per RETURNFLAG group).
        q.pos_run_len1 = (n * sf1 / 3.0).max(1.0);
        q.pos_run_len2 = (n * 0.96 / 26_726.0).max(1.0);
        q
    }

    fn uncompressed_params(sf1: f64) -> QueryParams {
        let n = 60_000_000.0;
        let c1 = ColumnParams {
            blocks: 1.0,
            rows: n,
            run_len: n / 3800.0,
            resident: 0.0,
            code_width: 8.0,
            shared_dict: false,
        };
        let c2 = ColumnParams {
            blocks: 916.0,
            rows: n,
            run_len: 1.0,
            resident: 0.0,
            code_width: 8.0,
            shared_dict: false,
        };
        let mut q = QueryParams::selection(n, c1, c2, sf1, 0.96);
        q.pos_run_len1 = (n * sf1 / 3.0).max(1.0);
        q.pos_run_len2 = 1.0;
        q
    }

    #[test]
    fn costs_increase_with_selectivity() {
        let m = model();
        for kind in PlanKind::ALL {
            let lo = m.estimate(kind, &rle_params(0.1), 1);
            let hi = m.estimate(kind, &rle_params(0.9), 1);
            if let (Some(lo), Some(hi)) = (lo, hi) {
                assert!(
                    hi.total_us() > lo.total_us(),
                    "{kind:?} should cost more at higher selectivity"
                );
            }
        }
    }

    #[test]
    fn rle_lm_beats_em_at_high_selectivity() {
        // Figure 11(b): both LM strategies beat both EM strategies for
        // RLE-compressed data once selectivity is non-trivial.
        let m = model();
        let q = rle_params(0.5);
        let lm = m.lm_parallel(&q).total_us();
        let lmp = m.lm_pipelined(&q).unwrap().total_us();
        let emp = m.em_parallel(&q).total_us();
        let emd = m.em_pipelined(&q).total_us();
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
        let lmp_low = m.lm_pipelined(&low).unwrap().total_us();
        let emp_low = m.em_parallel(&low).total_us();
        assert!(
            lmp_low < emp_low,
            "low sel: {lmp_low} should beat {emp_low}"
        );
        let lmp_high = m.lm_pipelined(&high).unwrap().total_us();
        let emp_high = m.em_parallel(&high).total_us();
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
        let mut agg = sel;
        agg.aggregated = true;
        agg.num_groups = 2526.0;
        let lm_sel = m.lm_parallel(&sel).total_us();
        let lm_agg = m.lm_parallel(&agg).total_us();
        assert!(
            lm_agg < 0.5 * lm_sel,
            "agg should slash LM cost: {lm_agg} vs {lm_sel}"
        );
        let em_sel = m.em_parallel(&sel).total_us();
        let em_agg = m.em_parallel(&agg).total_us();
        assert!((em_agg - em_sel).abs() / em_sel < 0.25, "EM barely changes");
    }

    #[test]
    fn bitvec_disables_lm_pipelined() {
        let m = model();
        let mut q = rle_params(0.5);
        q.c2_supports_ds3 = false;
        assert!(m.lm_pipelined(&q).is_none());
        assert!(m.estimate(PlanKind::LmPipelined, &q, 1).is_none());
        // best_plan still returns something.
        let (_, cost) = best_plan(&m, &q, 1);
        assert!(cost.total_us() > 0.0);
    }

    #[test]
    fn best_plan_picks_minimum() {
        let m = model();
        let q = rle_params(0.5);
        let (kind, cost) = best_plan(&m, &q, 1);
        for k in PlanKind::ALL {
            if let Some(c) = m.estimate(k, &q, 1) {
                assert!(cost.total_us() <= c.total_us() + 1e-9, "{kind:?} vs {k:?}");
            }
        }
    }

    #[test]
    fn decompress_fetch_penalizes_lm_fetch_paths() {
        let m = model();
        let q = rle_params(0.5);
        let mut qb = q;
        qb.c2_decompress_fetch = true;
        assert!(m.lm_parallel(&qb).total_us() > m.lm_parallel(&q).total_us());
    }

    #[test]
    fn workers_divide_cpu_not_io() {
        let m = model();
        let q = rle_params(0.5);
        for kind in PlanKind::ALL {
            let (serial, four) = match (m.estimate(kind, &q, 1), m.estimate(kind, &q, 4)) {
                (Some(s), Some(p)) => (s, p),
                _ => continue,
            };
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
        let s = m.em_parallel(&q);
        assert_eq!(s.with_workers(0).total_us(), s.total_us());
        assert_eq!(s.with_workers(1).total_us(), s.total_us());
        assert_eq!(m.estimate(PlanKind::EmParallel, &q, 1).unwrap(), s);
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
        assert_eq!(PlanKind::EmParallel.name(), "EM-parallel");
        assert_eq!(PlanKind::LmPipelined.name(), "LM-pipelined");
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
        let mat = m.join_phases(&q, JoinInnerKind::Materialized, false);
        let mc = m.join_phases(&q, JoinInnerKind::MultiColumn, false);
        let sc = m.join_phases(&q, JoinInnerKind::SingleColumn, false);
        assert!(
            mc.probe.cpu_us < sc.probe.cpu_us,
            "single-column pays the positional join: {} vs {}",
            mc.probe.cpu_us,
            sc.probe.cpu_us
        );
        // All three read the same blocks.
        assert!((mat.build.io_us - mc.build.io_us).abs() < 1e-9);
        assert!((mc.build.io_us - sc.build.io_us).abs() < 1e-9);
        assert!((mat.probe.io_us - sc.probe.io_us).abs() < 1e-9);
        // Materialized fronts the tuple construction at build time.
        assert!(mat.build.cpu_us > mc.build.cpu_us);
    }

    #[test]
    fn join_cost_grows_with_selectivity() {
        let m = model();
        for kind in JoinInnerKind::ALL {
            let lo = m.hash_join(&join_params(0.1), kind, 1, 1, false).total_us();
            let hi = m.hash_join(&join_params(0.9), kind, 1, 1, false).total_us();
            assert!(hi > lo, "{kind:?}");
        }
    }

    #[test]
    fn join_workers_divide_each_phase_cpu_only() {
        let m = model();
        let q = join_params(0.5);
        for kind in JoinInnerKind::ALL {
            let cost = m.join_phases(&q, kind, false);
            let serial = cost.with_workers(1, 1);
            // Probe workers alone: probe CPU divides, build CPU and all
            // I/O stay put.
            let probe4 = cost.with_workers(1, 4);
            let expect_cpu = cost.build.cpu_us + cost.probe.cpu_us / 4.0;
            assert!((probe4.cpu_us - expect_cpu).abs() < 1e-9, "{kind:?}");
            assert!((probe4.io_us - serial.io_us).abs() < 1e-9, "{kind:?}");
            // Build workers divide the build phase independently.
            let both4 = cost.with_workers(4, 4);
            let expect_cpu = cost.build.cpu_us / 4.0 + cost.probe.cpu_us / 4.0;
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
    fn parallel_join_prices_partitioning_and_steal_overhead() {
        let m = model();
        let q = join_params(0.5);
        let c = *m.constants();
        for kind in JoinInnerKind::ALL {
            let cost = m.join_phases(&q, kind, false);
            // Serial worker counts collapse to the raw estimate: no
            // partitioning, no scheduler.
            let serial = m.hash_join(&q, kind, 1, 1, false);
            assert!(
                (serial.total_us() - cost.total_us()).abs() < 1e-9,
                "{kind:?}"
            );
            // Parallel build pays the radix scatter (right rows) and the
            // per-probe partition hash (surviving left rows), both
            // divided by their phase's workers, plus two scheduler
            // overheads.
            let par = m.hash_join(&q, kind, 4, 8, false);
            let expect = cost.build.cpu_us / 4.0
                + cost.probe.cpu_us / 8.0
                + q.right_rows() * c.fc / 4.0
                + q.left_rows() * q.sf * c.fc / 8.0
                + m.steal_overhead(4)
                + m.steal_overhead(8);
            assert!((par.cpu_us - expect).abs() < 1e-6, "{kind:?}");
            // Probe-only parallelism keeps the build unpartitioned: no
            // radix terms, one scheduler.
            let probe_only = m.hash_join(&q, kind, 1, 8, false);
            let expect = cost.build.cpu_us + cost.probe.cpu_us / 8.0 + m.steal_overhead(8);
            assert!((probe_only.cpu_us - expect).abs() < 1e-6, "{kind:?}");
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
        for kind in JoinInnerKind::ALL {
            let fresh = m.join_phases(&q, kind, false);
            let reused = m.join_phases(&q, kind, true);
            // The probe is untouched; the build drops the key scan + hash
            // inserts (CPU) and the key column's cold read (I/O).
            assert_eq!(reused.probe, fresh.probe, "{kind:?}");
            assert!(reused.build.cpu_us < fresh.build.cpu_us, "{kind:?}");
            assert!(reused.build.io_us < fresh.build.io_us, "{kind:?}");
            // Representations are still priced: Materialized keeps its
            // up-front tuple construction even on a reused table.
            if kind == JoinInnerKind::Materialized {
                let mc = m.join_phases(&q, JoinInnerKind::MultiColumn, true);
                assert!(reused.build.cpu_us > mc.build.cpu_us);
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
        for kind in JoinInnerKind::ALL {
            let plain = m.join_phases(&q, kind, false);
            let coded = m.join_phases(&qc, kind, false);
            let expect_build = plain.build.cpu_us - save(&qc.right_key);
            let expect_probe = plain.probe.cpu_us - save(&qc.left_key);
            assert!((coded.build.cpu_us - expect_build).abs() < 1e-6, "{kind:?}");
            assert!((coded.probe.cpu_us - expect_probe).abs() < 1e-6, "{kind:?}");
            assert_eq!(coded.build.io_us, plain.build.io_us, "{kind:?}");
            assert_eq!(coded.probe.io_us, plain.probe.io_us, "{kind:?}");
            assert!(coded.total_us() < plain.total_us(), "{kind:?}");
        }
        // A reused build skips its key scan entirely — nothing left for
        // the code path to discount on that side.
        for kind in JoinInnerKind::ALL {
            let plain = m.join_phases(&q, kind, true);
            let coded = m.join_phases(&qc, kind, true);
            assert_eq!(coded.build, plain.build, "{kind:?}");
        }
    }

    #[test]
    fn parallel_reuse_skips_radix_and_build_scheduler() {
        let m = model();
        let q = join_params(0.5);
        let c = *m.constants();
        for kind in JoinInnerKind::ALL {
            let cost = m.join_phases(&q, kind, true);
            let par = m.hash_join(&q, kind, 4, 8, true);
            // No radix scatter, no build-side steal overhead; the probe
            // still pays its per-row partition hash (the cached table is
            // partitioned) and its own scheduler bookkeeping.
            let expect = cost.build.cpu_us / 4.0
                + cost.probe.cpu_us / 8.0
                + q.left_rows() * q.sf * c.fc / 8.0
                + m.steal_overhead(8);
            assert!((par.cpu_us - expect).abs() < 1e-6, "{kind:?}");
            // A fresh build at the same worker counts costs more.
            let fresh = m.hash_join(&q, kind, 4, 8, false);
            assert!(fresh.cpu_us > par.cpu_us, "{kind:?}");
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
            JoinInnerKind::Materialized.name(),
            "Right Table Materialized"
        );
        assert_eq!(
            JoinInnerKind::MultiColumn.name(),
            "Right Table Multi-Column"
        );
        assert_eq!(
            JoinInnerKind::SingleColumn.name(),
            "Right Table Single Column"
        );
    }
}
