//! Query descriptions and results.

use std::ops::AddAssign;
use std::time::Duration;

use matstrat_common::{Error, Predicate, QueryIo, Result, TableId, Value};
use matstrat_storage::IoStats;

use crate::ops::agg::AggFunc;
use crate::ops::join::JoinSpec;
use crate::Strategy;

/// An aggregation over one column, grouped by another
/// (`SELECT g, f(v) ... GROUP BY g`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggSpec {
    /// Column index of the GROUP BY attribute.
    pub group_col: usize,
    /// Column index of the aggregated attribute.
    pub value_col: usize,
    /// The aggregate function (the paper's experiments use SUM).
    pub func: AggFunc,
}

impl AggSpec {
    /// The columns an aggregate's parts carry, in the order `Part::fold`
    /// reads them: the group column, then the value column unless the
    /// function is COUNT, which never reads values.
    pub(crate) fn part_columns(&self) -> Vec<usize> {
        let mut cols = vec![self.group_col];
        cols.extend(Some(self.value_col).filter(|_| self.func.needs_values()));
        cols
    }
}

/// A selection (optionally aggregated) over one projection:
///
/// ```sql
/// SELECT <output...> FROM <table> WHERE <col op const> AND ...
/// [GROUP BY g -- with SUM(v)]
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// The projection to read.
    pub table: TableId,
    /// Column indices to output (ignored when `aggregate` is set:
    /// aggregation outputs `(group, sum)`).
    pub output: Vec<usize>,
    /// Conjunctive single-column predicates, applied in order.
    pub filters: Vec<(usize, Predicate)>,
    /// Optional GROUP BY + SUM on top of the selection.
    pub aggregate: Option<AggSpec>,
}

impl QuerySpec {
    /// `SELECT <output> FROM <table>`.
    pub fn select(table: TableId, output: Vec<usize>) -> QuerySpec {
        QuerySpec {
            table,
            output,
            filters: Vec::new(),
            aggregate: None,
        }
    }

    /// Add `AND column <op> const` to the WHERE clause.
    pub fn filter(mut self, col: usize, pred: Predicate) -> QuerySpec {
        self.filters.push((col, pred));
        self
    }

    /// Replace the output with `GROUP BY group_col, SUM(value_col)`.
    pub fn aggregate_sum(self, group_col: usize, value_col: usize) -> QuerySpec {
        self.aggregate_fn(group_col, value_col, AggFunc::Sum)
    }

    /// Replace the output with `GROUP BY group_col, f(value_col)`.
    pub fn aggregate_fn(mut self, group_col: usize, value_col: usize, func: AggFunc) -> QuerySpec {
        self.aggregate = Some(AggSpec {
            group_col,
            value_col,
            func,
        });
        self
    }

    /// Every column the query touches, in access order and without
    /// duplicates: filter columns first, then extra output/aggregate
    /// columns.
    pub fn accessed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = Vec::new();
        let mut push = |c: usize| {
            if !cols.contains(&c) {
                cols.push(c);
            }
        };
        for (c, _) in &self.filters {
            push(*c);
        }
        match self.aggregate {
            Some(a) => {
                push(a.group_col);
                push(a.value_col);
            }
            None => {
                for &c in &self.output {
                    push(c);
                }
            }
        }
        cols
    }
}

/// Where a join-tree edge's probe keys come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKeySource {
    /// The base (leftmost) table: key values are fetched at the
    /// intermediate's base positions with a merge on position.
    Base,
    /// The right table of an earlier edge (by spec index): key values
    /// are indexed out of that table at the intermediate's matched right
    /// positions — a snowflake hop, no extra I/O.
    Edge(usize),
}

/// A left-deep tree of equi-joins over [`JoinSpec`] edges, optionally
/// topped by a GROUP BY aggregation:
///
/// ```sql
/// SELECT base.<outputs...>, r1.<outputs...>, ..., rN.<outputs...>
/// FROM base, r1, ..., rN
/// WHERE base.k1 = r1.key AND ... [AND base.<filter col> <op> const]
///                               [AND rK.<filter col> <op> const ...]
/// [GROUP BY g -- with f(v)]
/// ```
///
/// Edge 0 is an ordinary [`JoinSpec`] — its `left` names the **base**
/// (probe) table, its `left_filter`/`left_output` the base predicate and
/// output columns. Every later edge joins one more inner table into the
/// running intermediate: its `left` must be the base table (a star edge)
/// or the `right` of an earlier edge (a snowflake edge, keyed through
/// that table's matched positions), its `left_key` a column of that
/// table, and — since the intermediate carries the base state — its
/// `left_filter` must be `None` and `left_output` empty. Any edge may
/// carry a `right_filter` on its inner table; the build phase applies
/// it as a semi-join reduction on the hash table.
///
/// Output columns are the base outputs followed by every edge's right
/// outputs **in spec order**, whatever execution order the planner
/// picks. A one-edge tree is exactly its [`JoinSpec`]. When `aggregate`
/// is set, its `group_col`/`value_col` index that flat spec-order
/// output and the result is `(group, f(value))` rows sorted by group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTreeSpec {
    /// The join edges, in declaration order.
    pub edges: Vec<JoinSpec>,
    /// Optional GROUP BY + aggregate over the joined output. Column
    /// indices address the flat spec-order output columns.
    pub aggregate: Option<AggSpec>,
}

impl JoinTreeSpec {
    /// Wrap edges into a tree (validated at execution/planning time).
    pub fn new(edges: Vec<JoinSpec>) -> JoinTreeSpec {
        JoinTreeSpec {
            edges,
            aggregate: None,
        }
    }

    /// Top the tree with `GROUP BY group_col, SUM(value_col)` (indices
    /// into the flat spec-order output).
    pub fn aggregate_sum(self, group_col: usize, value_col: usize) -> JoinTreeSpec {
        self.aggregate_fn(group_col, value_col, AggFunc::Sum)
    }

    /// Top the tree with `GROUP BY group_col, f(value_col)`.
    pub fn aggregate_fn(
        mut self,
        group_col: usize,
        value_col: usize,
        func: AggFunc,
    ) -> JoinTreeSpec {
        self.aggregate = Some(AggSpec {
            group_col,
            value_col,
            func,
        });
        self
    }

    /// The base (probe) table: edge 0's left side.
    pub fn base(&self) -> TableId {
        self.edges.first().map(|e| e.left).unwrap_or(TableId(0))
    }

    /// Where edge `idx`'s probe keys come from: the base table, or the
    /// right side of the first earlier edge whose inner table matches
    /// (duplicate inner tables resolve to their first occurrence, which
    /// is also the build every later occurrence reuses).
    pub fn key_source(&self, idx: usize) -> Result<JoinKeySource> {
        let edge = &self.edges[idx];
        if edge.left == self.base() {
            return Ok(JoinKeySource::Base);
        }
        self.edges[..idx]
            .iter()
            .position(|e| e.right == edge.left)
            .map(JoinKeySource::Edge)
            .ok_or_else(|| {
                Error::invalid(format!(
                    "join tree edge {idx}: left table {:?} is neither the base table \
                     nor the inner table of an earlier edge",
                    edge.left
                ))
            })
    }

    /// Check tree shape: at least one edge, later edges carry no base
    /// state of their own, and every edge's key source resolves.
    pub fn validate(&self) -> Result<()> {
        if self.edges.is_empty() {
            return Err(Error::invalid("join tree needs at least one edge"));
        }
        for (i, e) in self.edges.iter().enumerate().skip(1) {
            if e.left_filter.is_some() {
                return Err(Error::invalid(format!(
                    "join tree edge {i}: only edge 0 may filter the base table"
                )));
            }
            if !e.left_output.is_empty() {
                return Err(Error::invalid(format!(
                    "join tree edge {i}: base outputs belong to edge 0 \
                     (left_output must be empty)"
                )));
            }
            self.key_source(i)?;
        }
        if let Some(a) = &self.aggregate {
            let width = self.output_width();
            if a.group_col >= width || a.value_col >= width {
                return Err(Error::invalid(format!(
                    "join tree aggregate: group/value column ({}, {}) outside \
                     the {width}-column output",
                    a.group_col, a.value_col
                )));
            }
        }
        Ok(())
    }

    /// Output width: base outputs plus every edge's right outputs.
    pub fn output_width(&self) -> usize {
        self.edges.first().map_or(0, |e| e.left_output.len())
            + self
                .edges
                .iter()
                .map(|e| e.right_output.len())
                .sum::<usize>()
    }
}

/// One statement of work against the database — the single input shape
/// of [`Database::execute`](crate::db::Database::execute). Reads carry
/// their full spec; writes carry the rows or filters they apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// A (possibly aggregated) selection over one projection.
    Select(QuerySpec),
    /// A tree of equi-joins, optionally topped by an aggregate.
    JoinTree(JoinTreeSpec),
    /// Append rows to a projection's delta store.
    Insert {
        /// Target projection.
        table: TableId,
        /// Full-width rows to append.
        rows: Vec<Vec<Value>>,
    },
    /// Delete every row matching all `filters` (conjunctive).
    Delete {
        /// Target projection.
        table: TableId,
        /// Conjunctive single-column predicates.
        filters: Vec<(usize, Predicate)>,
    },
}

/// A materialized result: row-major tuples of `width` values.
///
/// Tuples are stored flat (`rows * width` values) — building this buffer
/// *is* the tuple-construction cost the paper measures, without allocator
/// noise per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Output column names.
    pub column_names: Vec<String>,
    width: usize,
    data: Vec<Value>,
}

impl QueryResult {
    /// An empty result with the given output columns.
    pub fn new(column_names: Vec<String>) -> QueryResult {
        let width = column_names.len();
        QueryResult {
            column_names,
            width,
            data: Vec::new(),
        }
    }

    /// Build from a flat row-major buffer.
    pub fn from_flat(column_names: Vec<String>, data: Vec<Value>) -> QueryResult {
        let width = column_names.len();
        assert!(width > 0, "result needs at least one column");
        assert_eq!(data.len() % width, 0, "flat buffer must be rows*width");
        QueryResult {
            column_names,
            width,
            data,
        }
    }

    /// Tuple width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of result rows.
    pub fn num_rows(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// Append one row.
    pub fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.width);
        self.data.extend_from_slice(row);
    }

    /// The flat row-major buffer.
    pub fn flat(&self) -> &[Value] {
        &self.data
    }

    /// Mutable access to the flat buffer (executors append in place).
    pub fn flat_mut(&mut self) -> &mut Vec<Value> {
        &mut self.data
    }

    /// Iterate rows as slices.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        self.data.chunks_exact(self.width)
    }

    /// The row at `idx`.
    pub fn row(&self, idx: usize) -> &[Value] {
        &self.data[idx * self.width..(idx + 1) * self.width]
    }

    /// All rows, sorted — the canonical form for comparing strategies,
    /// whose output orders may differ.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = self.rows().map(|r| r.to_vec()).collect();
        rows.sort_unstable();
        rows
    }
}

/// Measurements of one statement execution — the single stats shape
/// every execution path reports, whatever the statement kind. Scan-only
/// counters (`positions_matched`, `decompressed_fetch`) stay zero for
/// joins; join-only counters (`builds`, `build_reuses`) stay zero for
/// scans; writes report only `rows_out` and `wall`.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Scan strategy that was run (`None` for join trees and writes,
    /// whose execution is not a single scan strategy).
    pub strategy: Option<Strategy>,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// Simulated-disk activity during execution — **this query's only**,
    /// charged to the statement's ledger ([`QueryIo`]) by every thread
    /// that ran for it, so the counters stay exact when several sessions
    /// execute concurrently.
    pub io: IoStats,
    /// Result rows produced (rows affected, for writes).
    pub rows_out: u64,
    /// Positions that survived all predicates (before aggregation).
    pub positions_matched: u64,
    /// Whether a bit-vector decompression fallback was taken.
    pub decompressed_fetch: bool,
    /// Operations executed directly on compressed representations —
    /// code comparisons in dict scans, per-run comparisons in RLE
    /// scans, per-distinct-value predicate evaluations in bit-vector
    /// scans, run folds in compressed aggregation, code-keyed join
    /// build/probe ops. Data-dependent only, so exact at any worker
    /// count; > 0 proves the decode-free path actually ran.
    pub code_path_ops: u64,
    /// Granule runs the work-stealing scheduler moved between workers:
    /// claims taken from the tail of another worker's span by a worker
    /// that had drained its own. Always 0 for a serial run; under
    /// clustered selectivity and ≥ 2 workers it is the rebalance at
    /// work. Unlike the other counters it is *not* deterministic — it
    /// measures scheduling, not semantics.
    pub steals: u64,
    /// Partitioned hash-table builds that actually ran — one per
    /// distinct (inner table, key column, inner filter) triple when
    /// reuse is on, none for a triple whose reducer-free build was
    /// resident on the store.
    pub builds: u64,
    /// Edges served by a build table this statement did not make: an
    /// earlier edge's, when one inner table appears in multiple edges
    /// (the reuse the planner's pricing counts on), or one resident on
    /// the store from an earlier statement over the same snapshot of
    /// the inner table. A resident build reads no block of the inner
    /// key, so it adds nothing to `io`.
    pub build_reuses: u64,
    /// Granules a filtered scan skipped outright because no block zone
    /// map overlapping the granule admits the predicate — provably
    /// empty, so no block is read. Deterministic for a cold run.
    pub zone_skips: u64,
}

impl QueryStats {
    /// Zeroed measurements tagged with `strategy` — the identity of the
    /// [`AddAssign`] merge.
    pub fn zero(strategy: Strategy) -> QueryStats {
        QueryStats {
            strategy: Some(strategy),
            ..QueryStats::default()
        }
    }

    /// Wall time plus modeled cold-I/O time, in milliseconds, pricing the
    /// simulated disk with `seek_us`/`read_us`.
    pub fn modeled_total_ms(&self, seek_us: f64, read_us: f64) -> f64 {
        self.wall.as_secs_f64() * 1e3 + self.io.modeled_micros(seek_us, read_us) / 1e3
    }
}

/// Run one statement's executor under a fresh per-query ledger and
/// charge the ledger's reads, seeks and code operations to the stats it
/// returns.
pub(crate) fn metered<R>(
    execute: impl FnOnce() -> Result<(R, QueryStats)>,
) -> Result<(R, QueryStats)> {
    let io = QueryIo::new();
    let (out, mut stats) = io.run(execute)?;
    stats.io = IoStats {
        block_reads: io.block_reads(),
        seeks: io.seeks(),
    };
    stats.code_path_ops = io.code_ops();
    Ok((out, stats))
}

/// Associative merge of fragments measured for one query: counters sum,
/// the decompression flag ORs, and wall time takes the maximum — parallel
/// workers overlap, so the slowest fragment bounds the elapsed time.
/// Merging stats of different strategies is a logic error.
impl AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: QueryStats) {
        debug_assert!(
            self.strategy.is_none() || rhs.strategy.is_none() || self.strategy == rhs.strategy,
            "fragments of one query"
        );
        self.strategy = self.strategy.or(rhs.strategy);
        self.wall = self.wall.max(rhs.wall);
        self.io += rhs.io;
        self.rows_out += rhs.rows_out;
        self.positions_matched += rhs.positions_matched;
        self.decompressed_fetch |= rhs.decompressed_fetch;
        self.code_path_ops += rhs.code_path_ops;
        self.steals += rhs.steals;
        self.builds += rhs.builds;
        self.build_reuses += rhs.build_reuses;
        self.zone_skips += rhs.zone_skips;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessed_columns_dedup_and_order() {
        let q = QuerySpec::select(TableId(0), vec![3, 1])
            .filter(1, Predicate::lt(5))
            .filter(2, Predicate::gt(0));
        assert_eq!(q.accessed_columns(), vec![1, 2, 3]);
        let qa = QuerySpec::select(TableId(0), vec![])
            .filter(2, Predicate::lt(5))
            .aggregate_sum(0, 2);
        assert_eq!(qa.accessed_columns(), vec![2, 0]);
    }

    #[test]
    fn result_flat_roundtrip() {
        let mut r = QueryResult::new(vec!["a".into(), "b".into()]);
        r.push_row(&[1, 2]);
        r.push_row(&[3, 4]);
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.width(), 2);
        assert_eq!(r.row(1), &[3, 4]);
        assert_eq!(r.rows().count(), 2);
        assert_eq!(r.flat(), &[1, 2, 3, 4]);
    }

    #[test]
    fn sorted_rows_canonicalizes() {
        let a = QueryResult::from_flat(vec!["x".into()], vec![3, 1, 2]);
        let b = QueryResult::from_flat(vec!["x".into()], vec![1, 2, 3]);
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }

    #[test]
    #[should_panic(expected = "rows*width")]
    fn from_flat_validates_shape() {
        QueryResult::from_flat(vec!["a".into(), "b".into()], vec![1, 2, 3]);
    }

    #[test]
    fn modeled_total_adds_io() {
        let s = QueryStats {
            strategy: Some(Strategy::LmParallel),
            wall: Duration::from_millis(10),
            io: IoStats {
                block_reads: 2,
                seeks: 1,
            },
            ..QueryStats::default()
        };
        // 10ms wall + (2500 + 2000)us = 14.5ms
        assert!((s.modeled_total_ms(2500.0, 1000.0) - 14.5).abs() < 1e-9);
    }

    #[test]
    fn exec_stats_merge_is_associative() {
        let frag = |wall_ms, reads, matched, dec| QueryStats {
            strategy: Some(Strategy::EmPipelined),
            wall: Duration::from_millis(wall_ms),
            io: IoStats {
                block_reads: reads,
                seeks: 1,
            },
            rows_out: matched,
            positions_matched: matched,
            decompressed_fetch: dec,
            code_path_ops: matched * 2,
            steals: 1,
            builds: 1,
            build_reuses: 2,
            zone_skips: 1,
        };
        let (a, b, c) = (
            frag(5, 2, 10, false),
            frag(9, 3, 20, true),
            frag(1, 1, 5, false),
        );

        // (a + b) + c
        let mut left = QueryStats::zero(Strategy::EmPipelined);
        left += a.clone();
        left += b.clone();
        left += c.clone();
        // a + (b + c)
        let mut right = b;
        right += c;
        let mut right2 = a;
        right2 += right;

        for s in [&left, &right2] {
            assert_eq!(s.wall, Duration::from_millis(9), "max, not sum");
            assert_eq!(s.io.block_reads, 6);
            assert_eq!(s.io.seeks, 3);
            assert_eq!(s.rows_out, 35);
            assert_eq!(s.positions_matched, 35);
            assert!(s.decompressed_fetch);
            assert_eq!(s.code_path_ops, 70, "code-op counters sum");
            assert_eq!(s.steals, 3, "steal counters sum");
            assert_eq!(s.builds, 3);
            assert_eq!(s.build_reuses, 6);
            assert_eq!(s.zone_skips, 3);
        }
    }

    #[test]
    fn exec_stats_zero_is_identity() {
        let mut z = QueryStats::zero(Strategy::LmParallel);
        let s = QueryStats {
            strategy: Some(Strategy::LmParallel),
            wall: Duration::from_millis(3),
            io: IoStats {
                block_reads: 4,
                seeks: 2,
            },
            rows_out: 7,
            positions_matched: 8,
            decompressed_fetch: true,
            code_path_ops: 11,
            steals: 2,
            builds: 1,
            build_reuses: 0,
            zone_skips: 5,
        };
        z += s.clone();
        assert_eq!(z.wall, s.wall);
        assert_eq!(z.io, s.io);
        assert_eq!(z.rows_out, s.rows_out);
        assert_eq!(z.positions_matched, s.positions_matched);
        assert_eq!(z.decompressed_fetch, s.decompressed_fetch);
        assert_eq!(z.code_path_ops, s.code_path_ops);
        assert_eq!(z.steals, s.steals);
        assert_eq!(z.builds, s.builds);
        assert_eq!(z.zone_skips, s.zone_skips);
    }

    #[test]
    fn untagged_stats_adopt_the_tagged_side_strategy() {
        // A write-path or tree fragment (strategy None) merged into a
        // tagged scan's stats keeps the tag, whichever side it lands on.
        let mut tagged = QueryStats::zero(Strategy::LmParallel);
        tagged += QueryStats::default();
        assert_eq!(tagged.strategy, Some(Strategy::LmParallel));
        let mut untagged = QueryStats::default();
        untagged += QueryStats::zero(Strategy::EmParallel);
        assert_eq!(untagged.strategy, Some(Strategy::EmParallel));
    }

    #[test]
    fn tree_aggregate_validates_output_indices() {
        let edge = JoinSpec {
            left: TableId(0),
            right: TableId(1),
            left_key: 0,
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        };
        let ok = JoinTreeSpec::new(vec![edge.clone()]).aggregate_sum(0, 1);
        assert!(ok.validate().is_ok());
        let bad = JoinTreeSpec::new(vec![edge]).aggregate_sum(0, 2);
        let err = bad.validate().unwrap_err().to_string();
        assert!(err.contains("outside"), "{err}");
    }
}
