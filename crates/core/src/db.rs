//! The `Database` facade: storage + executor + planner + joins.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use matstrat_common::{Error, PosRange, Predicate, Result, TableId, Value};
use matstrat_model::plans::JoinTreeCost;
use matstrat_model::{Constants, CostBreakdown};
use matstrat_storage::{CompactorHandle, ProjectionSpec, Store};

use crate::exec::{default_parallelism, execute_with_options, filter_window, ExecOptions};
use crate::ops::join_tree::hash_join_tree_with_options;
use crate::planner::{JoinTreeChoice, PlanChoice, Planner};
use crate::query::{QueryResult, QueryStats, Statement};
use crate::{InnerStrategy, Strategy};

/// The planner's answer for one [`Statement`]: which executable shape it
/// takes, with every estimate and rejected alternative behind the pick.
/// Produced by [`Database::plan`], consumed by
/// [`Database::execute_planned`].
#[derive(Debug, Clone)]
pub enum QueryPlan {
    /// A materialization-strategy choice for a single-table scan.
    Scan(PlanChoice),
    /// Edge order, per-edge inner strategies, and bushy flags for a join
    /// tree (a single join is a one-edge tree).
    Tree(JoinTreeChoice),
    /// Writes execute as themselves; there is nothing to choose.
    Write,
}

impl QueryPlan {
    /// One-line EXPLAIN-style summary.
    pub fn describe(&self) -> String {
        match self {
            QueryPlan::Scan(c) => c.describe(),
            QueryPlan::Tree(c) => c.describe(),
            QueryPlan::Write => "write: logged to the WAL, applied to the delta store".into(),
        }
    }

    /// A hand-built scan plan that pins `strategy` (no model pricing) —
    /// for benchmarks and differential tests that sweep strategies
    /// explicitly instead of asking the planner.
    pub fn forced_scan(strategy: Strategy) -> QueryPlan {
        QueryPlan::Scan(PlanChoice {
            strategy,
            estimate: None,
            alternatives: Vec::new(),
            reason: format!("forced {strategy}"),
        })
    }

    /// A hand-built left-deep tree plan that pins the edge order and the
    /// per-edge inner strategies (no model pricing, no bushy subtrees).
    pub fn forced_tree(order: Vec<usize>, inners: Vec<InnerStrategy>) -> QueryPlan {
        QueryPlan::Tree(JoinTreeChoice {
            order,
            inners,
            bushy: Vec::new(),
            estimate: CostBreakdown::default(),
            tree: JoinTreeCost::default(),
            edge_alternatives: Vec::new(),
            candidates: Vec::new(),
            reason: "forced inner strategies".into(),
        })
    }
}

/// Everything one executed [`Statement`] produced: the rows, one unified
/// [`QueryStats`], and the [`QueryPlan`] that ran. A write's `rows` is a
/// single `rows_affected` cell.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result rows (byte-identical at any worker count).
    pub rows: QueryResult,
    /// Unified measurements: wall, exact per-query I/O, matched/output
    /// cardinalities, steal/build/zone-skip counters.
    pub stats: QueryStats,
    /// The plan that produced the rows.
    pub choice: QueryPlan,
}

impl QueryOutcome {
    /// The materialized result, whatever the statement shape (a one-cell
    /// `rows_affected` table for writes).
    pub fn result(&self) -> &QueryResult {
        &self.rows
    }

    /// Rows a write affected; `None` for read outcomes.
    pub fn rows_affected(&self) -> Option<u64> {
        match self.choice {
            QueryPlan::Write => Some(self.stats.rows_out),
            _ => None,
        }
    }

    /// This query's simulated-disk block reads — per-thread harvest, so
    /// exact under concurrency (write acknowledgements carry 0).
    pub fn block_reads(&self) -> u64 {
        self.stats.io.block_reads
    }
}

/// A column-store database with pluggable materialization strategies.
///
/// ```
/// use matstrat_common::Predicate;
/// use matstrat_core::{Database, QuerySpec, Statement};
/// use matstrat_storage::{EncodingKind, ProjectionSpec, SortOrder};
///
/// let db = Database::in_memory();
/// let a: Vec<i64> = (0..1000).map(|i| i / 100).collect();
/// let b: Vec<i64> = (0..1000).map(|i| i % 7).collect();
/// let spec = ProjectionSpec::new("demo")
///     .column("a", EncodingKind::Rle, SortOrder::Primary)
///     .column("b", EncodingKind::Plain, SortOrder::None);
/// let t = db.load_projection(&spec, &[&a, &b]).unwrap();
///
/// let stmt = Statement::Select(
///     QuerySpec::select(t, vec![0, 1])
///         .filter(0, Predicate::lt(5))
///         .filter(1, Predicate::lt(3)),
/// );
/// let out = db.execute(&stmt).unwrap();
/// assert_eq!(out.rows.num_rows(), 216);
/// assert!(out.stats.strategy.is_some(), "the plan picked a strategy");
/// println!("{}", out.choice.describe());
/// ```
pub struct Database {
    store: Store,
    /// Priced at this database's worker count, which it also holds:
    /// [`Database::execute`] runs at [`Planner::parallelism`]
    /// ([`Database::execute_planned`] takes explicit [`ExecOptions`]
    /// instead).
    planner: Planner,
}

impl Database {
    /// An in-memory database.
    pub fn in_memory() -> Database {
        Database::with_store(Store::in_memory())
    }

    /// A database persisted under `dir` (catalog and data survive reopen).
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Ok(Database::with_store(Store::open_dir(dir)?))
    }

    /// Wrap an existing store. The executor worker count starts at the
    /// `MATSTRAT_THREADS` default; see [`Database::set_parallelism`].
    pub fn with_store(store: Store) -> Database {
        Database::priced_at(store, default_parallelism())
    }

    /// Wrap `store` with the planner priced at `workers` (clamped to
    /// ≥ 1).
    pub(crate) fn priced_at(store: Store, workers: usize) -> Database {
        Database {
            store,
            planner: Planner::with_parallelism(Constants::host_defaults(), workers),
        }
    }

    /// Replace the planner's model constants (e.g. after calibration).
    pub fn set_model_constants(&mut self, constants: Constants) {
        self.planner = Planner::with_parallelism(constants, self.parallelism());
    }

    /// Set the executor worker count for every subsequent query (clamped
    /// to ≥ 1) and re-price this database's planner accordingly. Results
    /// are identical at any setting; only wall time changes. The store,
    /// which other databases and servers may share, is left alone: its
    /// buffer pool keeps the stripe count it was built with
    /// (`MATSTRAT_POOL_SHARDS`, or [`Store::with_pool`]).
    pub fn set_parallelism(&mut self, workers: usize) {
        let constants = *self.planner.model().constants();
        self.planner = Planner::with_parallelism(constants, workers);
    }

    /// The executor worker count queries run with.
    pub fn parallelism(&self) -> usize {
        self.planner.parallelism()
    }

    /// The executor options [`Database::execute`] uses: defaults plus
    /// this database's parallelism.
    pub fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            parallelism: self.parallelism(),
            ..ExecOptions::default()
        }
    }

    /// The underlying store (buffer pool, I/O meter, catalog).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The planner.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Load a projection from column slices.
    pub fn load_projection(&self, spec: &ProjectionSpec, columns: &[&[Value]]) -> Result<TableId> {
        self.store.load_projection(spec, columns)
    }

    /// Insert rows (row-major, projection arity) into `table`: logged to
    /// the WAL, then applied to the in-memory delta. Durable when this
    /// returns; visible to every subsequent query on any session.
    /// Returns the position stamp of the first inserted row.
    pub fn insert(&self, table: TableId, rows: &[Vec<Value>]) -> Result<u64> {
        self.store.insert_rows(table, rows)
    }

    /// Delete every row of `table` matching all of `filters` (an empty
    /// list deletes every row). Returns how many rows were newly marked
    /// deleted. See [`delete_where`].
    pub fn delete_where(&self, table: TableId, filters: &[(usize, Predicate)]) -> Result<u64> {
        delete_where(&self.store, table, filters)
    }

    /// Fold `table`'s delta into fresh immutable blocks (no-op on a
    /// clean table). Queries racing this stay byte-identical.
    pub fn compact(&self, table: TableId) -> Result<bool> {
        self.store.compact(table)
    }

    /// [`Database::compact`] for every dirty table; returns how many
    /// were folded.
    pub fn compact_all(&self) -> Result<usize> {
        self.store.compact_all()
    }

    /// Start a background compactor that folds dirty tables every
    /// `interval`. Stops when the handle drops.
    pub fn spawn_compactor(&self, interval: std::time::Duration) -> CompactorHandle {
        self.store.spawn_compactor(interval)
    }

    // ------------------------------------------------------------------
    // The unified entry point: Statement → QueryPlan → QueryOutcome.
    // ------------------------------------------------------------------

    /// Plan one statement without running it: `Select` → a
    /// materialization-strategy choice, `JoinTree` → edge order +
    /// per-edge inner strategies + bushy flags (a plain join is a
    /// one-edge tree), writes → [`QueryPlan::Write`].
    pub fn plan(&self, stmt: &Statement) -> Result<QueryPlan> {
        Ok(match stmt {
            Statement::Select(q) => QueryPlan::Scan(self.planner.choose(&self.store, q)?),
            Statement::JoinTree(spec) => {
                QueryPlan::Tree(self.planner.choose_join_tree(&self.store, spec)?)
            }
            Statement::Insert { .. } | Statement::Delete { .. } => QueryPlan::Write,
        })
    }

    /// Plan, then run, one statement on this database's worker count —
    /// the single entry point every query takes.
    pub fn execute(&self, stmt: &Statement) -> Result<QueryOutcome> {
        self.run_plan(stmt, self.plan(stmt)?, &self.exec_options())
    }

    /// Run a statement under an explicit — possibly hand-built — plan
    /// and executor options. Errors when the plan's shape does not match
    /// the statement's (e.g. a scan choice handed a join tree).
    pub fn execute_planned(
        &self,
        stmt: &Statement,
        plan: &QueryPlan,
        opts: &ExecOptions,
    ) -> Result<QueryOutcome> {
        self.run_plan(stmt, plan.clone(), opts)
    }

    /// The one executor dispatch: run `stmt` under `plan`, which moves
    /// into the outcome (callers that planned for this run give it up
    /// instead of cloning it).
    pub(crate) fn run_plan(
        &self,
        stmt: &Statement,
        plan: QueryPlan,
        opts: &ExecOptions,
    ) -> Result<QueryOutcome> {
        let (rows, stats) = match (stmt, &plan) {
            (Statement::Select(q), QueryPlan::Scan(choice)) => {
                execute_with_options(&self.store, q, choice.strategy, opts)?
            }
            (Statement::JoinTree(spec), QueryPlan::Tree(choice)) => {
                hash_join_tree_with_options(&self.store, spec, &choice.plan(), opts)?
            }
            (Statement::Insert { table, rows }, QueryPlan::Write) => {
                let t0 = Instant::now();
                self.store.insert_rows(*table, rows)?;
                write_result(rows.len() as u64, t0)
            }
            (Statement::Delete { table, filters }, QueryPlan::Write) => {
                let t0 = Instant::now();
                write_result(delete_where(&self.store, *table, filters)?, t0)
            }
            _ => {
                return Err(Error::invalid(
                    "plan shape does not match the statement (re-plan with Database::plan)",
                ))
            }
        };
        Ok(QueryOutcome {
            rows,
            stats,
            choice: plan,
        })
    }
}

/// A write's result: one `rows_affected` cell, and stats carrying only
/// `rows_out` and the wall time since `t0`.
fn write_result(affected: u64, t0: Instant) -> (QueryResult, QueryStats) {
    let rows = QueryResult::from_flat(vec!["rows_affected".into()], vec![affected as Value]);
    let stats = QueryStats {
        wall: t0.elapsed(),
        rows_out: affected,
        ..QueryStats::default()
    };
    (rows, stats)
}

/// Resolve every row of `table` matching all of `filters` and mark it
/// deleted (an empty list deletes every row). Returns how many rows
/// were newly marked.
///
/// Find-then-delete is epoch-guarded: positions are resolved against
/// one [`Store::scan_snapshot`] by the LM-parallel filter step, granule
/// by granule over every logical position (the file's blocks and then
/// the delta's tail blocks, reading only the file blocks whose zone map
/// admits the predicate: a range on a sorted key touches a block or
/// two) — and
/// applied with [`Store::delete_positions_at_epoch`], which skips rows
/// already deleted and refuses (and this function rescans) if a
/// compaction rewrote the position space in between. The snapshot and
/// its readers are let go before the delete is applied, so the write is
/// not copy-on-write against its own finder.
pub fn delete_where(store: &Store, table: TableId, filters: &[(usize, Predicate)]) -> Result<u64> {
    loop {
        let (proj, delta) = store.scan_snapshot(table)?;
        let epoch = proj.wal_epoch;
        let mut readers = HashMap::new();
        for (c, _) in filters {
            readers.insert(*c, store.reader_for(&proj, delta.as_ref(), *c)?);
        }
        let rows = delta.as_ref().map_or(proj.num_rows, |d| d.total_rows());
        let opts = ExecOptions::with_parallelism(1);
        let mut doomed: Vec<u64> = Vec::new();
        let mut at = 0u64;
        while at < rows {
            let window = PosRange::new(at, (at + crate::GRANULE).min(rows));
            at = window.end;
            doomed.extend(
                filter_window(&readers, filters, window, &[], &opts)?
                    .desc
                    .iter(),
            );
        }
        drop((proj, delta, readers));
        if doomed.is_empty() {
            return Ok(0);
        }
        if let Some(n) = store.delete_positions_at_epoch(table, epoch, &doomed)? {
            return Ok(n);
        }
        // A compaction swapped the table between resolve and apply;
        // the positions are stale — resolve again.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QuerySpec;
    use matstrat_storage::{EncodingKind, SortOrder};

    fn demo_db() -> (Database, TableId) {
        let db = Database::in_memory();
        let a: Vec<Value> = (0..2000).map(|i| i / 200).collect();
        let b: Vec<Value> = (0..2000).map(|i| i % 7).collect();
        let spec = ProjectionSpec::new("demo")
            .column("a", EncodingKind::Rle, SortOrder::Primary)
            .column("b", EncodingKind::Plain, SortOrder::None);
        let t = db.load_projection(&spec, &[&a, &b]).unwrap();
        (db, t)
    }

    /// Execute `q` with a pinned strategy through the unified surface.
    fn forced(db: &Database, q: &QuerySpec, s: Strategy, opts: &ExecOptions) -> QueryOutcome {
        db.execute_planned(
            &Statement::Select(q.clone()),
            &QueryPlan::forced_scan(s),
            opts,
        )
        .unwrap()
    }

    #[test]
    fn execute_forced_scan_reports_rows() {
        let (db, t) = demo_db();
        let q = QuerySpec::select(t, vec![0, 1]).filter(0, Predicate::lt(3));
        let stmt = Statement::Select(q);
        let out = db
            .execute_planned(
                &stmt,
                &QueryPlan::forced_scan(Strategy::LmParallel),
                &db.exec_options(),
            )
            .unwrap();
        assert_eq!(out.rows.num_rows(), 600);
        assert_eq!(out.stats.rows_out, 600);
        assert_eq!(out.stats.positions_matched, 600);
        assert_eq!(out.stats.strategy, Some(Strategy::LmParallel));
        match out.choice {
            QueryPlan::Scan(c) => assert_eq!(c.strategy, Strategy::LmParallel),
            other => panic!("expected a scan choice, got {other:?}"),
        }
    }

    #[test]
    fn execute_plans_and_runs() {
        let (db, t) = demo_db();
        let q = QuerySpec::select(t, vec![])
            .filter(0, Predicate::lt(5))
            .filter(1, Predicate::lt(6))
            .aggregate_sum(0, 1);
        let out = db.execute(&Statement::Select(q)).unwrap();
        match &out.choice {
            QueryPlan::Scan(choice) => assert!(choice.strategy.is_late()),
            other => panic!("expected a scan choice, got {other:?}"),
        }
        assert_eq!(out.rows.num_rows(), 5);
    }

    #[test]
    fn execute_writes_report_rows_affected() {
        let (db, t) = demo_db();
        let insert = Statement::Insert {
            table: t,
            rows: vec![vec![99, 1], vec![99, 2]],
        };
        assert!(matches!(db.plan(&insert).unwrap(), QueryPlan::Write));
        let out = db.execute(&insert).unwrap();
        assert_eq!(out.rows.column_names, ["rows_affected"]);
        assert_eq!(out.rows.flat(), &[2]);
        assert_eq!(out.stats.rows_out, 2);
        let delete = Statement::Delete {
            table: t,
            filters: vec![(0, Predicate::eq(99))],
        };
        let out = db.execute(&delete).unwrap();
        assert_eq!(out.rows.flat(), &[2]);
        let q = QuerySpec::select(t, vec![0]).filter(0, Predicate::eq(99));
        assert_eq!(
            db.execute(&Statement::Select(q)).unwrap().rows.num_rows(),
            0
        );
    }

    #[test]
    fn execute_planned_rejects_mismatched_shapes() {
        let (db, t) = demo_db();
        let q = QuerySpec::select(t, vec![0]);
        let err = db
            .execute_planned(&Statement::Select(q), &QueryPlan::Write, &db.exec_options())
            .unwrap_err();
        assert!(err.to_string().contains("plan shape"), "{err}");
    }

    #[test]
    fn parallelism_knob_keeps_results_identical() {
        let (mut db, t) = demo_db();
        let q = QuerySpec::select(t, vec![0, 1]).filter(1, Predicate::lt(4));
        // Small granule so 2000 rows actually split across workers.
        let opts = |workers| ExecOptions {
            granule: 128,
            parallelism: workers,
            ..ExecOptions::default()
        };
        let serial = forced(&db, &q, Strategy::LmParallel, &opts(1));
        for workers in [2, 3, 8] {
            let par = forced(&db, &q, Strategy::LmParallel, &opts(workers));
            assert_eq!(
                par.rows.flat(),
                serial.rows.flat(),
                "byte-identical at {workers}"
            );
            assert_eq!(par.stats.positions_matched, serial.stats.positions_matched);
            assert_eq!(par.stats.rows_out, serial.stats.rows_out);
        }
        // The database-level knob feeds execute() and the planner.
        db.set_parallelism(4);
        assert_eq!(db.parallelism(), 4);
        assert_eq!(db.exec_options().parallelism, 4);
        assert_eq!(db.planner().parallelism(), 4);
        let r = forced(&db, &q, Strategy::EmPipelined, &db.exec_options());
        db.set_parallelism(1);
        assert_eq!(
            r.rows.flat(),
            forced(&db, &q, Strategy::EmPipelined, &db.exec_options())
                .rows
                .flat()
        );
    }

    #[test]
    fn set_parallelism_zero_clamps_to_one_worker() {
        let (mut db, t) = demo_db();
        let q = QuerySpec::select(t, vec![0, 1]).filter(1, Predicate::lt(4));
        let expect = forced(&db, &q, Strategy::LmParallel, &db.exec_options());
        db.set_parallelism(0);
        assert_eq!(db.parallelism(), 1, "knob clamps to ≥ 1");
        assert_eq!(db.exec_options().parallelism, 1);
        assert_eq!(db.planner().parallelism(), 1);
        // And the clamped executor still answers correctly.
        let got = forced(&db, &q, Strategy::LmParallel, &db.exec_options());
        assert_eq!(got.rows.flat(), expect.rows.flat());
    }

    #[test]
    fn set_parallelism_never_restripes_a_shared_store() {
        let (seed, t) = demo_db();
        let store = seed.store().clone();
        let (mut a, b) = (
            Database::with_store(store.clone()),
            Database::with_store(store.clone()),
        );
        let q = QuerySpec::select(t, vec![0, 1]).filter(1, Predicate::lt(4));
        let run = |db: &Database| forced(db, &q, Strategy::LmParallel, &db.exec_options()).rows;
        let warm = (run(&a), run(&b));
        let shards = store.pool().num_shards();
        let before = store.pool().stats();
        // One handle's worker count re-prices its own planner only.
        a.set_parallelism(shards + 3);
        assert_eq!(a.planner().parallelism(), shards + 3);
        assert_eq!(store.pool().num_shards(), shards, "stripes untouched");
        assert_eq!(store.pool().stats(), before, "counters untouched");
        // Both handles still return the same bytes, and a warm rerun
        // is served from the pool without a miss.
        let (wide, other) = (run(&a), run(&b));
        assert_eq!(wide.flat(), warm.0.flat());
        assert_eq!(other.flat(), warm.1.flat());
        assert_eq!(wide.flat(), other.flat());
        assert_eq!(store.pool().stats().misses, before.misses);
    }

    #[test]
    fn set_model_constants_prices_as_a_planner_on_those_constants() {
        // A bit-vector filter under LM-parallel ANDs bit-strings, whose
        // price depends on the word size: 32 bits in the paper's
        // constants, 64 in the host defaults a database starts with.
        let mut db = Database::in_memory();
        let a: Vec<Value> = (0..2000).map(|i| i / 200).collect();
        let b: Vec<Value> = (0..2000).map(|i| i % 7).collect();
        let spec = ProjectionSpec::new("bits")
            .column("a", EncodingKind::Rle, SortOrder::Primary)
            .column("b", EncodingKind::BitVec, SortOrder::None);
        let t = db.load_projection(&spec, &[&a, &b]).unwrap();
        let q = QuerySpec::select(t, vec![0, 1])
            .filter(0, Predicate::lt(5))
            .filter(1, Predicate::lt(4));
        let stmt = Statement::Select(q.clone());
        let priced = |db: &Database| match db.plan(&stmt).unwrap() {
            QueryPlan::Scan(c) => c.alternatives,
            other => panic!("expected a scan choice, got {other:?}"),
        };
        let store = db.store().clone();
        let on = |constants, workers| {
            Planner::with_parallelism(constants, workers)
                .choose(&store, &q)
                .unwrap()
                .alternatives
        };
        let host = priced(&db);
        let before = db.execute(&stmt).unwrap().rows;
        db.set_model_constants(Constants::paper());
        assert_eq!(db.planner().model().constants(), &Constants::paper());
        assert_eq!(priced(&db), on(Constants::paper(), db.parallelism()));
        assert_ne!(priced(&db), host, "the word size moves the price");
        // A later worker count keeps the constants.
        db.set_parallelism(3);
        assert_eq!(db.planner().model().constants(), &Constants::paper());
        assert_eq!(priced(&db), on(Constants::paper(), 3));
        // The answer is the same bytes.
        assert_eq!(db.execute(&stmt).unwrap().rows.flat(), before.flat());
    }

    #[test]
    fn persistent_database_reopens() {
        let dir = std::env::temp_dir().join(format!("matstrat-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a: Vec<Value> = (0..100).collect();
        {
            let db = Database::open(&dir).unwrap();
            let spec =
                ProjectionSpec::new("t").column("a", EncodingKind::Plain, SortOrder::Primary);
            db.load_projection(&spec, &[&a]).unwrap();
        }
        let db = Database::open(&dir).unwrap();
        let t = db.store().projection_by_name("t").unwrap().id;
        let q = QuerySpec::select(t, vec![0]).filter(0, Predicate::ge(90));
        let r = forced(&db, &q, Strategy::EmParallel, &db.exec_options());
        assert_eq!(r.rows.num_rows(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
