//! The query service: N concurrent sessions over one shared store.
//!
//! A [`Server`] wraps one [`Database`] — the same planner and executor
//! dispatch [`Database::execute`] uses, priced at the server's worker
//! budget — and admits statements from any number of [`Session`]s onto
//! it, with three properties the concurrency battery
//! (`tests/concurrent_diff.rs`) proves:
//!
//! * **Admission control** — at most [`ServerConfig::max_concurrent`]
//!   reads execute at once; excess callers block (a condvar queue),
//!   bounding memory and thread fan-out no matter how many sessions
//!   exist. Writes bypass the gate: they serialize on the store's write
//!   lock and never consume executor workers.
//! * **Fair span scheduling** — the server's
//!   [`ServerConfig::worker_budget`] threads are split over the queries
//!   active at admission time, or over the statements in service if
//!   there are more of them: `budget / max(active, serving)` each, with
//!   the remainder going one-each to the earliest-admitted slots
//!   (clamped to ≥ 1). With nothing in service beyond the active set,
//!   shares always sum to the whole budget when it covers that set —
//!   plain truncation stranded `budget % active` workers (8 over 3
//!   handed out 2 + 2 + 2). A statement is *in service* while a
//!   [`ServeGuard`] from [`Session::serve`] lives: the network frontend
//!   holds one from the moment a request line is framed until its reply
//!   is flushed, because that connection thread holds a core through
//!   compile, plan, admission wait, execution and render, not only
//!   while admitted. In-process callers take no guard, so their share
//!   counts admitted queries alone. Because every operator is
//!   byte-identical at any worker count, the share is pure scheduling:
//!   it decides wall time, never results.
//! * **Per-query isolation** — each query's
//!   [`QueryStats`](crate::QueryStats) (rows, positions, cold
//!   `block_reads`, seeks, code operations) are its own: the executor
//!   opens a [`QueryIo`](matstrat_common::QueryIo) ledger for the
//!   statement and every worker it fans out to charges that ledger and
//!   no other; the buffer pool's global
//!   [`matstrat_storage::PoolStats`] ledger stays exact because the
//!   service never touches the pool's counters, and the pool's striping
//!   is fixed when the store is built.
//!
//! Plans are priced at the **full worker budget**, not the fair share:
//! planning must be deterministic for a given store, or an interleaved
//! run could pick different strategies than a serial one and legitimately
//! read different blocks. Execution parallelism is where the share
//! lands — there, any value returns the same bytes.
//!
//! The text front-end lives in `matstrat-lang` (which depends on this
//! crate); `examples/query_service.rs` wires the two together.

use std::sync::{Arc, Condvar, Mutex, PoisonError};

use matstrat_common::Result;
use matstrat_storage::Store;

use crate::db::{Database, QueryOutcome, QueryPlan};
use crate::exec::{default_parallelism, ExecOptions};
use crate::query::Statement;

/// Admission knobs for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Queries allowed to execute simultaneously; further submissions
    /// block until a slot frees (clamped to ≥ 1).
    pub max_concurrent: usize,
    /// Total executor worker threads shared by the active queries; each
    /// query gets its [`fair_share`] at admission (clamped to ≥ 1).
    pub worker_budget: usize,
}

impl Default for ServerConfig {
    /// Four concurrent queries sharing the `MATSTRAT_THREADS` worker
    /// default.
    fn default() -> ServerConfig {
        ServerConfig {
            max_concurrent: 4,
            worker_budget: default_parallelism(),
        }
    }
}

/// Cumulative admission counters (exact: every transition happens under
/// the gate lock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries admitted so far.
    pub admitted: u64,
    /// Queries finished (successfully or not).
    pub completed: u64,
    /// Most queries ever active at once (≤ `max_concurrent`).
    pub peak_active: usize,
    /// Most queries ever blocked waiting for a slot at once.
    pub peak_queued: usize,
    /// Queries executing right now (a snapshot, not a cumulative
    /// counter): `admitted - completed` at the instant of
    /// [`Server::stats`]. Zero means the gate is idle — every
    /// admission slot has been handed back, which is what the network
    /// frontend's disconnect tests assert.
    pub active: usize,
    /// Statements in service right now (a snapshot): live
    /// [`ServeGuard`]s, admitted or not. Zero once every served
    /// statement has been answered.
    pub serving: usize,
}

#[derive(Default)]
struct GateState {
    active: usize,
    queued: usize,
    /// Live [`ServeGuard`]s.
    serving: usize,
    /// Occupied admission slots; a query claims the lowest free one, so
    /// a slot index is also the query's seniority rank among the active
    /// set — the remainder of the worker budget goes to the lowest
    /// ranks.
    slots: Vec<bool>,
    stats: ServerStats,
}

/// The worker share of the query admitted at seniority `rank` (0-based)
/// among `active` queries sharing `budget` threads: `budget / active`,
/// plus one of the `budget % active` remainder threads for the lowest
/// ranks, clamped to ≥ 1. For any `(budget, active)` the shares over
/// ranks `0..active` sum to exactly `budget` whenever `budget ≥ active`
/// (and to `active` otherwise — nobody runs with zero workers), differ
/// by at most one, and never increase with rank. The admission gate
/// passes the larger of its active and in-service counts as `active`.
pub fn fair_share(budget: usize, rank: usize, active: usize) -> usize {
    let active = active.max(1);
    (budget / active + usize::from(rank < budget % active)).max(1)
}

/// The shared query service: one [`Database`], one admission gate.
/// Create sessions with [`Server::connect`]; all of them execute against
/// the same buffer pool and worker budget.
pub struct Server {
    /// Priced at the full worker budget; execution runs at each query's
    /// fair share instead.
    db: Database,
    cfg: ServerConfig,
    gate: Mutex<GateState>,
    cv: Condvar,
}

impl Server {
    /// Serve `store` under `cfg`. The buffer pool keeps the stripe count
    /// the store was built with: striping is a throughput knob, never a
    /// correctness one, and the concurrency battery pins results across
    /// shard counts.
    pub fn new(store: Store, cfg: ServerConfig) -> Arc<Server> {
        let cfg = ServerConfig {
            max_concurrent: cfg.max_concurrent.max(1),
            worker_budget: cfg.worker_budget.max(1),
        };
        Arc::new(Server {
            // Deterministic planning: priced at the full budget (see the
            // module docs), never at a transient fair share.
            db: Database::priced_at(store, cfg.worker_budget),
            cfg,
            gate: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        })
    }

    /// An in-memory server with the given knobs.
    pub fn in_memory(cfg: ServerConfig) -> Arc<Server> {
        Server::new(Store::in_memory(), cfg)
    }

    /// Open a session. Sessions are cheap handles; drop them freely.
    pub fn connect(self: &Arc<Server>) -> Session {
        Session {
            server: Arc::clone(self),
        }
    }

    /// The shared store (catalog, buffer pool, meter).
    pub fn store(&self) -> &Store {
        self.db.store()
    }

    /// The admission knobs the server runs with.
    pub fn config(&self) -> ServerConfig {
        self.cfg
    }

    /// Snapshot the admission counters (plus the live `active` count,
    /// read under the same gate lock).
    pub fn stats(&self) -> ServerStats {
        let g = self.gate.lock().expect("gate poisoned");
        ServerStats {
            active: g.active,
            serving: g.serving,
            ..g.stats
        }
    }

    /// Block until a slot frees, then return this query's fair worker
    /// share. The share is computed from the active count *including*
    /// this query, or from the in-service count if that is larger,
    /// under the same lock that admitted it: a statement its connection
    /// thread is still compiling or rendering holds a core as surely as
    /// an admitted one.
    fn admit(&self) -> AdmitGuard<'_> {
        let mut g = self.gate.lock().expect("gate poisoned");
        g.queued += 1;
        g.stats.peak_queued = g.stats.peak_queued.max(g.queued);
        while g.active >= self.cfg.max_concurrent {
            g = self.cv.wait(g).expect("gate poisoned");
        }
        g.queued -= 1;
        g.active += 1;
        g.stats.admitted += 1;
        g.stats.peak_active = g.stats.peak_active.max(g.active);
        // Claim the lowest free slot. Everything below it is occupied,
        // so the slot index is this query's seniority rank.
        let slot = match g.slots.iter().position(|occupied| !occupied) {
            Some(s) => s,
            None => {
                g.slots.push(false);
                g.slots.len() - 1
            }
        };
        g.slots[slot] = true;
        let share = fair_share(self.cfg.worker_budget, slot, g.active.max(g.serving));
        drop(g);
        AdmitGuard {
            server: self,
            share,
            slot,
        }
    }
}

/// Releases the admission slot on drop — error paths included.
struct AdmitGuard<'a> {
    server: &'a Server,
    share: usize,
    slot: usize,
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        let mut g = self.server.gate.lock().expect("gate poisoned");
        g.active -= 1;
        g.slots[self.slot] = false;
        g.stats.completed += 1;
        drop(g);
        self.server.cv.notify_all();
    }
}

/// Counts one statement in service on its [`Server`] until dropped —
/// unwinding included. Taken by [`Session::serve`].
pub struct ServeGuard<'a> {
    server: &'a Server,
}

impl Drop for ServeGuard<'_> {
    fn drop(&mut self) {
        // Never panic here: this may run while the statement unwinds.
        // The count is one field, valid after every update.
        self.server
            .gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .serving -= 1;
    }
}

/// A client handle on a [`Server`]. `run` blocks while the server is at
/// its concurrency bound; use one session per client thread.
pub struct Session {
    server: Arc<Server>,
}

impl Session {
    /// The server this session talks to.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// EXPLAIN: plan the statement (at the full worker budget, like
    /// `run`) and describe the choice without executing or taking a slot.
    pub fn explain(&self, stmt: &Statement) -> Result<String> {
        Ok(self.server.db.plan(stmt)?.describe())
    }

    /// Count one statement in service until the guard drops. A caller
    /// that spends its own thread on a statement outside [`Session::run`]
    /// (compiling its text, rendering and sending its reply) holds the
    /// guard across all of it, so concurrent admissions share the worker
    /// budget with it; writes count too, since they occupy their thread.
    pub fn serve(&self) -> ServeGuard<'_> {
        self.server.gate.lock().expect("gate poisoned").serving += 1;
        ServeGuard {
            server: &self.server,
        }
    }

    /// Plan and execute one statement under admission control — the
    /// served twin of [`Database::execute`]: plans price at the **full**
    /// worker budget (deterministic for a given store), reads execute
    /// at this query's fair share, `budget / max(active, serving)` (see
    /// [`Session::serve`]; without a guard anywhere, the active count
    /// alone). Writes bypass the admission gate: they serialize on the
    /// store's write lock and never consume executor workers.
    pub fn run(&self, stmt: &Statement) -> Result<QueryOutcome> {
        let srv = &self.server;
        let plan = srv.db.plan(stmt)?;
        let permit = match plan {
            QueryPlan::Write => None,
            QueryPlan::Scan(_) | QueryPlan::Tree(_) => Some(srv.admit()),
        };
        let opts = ExecOptions::with_parallelism(permit.as_ref().map_or(1, |p| p.share));
        srv.db.run_plan(stmt, plan, &opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_with_options;
    use crate::query::{JoinTreeSpec, QuerySpec};
    use matstrat_common::{Predicate, Value};
    use matstrat_storage::{EncodingKind, ProjectionSpec, SortOrder};

    fn served_store() -> Store {
        let store = Store::in_memory();
        let a: Vec<Value> = (0..3000).map(|i| i / 300).collect();
        let b: Vec<Value> = (0..3000).map(|i| i % 7).collect();
        let spec = ProjectionSpec::new("t")
            .column("a", EncodingKind::Rle, SortOrder::Primary)
            .column("b", EncodingKind::Plain, SortOrder::None);
        store.load_projection(&spec, &[&a, &b]).unwrap();
        store
    }

    #[test]
    fn sessions_share_one_store_and_results_match_the_database_path() {
        let store = served_store();
        let t = store.projection_by_name("t").unwrap().id;
        let q = QuerySpec::select(t, vec![0, 1]).filter(1, Predicate::lt(3));
        let (oracle, _) = execute_with_options(
            &store,
            &q,
            crate::Strategy::LmParallel,
            &ExecOptions::default(),
        )
        .unwrap();

        let server = Server::new(store, ServerConfig::default());
        let s1 = server.connect();
        let s2 = server.connect();
        let plan = s1.explain(&Statement::Select(q.clone())).unwrap();
        assert!(plan.starts_with("scan via "), "explain text: {plan}");
        let r1 = s1.run(&Statement::Select(q.clone())).unwrap();
        let r2 = s2.run(&Statement::Select(q)).unwrap();
        assert_eq!(r1.result().flat(), oracle.flat());
        assert_eq!(r2.result().flat(), oracle.flat());
        let stats = server.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn admission_gate_bounds_active_queries_and_counts_peaks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let server = Server::new(
            served_store(),
            ServerConfig {
                max_concurrent: 2,
                worker_budget: 4,
            },
        );
        let t = server.store().projection_by_name("t").unwrap().id;
        let q = QuerySpec::select(t, vec![0, 1]).filter(1, Predicate::ge(0));
        let in_flight = AtomicUsize::new(0);
        let over_bound = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                let server = &server;
                let q = &q;
                let in_flight = &in_flight;
                let over_bound = &over_bound;
                s.spawn(move || {
                    let session = server.connect();
                    // The gate admits before execution; sample the
                    // active count from inside a running query.
                    let _ = session.run(&Statement::Select(q.clone())).unwrap();
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    if now > 2 {
                        over_bound.fetch_add(1, Ordering::SeqCst);
                    }
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.admitted, 6);
        assert_eq!(stats.completed, 6);
        assert!(stats.peak_active <= 2, "admission bound held");
        assert!(stats.peak_active >= 1);
    }

    #[test]
    fn fair_share_never_exceeds_budget_or_drops_below_one() {
        // Budget 4 split across up to 8 active queries: the share is
        // computed under the gate lock, so active ∈ [1, max_concurrent]
        // and share ∈ [1, budget].
        let server = Server::new(
            served_store(),
            ServerConfig {
                max_concurrent: 8,
                worker_budget: 4,
            },
        );
        let permit = server.admit();
        assert_eq!(permit.share, 4, "sole query gets the whole budget");
        let second = server.admit();
        assert_eq!(second.share, 2, "two active: half each");
        drop(permit);
        drop(second);
        let zero_knobs = Server::in_memory(ServerConfig {
            max_concurrent: 0,
            worker_budget: 0,
        });
        assert_eq!(zero_knobs.config().max_concurrent, 1, "clamped");
        assert_eq!(zero_knobs.config().worker_budget, 1, "clamped");
        let permit = zero_knobs.admit();
        assert_eq!(permit.share, 1);
    }

    fn two_worker_server() -> Arc<Server> {
        Server::new(
            served_store(),
            ServerConfig {
                max_concurrent: 8,
                worker_budget: 2,
            },
        )
    }

    #[test]
    fn the_share_counts_statements_in_service() {
        let server = two_worker_server();
        let (mine, other) = (server.connect(), server.connect());
        let _serving = mine.serve();
        let other_serving = other.serve();
        assert_eq!(server.stats().serving, 2);
        // The other statement is compiling or rendering, not admitted:
        // it still holds a core, so this one gets the other.
        let permit = server.admit();
        assert_eq!(permit.share, 1, "two in service over two workers");
        drop(permit);
        drop(other_serving);
        assert_eq!(server.stats().serving, 1);
        assert_eq!(server.admit().share, 2, "alone in service again");
    }

    #[test]
    fn a_serve_guard_is_given_back_while_its_statement_unwinds() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let server = two_worker_server();
        let session = server.connect();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _serving = session.serve();
            panic!("a served statement panics");
        }));
        assert!(unwound.is_err());
        assert_eq!(server.stats().serving, 0);
        assert_eq!(server.admit().share, 2);
    }

    #[test]
    fn fair_shares_spend_the_whole_budget_without_stranding_workers() {
        // The remainder bug: 8 workers over 3 active used to hand out
        // 2 + 2 + 2, stranding two. Earliest-admitted ranks soak up the
        // remainder instead.
        assert_eq!(
            (0..3).map(|r| fair_share(8, r, 3)).collect::<Vec<_>>(),
            vec![3, 3, 2]
        );
        for budget in 1..=9usize {
            for active in 1..=8usize {
                let shares: Vec<usize> =
                    (0..active).map(|r| fair_share(budget, r, active)).collect();
                let share_max = *shares.iter().max().unwrap();
                // The sum identity: everything the budget covers is
                // handed out (never more than active × the top share),
                // and when the budget cannot cover the active set every
                // query still gets its floor of one.
                assert_eq!(
                    shares.iter().sum::<usize>(),
                    budget.max(active).min(active * share_max),
                    "budget {budget} active {active}: {shares:?}"
                );
                // Shares are within one of each other, never ascending.
                assert!(shares.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
            }
        }
    }

    /// The deterministic face of [`QueryStats`]: everything except
    /// wall time (timing) and steals (scheduling), which legitimately
    /// vary run to run.
    fn deterministic_stats(s: &crate::query::QueryStats) -> impl PartialEq + std::fmt::Debug {
        (
            s.strategy,
            s.io,
            s.rows_out,
            s.positions_matched,
            s.decompressed_fetch,
            s.code_path_ops,
            s.builds,
            s.build_reuses,
            s.zone_skips,
        )
    }

    /// A scan table and a fact/dim pair, identical on every call — one
    /// call per twin.
    fn fact_dim_store() -> Store {
        let store = Store::in_memory();
        let n = 4000i64;
        let k: Vec<Value> = (0..n).collect();
        let v: Vec<Value> = (0..n).map(|i| (i * 7919) % 101).collect();
        let fk: Vec<Value> = (0..n).map(|i| (i * 31) % 128).collect();
        let spec = ProjectionSpec::new("fact")
            .column("k", EncodingKind::Plain, SortOrder::Primary)
            .column("v", EncodingKind::Plain, SortOrder::None)
            .column("fk", EncodingKind::Plain, SortOrder::None);
        store.load_projection(&spec, &[&k, &v, &fk]).unwrap();
        let dk: Vec<Value> = (0..128).collect();
        let x: Vec<Value> = (0..128).map(|i| i * 3 + 1).collect();
        let spec = ProjectionSpec::new("dim")
            .column("dk", EncodingKind::Plain, SortOrder::Primary)
            .column("x", EncodingKind::Plain, SortOrder::None);
        store.load_projection(&spec, &[&dk, &x]).unwrap();
        store
    }

    #[test]
    fn served_door_equals_in_process_door() {
        const WORKERS: usize = 3;
        let server = Server::new(
            fact_dim_store(),
            ServerConfig {
                max_concurrent: 2,
                worker_budget: WORKERS,
            },
        );
        let mut db = Database::with_store(fact_dim_store());
        db.set_parallelism(WORKERS);
        let session = server.connect();
        let fact = server.store().projection_by_name("fact").unwrap().id;
        let dim = server.store().projection_by_name("dim").unwrap().id;
        assert_eq!(db.store().projection_by_name("fact").unwrap().id, fact);
        let tree = JoinTreeSpec::new(vec![crate::JoinSpec {
            left: fact,
            right: dim,
            left_key: 2,
            right_key: 0,
            left_filter: Some((1, Predicate::lt(60))),
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        }]);
        let reads = [
            Statement::Select(QuerySpec::select(fact, vec![0, 1]).filter(1, Predicate::lt(40))),
            Statement::JoinTree(tree),
        ];
        let writes = [
            Statement::Insert {
                table: fact,
                rows: vec![vec![9000, 5, 7], vec![9001, 50, 8]],
            },
            Statement::Delete {
                table: fact,
                filters: vec![(1, Predicate::lt(10))],
            },
        ];
        // Reads first on clean tables, then the writes, then the reads
        // again over the deltas the writes left behind.
        let stmts = reads.iter().chain(&writes).chain(&reads);
        let mut admitted = 0;
        for stmt in stmts {
            // Each side cold, so the per-query I/O must agree exactly.
            server.store().cold_reset();
            let served = session.run(stmt).unwrap();
            db.store().cold_reset();
            let local = db.execute(stmt).unwrap();
            assert_eq!(served.rows, local.rows, "{stmt:?}");
            assert_eq!(
                deterministic_stats(&served.stats),
                deterministic_stats(&local.stats),
                "{stmt:?}"
            );
            assert_eq!(served.choice.describe(), local.choice.describe());
            if !matches!(stmt, Statement::Insert { .. } | Statement::Delete { .. }) {
                admitted += 1;
            }
            // Writes bypass admission: the counter moves for reads only.
            assert_eq!(server.stats().admitted, admitted, "{stmt:?}");
        }
        let stats = server.stats();
        assert_eq!(stats.admitted, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.active, 0, "every slot handed back");
    }

    #[test]
    fn admission_ranks_reuse_freed_slots() {
        let server = Server::new(
            served_store(),
            ServerConfig {
                max_concurrent: 8,
                worker_budget: 7,
            },
        );
        let first = server.admit(); // slot 0, alone: whole budget
        assert_eq!(first.share, 7);
        let second = server.admit(); // slot 1 of 2: 7/2 = 3, no remainder
        assert_eq!(second.share, 3);
        drop(first);
        // Slot 0 is free again; the next admission takes it and, as the
        // senior of two active queries, gets the remainder thread.
        let third = server.admit();
        assert_eq!(third.slot, 0);
        assert_eq!(third.share, 4);
        drop(second);
        drop(third);
        assert_eq!(server.stats().completed, 3);
    }

    #[test]
    fn an_unwinding_statement_gives_back_its_admission_slot() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;
        use std::time::Duration;
        let server = Server::new(
            served_store(),
            ServerConfig {
                max_concurrent: 1,
                worker_budget: 2,
            },
        );
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _permit = server.admit();
            panic!("a statement panics while it holds the only slot");
        }));
        assert!(unwound.is_err());
        // `admit` let go of the gate's mutex before the panic, so the
        // guard's drop took an unpoisoned lock and released the slot.
        let stats = server.stats();
        assert_eq!((stats.active, stats.completed), (0, 1));
        let (tx, rx) = mpsc::channel();
        let next = Arc::clone(&server);
        let admitted = std::thread::spawn(move || {
            let permit = next.admit();
            tx.send(permit.share).unwrap();
        });
        let share = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the next admission blocked on a leaked slot");
        assert_eq!(share, 2, "the sole query gets the whole budget");
        admitted.join().unwrap();
        assert_eq!(server.stats().completed, 2);
    }
}
