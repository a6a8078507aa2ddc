//! The traced pass: every layer measured from outside, by timing calls
//! into its public functions in the order `frontend::server::answer`
//! makes them, with the program's own counters read at the same
//! boundaries.
//!
//! Layer = crate or module name. A per-statement time is the median of
//! [`REPS`] repetitions; a workload's figure is the mean of those
//! medians weighted by the deck, so the layers of one workload add up
//! to its mean statement. Counters are summed over one pass of the
//! deck and repeat exactly for a seed.

use std::collections::BTreeMap;
use std::io::{BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use matstrat_client::{Client, Response};
use matstrat_common::{PosRange, Predicate};
use matstrat_core::{
    ExecOptions, InnerStrategy, MiniColumn, QueryOutcome, QueryPlan, Statement, Strategy,
};
use matstrat_lang::compile;
use matstrat_net::protocol::{self, LineRead, MAX_LINE};
use matstrat_poslist::{Bitmap, PosList};
use matstrat_tpch::lineitem::cols;

use crate::fixture::ENCODINGS;
use crate::run::{Bench, Res, Sample, Window};
use crate::spans::Recorder;
use crate::stats::{geomean, median, percentile, ratio, sorted, weighted_mean};
use crate::workloads::{Workload, WRITES_PER_COMPACTION};

/// Repetitions behind each per-statement median.
pub const REPS: usize = 5;
/// Statements whose forced alternatives are swept, spread over the
/// workload's distinct statements.
const SWEEP_STATEMENTS: usize = 8;
/// Repetitions behind each forced-alternative median.
const SWEEP_REPS: usize = 3;

/// Metric name → value; names are listed in `report::PER_LAYER`.
pub type Layers = BTreeMap<String, f64>;

/// A connected socket pair: replies already rendered are written into
/// one end and parsed by a `Client` on the other.
struct Loopback {
    tx: TcpStream,
    client: Client,
}

impl Loopback {
    fn open() -> std::io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let rx = TcpStream::connect(listener.local_addr()?)?;
        let (tx, _) = listener.accept()?;
        tx.set_nodelay(true)?;
        Ok(Loopback {
            tx,
            client: Client::from_stream(rx)?,
        })
    }

    /// Replay `bytes` through the socket into `Client::read_response`.
    fn replay(&mut self, bytes: &[u8]) -> std::io::Result<Response> {
        // A short reply fits the socket buffer and is written inline, so
        // no thread start is on the clock; a long one needs a writer
        // beside the reader.
        if bytes.len() <= 16 * 1024 {
            (&self.tx).write_all(bytes)?;
            return self.client.read_response();
        }
        let tx = &self.tx;
        std::thread::scope(|scope| {
            let writer = scope.spawn(move || (&*tx).write_all(bytes));
            let parsed = self.client.read_response();
            matstrat_common::join_unwinding(writer)?;
            parsed
        })
    }
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Median wall microseconds of `reps` runs of `f`; `prepare` runs
/// untimed before each.
fn timed_us<T>(reps: usize, mut prepare: impl FnMut(), mut f: impl FnMut() -> Res<T>) -> Res<f64> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        prepare();
        let t = Instant::now();
        std::hint::black_box(f()?);
        times.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(times))
}

/// The spans of one statement's trip through the layers, in call order.
const LAYER_SPANS: [&str; 8] = [
    "frontend.read_frame",
    "lang.compile",
    "planner.plan",
    "session.run",
    "exec.execute",
    "frontend.render",
    "client.read_parse",
    "wire.roundtrip",
];

impl Bench {
    fn exec_options(&self) -> ExecOptions {
        ExecOptions::with_parallelism(self.cfg.workload.shape(None).workers)
    }

    fn chill(&self) {
        if self.cfg.workload.cold() {
            self.fx.store.cold_reset();
        }
    }

    /// Median microseconds of `stmt` under `plan` at `opts`.
    fn time_plan(&self, stmt: &Statement, plan: &QueryPlan, opts: &ExecOptions) -> Res<f64> {
        timed_us(
            SWEEP_REPS,
            || self.chill(),
            || Ok(self.svc.db.execute_planned(stmt, plan, opts)?),
        )
    }

    /// The traced pass. `window` is the timed window it follows (the
    /// `mixed_rw` write-side figures and the wire counters are read off
    /// it); spans go to `rec`.
    pub fn layers(&mut self, window: &Window, rec: &mut Recorder) -> Res<Layers> {
        let mut m = Layers::new();
        let weights: Vec<f64> = self.stmts.iter().map(|s| s.weight as f64).collect();
        let deck_len: f64 = weights.iter().sum();
        let mut put = |name: &str, value: f64| {
            m.insert(name.to_string(), value);
        };

        // Service-level counters as the timed window left them.
        let net = self.svc.net.stats();
        put("net.served", net.served as f64);
        put("net.protocol_errors", net.protocol_errors as f64);
        put("net.refused", net.refused as f64);
        let gate = self.svc.server.stats();
        put("session.peak_active", gate.peak_active as f64);
        put("session.peak_queued", gate.peak_queued as f64);
        put("session.admitted", gate.admitted as f64);

        // ---- Each distinct statement through the layers, in order. ----
        let session = self.svc.session();
        let opts = self.exec_options();
        let mut wire = Client::connect(self.svc.net.local_addr())?;
        let mut loopback = Loopback::open()?;
        // Span name → per-statement median microseconds, read back off
        // the trace.
        let mut per: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(self.stmts.len());
        let (mut render_bytes, mut render_rows) = (0.0, 0.0);
        // One deck pass of pool hits, misses, evictions and device bytes.
        let (mut pool, mut read_bytes) = ([0u64; 3], 0u64);
        for (i, (s, oracle)) in self.stmts.iter().zip(&self.oracle).enumerate() {
            let line = format!("{}\n", s.sql);
            let first_span = rec.spans().len();
            let mut kept = None;
            for rep in 0..REPS {
                let root = rec.enter("statement", i);
                let (framed, _) = rec.time("frontend.read_frame", i, || {
                    protocol::read_line_bounded(&mut BufReader::new(line.as_bytes()), MAX_LINE)
                });
                let LineRead::Line(framed) = framed? else {
                    return Err("statement text did not frame as one line".into());
                };
                let text = std::str::from_utf8(&framed)?.trim();
                let (stmt, _) = rec.time("lang.compile", i, || compile(&self.fx.store, text));
                let stmt = stmt?;
                let (plan, _) = rec.time("planner.plan", i, || self.svc.db.plan(&stmt));
                let plan = plan?;

                self.chill();
                let before = (self.fx.store.pool().stats(), self.fx.disk.counts());
                let (out, _) = rec.time("session.run", i, || session.run(&stmt));
                let out = out?;
                if rep == 0 {
                    // Counters over one pass of the deck.
                    let w = s.weight as u64;
                    let (p, d) = (self.fx.store.pool().stats(), self.fx.disk.counts());
                    pool[0] += w * (p.hits - before.0.hits);
                    pool[1] += w * (p.misses - before.0.misses);
                    pool[2] += w * (p.evictions - before.0.evictions);
                    read_bytes += w * d.since(&before.1).read_bytes;
                }

                self.chill();
                let (direct, _) = rec.time("exec.execute", i, || {
                    self.svc.db.execute_planned(&stmt, &plan, &opts)
                });
                direct?;

                let mut bytes = Vec::with_capacity(oracle.bytes.len());
                let (rendered, _) = rec.time("frontend.render", i, || {
                    protocol::write_outcome(&mut bytes, &out)
                });
                rendered?;

                let (parsed, _) = rec.time("client.read_parse", i, || loopback.replay(&bytes));
                parsed?;

                self.chill();
                let (reply, _) = rec.time("wire.roundtrip", i, || wire.query(&s.sql));
                reply?;
                rec.exit(root);

                if rep == 0 {
                    render_bytes += s.weight as f64 * bytes.len() as f64;
                    render_rows += s.weight as f64 * out.rows.num_rows() as f64;
                    kept = Some(out);
                }
            }
            for name in LAYER_SPANS {
                let spans = rec.spans()[first_span..].iter();
                let us = spans.filter(|s| s.name == name).map(|s| micros(s.nanos()));
                per.entry(name).or_default().push(median(us.collect()));
            }
            outcomes.push(kept.expect("REPS >= 1"));
        }
        let mean = |span: &str| weighted_mean(&per[span], &weights);
        let (compile_us, plan_us) = (mean("lang.compile"), mean("planner.plan"));
        let (run_us, execute_us) = (mean("session.run"), mean("exec.execute"));
        let (render_us, roundtrip_us) = (mean("frontend.render"), mean("wire.roundtrip"));
        put("frontend.read_frame_us", mean("frontend.read_frame"));
        put("lang.compile_us", compile_us);
        put("planner.plan_us", plan_us);
        put("session.run_us", run_us);
        put("session.overhead_us", run_us - plan_us - execute_us);
        put("exec.execute_us", execute_us);
        put("frontend.render_us", render_us);
        put(
            "frontend.render_ns_per_row",
            ratio(render_us * 1e3 * deck_len, render_rows),
        );
        put("frontend.render_bytes", render_bytes / deck_len);
        put("client.read_parse_us", mean("client.read_parse"));
        put("wire.roundtrip_us", roundtrip_us);
        // What is left of a round trip once the in-process layers are
        // taken out: socket hops, handler wake-up, flushes.
        put(
            "wire.residual_us",
            roundtrip_us - compile_us - run_us - render_us,
        );

        // ---- The program's own counters over one pass of the deck. ----
        let mut sums = [0.0f64; 10];
        for ((out, oracle), w) in outcomes.iter().zip(&self.oracle).zip(&weights) {
            let st = &out.stats;
            for (sum, v) in sums.iter_mut().zip([
                st.positions_matched,
                st.code_path_ops,
                st.zone_skips,
                st.steals,
                st.builds,
                st.build_reuses,
                st.io.block_reads,
                st.io.seeks,
                oracle.rows_scanned,
                st.rows_out,
            ]) {
                *sum += w * v as f64;
            }
        }
        put("exec.positions_matched", sums[0]);
        put("exec.code_path_ops", sums[1]);
        put("exec.zone_skips", sums[2]);
        put("exec.steals", sums[3]);
        put("exec.builds", sums[4]);
        put("exec.build_reuses", sums[5]);
        put("io.block_reads_per_stmt", sums[6] / deck_len);
        put("io.seeks_per_stmt", sums[7] / deck_len);
        put("io.bytes_read_per_stmt", read_bytes as f64 / deck_len);
        let table2 = matstrat_model::Constants::paper();
        put(
            "io.modeled_ms_per_stmt",
            (sums[7] * table2.seek + sums[6] * table2.read) / 1e3 / deck_len,
        );
        put(
            "exec.ns_per_row_scanned",
            ratio(execute_us * 1e3 * deck_len, sums[8]),
        );
        put("exec.rows_examined_per_row_out", ratio(sums[8], sums[9]));
        put("pool.hits", pool[0] as f64);
        put("pool.misses", pool[1] as f64);
        put("pool.evictions", pool[2] as f64);
        put(
            "pool.hit_rate",
            ratio(pool[0] as f64, (pool[0] + pool[1]) as f64),
        );

        // ---- The planner's pick against the forced alternatives. ----
        let step = self.stmts.len().div_ceil(SWEEP_STATEMENTS).max(1);
        let mut by_strategy: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut by_inner: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let (mut regrets, mut residuals, mut speedups) = (Vec::new(), Vec::new(), Vec::new());
        let mut one_edge_join = None;
        for oracle in self.oracle.iter().step_by(step) {
            let stmt = &oracle.stmt;
            let plan = self.svc.db.plan(stmt)?;
            let picked_us = self.time_plan(stmt, &plan, &opts)?;
            let mut best_us = picked_us;
            let predicted_us = match (&plan, stmt) {
                (QueryPlan::Scan(choice), _) => {
                    for strategy in Strategy::ALL {
                        // LM-pipelined is undefined over bit-vector
                        // columns (§4.1); the executor says so.
                        if let Ok(us) =
                            self.time_plan(stmt, &QueryPlan::forced_scan(strategy), &opts)
                        {
                            by_strategy
                                .entry(strategy_key(strategy))
                                .or_default()
                                .push(us);
                            best_us = best_us.min(us);
                        }
                    }
                    choice.estimate.map(|e| e.cpu_us + e.io_us)
                }
                (QueryPlan::Tree(choice), Statement::JoinTree(tree)) => {
                    for inner in InnerStrategy::ALL {
                        let forced = QueryPlan::forced_tree(
                            choice.order.clone(),
                            vec![inner; tree.edges.len()],
                        );
                        let us = self.time_plan(stmt, &forced, &opts)?;
                        by_inner.entry(inner_key(inner)).or_default().push(us);
                        best_us = best_us.min(us);
                    }
                    if tree.edges.len() == 1 && tree.aggregate.is_none() {
                        one_edge_join.get_or_insert((tree.clone(), picked_us));
                    }
                    Some(choice.estimate.cpu_us + choice.estimate.io_us)
                }
                _ => None,
            };
            regrets.push(ratio(picked_us, best_us));
            if let Some(predicted) = predicted_us {
                residuals.push(ratio(predicted, picked_us));
            }
            let serial_us = self.time_plan(stmt, &plan, &ExecOptions::with_parallelism(1))?;
            let pair_us = self.time_plan(stmt, &plan, &ExecOptions::with_parallelism(2))?;
            speedups.push(ratio(serial_us, pair_us));
        }
        put("planner.pick_regret", geomean(&regrets));
        put("model.residual_ratio", geomean(&residuals));
        put("pipeline.speedup_w2", geomean(&speedups));
        for (key, times) in &by_strategy {
            put(&format!("exec.strategy_us.{key}"), geomean(times));
        }
        for (key, times) in &by_inner {
            put(&format!("join.inner_us.{key}"), geomean(times));
        }
        if let Some((mut tree, full_us)) = one_edge_join {
            // The same join with nothing to probe — its own probe-side
            // predicate, or one on the key, made unsatisfiable — so what
            // is left is the build.
            let edge = &mut tree.edges[0];
            let col = edge.left_filter.as_ref().map_or(edge.left_key, |(c, _)| *c);
            edge.left_filter = Some((col, Predicate::lt(i64::MIN)));
            let empty = Statement::JoinTree(tree);
            let plan = self.svc.db.plan(&empty)?;
            let build_us = self.time_plan(&empty, &plan, &opts)?;
            put("join.build_only_us", build_us);
            put("join.probe_us", full_us - build_us);
        }

        // The cost of starting and joining a second worker: a statement
        // that matches nothing, at two workers minus at one. A
        // one-granule table never starts a second worker (the skew
        // guard), so this uses `orders`, the smallest table that does.
        let nothing = compile(
            &self.fx.store,
            "SELECT orderdate FROM orders WHERE orderdate < 0",
        )?;
        let plan = self.svc.db.plan(&nothing)?;
        let floor = |workers| {
            timed_us(
                4 * REPS,
                || (),
                || {
                    Ok(self.svc.db.execute_planned(
                        &nothing,
                        &plan,
                        &ExecOptions::with_parallelism(workers),
                    )?)
                },
            )
        };
        put("pipeline.spawn_floor_us", floor(2)? - floor(1)?);

        if self.cfg.workload == Workload::MixedRw {
            self.write_side(window, &mut m)?;
        }
        Ok(m)
    }

    /// `mixed_rw`: the write path, timed by calling the store directly,
    /// and the write-side figures of the timed window.
    fn write_side(&mut self, window: &Window, m: &mut Layers) -> Res<()> {
        let gen = self.writer.as_mut().expect("mixed_rw has a writer");
        let store = &self.fx.store;
        let (mut insert_us, mut delete_us) = (Vec::new(), Vec::new());
        // One compaction cycle of writes, so the read below meets the
        // delta at its largest.
        for _ in 0..WRITES_PER_COMPACTION {
            let write = gen.next_write();
            match compile(store, &write.sql)? {
                Statement::Insert { table, rows } => {
                    let t = Instant::now();
                    store.insert_rows(table, &rows)?;
                    insert_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                }
                Statement::Delete { table, filters } => {
                    let t = Instant::now();
                    self.svc.db.delete_where(table, &filters)?;
                    delete_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                }
                _ => return Err("the writer generated a read".into()),
            }
        }
        m.insert("write.insert_us".into(), median(insert_us));
        m.insert("write.delete_us".into(), median(delete_us));

        // The same read over the dirty table, then just after compaction.
        let session = self.svc.session();
        let read = &self.oracle[0].stmt;
        let dirty_us = timed_us(REPS, || (), || Ok(session.run(read)?))?;
        store.compact_all()?;
        session.run(read)?; // reads the fresh blocks in
        let clean_us = timed_us(REPS, || (), || Ok(session.run(read)?))?;
        m.insert("delta.read_penalty".into(), ratio(dirty_us, clean_us));

        let class_p50 = |prefix: &str| {
            let mut ms: Vec<f64> = window
                .samples
                .iter()
                .filter(|s| s.class.starts_with(prefix))
                .map(Sample::millis)
                .collect();
            percentile(sorted(&mut ms), 0.5)
        };
        m.insert("class.read.p50_ms".into(), class_p50("read_"));
        m.insert("class.write.p50_ms".into(), class_p50("write_"));

        let runs = &window.compactions;
        m.insert("compact.runs".into(), runs.len() as f64);
        m.insert(
            "compact.us".into(),
            median(runs.iter().map(|c| micros(c.end_ns - c.start_ns)).collect()),
        );
        m.insert(
            "compact.bytes_rewritten".into(),
            median(runs.iter().map(|c| c.bytes_rewritten as f64).collect()),
        );
        // Reads that overlapped a compaction against reads that did not.
        let overlaps = |s: &Sample| {
            runs.iter()
                .any(|c| s.start_ns < c.end_ns && c.start_ns < s.end_ns)
        };
        let reads = || {
            window
                .samples
                .iter()
                .filter(|s| s.class.starts_with("read_"))
        };
        let mut inside: Vec<f64> = reads()
            .filter(|s| overlaps(s))
            .map(Sample::millis)
            .collect();
        let mut outside: Vec<f64> = reads()
            .filter(|s| !overlaps(s))
            .map(Sample::millis)
            .collect();
        m.insert(
            "compact.stall_ratio".into(),
            ratio(
                percentile(sorted(&mut inside), 0.95),
                percentile(sorted(&mut outside), 0.5),
            ),
        );
        // Device traffic from the window's start to a compaction
        // boundary fixed by statement count.
        if let Some(snap) = self.snapshot(window) {
            let d = snap.counts.since(&window.start_counts);
            m.insert("disk.writes".into(), d.writes as f64);
            m.insert("disk.write_bytes".into(), d.write_bytes as f64);
            m.insert("disk.syncs".into(), d.syncs as f64);
            m.insert("disk.reads".into(), d.reads as f64);
            m.insert("disk.read_bytes".into(), d.read_bytes as f64);
            m.insert(
                "wal.bytes_per_user_byte".into(),
                ratio(
                    d.wal_bytes as f64,
                    8.0 * (snap.inserted_values - window.start_inserted) as f64,
                ),
            );
        }
        Ok(())
    }

    /// The block and position-list kernels on their own, over the
    /// LINENUM column of each lineitem table. Drops the pool, so it runs
    /// after everything that wants it warm.
    pub fn kernels(&self, m: &mut Layers) -> Res<()> {
        let store = &self.fx.store;
        let mut warm_ns = Vec::new();
        for enc in ENCODINGS {
            let table = store.projection_by_name(&format!("lineitem_{}", enc.name()))?;
            let reader = store.reader(table.id, cols::LINENUM)?;
            let mut cold_us = Vec::new();
            for _ in 0..SWEEP_REPS {
                store.cold_reset();
                for b in 0..reader.num_blocks() {
                    let t = Instant::now();
                    std::hint::black_box(reader.block(b)?);
                    cold_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                }
            }
            m.insert(
                format!("block.fetch_cold_us.{}", enc.name()),
                median(cold_us),
            );
            const HITS: u32 = 2000;
            let t = Instant::now();
            for k in 0..HITS {
                std::hint::black_box(reader.block(k as usize % reader.num_blocks().max(1))?);
            }
            warm_ns.push(t.elapsed().as_nanos() as f64 / f64::from(HITS));

            let rows = reader.num_rows();
            let mini = MiniColumn::fetch(&reader, PosRange::new(0, rows))?;
            let scan_us = timed_us(REPS, || (), || Ok(mini.scan_positions(&Predicate::lt(4))))?;
            m.insert(
                format!("block.scan_ns_per_value.{}", enc.name()),
                ratio(scan_us * 1e3, rows as f64),
            );
            let mut out = Vec::with_capacity(rows as usize);
            let decode_us = timed_us(
                REPS,
                || (),
                || {
                    out.clear();
                    Ok(mini.decode(&mut out)?)
                },
            )?;
            m.insert(
                format!("block.decode_ns_per_value.{}", enc.name()),
                ratio(decode_us * 1e3, rows as f64),
            );
        }
        m.insert("block.fetch_warm_ns".into(), median(warm_ns));

        // AND of two position lists over as many positions as lineitem
        // has rows, per thousand input positions, in each
        // representation.
        let span = self.fx.lineitem.num_rows() as u64;
        let range = PosRange::new(0, span);
        let every = |k: u64| (0..span).filter(move |p| p % k == 0);
        let runs = |len: u64, gap: u64| {
            PosList::Ranges(matstrat_poslist::RangeList::from_ranges(
                (0..span / (len + gap))
                    .map(|r| PosRange::new(r * (len + gap), r * (len + gap) + len))
                    .collect(),
            ))
        };
        let pairs = [
            (
                "bitmap",
                PosList::Bitmap(Bitmap::from_positions(range, every(3))),
                PosList::Bitmap(Bitmap::from_positions(range, every(5))),
            ),
            ("ranges", runs(48, 16), runs(100, 28)),
            (
                "explicit",
                PosList::from_positions(every(3).collect()),
                PosList::from_positions(every(5).collect()),
            ),
        ];
        for (name, a, b) in &pairs {
            let us = timed_us(REPS, || (), || Ok(a.and(b)))?;
            m.insert(
                format!("poslist.and_ns_per_kpos.{name}"),
                ratio(us * 1e6, (a.count() + b.count()) as f64),
            );
        }
        Ok(())
    }
}

fn strategy_key(s: Strategy) -> &'static str {
    match s {
        Strategy::EmPipelined => "em-pipelined",
        Strategy::EmParallel => "em-parallel",
        Strategy::LmPipelined => "lm-pipelined",
        Strategy::LmParallel => "lm-parallel",
    }
}

fn inner_key(s: InnerStrategy) -> &'static str {
    match s {
        InnerStrategy::Materialized => "materialized",
        InnerStrategy::MultiColumn => "multi-column",
        InnerStrategy::SingleColumn => "single-column",
    }
}
