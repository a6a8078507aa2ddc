//! One workload, end to end: set-up, the warm-up pass that records the
//! serial oracle, the closed-loop timed window with every reply
//! checked, and the end-to-end metrics.
//!
//! Load shape: a closed loop — each client waits for its reply before
//! sending its next statement. Two persistent TCP connections on the
//! wire workloads, one driver thread on the in-process ones; server and
//! load share one process.

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use matstrat_client::Client;
use matstrat_common::Value;
use matstrat_core::{Database, QueryOutcome, QueryResult, Session, Statement};
use matstrat_lang::compile;
use matstrat_model::Constants;
use matstrat_net::protocol;
use matstrat_storage::store::DEFAULT_POOL_BLOCKS;
use matstrat_storage::{IoStats, Store};

use crate::disk::DiskCounts;
use crate::fixture::{Fixture, Service, Shape};
use crate::spans::Recorder;
use crate::stats::{median, percentile, quantile, ratio, sample_floor, sorted};
use crate::workloads::{
    cold_pool_blocks, deck, statements, Draw, Stmt, Totals, Transport, Workload, WriteGen,
    WRITES_PER_COMPACTION,
};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 7;
/// The timed window is cut into at most this many slices, each of at
/// least [`SLICE_SAMPLES`] statements.
pub const MAX_SLICES: usize = 16;
pub const SLICE_SAMPLES: usize = 100;
/// TCP clients on the wire workloads.
pub const WIRE_CLIENTS: usize = 2;
/// `mixed_rw`'s writer; its reader is lane 0.
const WRITER_LANE: usize = 1;
/// `mixed_rw` reads `disk_bytes_per_user_byte` and the device counters
/// at the end of this compaction cycle of the timed window: a point
/// fixed by statement count, so the numbers repeat exactly.
pub const SNAPSHOT_CYCLE: usize = 5;

/// What one workload run was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// TPC-H scale factor of the generated data.
    pub scale: f64,
    /// Also run the traced pass and report the per-layer metrics.
    pub trace: bool,
    /// Where `trace.json` and the results file go; nothing is written
    /// without it.
    pub out: Option<PathBuf>,
}

/// What the serial oracle says one statement returns.
pub struct Oracle {
    pub stmt: Statement,
    /// The response `protocol::write_outcome` renders for it.
    pub bytes: Vec<u8>,
    pub checksum: u64,
    pub rows_out: u64,
    pub block_reads: u64,
    /// Rows of every table the statement reads.
    pub rows_scanned: u64,
}

/// One timed statement as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Which client sent it.
    pub lane: usize,
    pub class: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
    /// The statement's own cold I/O (in-process workloads).
    pub io: IoStats,
}

impl Sample {
    pub fn millis(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One compaction the `mixed_rw` writer ran, with the disk as it stood
/// when the compaction returned.
#[derive(Debug, Clone, Copy)]
pub struct Compaction {
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes_rewritten: u64,
    pub disk_bytes: u64,
    pub counts: DiskCounts,
    pub inserted_values: u64,
}

/// Everything a window produced.
pub struct Window {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub compactions: Vec<Compaction>,
    /// Device counters and inserted values when the window began.
    pub start_counts: DiskCounts,
    pub start_inserted: u64,
}

/// A workload ready to be driven.
pub struct Bench {
    pub cfg: Config,
    pub fx: Fixture,
    pub svc: Service,
    pub stmts: Vec<Stmt>,
    pub oracle: Vec<Oracle>,
    /// `mixed_rw`'s writer and its shadow of acknowledged writes.
    pub writer: Option<WriteGen>,
    /// Generate + load + boot, one entry per set-up so far.
    pub build_times: Vec<f64>,
    /// The warm-up pass that records the oracle.
    pub warmup_s: f64,
    /// Blocks the workload's statements touch, when the pool is sized
    /// from it (`scan_cold`).
    pub working_set_blocks: Option<usize>,
}

/// FNV-1a over a result's shape and values: the in-process row check.
pub fn checksum(rows: &QueryResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ rows.width() as u64;
    for v in rows.flat() {
        h = (h ^ *v as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A response up to the trailer's `reads=`: rows and `rows_out`, minus
/// the cold-read count that depends on what compaction last evicted.
fn without_reads(raw: &[u8]) -> &[u8] {
    let cut = raw
        .windows(7)
        .rposition(|w| w == b" reads=")
        .unwrap_or(raw.len());
    &raw[..cut]
}

fn rows_scanned(store: &Store, stmt: &Statement) -> Res<u64> {
    Ok(match stmt {
        Statement::Select(q) => store.projection(q.table)?.num_rows,
        Statement::JoinTree(t) => {
            let mut rows = store.projection(t.base())?.num_rows;
            for e in &t.edges {
                rows += store.projection(e.right)?.num_rows;
            }
            rows
        }
        Statement::Insert { .. } | Statement::Delete { .. } => 0,
    })
}

/// One set-up — generate, load, boot — with its seconds appended to
/// `times`.
fn build_once(cfg: &Config, shape: Shape, times: &mut Vec<f64>) -> Res<(Fixture, Service)> {
    let t = Instant::now();
    let fx = Fixture::build(cfg.seed, cfg.scale, shape)?;
    let svc = Service::boot(&fx.store, shape.workers)?;
    times.push(t.elapsed().as_secs_f64());
    Ok((fx, svc))
}

impl Bench {
    /// Set up, then run the warm-up pass: every distinct statement
    /// through the serial oracle — `Database::execute` at one worker,
    /// rendered by `protocol::write_outcome` — which also fills the
    /// pool. The rest of the run's [`SETUP_REPS`] set-ups come later
    /// ([`Bench::repeat_setups`]), so `peak_rss_mb` holds one database
    /// and not the allocator's leftovers of seven.
    pub fn setup(cfg: Config) -> Res<Bench> {
        let w = cfg.workload;
        let mut build_times = Vec::with_capacity(SETUP_REPS);
        let mut build = |pool| build_once(&cfg, w.shape(pool), &mut build_times);
        let mut working_set_blocks = None;
        let (fx, svc) = if w.cold() {
            // Block counts depend on (seed, scale) alone, so a first
            // set-up sizes the pool for the one that is kept.
            let blocks = cold_pool_blocks(&build(None)?.0)?;
            working_set_blocks = Some(blocks * 4);
            build(Some(blocks))?
        } else {
            build(None)?
        };

        let t = Instant::now();
        let stmts = statements(w, &fx, cfg.seed);
        let mut serial = Database::with_store(fx.store.clone());
        serial.set_parallelism(1);
        let mut oracle = Vec::with_capacity(stmts.len());
        for s in &stmts {
            let stmt = compile(&fx.store, &s.sql)?;
            let out = if w.cold() {
                fx.store.cold_reset();
                serial.execute(&stmt)?
            } else {
                // Plans depend on what is resident, so a second run may
                // pick a strategy that reads blocks the first left out.
                // Run until nothing is read, through the service too
                // (it plans at its own worker count): from here on the
                // reply is the warm one, `reads=0`.
                let session = svc.session();
                let settle = |run: &dyn Fn() -> matstrat_common::Result<QueryOutcome>| {
                    for _ in 0..8 {
                        let out = run()?;
                        if out.block_reads() == 0 {
                            return Ok(out);
                        }
                    }
                    Err(matstrat_common::Error::invalid(
                        "statement keeps reading blocks",
                    ))
                };
                settle(&|| session.run(&stmt))?;
                settle(&|| serial.execute(&stmt))?
            };
            let mut bytes = Vec::new();
            protocol::write_outcome(&mut bytes, &out)?;
            oracle.push(Oracle {
                rows_scanned: rows_scanned(&fx.store, &stmt)?,
                stmt,
                bytes,
                checksum: checksum(&out.rows),
                rows_out: out.stats.rows_out,
                block_reads: out.block_reads(),
            });
        }
        let warmup_s = t.elapsed().as_secs_f64();
        let writer = (w == Workload::MixedRw).then(|| WriteGen::new(&fx, cfg.seed));
        Ok(Bench {
            build_times,
            warmup_s,
            working_set_blocks,
            cfg,
            fx,
            svc,
            stmts,
            oracle,
            writer,
        })
    }

    /// Set up again, discarding the result, until the run has made
    /// [`SETUP_REPS`] set-ups. Call after `peak_rss_mb` is read.
    pub fn repeat_setups(&mut self) -> Res<()> {
        let shape = self.cfg.workload.shape(Some(self.fx.pool_blocks));
        while self.build_times.len() < SETUP_REPS {
            build_once(&self.cfg, shape, &mut self.build_times)?;
        }
        Ok(())
    }

    /// Median generate + load + boot over the set-ups made.
    pub fn build_s(&self) -> f64 {
        median(self.build_times.clone())
    }

    pub fn setup_s(&self) -> f64 {
        self.build_s() + self.warmup_s
    }
}

/// When a client stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At the end of the timed window.
    At(Instant),
    /// After one pass over its deck (the untimed ramp: connections,
    /// thread stacks and allocator arenas reach their working size).
    AfterDeck,
}

/// How one client sends a statement and judges the reply. Only `send`
/// is on the latency clock.
trait Lane {
    type Reply;
    /// Untimed preparation (`scan_cold` drops the pool here).
    fn prepare(&mut self) {}
    fn send(&mut self, i: usize) -> Res<Self::Reply>;
    fn check(&self, i: usize, reply: &Self::Reply) -> (bool, IoStats);
}

struct WireLane<'a> {
    client: Client,
    stmts: &'a [Stmt],
    oracle: &'a [Oracle],
    /// `mixed_rw`'s reader compares everything but the `reads=` count.
    ignore_reads: bool,
}

impl Lane for WireLane<'_> {
    type Reply = matstrat_client::Response;

    fn send(&mut self, i: usize) -> Res<Self::Reply> {
        Ok(self.client.query(&self.stmts[i].sql)?)
    }

    fn check(&self, i: usize, reply: &Self::Reply) -> (bool, IoStats) {
        let want = &self.oracle[i].bytes;
        let ok = if self.ignore_reads {
            without_reads(reply.raw()) == without_reads(want)
        } else {
            reply.raw() == &want[..]
        };
        (ok, IoStats::default())
    }
}

struct LocalLane<'a> {
    session: Session,
    store: &'a Store,
    oracle: &'a [Oracle],
    cold: bool,
}

impl Lane for LocalLane<'_> {
    type Reply = QueryOutcome;

    fn prepare(&mut self) {
        if self.cold {
            self.store.cold_reset();
        }
    }

    fn send(&mut self, i: usize) -> Res<QueryOutcome> {
        Ok(self.session.run(&self.oracle[i].stmt)?)
    }

    fn check(&self, i: usize, out: &QueryOutcome) -> (bool, IoStats) {
        let want = &self.oracle[i];
        let ok = checksum(&out.rows) == want.checksum
            && out.stats.rows_out == want.rows_out
            // Cold block reads repeat exactly; warm ones are 0.
            && out.block_reads() == want.block_reads;
        (ok, out.stats.io)
    }
}

/// Drive one lane over its deck until `stop`.
fn drive<L: Lane>(
    lane_id: usize,
    lane: &mut L,
    stmts: &[Stmt],
    mut draw: Draw,
    stop: Stop,
    t0: Instant,
    mut rec: Option<&mut Recorder>,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut left = match stop {
        Stop::AfterDeck => deck(stmts).len(),
        Stop::At(_) => usize::MAX,
    };
    while left > 0 && !matches!(stop, Stop::At(end) if Instant::now() >= end) {
        left -= 1;
        let Some(i) = draw.next() else { break };
        lane.prepare();
        let span = rec.as_mut().map(|r| r.enter("client.statement", i));
        let start_ns = t0.elapsed().as_nanos() as u64;
        let reply = lane.send(i);
        let end_ns = t0.elapsed().as_nanos() as u64;
        let (ok, io) = match &reply {
            Ok(r) => {
                let check = rec.as_mut().map(|r| r.enter("client.check", i));
                let verdict = lane.check(i, r);
                if let (Some(r), Some(id)) = (rec.as_mut(), check) {
                    r.exit(id);
                }
                verdict
            }
            Err(_) => (false, IoStats::default()),
        };
        if let (Some(r), Some(id)) = (rec.as_mut(), span) {
            r.exit(id);
        }
        samples.push(Sample {
            lane: lane_id,
            class: stmts[i].class,
            start_ns,
            end_ns,
            ok,
            io,
        });
        if reply.is_err() {
            break; // a dead connection fails once, not once per loop turn
        }
    }
    samples
}

/// `mixed_rw`'s writer: seeded writes over its own connection, each
/// reply compared to the bytes the shadow predicts, and a compaction
/// (called straight on the store) after every
/// [`WRITES_PER_COMPACTION`] statements.
fn drive_writer(
    b: &Bench,
    gen: &mut WriteGen,
    stop: Stop,
    t0: Instant,
    mut rec: Option<&mut Recorder>,
) -> Res<(Vec<Sample>, Vec<Compaction>)> {
    let mut client = Client::connect(b.svc.net.local_addr())?;
    let mut samples = Vec::new();
    let mut compactions = Vec::new();
    let mut left = match stop {
        Stop::AfterDeck => WRITES_PER_COMPACTION,
        Stop::At(_) => u64::MAX,
    };
    while left > 0 && !matches!(stop, Stop::At(end) if Instant::now() >= end) {
        left -= 1;
        let write = gen.next_write();
        let id = gen.issued() as usize;
        let span = rec.as_mut().map(|r| r.enter("client.statement", id));
        let start_ns = t0.elapsed().as_nanos() as u64;
        let reply = client.query(&write.sql);
        let end_ns = t0.elapsed().as_nanos() as u64;
        if let (Some(r), Some(s)) = (rec.as_mut(), span) {
            r.exit(s);
        }
        samples.push(Sample {
            lane: WRITER_LANE,
            class: if write.insert {
                "write_insert"
            } else {
                "write_delete"
            },
            start_ns,
            end_ns,
            ok: matches!(&reply, Ok(r) if r.raw() == &write.expect[..]),
            io: IoStats::default(),
        });
        reply?;
        if gen.issued() % WRITES_PER_COMPACTION == 0 {
            let before = b.fx.disk.counts();
            let span = rec.as_mut().map(|r| r.enter("store.compact_all", id));
            let start_ns = t0.elapsed().as_nanos() as u64;
            b.fx.store.compact_all()?;
            let end_ns = t0.elapsed().as_nanos() as u64;
            if let (Some(r), Some(s)) = (rec.as_mut(), span) {
                r.exit(s);
            }
            let counts = b.fx.disk.counts();
            compactions.push(Compaction {
                start_ns,
                end_ns,
                bytes_rewritten: counts.since(&before).write_bytes,
                disk_bytes: b.fx.disk.total_bytes(),
                counts,
                inserted_values: gen.inserted_values,
            });
        }
    }
    Ok((samples, compactions))
}

impl Bench {
    /// Run every client until `stop`; with `trace`, each client records
    /// its spans against that clock.
    pub fn window(
        &mut self,
        stop: Stop,
        trace: Option<Instant>,
    ) -> Res<(Window, Option<Recorder>)> {
        let w = self.cfg.workload;
        let mut writer = self.writer.take();
        let b = &*self;
        let start_counts = b.fx.disk.counts();
        let start_inserted = writer.as_ref().map_or(0, |g| g.inserted_values);
        let lanes = match (w.transport(), w) {
            (Transport::InProcess, _) | (_, Workload::MixedRw) => 1,
            (Transport::Wire, _) => WIRE_CLIENTS,
        };
        let barrier = Barrier::new(lanes + usize::from(writer.is_some()));
        let t0 = trace.unwrap_or_else(Instant::now);
        let wall = Instant::now();

        type Lap = Res<(Vec<Sample>, Vec<Compaction>, Option<Recorder>)>;
        let laps: Vec<Lap> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for lane_id in 0..lanes {
                let barrier = &barrier;
                handles.push(scope.spawn(move || -> Lap {
                    let draw = Draw::new(deck(&b.stmts), b.cfg.seed, lane_id as u64);
                    let mut rec = trace.map(Recorder::new);
                    let samples = match w.transport() {
                        Transport::Wire => {
                            let connected = Client::connect(b.svc.net.local_addr());
                            barrier.wait();
                            let mut lane = WireLane {
                                client: connected?,
                                stmts: &b.stmts,
                                oracle: &b.oracle,
                                ignore_reads: w == Workload::MixedRw,
                            };
                            drive(lane_id, &mut lane, &b.stmts, draw, stop, t0, rec.as_mut())
                        }
                        Transport::InProcess => {
                            barrier.wait();
                            let mut lane = LocalLane {
                                session: b.svc.session(),
                                store: &b.fx.store,
                                oracle: &b.oracle,
                                cold: w.cold(),
                            };
                            drive(lane_id, &mut lane, &b.stmts, draw, stop, t0, rec.as_mut())
                        }
                    };
                    Ok((samples, Vec::new(), rec))
                }));
            }
            if let Some(gen) = writer.as_mut() {
                let barrier = &barrier;
                handles.push(scope.spawn(move || -> Lap {
                    let mut rec = trace.map(Recorder::new);
                    barrier.wait();
                    let (samples, compactions) = drive_writer(b, gen, stop, t0, rec.as_mut())?;
                    Ok((samples, compactions, rec))
                }));
            }
            handles
                .into_iter()
                .map(matstrat_common::par::join_unwinding)
                .collect()
        });
        let wall_s = wall.elapsed().as_secs_f64();
        self.writer = writer;

        let mut window = Window {
            samples: Vec::new(),
            wall_s,
            compactions: Vec::new(),
            start_counts,
            start_inserted,
        };
        let mut merged = trace.map(Recorder::new);
        for lap in laps {
            let (samples, compactions, rec) = lap?;
            window.samples.extend(samples);
            window.compactions.extend(compactions);
            if let (Some(all), Some(rec)) = (merged.as_mut(), rec) {
                all.absorb(rec);
            }
        }
        Ok((window, merged))
    }
}

/// The end-to-end metrics of one run, with the counts behind them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub stmts_per_s: f64,
    pub stmt_p50_ms: f64,
    pub stmt_p95_ms: f64,
    pub ok_share: f64,
    pub paper_ms_per_stmt: f64,
    pub peak_rss_mb: f64,
    pub disk_bytes_per_user_byte: f64,
    /// Exact modeled cold-disk time per statement (0 on warm
    /// workloads); the `paper_ms_per_stmt` term that is not wall time.
    pub modeled_io_ms_per_stmt: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Slices the timed window was cut into.
    pub slices: usize,
    /// Whether the window held enough statements for p95.
    pub samples_ok: bool,
}

/// High-water resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Bench {
    /// The `mixed_rw` snapshot: the disk when the window's
    /// [`SNAPSHOT_CYCLE`]-th compaction returned, or `None` when the
    /// window ended before it.
    pub fn snapshot<'w>(&self, window: &'w Window) -> Option<&'w Compaction> {
        window.compactions.get(SNAPSHOT_CYCLE - 1)
    }

    /// End-to-end metrics of the timed `window`. `extra` carries checks
    /// made outside the window (attempted, failed): the durability
    /// checks, and wire-level refusals and protocol errors.
    ///
    /// The sandbox's host slows the guest for a second or two at a time
    /// (a single-threaded spin loop reads 5–45 % slow in a third of its
    /// half-second samples), so the window is cut into slices and each
    /// timing is the better-decile slice: the rate that a tenth of the
    /// slices beat, the latencies that a tenth of them undercut — close
    /// to the undisturbed speed without being the one luckiest slice.
    /// A slice holds at least [`SLICE_SAMPLES`] statements, so a window
    /// of few, long statements has few slices.
    pub fn end_to_end(&self, window: &Window, peak_rss_mb: f64, extra: (u64, u64)) -> EndToEnd {
        let attempted = window.samples.len() as u64 + extra.0;
        let failed = window.samples.iter().filter(|s| !s.ok).count() as u64 + extra.1;
        let table2 = Constants::paper();
        let modeled_ms = |s: &Sample| s.io.modeled_micros(table2.seek, table2.read) / 1e3;
        let n = window.samples.len().max(1) as f64;
        let modeled_io_ms_per_stmt = window.samples.iter().map(modeled_ms).sum::<f64>() / n;

        let slices = (window.samples.len() / SLICE_SAMPLES).clamp(1, MAX_SLICES);
        let slice_ns = ((window.wall_s * 1e9) as u64 / slices as u64).max(1);
        let mut by_slice: Vec<Vec<&Sample>> = vec![Vec::new(); slices];
        for s in &window.samples {
            by_slice[((s.end_ns / slice_ns) as usize).min(slices - 1)].push(s);
        }
        let (mut rates, mut p50s, mut p95s, mut papers) = (vec![], vec![], vec![], vec![]);
        for slice in by_slice.iter().filter(|s| !s.is_empty()) {
            rates.push(slice.iter().filter(|s| s.ok).count() as f64 / (slice_ns as f64 / 1e9));
            let wall_ms: f64 = slice.iter().map(|s| s.millis()).sum();
            let modeled: f64 = slice.iter().map(|s| modeled_ms(s)).sum();
            papers.push((wall_ms + modeled) / slice.len() as f64);
            // A client is a user: each client's percentiles, averaged
            // over the clients.
            let (mut p50, mut p95, mut lanes) = (0.0, 0.0, 0.0);
            for lane in 0..=WRITER_LANE {
                let mut ms: Vec<f64> = slice
                    .iter()
                    .filter(|s| s.lane == lane)
                    .map(|s| s.millis())
                    .collect();
                if !ms.is_empty() {
                    let ms = sorted(&mut ms);
                    p50 += quantile(ms, 0.5);
                    p95 += quantile(ms, 0.95);
                    lanes += 1.0;
                }
            }
            p50s.push(p50 / lanes);
            p95s.push(p95 / lanes);
        }
        let (disk_bytes, inserted) = match self.snapshot(window) {
            Some(c) => (c.disk_bytes, c.inserted_values),
            None => (
                self.fx.disk.total_bytes(),
                self.writer.as_ref().map_or(0, |g| g.inserted_values),
            ),
        };
        EndToEnd {
            setup_s: self.setup_s(),
            stmts_per_s: percentile(sorted(&mut rates), 0.9),
            stmt_p50_ms: percentile(sorted(&mut p50s), 0.1),
            stmt_p95_ms: percentile(sorted(&mut p95s), 0.1),
            ok_share: 1.0 - ratio(failed as f64, attempted as f64),
            paper_ms_per_stmt: percentile(sorted(&mut papers), 0.1),
            peak_rss_mb,
            disk_bytes_per_user_byte: ratio(
                disk_bytes as f64,
                8.0 * (self.fx.user_values + inserted) as f64,
            ),
            modeled_io_ms_per_stmt,
            attempted,
            failed,
            slices,
            samples_ok: window.samples.len() >= sample_floor(0.95),
        }
    }

    /// `mixed_rw`'s durability check: the live `COUNT` and `SUM` per
    /// LINENUM against the shadow of acknowledged writes, then the same
    /// after reopening the store from the disk alone. Returns
    /// (checks made, checks failed); an acknowledged write that did not
    /// survive fails its check.
    pub fn durability(&self) -> Res<(u64, u64)> {
        let Some(gen) = &self.writer else {
            return Ok((0, 0));
        };
        let want = gen.totals();
        let reopened = Store::open_disk(self.fx.disk.clone(), DEFAULT_POOL_BLOCKS)?;
        let mut failed = 0;
        for store in [&self.fx.store, &reopened] {
            let db = Database::with_store(store.clone());
            for (func, pick) in [("COUNT", 0usize), ("SUM", 1)] {
                let sql = format!("SELECT linenum, {func}(quantity) FROM events GROUP BY linenum");
                let out = db.execute(&compile(store, &sql)?)?;
                let got: Totals = out.rows.rows().map(|r| (r[0], (r[1], r[1]))).collect();
                let same = got.len() == want.len()
                    && want.iter().all(|(l, t)| {
                        let t: Value = if pick == 0 { t.0 } else { t.1 };
                        got.get(l).is_some_and(|g| g.0 == t)
                    });
                failed += u64::from(!same);
            }
        }
        Ok((4, failed))
    }

    /// Statements the frontend refused or could not frame; each is a
    /// failed operation.
    pub fn wire_failures(&self) -> u64 {
        let net = self.svc.net.stats();
        net.refused + net.protocol_errors
    }
}

/// The timed window's length as a `Stop`.
pub fn timed(seconds: f64) -> Stop {
    Stop::At(Instant::now() + Duration::from_secs_f64(seconds.max(0.0)))
}
