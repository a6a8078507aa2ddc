//! The six workloads: what each sends, and why it exists. The names are
//! the contract later issues cite.
//!
//! A workload is a list of distinct statement texts, each with a class
//! (statements of similar cost) and a weight. Clients draw from a
//! *deck* holding every statement `weight` times, reshuffled from the
//! seed on every pass — so the class shares of a timed window are fixed
//! by the weights, not by the luck of the draw, and only the order
//! depends on the seed. Predicate constants come from the generated
//! data's quantiles, so a class does the same work under every seed.

use std::collections::BTreeMap;

use matstrat_common::Value;

use crate::fixture::{Fixture, Shape, ENCODINGS};
use crate::stats::Rng;

/// The workloads, in the order a full run executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireShort,
    WireBulk,
    ScanWarm,
    JoinWarm,
    ScanCold,
    MixedRw,
}

/// How statements reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Two persistent TCP connections, statements as text.
    Wire,
    /// One driver thread calling `Session::run` on precompiled
    /// statements.
    InProcess,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::WireShort,
        Workload::WireBulk,
        Workload::ScanWarm,
        Workload::JoinWarm,
        Workload::ScanCold,
        Workload::MixedRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireShort => "wire_short",
            Workload::WireBulk => "wire_bulk",
            Workload::ScanWarm => "scan_warm",
            Workload::JoinWarm => "join_warm",
            Workload::ScanCold => "scan_cold",
            Workload::MixedRw => "mixed_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also `BENCHMARK.json`'s
    /// `why`; a test holds the two equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WireShort => {
                "TCP, 2 clients, 64 texts of <=100 rows: per-statement fixed cost (framing, \
                 compile, plan, admission, thread spawn, socket hops) is the work; kernels idle"
            }
            Workload::WireBulk => {
                "TCP, 2 clients, 1e5-6e5-row replies: stitch, render, socket write and client \
                 parse dominate; where the wire overhead lives and wire_short bypasses it"
            }
            Workload::ScanWarm => {
                "in-process, precompiled, warm: the paper's selection and aggregation x 4 \
                 encodings x 4 selectivities; scan kernels and position lists, no frontend"
            }
            Workload::JoinWarm => {
                "in-process, precompiled, warm: orders-customer at 3 selectivities, star, \
                 snowflake, aggregate over star; build, probe and fetch, apart from scans"
            }
            Workload::ScanCold => {
                "in-process, serial, pool a quarter of the working set, cold before every \
                 statement: block fetch, decode, evictions; larger than the cache"
            }
            Workload::MixedRw => {
                "TCP, one reader beside one writer of 16-row inserts and deletes, compaction \
                 every 1024 writes: WAL, delta merge on read, compaction stalls, durability"
            }
        }
    }

    pub fn transport(self) -> Transport {
        match self {
            Workload::WireShort | Workload::WireBulk | Workload::MixedRw => Transport::Wire,
            Workload::ScanWarm | Workload::JoinWarm | Workload::ScanCold => Transport::InProcess,
        }
    }

    /// `scan_cold` drops the pool before every statement.
    pub fn cold(self) -> bool {
        self == Workload::ScanCold
    }

    /// Store and service shape. `scan_cold` is the paper's serial
    /// configuration; its pool is sized once the working set is known
    /// (see [`cold_pool_blocks`]).
    pub fn shape(self, pool_blocks: Option<usize>) -> Shape {
        Shape {
            pool_blocks,
            persistent: self == Workload::MixedRw,
            workers: if self.cold() || self == Workload::MixedRw {
                1
            } else {
                2
            },
        }
    }
}

/// One distinct statement of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Statements of one class cost about the same; latency classes are
    /// what `stmt_p50_ms` and `stmt_p95_ms` land inside.
    pub class: &'static str,
    pub sql: String,
    /// Copies in the deck.
    pub weight: usize,
}

fn stmt(class: &'static str, weight: usize, sql: String) -> Stmt {
    Stmt { class, sql, weight }
}

/// The deck: statement indices, each repeated by its weight.
pub fn deck(stmts: &[Stmt]) -> Vec<usize> {
    stmts
        .iter()
        .enumerate()
        .flat_map(|(i, s)| std::iter::repeat_n(i, s.weight))
        .collect()
}

/// An endless seeded walk over a deck: every pass is a fresh shuffle.
pub struct Draw {
    deck: Vec<usize>,
    at: usize,
    rng: Rng,
}

impl Draw {
    pub fn new(deck: Vec<usize>, seed: u64, client: u64) -> Draw {
        let at = deck.len();
        Draw {
            deck,
            at,
            rng: Rng::new(seed, 0x0D7A_0000 + client),
        }
    }
}

impl Iterator for Draw {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.deck.is_empty() {
            return None;
        }
        if self.at == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.at = 0;
        }
        self.at += 1;
        Some(self.deck[self.at - 1])
    }
}

/// The constant `x` for which `value < x` selects the share `sf` of
/// `sorted` (ascending).
fn cutoff(sorted: &[Value], sf: f64) -> Value {
    let k = (sorted.len() as f64 * sf.clamp(0.0, 1.0)) as usize;
    match sorted.get(k) {
        Some(v) => *v,
        None => sorted.last().map_or(0, |v| v + 1),
    }
}

/// `sf` moved by up to ±0.005 from the seed, so constants differ
/// between seeds while a class keeps its cost.
fn jitter(rng: &mut Rng, sf: f64) -> f64 {
    (sf + (rng.below(1001) as f64 - 500.0) / 100_000.0).clamp(0.0, 1.0)
}

/// `want` distinct keys drawn from `counts` whose count is in
/// `1..=max_rows`, in seeded order.
fn pick_keys<K: Copy + Ord>(
    counts: &BTreeMap<K, usize>,
    max_rows: usize,
    want: usize,
    rng: &mut Rng,
) -> Vec<K> {
    let mut keys: Vec<K> = counts
        .iter()
        .filter(|(_, n)| (1..=max_rows).contains(*n))
        .map(|(k, _)| *k)
        .collect();
    rng.shuffle(&mut keys);
    keys.truncate(want);
    keys
}

const ORDERS_CUSTOMER: &str = "FROM orders JOIN customer ON orders.custkey = customer.custkey";

/// A statement class and the deck weight of each of its statements.
type ClassWeight = (&'static str, usize);

/// The paper's selection query and its aggregation variant over one
/// LINENUM encoding, `shipdate < x AND linenum < 7`.
fn paper_queries(
    stmts: &mut Vec<Stmt>,
    shipdates: &[Value],
    rng: &mut Rng,
    sels: &[(f64, ClassWeight, ClassWeight)],
) {
    for enc in ENCODINGS {
        for &(sf, (sel_class, sel_weight), (agg_class, agg_weight)) in sels {
            let x = cutoff(shipdates, jitter(rng, sf));
            let table = format!("lineitem_{}", enc.name());
            stmts.push(stmt(
                sel_class,
                sel_weight,
                format!(
                    "SELECT shipdate, linenum FROM {table} WHERE shipdate < {x} AND linenum < 7"
                ),
            ));
            stmts.push(stmt(
                agg_class,
                agg_weight,
                format!(
                    "SELECT shipdate, SUM(linenum) FROM {table} \
                     WHERE shipdate < {x} AND linenum < 7 GROUP BY shipdate"
                ),
            ));
        }
    }
}

/// The distinct statements of `w` for `seed` over `fx`'s data. For
/// `mixed_rw` these are the reader's; the writer's come from
/// [`WriteGen`].
pub fn statements(w: Workload, fx: &Fixture, seed: u64) -> Vec<Stmt> {
    let mut rng = Rng::new(seed, 0x57A7_0000 + w as u64);
    let mut stmts = Vec::new();
    let mut shipdates = fx.lineitem.shipdate.clone();
    shipdates.sort_unstable();
    match w {
        Workload::WireShort => {
            // Row counts per (returnflag, shipdate) and per orderdate, to
            // keep every reply at 1..=100 rows.
            let mut per_day: BTreeMap<(Value, Value), usize> = BTreeMap::new();
            for (f, d) in fx.lineitem.returnflag.iter().zip(&fx.lineitem.shipdate) {
                *per_day.entry((*f, *d)).or_default() += 1;
            }
            for (f, d) in pick_keys(&per_day, 100, 32, &mut rng) {
                stmts.push(stmt(
                    "point",
                    2,
                    format!(
                        "SELECT shipdate, linenum, quantity FROM lineitem_plain \
                         WHERE returnflag = {f} AND shipdate = {d}"
                    ),
                ));
            }
            let days: BTreeMap<Value, usize> = per_day
                .iter()
                .filter(|((f, _), _)| *f == 1)
                .map(|((_, d), n)| (*d, *n))
                .collect();
            for d in pick_keys(&days, usize::MAX, 16, &mut rng) {
                stmts.push(stmt(
                    "group",
                    3,
                    format!(
                        "SELECT shipdate, SUM(quantity) FROM lineitem_plain \
                         WHERE returnflag = 1 AND shipdate BETWEEN {d} AND {} GROUP BY shipdate",
                        d + 7
                    ),
                ));
            }
            let mut per_orderdate: BTreeMap<Value, usize> = BTreeMap::new();
            for d in &fx.join.orders.orderdate {
                *per_orderdate.entry(*d).or_default() += 1;
            }
            for d in pick_keys(&per_orderdate, 100, 16, &mut rng) {
                stmts.push(stmt(
                    "join",
                    2,
                    format!(
                        "SELECT orders.shipdate, customer.nationcode {ORDERS_CUSTOMER} \
                         WHERE orders.orderdate = {d}"
                    ),
                ));
            }
        }
        Workload::WireBulk => {
            for (sf, two, three) in [
                (1.0 / 6.0, "proj2_100k", "proj3_100k"),
                (0.5, "proj2_300k", "proj3_300k"),
                (1.0, "proj2_600k", "proj3_600k"),
            ] {
                let x = cutoff(&shipdates, if sf < 1.0 { jitter(&mut rng, sf) } else { sf });
                stmts.push(stmt(
                    two,
                    1,
                    format!("SELECT shipdate, linenum FROM lineitem_plain WHERE shipdate < {x}"),
                ));
                stmts.push(stmt(
                    three,
                    1,
                    format!(
                        "SELECT shipdate, linenum, quantity FROM lineitem_plain \
                         WHERE shipdate < {x}"
                    ),
                ));
            }
            stmts.push(stmt(
                "join_150k",
                1,
                format!("SELECT orders.shipdate, customer.nationcode {ORDERS_CUSTOMER}"),
            ));
        }
        Workload::ScanWarm => paper_queries(
            &mut stmts,
            &shipdates,
            &mut rng,
            &[
                (0.01, ("sel_0.01", 1), ("agg_0.01", 1)),
                (0.1, ("sel_0.1", 1), ("agg_0.1", 1)),
                (0.5, ("sel_0.5", 1), ("agg_0.5", 2)),
                (0.9, ("sel_0.9", 2), ("agg_0.9", 1)),
            ],
        ),
        Workload::ScanCold => paper_queries(
            &mut stmts,
            &shipdates,
            &mut rng,
            &[
                (0.01, ("sel_0.01", 1), ("agg_0.01", 1)),
                (0.5, ("sel_0.5", 1), ("agg_0.5", 2)),
            ],
        ),
        Workload::JoinWarm => {
            for (sf, class, weight) in [
                (0.1, "join_0.1", 1),
                (0.5, "join_0.5", 1),
                (0.9, "join_0.9", 4),
            ] {
                let x = fx.join.custkey_cutoff(jitter(&mut rng, sf));
                stmts.push(stmt(
                    class,
                    weight,
                    format!(
                        "SELECT orders.shipdate, customer.nationcode {ORDERS_CUSTOMER} \
                         WHERE orders.custkey < {x}"
                    ),
                ));
            }
            let star = format!("{ORDERS_CUSTOMER} JOIN date ON orders.orderdate = date.datekey");
            stmts.push(stmt(
                "star",
                1,
                format!("SELECT orders.shipdate, customer.nationcode, date.month {star}"),
            ));
            stmts.push(stmt(
                "snowflake",
                1,
                format!(
                    "SELECT orders.shipdate, customer.nationcode, nation.regionkey \
                     {ORDERS_CUSTOMER} JOIN nation ON customer.nationcode = nation.nationkey"
                ),
            ));
            stmts.push(stmt(
                "agg_star",
                1,
                format!("SELECT date.month, COUNT(customer.nationcode) {star} GROUP BY date.month"),
            ));
        }
        Workload::MixedRw => {
            // Reads stay inside the rows loaded at set-up, which the
            // writer never touches: their replies have one right answer
            // whatever the writer has done, while the scan still merges
            // the delta and races compaction.
            let base = fx.events_rows as Value;
            stmts.push(stmt(
                "read_agg",
                16,
                format!(
                    "SELECT linenum, SUM(quantity) FROM events WHERE id < {base} GROUP BY linenum"
                ),
            ));
            let mut starts: Vec<Value> = Vec::new();
            while starts.len() < 8.min(fx.events_rows) {
                let a = rng.below((base - 63).max(1) as u64) as Value;
                if !starts.contains(&a) {
                    starts.push(a);
                    stmts.push(stmt(
                        "read_scan",
                        1,
                        format!(
                            "SELECT id, quantity FROM events WHERE id BETWEEN {a} AND {}",
                            a + 63
                        ),
                    ));
                }
            }
        }
    }
    stmts
}

/// `scan_cold`'s pool: a quarter of the blocks its statements touch
/// (SHIPDATE and LINENUM of the four lineitem tables), at least one
/// block per pool shard.
pub fn cold_pool_blocks(fx: &Fixture) -> matstrat_common::Result<usize> {
    use matstrat_tpch::lineitem::cols;
    let mut working_set = 0;
    for enc in ENCODINGS {
        let p = fx
            .store
            .projection_by_name(&format!("lineitem_{}", enc.name()))?;
        for c in [cols::SHIPDATE, cols::LINENUM] {
            working_set += fx.store.reader(p.id, c)?.num_blocks();
        }
    }
    Ok((working_set / 4).max(2))
}

/// Write statements per compaction.
pub const WRITES_PER_COMPACTION: u64 = 1024;
/// Rows per `INSERT`.
pub const INSERT_ROWS: usize = 16;
/// Every `DELETE_EVERY`-th write statement is a `DELETE`.
const DELETE_EVERY: u64 = 8;
/// Inserted rows the writer leaves live before its deletes start to
/// trail its inserts.
const LIVE_ROWS: usize = 2048;

/// One write statement with the reply the server owes for it.
pub struct Write {
    pub sql: String,
    pub insert: bool,
    /// The exact response bytes (`rows_affected`, `reads=0`).
    pub expect: Vec<u8>,
}

/// Per-LINENUM `(count, sum of quantity)` over the live rows of
/// `events`: what the final `COUNT`/`SUM` must return.
pub type Totals = BTreeMap<Value, (i64, i64)>;

/// `mixed_rw`'s writer: a seeded stream of 16-row `INSERT`s with every
/// 8th statement a `DELETE` of the oldest 112 recently inserted keys,
/// and the shadow of what the acknowledged writes leave live.
pub struct WriteGen {
    rng: Rng,
    issued: u64,
    next_id: Value,
    /// Live inserted rows: id → (linenum, quantity).
    live: BTreeMap<Value, (Value, Value)>,
    totals: Totals,
    /// Values inserted so far (8 B of user data each).
    pub inserted_values: u64,
}

impl WriteGen {
    pub fn new(fx: &Fixture, seed: u64) -> WriteGen {
        let mut totals = Totals::new();
        for (l, q) in fx.events_linenum.iter().zip(&fx.events_quantity) {
            let t = totals.entry(*l).or_default();
            t.0 += 1;
            t.1 += q;
        }
        WriteGen {
            rng: Rng::new(seed, 0x3817_0000),
            issued: 0,
            next_id: fx.events_rows as Value,
            live: BTreeMap::new(),
            totals,
            inserted_values: 0,
        }
    }

    /// Write statements generated so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// What the live rows add up to, per LINENUM.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// The next write, applied to the shadow as if acknowledged.
    pub fn next_write(&mut self) -> Write {
        self.issued += 1;
        if self.issued % DELETE_EVERY == 0 && self.live.len() > LIVE_ROWS {
            // The oldest keys the seven inserts since the last delete
            // put in: the table stays the size it was loaded at plus
            // `LIVE_ROWS`, so a window's first second costs what its
            // last does. Some of the keys are still in the delta, the
            // rest already compacted into blocks.
            let lo = *self.live.keys().next().expect("live is not empty");
            let hi = lo + (DELETE_EVERY as Value - 1) * INSERT_ROWS as Value - 1;
            let doomed: Vec<Value> = self.live.range(lo..=hi).map(|(id, _)| *id).collect();
            for id in &doomed {
                let (l, q) = self.live.remove(id).expect("key just listed");
                let t = self
                    .totals
                    .get_mut(&l)
                    .expect("inserted under this linenum");
                t.0 -= 1;
                t.1 -= q;
            }
            return Write {
                sql: format!("DELETE FROM events WHERE id BETWEEN {lo} AND {hi}"),
                insert: false,
                expect: write_reply(doomed.len()),
            };
        }
        let mut tuples = Vec::with_capacity(INSERT_ROWS);
        for _ in 0..INSERT_ROWS {
            let id = self.next_id;
            self.next_id += 1;
            let shipdate = self.rng.below(matstrat_tpch::SHIPDATE_DAYS as u64) as Value;
            let linenum = 1 + self.rng.below(7) as Value;
            let quantity = 1 + self.rng.below(50) as Value;
            self.live.insert(id, (linenum, quantity));
            let t = self.totals.entry(linenum).or_default();
            t.0 += 1;
            t.1 += quantity;
            tuples.push(format!("({id}, {shipdate}, {linenum}, {quantity})"));
        }
        self.inserted_values += 4 * INSERT_ROWS as u64;
        Write {
            sql: format!("INSERT INTO events VALUES {}", tuples.join(", ")),
            insert: true,
            expect: write_reply(INSERT_ROWS),
        }
    }
}

/// The response to a write that affected `n` rows.
fn write_reply(n: usize) -> Vec<u8> {
    format!("ROWS 1\nrows_affected\n{n}\nOK {n} reads=0\n").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(seed: u64) -> Fixture {
        Fixture::build(seed, 0.002, Workload::WireShort.shape(None)).unwrap()
    }

    #[test]
    fn a_seed_names_its_statement_list() {
        let (a, b, other) = (fixture(7), fixture(7), fixture(8));
        for w in Workload::ALL {
            let list = statements(w, &a, 7);
            assert!(!list.is_empty(), "{}", w.name());
            assert_eq!(list, statements(w, &b, 7), "{}", w.name());
            assert_ne!(list, statements(w, &other, 8), "{}", w.name());
            let texts: std::collections::BTreeSet<&str> =
                list.iter().map(|s| s.sql.as_str()).collect();
            assert_eq!(texts.len(), list.len(), "{}: a text repeats", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        let mut one = WriteGen::new(&a, 7);
        let mut two = WriteGen::new(&b, 7);
        let mut three = WriteGen::new(&a, 8);
        let (mut same, mut differs) = (true, false);
        for i in 1..=200 {
            let w = one.next_write();
            // Deletes start once `LIVE_ROWS` rows are in: statement 136.
            assert_eq!(w.insert, i % 8 != 0 || i < 136, "statement {i}");
            same &= w.sql == two.next_write().sql;
            differs |= w.sql != three.next_write().sql;
        }
        assert!(same && differs);
        assert_eq!(one.totals(), two.totals());
    }

    #[test]
    fn decks_hold_the_weights_and_draws_cover_them() {
        let fx = fixture(3);
        for w in Workload::ALL {
            let list = statements(w, &fx, 3);
            let cards = deck(&list);
            assert_eq!(cards.len(), list.iter().map(|s| s.weight).sum::<usize>());
            let two_passes: Vec<usize> = Draw::new(cards.clone(), 3, 0)
                .take(2 * cards.len())
                .collect();
            for pass in two_passes.chunks(cards.len()) {
                let mut seen = pass.to_vec();
                seen.sort_unstable();
                assert_eq!(
                    seen,
                    cards,
                    "{}: a pass is a permutation of the deck",
                    w.name()
                );
            }
            assert_ne!(
                two_passes[..cards.len()],
                two_passes[cards.len()..],
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn the_shadow_follows_inserts_and_trailing_deletes() {
        let fx = fixture(5);
        let mut gen = WriteGen::new(&fx, 5);
        let rows_before: i64 = gen.totals().values().map(|t| t.0).sum();
        assert_eq!(rows_before as usize, fx.events_rows);
        let mut live = 0i64;
        for _ in 0..400 {
            let w = gen.next_write();
            let n: i64 = String::from_utf8(w.expect.clone())
                .unwrap()
                .lines()
                .nth(2)
                .unwrap()
                .parse()
                .unwrap();
            live += if w.insert { n } else { -n };
        }
        let rows_after: i64 = gen.totals().values().map(|t| t.0).sum();
        assert_eq!(rows_after - rows_before, live);
        // Deletes trail inserts: the live set stops growing.
        assert!((live as usize) <= LIVE_ROWS + 8 * INSERT_ROWS, "{live}");
        assert_eq!(gen.issued(), 400);
    }
}
