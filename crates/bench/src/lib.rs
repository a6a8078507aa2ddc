//! Figure-regeneration harness.
//!
//! Each function reproduces one experiment of the paper's evaluation
//! (§3.7 and §4) and returns the series as plain rows, which the
//! `figures` binary prints in the same layout as the paper's plots and
//! writes as CSV. Absolute milliseconds differ from a 2006 Pentium 4 —
//! the claims under test are *shapes*: who wins at which selectivity, by
//! roughly what factor, and where the curves cross.
//!
//! Reported time = measured wall time (CPU; the pool is reset before
//! every run so block decode costs are included) + *modeled* cold-disk
//! time (seeks/reads counted by the I/O meter, priced with Table 2's
//! SEEK/READ constants). See `DESIGN.md` §4 for why this substitution
//! preserves the paper's trade-offs.

use matstrat_common::{Predicate, Result, TableId};
use matstrat_core::{
    Database, InnerStrategy, JoinSpec, JoinTreeSpec, Planner, QueryOutcome, QueryPlan, QuerySpec,
    Statement, Strategy,
};
use matstrat_model::{calibrate, Constants, CostModel};
use matstrat_storage::EncodingKind;
use matstrat_tpch::lineitem::{cols, LineitemData, LineitemGen};
use matstrat_tpch::{JoinTables, TpchConfig};

/// One measured point of a figure.
#[derive(Debug, Clone)]
pub struct Point {
    /// Requested predicate selectivity (x-axis).
    pub selectivity: f64,
    /// Series label (strategy name).
    pub series: String,
    /// Measured wall-clock milliseconds (warm-CPU component).
    pub wall_ms: f64,
    /// Modeled cold-disk milliseconds from the I/O meter.
    pub io_ms: f64,
    /// Result rows produced.
    pub rows_out: u64,
}

impl Point {
    /// Total reported time.
    pub fn total_ms(&self) -> f64 {
        self.wall_ms + self.io_ms
    }
}

/// The three LINENUM encodings of Figures 11/12, in panel order.
pub const LINENUM_ENCODINGS: [EncodingKind; 3] =
    [EncodingKind::Plain, EncodingKind::Rle, EncodingKind::BitVec];

/// Default x-axis: selectivities from ~0 to ~1 like the paper's sweeps.
pub fn selectivity_points(n: usize) -> Vec<f64> {
    let n = n.max(2);
    (0..n)
        .map(|i| {
            let f = i as f64 / (n - 1) as f64;
            (0.01 + 0.98 * f).clamp(0.0, 1.0)
        })
        .collect()
}

/// Shared experiment context: one database with the lineitem projection
/// loaded once per LINENUM encoding, plus the join tables.
pub struct Harness {
    /// The database under test.
    pub db: Database,
    /// Generated lineitem data (for exact selectivity cutoffs).
    pub lineitem: LineitemData,
    /// lineitem projection per LINENUM encoding.
    pub tables: Vec<(EncodingKind, TableId)>,
    /// Join tables (orders ⋈ customer).
    pub join: JoinTables,
    /// orders table id.
    pub orders: TableId,
    /// customer table id.
    pub customer: TableId,
    /// Model constants: paper disk numbers + host-calibrated CPU numbers.
    pub constants: Constants,
}

impl Harness {
    /// Build everything at the given scale factor (paper: 10; default
    /// harness runs use 0.05–0.5 depending on time budget).
    pub fn new(scale: f64) -> Result<Harness> {
        let cfg = TpchConfig {
            scale,
            ..TpchConfig::default()
        };
        let db = Database::in_memory();
        let lineitem = LineitemGen::new(cfg).generate();
        let mut tables = Vec::new();
        for enc in LINENUM_ENCODINGS {
            let id = lineitem.load(&db, &format!("lineitem_{}", enc.name()), enc)?;
            tables.push((enc, id));
        }
        let join = JoinTables::generate(cfg);
        let orders = join.load_orders(&db, "orders")?;
        let customer = join.load_customer(&db, "customer")?;
        let constants = calibrate::calibrate(Constants::host_defaults());
        Ok(Harness {
            db,
            lineitem,
            tables,
            join,
            orders,
            customer,
            constants,
        })
    }

    /// Table id for a LINENUM encoding.
    pub fn table(&self, enc: EncodingKind) -> TableId {
        self.tables
            .iter()
            .find(|(e, _)| *e == enc)
            .map(|(_, t)| *t)
            .expect("encoding loaded")
    }

    /// The paper's selection query at the given SHIPDATE selectivity
    /// (LINENUM predicate fixed at `< 7`, 96 %).
    pub fn selection_query(&self, table: TableId, sf: f64) -> QuerySpec {
        let x = self.lineitem.shipdate_cutoff(sf);
        QuerySpec::select(table, vec![cols::SHIPDATE, cols::LINENUM])
            .filter(cols::SHIPDATE, Predicate::lt(x))
            .filter(cols::LINENUM, Predicate::lt(7))
    }

    /// The aggregation variant (GROUP BY SHIPDATE, SUM(LINENUM)).
    pub fn aggregation_query(&self, table: TableId, sf: f64) -> QuerySpec {
        self.selection_query(table, sf)
            .aggregate_sum(cols::SHIPDATE, cols::LINENUM)
    }

    /// Run one scan under a pinned strategy through the unified entry
    /// point (the figures sweep strategies; the planner stays out of it).
    pub fn run_forced(&self, q: &QuerySpec, strategy: Strategy) -> Result<QueryOutcome> {
        self.db.execute_planned(
            &Statement::Select(q.clone()),
            &QueryPlan::forced_scan(strategy),
            &self.db.exec_options(),
        )
    }

    /// Run one (query, strategy) cold and return its point: median wall
    /// time of [`Self::REPS`] cold runs (single runs are too noisy for
    /// curve shapes).
    pub fn measure(&self, q: &QuerySpec, strategy: Strategy, sf: f64) -> Result<Point> {
        let mut walls = Vec::with_capacity(Self::REPS);
        let mut io_ms = 0.0;
        let mut rows_out = 0u64;
        for _ in 0..Self::REPS {
            self.db.store().cold_reset();
            let out = self.run_forced(q, strategy)?;
            walls.push(out.stats.wall.as_secs_f64() * 1e3);
            io_ms = out
                .stats
                .io
                .modeled_micros(self.constants.seek, self.constants.read)
                / 1e3;
            rows_out = out.rows.num_rows() as u64;
        }
        walls.sort_by(f64::total_cmp);
        Ok(Point {
            selectivity: sf,
            series: strategy.name().to_string(),
            wall_ms: walls[walls.len() / 2],
            io_ms,
            rows_out,
        })
    }

    /// Cold runs per measured point (median reported).
    pub const REPS: usize = 3;

    /// Figures 11(a–c) / 12(a–c): the four strategies across the
    /// selectivity sweep for one LINENUM encoding.
    pub fn selection_figure(
        &self,
        enc: EncodingKind,
        aggregated: bool,
        sweep: &[f64],
    ) -> Result<Vec<Point>> {
        let table = self.table(enc);
        let mut points = Vec::new();
        for &sf in sweep {
            let q = if aggregated {
                self.aggregation_query(table, sf)
            } else {
                self.selection_query(table, sf)
            };
            for s in Strategy::ALL {
                // The paper leaves LM-pipelined out of the bit-vector
                // panels, Figs. 11(c)/12(c): its position fetch decodes (§4.1).
                if s == Strategy::LmPipelined && enc == EncodingKind::BitVec {
                    continue;
                }
                points.push(self.measure(&q, s, sf)?);
            }
        }
        Ok(points)
    }

    /// Figure 10: analytical model vs. measured runtime on the RLE
    /// projection. Returns (measured, modeled) point sets; modeled points
    /// use the host-calibrated CPU constants and F=1 (warm buffer pool),
    /// matching the measured warm-CPU wall time.
    pub fn model_vs_measured(&self, sweep: &[f64]) -> Result<(Vec<Point>, Vec<Point>)> {
        let enc = EncodingKind::Rle;
        let table = self.table(enc);
        let model = CostModel::new(self.constants);
        let mut measured = Vec::new();
        let mut modeled = Vec::new();
        for &sf in sweep {
            let q = self.selection_query(table, sf);
            for s in Strategy::ALL {
                // Warm-up then measure, so measured ≈ CPU (matching F=1).
                let _ = self.run_forced(&q, s)?;
                let mut walls = Vec::with_capacity(Self::REPS);
                let mut rows_out = 0u64;
                for _ in 0..Self::REPS {
                    let out = self.run_forced(&q, s)?;
                    walls.push(out.stats.wall.as_secs_f64() * 1e3);
                    rows_out = out.rows.num_rows() as u64;
                }
                walls.sort_by(f64::total_cmp);
                measured.push(Point {
                    selectivity: sf,
                    series: format!("{} Real", s.name()),
                    wall_ms: walls[walls.len() / 2],
                    io_ms: 0.0,
                    rows_out,
                });
            }
            // Model parameters from the catalog, with F=1.
            let store = self.db.store();
            let mut params = Planner::scan_params(store, &store.projection(table)?, &q)?;
            for col in &mut params.columns {
                col.resident = 1.0;
            }
            for s in Strategy::ALL {
                let est = model.estimate(s, &params, 1);
                modeled.push(Point {
                    selectivity: sf,
                    series: format!("{} Model", s.name()),
                    wall_ms: est.cpu_us / 1e3,
                    io_ms: est.io_us / 1e3,
                    rows_out: 0,
                });
            }
        }
        Ok((measured, modeled))
    }

    /// Figure 13: the join with each inner-table strategy across the
    /// orders-predicate selectivity sweep.
    pub fn join_figure(&self, sweep: &[f64]) -> Result<Vec<Point>> {
        use matstrat_tpch::join_tables::{customer_cols, orders_cols};
        let mut points = Vec::new();
        for &sf in sweep {
            let x = self.join.custkey_cutoff(sf);
            let spec = JoinSpec {
                left: self.orders,
                right: self.customer,
                left_key: orders_cols::CUSTKEY,
                right_key: customer_cols::CUSTKEY,
                left_filter: Some((orders_cols::CUSTKEY, Predicate::lt(x))),
                right_filter: None,
                left_output: vec![orders_cols::SHIPDATE],
                right_output: vec![customer_cols::NATIONCODE],
            };
            let stmt = Statement::JoinTree(JoinTreeSpec::new(vec![spec.clone()]));
            for inner in InnerStrategy::ALL {
                let plan = QueryPlan::forced_tree(vec![0], vec![inner]);
                let mut walls = Vec::with_capacity(Self::REPS);
                let mut io_ms = 0.0;
                let mut rows_out = 0u64;
                for _ in 0..Self::REPS {
                    self.db.store().cold_reset();
                    let out = self
                        .db
                        .execute_planned(&stmt, &plan, &self.db.exec_options())?;
                    walls.push(out.stats.wall.as_secs_f64() * 1e3);
                    io_ms = out
                        .stats
                        .io
                        .modeled_micros(self.constants.seek, self.constants.read)
                        / 1e3;
                    rows_out = out.rows.num_rows() as u64;
                }
                walls.sort_by(f64::total_cmp);
                points.push(Point {
                    selectivity: sf,
                    series: inner.name().to_string(),
                    wall_ms: walls[walls.len() / 2],
                    io_ms,
                    rows_out,
                });
            }
        }
        Ok(points)
    }
}

/// Render points as an aligned text table, one series per column —
/// the shape of the paper's plots.
pub fn format_table(points: &[Point]) -> String {
    let mut series: Vec<String> = Vec::new();
    for p in points {
        if !series.contains(&p.series) {
            series.push(p.series.clone());
        }
    }
    let mut sels: Vec<f64> = Vec::new();
    for p in points {
        if !sels.iter().any(|&s| (s - p.selectivity).abs() < 1e-12) {
            sels.push(p.selectivity);
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{:>12}", "selectivity"));
    for s in &series {
        out.push_str(&format!("  {s:>26}"));
    }
    out.push('\n');
    for &sel in &sels {
        out.push_str(&format!("{sel:>12.3}"));
        for s in &series {
            match points
                .iter()
                .find(|p| p.series == *s && (p.selectivity - sel).abs() < 1e-12)
            {
                Some(p) => out.push_str(&format!("  {:>23.2} ms", p.total_ms())),
                None => out.push_str(&format!("  {:>26}", "—")),
            }
        }
        out.push('\n');
    }
    out
}

/// Render points as CSV (`selectivity,series,wall_ms,io_ms,total_ms,rows`).
pub fn format_csv(points: &[Point]) -> String {
    let mut out = String::from("selectivity,series,wall_ms,io_ms,total_ms,rows\n");
    for p in points {
        out.push_str(&format!(
            "{:.4},{},{:.4},{:.4},{:.4},{}\n",
            p.selectivity,
            p.series,
            p.wall_ms,
            p.io_ms,
            p.total_ms(),
            p.rows_out
        ));
    }
    out
}

/// Table 2: paper constants next to host-calibrated ones.
pub fn format_table2(host: &Constants) -> String {
    let paper = Constants::paper();
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10} {:>14} {:>14}\n",
        "constant", "paper (µs)", "this host (µs)"
    ));
    for (name, p, h) in [
        ("BIC", paper.bic, host.bic),
        ("TIC_TUP", paper.tic_tup, host.tic_tup),
        ("TIC_COL", paper.tic_col, host.tic_col),
        ("FC", paper.fc, host.fc),
        ("PF", paper.pf, host.pf),
        ("SEEK", paper.seek, host.seek),
        ("READ", paper.read, host.read),
    ] {
        out.push_str(&format!("{name:>10} {p:>14.4} {h:>14.4}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_points_span_0_to_1() {
        let p = selectivity_points(5);
        assert_eq!(p.len(), 5);
        assert!(p[0] < 0.02 && p[4] > 0.98);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn harness_small_scale_end_to_end() {
        let h = Harness::new(0.002).unwrap();
        // All three lineitem encodings loaded.
        assert_eq!(h.tables.len(), 3);
        // One selection point for each strategy on RLE.
        let pts = h
            .selection_figure(EncodingKind::Rle, false, &[0.5])
            .unwrap();
        assert_eq!(pts.len(), 4);
        // All four strategies return the same row count.
        let rows: Vec<u64> = pts.iter().map(|p| p.rows_out).collect();
        assert!(rows.windows(2).all(|w| w[0] == w[1]), "{rows:?}");
        // Bit-vector panel drops LM-pipelined.
        let pts = h
            .selection_figure(EncodingKind::BitVec, false, &[0.5])
            .unwrap();
        assert_eq!(pts.len(), 3);
    }

    #[test]
    fn join_figure_counts_match_selectivity() {
        let h = Harness::new(0.002).unwrap();
        let pts = h.join_figure(&[0.4]).unwrap();
        assert_eq!(pts.len(), 3);
        let n_orders = h.join.orders.custkey.len() as f64;
        for p in &pts {
            let sel = p.rows_out as f64 / n_orders;
            assert!((sel - 0.4).abs() < 0.05, "{}: {sel}", p.series);
        }
    }

    #[test]
    fn formatting_round_trips_series() {
        let pts = vec![
            Point {
                selectivity: 0.1,
                series: "A".into(),
                wall_ms: 1.0,
                io_ms: 2.0,
                rows_out: 5,
            },
            Point {
                selectivity: 0.1,
                series: "B".into(),
                wall_ms: 3.0,
                io_ms: 0.0,
                rows_out: 5,
            },
        ];
        let t = format_table(&pts);
        assert!(t.contains("A") && t.contains("B") && t.contains("3.00 ms"));
        let c = format_csv(&pts);
        assert!(c.lines().count() == 3);
        assert!(c.contains("0.1000,A,1.0000,2.0000,3.0000,5"));
    }

    #[test]
    fn model_vs_measured_has_all_series() {
        let h = Harness::new(0.002).unwrap();
        let (real, model) = h.model_vs_measured(&[0.3]).unwrap();
        assert_eq!(real.len(), 4);
        assert_eq!(model.len(), 4);
        assert!(model.iter().any(|p| p.series == "LM-parallel Model"));
    }
}
