//! The analytical model as an advisor: print which strategy the §3 cost
//! model recommends across the (selectivity × encoding × aggregation)
//! space, and locate the EM/LM crossover — the decision procedure the
//! paper suggests embedding in a query optimizer.
//!
//! ```text
//! cargo run --release --example strategy_advisor
//! ```

use matstrat::model::{ColumnParams, Constants, CostModel, ScanFilter, ScanParams, Strategy};

/// Paper-scale column profiles (§3.7 / §4), 60 M rows: the paper's
/// `shipdate < X AND linenum < Y` selecting both columns. The paper's
/// model has no zone maps, so every filter's DS1 reads its whole column
/// (`zone: 1.0`).
fn profile(encoding: &str, sf1: f64) -> ScanParams {
    let n = 60_000_000.0;
    // SHIPDATE: always RLE, 1 block, 3,800 runs.
    let shipdate = ColumnParams::cold(1.0, n, n / 3800.0);
    let linenum = match encoding {
        // LINENUM uncompressed: 916 blocks of 1-byte values.
        "plain" => ColumnParams::cold(916.0, n, 1.0),
        // LINENUM RLE: 5 blocks, 26,726 runs.
        "rle" => ColumnParams::cold(5.0, n, n / 26_726.0),
        // LINENUM bit-vector: ~25 % of plain size.
        _ => ColumnParams {
            bit_vector: true,
            ..ColumnParams::cold(229.0, n, 1.0)
        },
    };
    let sf2 = 27.0 / 28.0;
    ScanParams {
        rows: n,
        columns: vec![shipdate, linenum],
        filters: vec![
            ScanFilter {
                column: 0,
                sf: sf1,
                pos_run_len: (n * sf1 / 3.0).max(1.0), // clustered (3 RETURNFLAG groups)
                zone: 1.0,
            },
            ScanFilter {
                column: 1,
                sf: sf2,
                pos_run_len: if encoding == "rle" {
                    (n * sf2 / 26_726.0).max(1.0)
                } else {
                    1.0
                },
                zone: 1.0,
            },
        ],
        outputs: vec![0, 1],
        groups: None,
    }
}

fn main() {
    let model = CostModel::new(Constants::host_defaults());
    let sweep: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();

    for aggregated in [false, true] {
        println!(
            "\n== recommended strategy, {} query (paper scale 10) ==",
            if aggregated {
                "aggregation"
            } else {
                "selection"
            }
        );
        println!(
            "{:>12} {:>14} {:>14} {:>14}",
            "selectivity", "plain", "rle", "bitvec"
        );
        for &sf in &sweep {
            print!("{sf:>12.1}");
            for enc in ["plain", "rle", "bitvec"] {
                let mut q = profile(enc, sf);
                if aggregated {
                    q.groups = Some(2526.0);
                }
                let best = Strategy::ALL
                    .into_iter()
                    .map(|k| (k, model.estimate(k, &q, 1).total_us()))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("four strategies")
                    .0;
                print!(" {:>14}", best.name());
            }
            println!();
        }
    }

    // Locate the EM-parallel / LM-pipelined crossover on uncompressed
    // data (Figure 11(a)'s headline feature) by bisection.
    let crossing = |sf: f64| {
        let q = profile("plain", sf);
        let lm = model.estimate(Strategy::LmPipelined, &q, 1).total_us();
        let em = model.estimate(Strategy::EmParallel, &q, 1).total_us();
        lm - em
    };
    let (mut lo, mut hi) = (0.001, 0.999);
    if crossing(lo) < 0.0 && crossing(hi) > 0.0 {
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if crossing(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        println!(
            "\nmodelled EM-parallel / LM-pipelined crossover on uncompressed data: \
             selectivity ≈ {:.3}",
            0.5 * (lo + hi)
        );
        println!("below it, skip-friendly late materialization wins; above it, building");
        println!("tuples once at the leaves is cheaper than per-position jumps.");
    } else {
        println!("\nno EM/LM crossover inside (0, 1) for this profile");
    }
}
