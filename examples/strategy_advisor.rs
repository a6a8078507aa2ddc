//! The analytical model as an advisor: print which strategy the §3 cost
//! model recommends across the (selectivity × encoding × aggregation)
//! space, and locate the EM/LM crossover — the decision procedure the
//! paper suggests embedding in a query optimizer.
//!
//! ```text
//! cargo run --release --example strategy_advisor
//! ```

use matstrat::model::plans::{PlanKind, QueryParams};
use matstrat::model::{ColumnParams, Constants, CostModel};

/// Paper-scale column profiles (§3.7 / §4): 60 M rows.
fn profile(encoding: &str, sf1: f64) -> QueryParams {
    let n = 60_000_000.0;
    // SHIPDATE: always RLE, 1 block, 3,800 runs.
    let c1 = ColumnParams {
        blocks: 1.0,
        rows: n,
        run_len: n / 3800.0,
        resident: 0.0,
        code_width: 8.0,
        shared_dict: false,
    };
    let c2 = match encoding {
        // LINENUM uncompressed: 916 blocks of 1-byte values.
        "plain" => ColumnParams {
            blocks: 916.0,
            rows: n,
            run_len: 1.0,
            resident: 0.0,
            code_width: 8.0,
            shared_dict: false,
        },
        // LINENUM RLE: 5 blocks, 26,726 runs.
        "rle" => ColumnParams {
            blocks: 5.0,
            rows: n,
            run_len: n / 26_726.0,
            resident: 0.0,
            code_width: 8.0,
            shared_dict: false,
        },
        // LINENUM bit-vector: ~25 % of plain size.
        _ => ColumnParams {
            blocks: 229.0,
            rows: n,
            run_len: 1.0,
            resident: 0.0,
            code_width: 8.0,
            shared_dict: false,
        },
    };
    let mut q = QueryParams::selection(n, c1, c2, sf1, 27.0 / 28.0);
    q.pos_run_len1 = (n * sf1 / 3.0).max(1.0); // clustered (3 RETURNFLAG groups)
    q.pos_run_len2 = if encoding == "rle" {
        (n * q.sf2 / 26_726.0).max(1.0)
    } else {
        1.0
    };
    if encoding == "bitvec" {
        q.bitstring2 = true;
        q.c2_supports_ds3 = false;
        q.c2_decompress_fetch = true;
    }
    q
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
                    q.aggregated = true;
                    q.num_groups = 2526.0;
                }
                let best = PlanKind::ALL
                    .into_iter()
                    .filter_map(|k| model.estimate(k, &q, 1).map(|c| (k, c.total_us())))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("EM plans are always supported")
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
        let lm = model
            .estimate(PlanKind::LmPipelined, &q, 1)
            .expect("plain supports DS3")
            .total_us();
        let em = model
            .estimate(PlanKind::EmParallel, &q, 1)
            .unwrap()
            .total_us();
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
