//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p matstrat-bench --bin figures -- all
//! cargo run --release -p matstrat-bench --bin figures -- fig11 --scale 0.1 --points 11
//! ```
//!
//! Subcommands: `table2`, `fig10`, `fig11`, `fig12`, `fig13`, `all`.
//! Output goes to stdout and, as CSV, to `results/<experiment>.csv`.
//! The exit status is non-zero when an argument is bad or any
//! experiment fails.

use std::fs;
use std::process::ExitCode;

use matstrat_bench::{
    format_csv, format_table, format_table2, selectivity_points, Harness, Point, LINENUM_ENCODINGS,
};

/// The experiments `figures` can run.
const COMMANDS: [&str; 6] = ["table2", "fig10", "fig11", "fig12", "fig13", "all"];

struct Args {
    command: String,
    scale: f64,
    points: usize,
    out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "all".to_string(),
        scale: 0.1,
        points: 11,
        out_dir: "results".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut command_set = false;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                args.scale = argv
                    .get(i)
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--points" => {
                i += 1;
                args.points = argv
                    .get(i)
                    .ok_or("--points needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --points: {e}"))?;
            }
            "--out" => {
                i += 1;
                args.out_dir = argv.get(i).ok_or("--out needs a value")?.clone();
            }
            cmd if !command_set && !cmd.starts_with("--") => {
                if !COMMANDS.contains(&cmd) {
                    return Err(format!("unknown experiment '{cmd}'"));
                }
                args.command = cmd.to_string();
                command_set = true;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn save(out_dir: &str, name: &str, points: &[Point]) {
    let _ = fs::create_dir_all(out_dir);
    let path = format!("{out_dir}/{name}.csv");
    if let Err(e) = fs::write(&path, format_csv(points)) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("  (csv written to {path})");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: figures [table2|fig10|fig11|fig12|fig13|all] [--scale S] [--points N] [--out DIR]");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "matstrat figure harness — scale factor {} ({} lineitem rows), {} sweep points",
        args.scale,
        (6_000_000.0 * args.scale) as u64,
        args.points
    );
    println!("building database (generation + load + calibration)...");
    let h = match Harness::new(args.scale) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to build harness: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sweep = selectivity_points(args.points);
    let run = |name: &str| args.command == name || args.command == "all";
    let mut failed = false;

    if run("table2") {
        println!("\n== Table 2: analytical model constants ==");
        print!("{}", format_table2(&h.constants));
    }

    if run("fig10") {
        println!("\n== Figure 10: predicted vs. actual, selection query, RLE columns ==");
        match h.model_vs_measured(&sweep) {
            Ok((real, model)) => {
                let lm: Vec<Point> = real
                    .iter()
                    .chain(&model)
                    .filter(|p| p.series.starts_with("LM"))
                    .cloned()
                    .collect();
                let em: Vec<Point> = real
                    .iter()
                    .chain(&model)
                    .filter(|p| p.series.starts_with("EM"))
                    .cloned()
                    .collect();
                println!("-- (a) late materialization --");
                print!("{}", format_table(&lm));
                println!("-- (b) early materialization --");
                print!("{}", format_table(&em));
                save(&args.out_dir, "fig10a_lm", &lm);
                save(&args.out_dir, "fig10b_em", &em);
            }
            Err(e) => {
                eprintln!("fig10 failed: {e}");
                failed = true;
            }
        }
    }

    for (fig, aggregated) in [("fig11", false), ("fig12", true)] {
        if !run(fig) {
            continue;
        }
        let what = if aggregated {
            "aggregation"
        } else {
            "selection"
        };
        println!(
            "\n== Figure {}: {} query, four strategies ==",
            &fig[3..],
            what
        );
        for (panel, enc) in ["a", "b", "c"].iter().zip(LINENUM_ENCODINGS) {
            println!("-- ({panel}) LINENUM {} --", enc.name());
            match h.selection_figure(enc, aggregated, &sweep) {
                Ok(points) => {
                    print!("{}", format_table(&points));
                    save(
                        &args.out_dir,
                        &format!("{fig}{panel}_{}", enc.name()),
                        &points,
                    );
                }
                Err(e) => {
                    eprintln!("{fig}({panel}) failed: {e}");
                    failed = true;
                }
            }
        }
    }

    if run("fig13") {
        println!("\n== Figure 13: join inner-table materialization strategies ==");
        match h.join_figure(&sweep) {
            Ok(points) => {
                print!("{}", format_table(&points));
                save(&args.out_dir, "fig13_join", &points);
            }
            Err(e) => {
                eprintln!("fig13 failed: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
