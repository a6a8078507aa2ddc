//! `ledger`: the repository's benchmark of record.
//!
//! `ledger --workload <name>` runs one workload in this process and
//! prints every metric as `workload name value unit`, then one JSON
//! line. Without `--workload` it runs all six, each in a child process
//! of its own so `peak_rss_mb` is per workload, and writes
//! `results.json`. See `README.md` beside this crate.

mod disk;
mod fixture;
mod json;
mod layers;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use report::{Outcome, ResultSet};
use run::{peak_rss_mb, timed, Bench, Config, Res, Sample, Stop, Window, SETUP_REPS, WIRE_CLIENTS};
use spans::Recorder;
use stats::{percentile, ratio, sorted};
use workloads::{deck, Transport, Workload, WRITES_PER_COMPACTION};

/// Executor workers and buffer-pool shards, pinned for every run (the
/// sandbox has two cores) and recorded in the output.
const THREADS: &str = "2";
const POOL_SHARDS: &str = "2";

const USAGE: &str = "usage: ledger [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1]
              [--scale <f>] [--out <dir>] [--repeat <n>] [--compare <results.json>]
  --workload  wire_short | wire_bulk | scan_warm | join_warm | scan_cold | mixed_rw;
              without it, every workload runs in a child process and results.json is written
  --seed      drives the generated data, the predicate constants and the statement order (1)
  --seconds   length of the timed window (10)
  --trace     1 adds the traced pass and makes the last line carry the per-layer metrics (0;
              a full run always traces)
  --scale     TPC-H scale factor (0.1: 600 k lineitem rows)
  --out       directory for results and trace files (ledger-out)
  --repeat    full run only: run the whole set n times; with n >= 2, fail unless the runs agree
  --compare   full run only: judge this run against an earlier results.json; fail on a regression";

struct Args {
    cfg: Config,
    all: bool,
    repeat: usize,
    compare: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        cfg: Config {
            workload: Workload::WireShort,
            seed: 1,
            seconds: 10.0,
            scale: 0.1,
            trace: false,
            out: Some(PathBuf::from("ledger-out")),
        },
        all: true,
        repeat: 1,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                out.cfg.workload = Workload::parse(value).ok_or_else(bad)?;
                out.all = false;
            }
            "--seed" => out.cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (0.0..=600.0).contains(s))
                    .ok_or_else(bad)?
            }
            "--trace" => {
                out.cfg.trace = matches!(value.as_str(), "1")
                    .then_some(true)
                    .or((value == "0").then_some(false))
                    .ok_or_else(bad)?
            }
            "--scale" => {
                out.cfg.scale = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 10.0)
                    .ok_or_else(bad)?
            }
            "--out" => out.cfg.out = Some(PathBuf::from(value)),
            "--repeat" => {
                out.repeat = value
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or_else(bad)?
            }
            "--compare" => out.compare = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(out)
}

fn class_lines(window: &Window) -> Vec<String> {
    let mut classes: Vec<&'static str> = window.samples.iter().map(|s| s.class).collect();
    classes.sort_unstable();
    classes.dedup();
    classes
        .into_iter()
        .map(|class| {
            let mut ms: Vec<f64> = window
                .samples
                .iter()
                .filter(|s| s.class == class)
                .map(Sample::millis)
                .collect();
            let ms = sorted(&mut ms);
            format!(
                "{class}: n={} share={:.3} p50={:.4}ms p95={:.4}ms",
                ms.len(),
                ms.len() as f64 / window.samples.len() as f64,
                percentile(ms, 0.5),
                percentile(ms, 0.95)
            )
        })
        .collect()
}

/// Run one workload in this process.
fn run_workload(cfg: &Config) -> Res<Outcome> {
    let w = cfg.workload;
    let mut b = Bench::setup(cfg.clone())?;
    b.window(Stop::AfterDeck, None)?;
    let (window, _) = b.window(timed(cfg.seconds), None)?;
    let rss = peak_rss_mb();
    b.repeat_setups()?;
    let rate = |win: &Window| {
        ratio(
            win.samples.iter().filter(|s| s.ok).count() as f64,
            win.wall_s,
        )
    };

    let mut extra = (0u64, 0u64);
    let mut layers = None;
    if cfg.trace {
        let t0 = Instant::now();
        let mut rec = Recorder::new(t0);
        let mut m = b.layers(&window, &mut rec)?;
        // The timed window once more with every client recording spans:
        // what looking costs.
        let (traced, spans) = b.window(timed(cfg.seconds / 2.0), Some(t0))?;
        rec.absorb(spans.expect("a traced window records"));
        extra.0 += traced.samples.len() as u64;
        extra.1 += traced.samples.iter().filter(|s| !s.ok).count() as u64;
        m.insert(
            "trace_overhead_pct".into(),
            100.0 * ratio(rate(&window) - rate(&traced), rate(&window)),
        );
        b.kernels(&mut m)?;
        m.insert("tpch.generate_s".into(), b.fx.generate_s);
        m.insert("storage.load_s".into(), b.fx.load_s);
        m.insert(
            "storage.load_rows_per_s".into(),
            ratio(b.fx.rows as f64, b.fx.load_s),
        );
        m.insert("setup.warmup_s".into(), b.warmup_s);
        if let Some(dir) = &cfg.out {
            std::fs::create_dir_all(dir)?;
            std::fs::write(
                dir.join(format!("{}.trace.json", w.name())),
                rec.to_json(w.name()),
            )?;
        }
        for (name, ns) in rec.self_nanos() {
            println!("{} trace.self_ms.{name} {} ms", w.name(), ns as f64 / 1e6);
        }
        println!("{} trace.spans {} count", w.name(), rec.spans().len());
        layers = Some(m);
    }
    let (checks, lost) = b.durability()?;
    let wire_failures = b.wire_failures();
    extra = (
        extra.0 + checks + wire_failures,
        extra.1 + lost + wire_failures,
    );
    let e2e = b.end_to_end(&window, rss, extra);

    let clients = match (w.transport(), w) {
        (_, Workload::MixedRw) => "1 reader + 1 writer over TCP".to_string(),
        (Transport::Wire, _) => format!("{WIRE_CLIENTS} over TCP"),
        (Transport::InProcess, _) => "1 in-process driver thread".to_string(),
    };
    let mut info = vec![
        ("why", w.why().to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("scale", cfg.scale.to_string()),
        ("load", format!("closed loop, {clients}")),
        (
            "threads",
            format!(
                "MATSTRAT_THREADS={THREADS}, workers per statement {}",
                w.shape(None).workers
            ),
        ),
        (
            "pool_shards",
            format!(
                "MATSTRAT_POOL_SHARDS={POOL_SHARDS}, pool reports {}",
                b.fx.store.pool().num_shards()
            ),
        ),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rows", b.fx.rows.to_string()),
        ("user_bytes", (8 * b.fx.user_values).to_string()),
        ("database_blocks", b.fx.total_blocks()?.to_string()),
        ("pool_blocks", b.fx.pool_blocks.to_string()),
        (
            "working_set_blocks",
            b.working_set_blocks
                .map_or("fits the pool".to_string(), |n| n.to_string()),
        ),
        (
            "flush_policy",
            "MemDisk::sync is a no-op: WAL encode, CRC and append are measured, the device is not"
                .to_string(),
        ),
        (
            "setups",
            format!(
                "{SETUP_REPS} (median {:.4}s) + warm-up {:.4}s",
                b.build_s(),
                b.warmup_s
            ),
        ),
        (
            "statements",
            format!(
                "{} distinct, deck of {}",
                b.stmts.len(),
                deck(&b.stmts).len()
            ),
        ),
        (
            "samples",
            format!(
                "{} timed statements in {:.3}s, {} slice(s){}",
                window.samples.len(),
                window.wall_s,
                e2e.slices,
                if e2e.samples_ok {
                    ""
                } else {
                    " (fewer than 200: p95 has under ten samples beyond it)"
                }
            ),
        ),
    ];
    if w == Workload::MixedRw {
        let read_at = if b.snapshot(&window).is_some() {
            format!("when compaction {} returned", run::SNAPSHOT_CYCLE)
        } else {
            "at the window's end (it held too few compactions)".to_string()
        };
        info.push((
            "compactions",
            format!(
                "{} in the window, one per {WRITES_PER_COMPACTION} writes; disk ratio read {read_at}",
                window.compactions.len()
            ),
        ));
    }
    for line in class_lines(&window) {
        info.push(("class", line));
    }
    Ok(Outcome { e2e, layers, info })
}

/// Run every workload `repeat` times, each run in a child process.
fn run_all(args: &Args, out: &Path) -> Res<ResultSet> {
    let exe = std::env::current_exe()?;
    let mut set = ResultSet::default();
    for round in 0..args.repeat {
        for w in Workload::ALL {
            println!(
                "ledger: round {} of {}, workload {}",
                round + 1,
                args.repeat,
                w.name()
            );
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", "1"])
                .args(["--seed", &args.cfg.seed.to_string()])
                .args(["--seconds", &args.cfg.seconds.to_string()])
                .args(["--scale", &args.cfg.scale.to_string()])
                .arg("--out")
                .arg(out)
                .status()?;
            if !status.success() {
                return Err(format!("workload {} exited with {status}", w.name()).into());
            }
            let text = std::fs::read_to_string(out.join(format!("{}.json", w.name())))?;
            set.absorb(&Json::parse(&text)?)?;
        }
    }
    Ok(set)
}

fn run(args: &Args) -> Res<bool> {
    let out = args.cfg.out.clone().expect("--out has a default");
    if !args.all {
        let outcome = run_workload(&args.cfg)?;
        outcome.print(args.cfg.workload);
        std::fs::create_dir_all(&out)?;
        std::fs::write(
            out.join(format!("{}.json", args.cfg.workload.name())),
            outcome.to_json(&args.cfg).render() + "\n",
        )?;
        println!("{}", outcome.contract_line());
        return Ok(true);
    }
    let baseline = args.compare.as_deref().map(ResultSet::load).transpose()?;
    let set = run_all(args, &out)?;
    let settings = vec![
        ("seed", Json::Num(args.cfg.seed as f64)),
        ("seconds", Json::Num(args.cfg.seconds)),
        ("scale", Json::Num(args.cfg.scale)),
        ("threads", Json::str(THREADS)),
        ("pool_shards", Json::str(POOL_SHARDS)),
        ("repeat", Json::Num(args.repeat as f64)),
    ];
    let path = out.join("results.json");
    std::fs::write(&path, set.to_json(settings).render() + "\n")?;
    println!("ledger: wrote {}", path.display());
    let mut ok = set.failed == 0;
    if !ok {
        println!("ledger: {} failed operations", set.failed);
    }
    if args.repeat >= 2 {
        let offences = report::repeatability(&set);
        for o in &offences {
            println!("repeat: {o}");
        }
        println!("repeat: {} runs, {} offences", args.repeat, offences.len());
        ok &= offences.is_empty();
    }
    if let Some(old) = &baseline {
        let regressed = report::compare(old, &set);
        println!("compare: {regressed} regressed");
        ok &= regressed == 0;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // Before any thread exists and before the library reads them (it
    // reads each once per process).
    std::env::set_var("MATSTRAT_THREADS", THREADS);
    std::env::set_var("MATSTRAT_POOL_SHARDS", POOL_SHARDS);
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload end to end on a database five hundred times smaller:
    /// set-up, ramp, window, traced pass, kernels, durability.
    fn smoke(workload: Workload) {
        {
            let cfg = Config {
                workload,
                seed: 11,
                seconds: 0.2,
                scale: 0.002,
                trace: true,
                out: None,
            };
            let outcome = run_workload(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let e = &outcome.e2e;
            assert!(e.attempted > 0, "{}", workload.name());
            assert_eq!(e.failed, 0, "{}", workload.name());
            assert_eq!(e.ok_share, 1.0, "{}", workload.name());
            for d in &report::END_TO_END {
                let v = (d.value)(e);
                assert!(
                    v.is_finite() && v > 0.0,
                    "{} {} = {v}",
                    workload.name(),
                    d.name
                );
            }
            assert_eq!(
                e.modeled_io_ms_per_stmt > 0.0,
                workload.cold(),
                "{}",
                workload.name()
            );
            let layers = outcome.layers.as_ref().expect("traced");
            for name in layers.keys() {
                assert!(
                    report::PER_LAYER.iter().any(|(n, _, _)| n == name),
                    "{name} is reported but not in PER_LAYER"
                );
            }
            assert_eq!(layers["net.protocol_errors"], 0.0);
            assert!(layers["wire.roundtrip_us"] > 0.0 && layers["lang.compile_us"] > 0.0);
            assert_eq!(
                layers.contains_key("write.insert_us"),
                workload == Workload::MixedRw
            );
            // The last line is the contract's shape in both modes.
            for (traced, count) in [
                (true, report::PER_LAYER.len()),
                (false, report::END_TO_END.len()),
            ] {
                let line = Outcome {
                    layers: outcome.layers.clone().filter(|_| traced),
                    e2e: *e,
                    info: vec![],
                }
                .contract_line();
                let doc = Json::parse(&line).unwrap();
                let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(doc.get("metrics").unwrap().members().len(), count);
                assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            }
        }
    }

    #[test]
    fn smoke_wire_short() {
        smoke(Workload::WireShort);
    }

    #[test]
    fn smoke_wire_bulk() {
        smoke(Workload::WireBulk);
    }

    #[test]
    fn smoke_scan_warm() {
        smoke(Workload::ScanWarm);
    }

    #[test]
    fn smoke_join_warm() {
        smoke(Workload::JoinWarm);
    }

    #[test]
    fn smoke_scan_cold() {
        smoke(Workload::ScanCold);
    }

    #[test]
    fn smoke_mixed_rw() {
        smoke(Workload::MixedRw);
    }

    #[test]
    fn arguments_parse_or_explain() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = args(&[
            "--workload",
            "scan_cold",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(!a.all && a.cfg.trace);
        assert_eq!(
            (a.cfg.workload, a.cfg.seed, a.cfg.seconds),
            (Workload::ScanCold, 9, 2.5)
        );
        assert!(args(&[]).unwrap().all);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--trace", "2"],
            &["--scale", "0"],
            &["--frobnicate", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
