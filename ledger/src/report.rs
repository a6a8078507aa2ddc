//! The metric tables (the contract `BENCHMARK.json` repeats), the
//! printed `workload name value unit` lines, the results file, and the
//! comparison of two result sets against the end-to-end bounds.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::layers::Layers;
use crate::run::{Config, EndToEnd, Res};
use crate::workloads::Workload;

/// Whether more or less of a metric is the good direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the baseline's median by which the metric may get
    /// worse before a change counts as a regression.
    pub bound: f64,
    pub value: fn(&EndToEnd) -> f64,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported on every workload with tracing off.
pub const END_TO_END: [EndToEndDef; 8] = [
    // Median generate + load + boot over the run's set-ups, plus the
    // warm-up pass that records the oracle.
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        value: |e| e.setup_s,
    },
    // Correct statements completed per second of the timed window, all
    // clients together.
    EndToEndDef {
        name: "stmts_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        value: |e| e.stmts_per_s,
    },
    // Statement latency as the client saw it.
    EndToEndDef {
        name: "stmt_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        value: |e| e.stmt_p50_ms,
    },
    EndToEndDef {
        name: "stmt_p95_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        value: |e| e.stmt_p95_ms,
    },
    // 1 − failed ÷ attempted, where failed counts statements that
    // errored, were refused, or whose reply differs from the oracle,
    // and the durability checks on `mixed_rw`.
    EndToEndDef {
        name: "ok_share",
        unit: "ratio",
        better: Higher,
        bound: 0.001,
        value: |e| e.ok_share,
    },
    // The paper's reported time: mean statement wall time plus the
    // modeled cold-disk time at Table 2's SEEK and READ.
    EndToEndDef {
        name: "paper_ms_per_stmt",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        value: |e| e.paper_ms_per_stmt,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        value: |e| e.peak_rss_mb,
    },
    // Bytes on the disk (column files, catalog, logs, superseded
    // epochs) per 8-byte value loaded or inserted.
    EndToEndDef {
        name: "disk_bytes_per_user_byte",
        unit: "ratio",
        better: Lower,
        bound: 0.02,
        value: |e| e.disk_bytes_per_user_byte,
    },
];

/// The per-layer metrics `(name, unit, better)`, from the traced pass.
/// A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 83] = [
    ("frontend.read_frame_us", "us", Lower),
    ("frontend.render_us", "us", Lower),
    ("frontend.render_ns_per_row", "ns", Lower),
    ("frontend.render_bytes", "B", Lower),
    ("client.read_parse_us", "us", Lower),
    ("wire.roundtrip_us", "us", Lower),
    ("wire.residual_us", "us", Lower),
    ("net.served", "count", Higher),
    ("net.protocol_errors", "count", Lower),
    ("net.refused", "count", Lower),
    ("lang.compile_us", "us", Lower),
    ("planner.plan_us", "us", Lower),
    ("planner.pick_regret", "ratio", Lower),
    ("model.residual_ratio", "ratio", Lower),
    ("session.run_us", "us", Lower),
    ("session.overhead_us", "us", Lower),
    ("session.peak_active", "count", Lower),
    ("session.peak_queued", "count", Lower),
    ("session.admitted", "count", Higher),
    ("exec.execute_us", "us", Lower),
    ("exec.ns_per_row_scanned", "ns", Lower),
    ("exec.rows_examined_per_row_out", "ratio", Lower),
    ("exec.strategy_us.em-pipelined", "us", Lower),
    ("exec.strategy_us.em-parallel", "us", Lower),
    ("exec.strategy_us.lm-pipelined", "us", Lower),
    ("exec.strategy_us.lm-parallel", "us", Lower),
    ("exec.positions_matched", "count", Lower),
    ("exec.code_path_ops", "count", Higher),
    ("exec.zone_skips", "count", Higher),
    ("exec.steals", "count", Lower),
    ("exec.builds", "count", Lower),
    ("exec.build_reuses", "count", Higher),
    ("pipeline.speedup_w2", "ratio", Higher),
    ("pipeline.spawn_floor_us", "us", Lower),
    ("join.inner_us.materialized", "us", Lower),
    ("join.inner_us.multi-column", "us", Lower),
    ("join.inner_us.single-column", "us", Lower),
    ("join.build_only_us", "us", Lower),
    ("join.probe_us", "us", Lower),
    ("pool.hits", "count", Higher),
    ("pool.misses", "count", Lower),
    ("pool.evictions", "count", Lower),
    ("pool.hit_rate", "ratio", Higher),
    ("io.block_reads_per_stmt", "count", Lower),
    ("io.seeks_per_stmt", "count", Lower),
    ("io.bytes_read_per_stmt", "B", Lower),
    ("io.modeled_ms_per_stmt", "ms", Lower),
    ("block.fetch_cold_us.plain", "us", Lower),
    ("block.fetch_cold_us.rle", "us", Lower),
    ("block.fetch_cold_us.bitvec", "us", Lower),
    ("block.fetch_cold_us.dict", "us", Lower),
    ("block.fetch_warm_ns", "ns", Lower),
    ("block.scan_ns_per_value.plain", "ns", Lower),
    ("block.scan_ns_per_value.rle", "ns", Lower),
    ("block.scan_ns_per_value.bitvec", "ns", Lower),
    ("block.scan_ns_per_value.dict", "ns", Lower),
    ("block.decode_ns_per_value.plain", "ns", Lower),
    ("block.decode_ns_per_value.rle", "ns", Lower),
    ("block.decode_ns_per_value.bitvec", "ns", Lower),
    ("block.decode_ns_per_value.dict", "ns", Lower),
    ("poslist.and_ns_per_kpos.bitmap", "ns", Lower),
    ("poslist.and_ns_per_kpos.ranges", "ns", Lower),
    ("poslist.and_ns_per_kpos.explicit", "ns", Lower),
    ("write.insert_us", "us", Lower),
    ("write.delete_us", "us", Lower),
    ("wal.bytes_per_user_byte", "ratio", Lower),
    ("disk.writes", "count", Lower),
    ("disk.write_bytes", "B", Lower),
    ("disk.syncs", "count", Lower),
    ("disk.reads", "count", Lower),
    ("disk.read_bytes", "B", Lower),
    ("compact.runs", "count", Higher),
    ("compact.us", "us", Lower),
    ("compact.bytes_rewritten", "B", Lower),
    ("compact.stall_ratio", "ratio", Lower),
    ("delta.read_penalty", "ratio", Lower),
    ("class.read.p50_ms", "ms", Lower),
    ("class.write.p50_ms", "ms", Lower),
    ("tpch.generate_s", "s", Lower),
    ("storage.load_s", "s", Lower),
    ("storage.load_rows_per_s", "1/s", Higher),
    ("setup.warmup_s", "s", Lower),
    ("trace_overhead_pct", "%", Lower),
];

/// Metrics that must not differ at all between two runs of one build
/// on one seed: `(workload or "*", metric)`. On `mixed_rw` a reply's
/// `reads=` depends on what compaction last evicted, so its rendered
/// bytes and modeled I/O are not among them.
pub const EXACT: [(&str, &str); 11] = [
    ("*", "disk_bytes_per_user_byte"),
    ("wire_short", "frontend.render_bytes"),
    ("wire_bulk", "frontend.render_bytes"),
    ("scan_cold", "io.modeled_ms_per_stmt"),
    ("scan_cold", "io.block_reads_per_stmt"),
    ("scan_cold", "io.seeks_per_stmt"),
    ("scan_cold", "io.bytes_read_per_stmt"),
    ("scan_cold", "pool.misses"),
    ("scan_cold", "pool.evictions"),
    ("mixed_rw", "wal.bytes_per_user_byte"),
    ("mixed_rw", "disk.write_bytes"),
];

fn is_exact(workload: &str, metric: &str) -> bool {
    EXACT
        .iter()
        .any(|(w, m)| (*w == "*" || *w == workload) && *m == metric)
}

/// Everything one workload run measured.
pub struct Outcome {
    pub e2e: EndToEnd,
    /// Per-layer metrics, when the run was traced.
    pub layers: Option<Layers>,
    /// Sizes and settings, printed beside the metrics.
    pub info: Vec<(&'static str, String)>,
}

fn metric(value: f64, unit: &str) -> Json {
    // A ratio of idle counters can be NaN; JSON has no spelling for it.
    let value = if value.is_finite() { value } else { 0.0 };
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

impl Outcome {
    fn end_to_end_json(&self) -> Json {
        Json::obj(
            END_TO_END
                .iter()
                .map(|d| (d.name, metric((d.value)(&self.e2e), d.unit))),
        )
    }

    fn per_layer_json(&self, layers: &Layers) -> Json {
        Json::obj(PER_LAYER.iter().map(|(name, unit, _)| {
            (
                *name,
                metric(layers.get(*name).copied().unwrap_or(0.0), unit),
            )
        }))
    }

    /// The `workload name value unit` lines.
    pub fn print(&self, workload: Workload) {
        let w = workload.name();
        for (key, value) in &self.info {
            println!("{w} info.{key} {value}");
        }
        for d in &END_TO_END {
            println!("{w} {} {} {}", d.name, (d.value)(&self.e2e), d.unit);
        }
        println!(
            "{w} modeled_io_ms_per_stmt {} ms",
            self.e2e.modeled_io_ms_per_stmt
        );
        println!("{w} failed_share {} ratio", 1.0 - self.e2e.ok_share);
        if let Some(layers) = &self.layers {
            for (name, unit, _) in &PER_LAYER {
                // Layers the workload bypasses are left out here; the
                // results file carries them as 0.
                if let Some(value) = layers.get(*name) {
                    println!("{w} {name} {value} {unit}");
                }
            }
        }
    }

    /// The last line of a workload run's standard output: the
    /// end-to-end metrics with tracing off, the per-layer ones with it
    /// on.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.e2e.failed == 0)),
            ("attempted", Json::Num(self.e2e.attempted as f64)),
            ("failed", Json::Num(self.e2e.failed as f64)),
            (
                "metrics",
                match &self.layers {
                    Some(layers) => self.per_layer_json(layers),
                    None => self.end_to_end_json(),
                },
            ),
        ])
        .render()
    }

    /// The workload's results file: both metric sets and the settings.
    pub fn to_json(&self, cfg: &Config) -> Json {
        let mut pairs = vec![
            ("workload", Json::str(cfg.workload.name())),
            ("seed", Json::Num(cfg.seed as f64)),
            ("seconds", Json::Num(cfg.seconds)),
            ("scale", Json::Num(cfg.scale)),
            ("correct", Json::Bool(self.e2e.failed == 0)),
            ("attempted", Json::Num(self.e2e.attempted as f64)),
            ("failed", Json::Num(self.e2e.failed as f64)),
            ("end_to_end", self.end_to_end_json()),
        ];
        if let Some(layers) = &self.layers {
            pairs.push(("per_layer", self.per_layer_json(layers)));
        }
        pairs.push((
            "info",
            Json::obj(self.info.iter().map(|(k, v)| (*k, Json::str(v.clone())))),
        ));
        Json::obj(pairs)
    }
}

/// `workload → metric → one value per run`, for both metric sets.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ResultSet {
    pub end_to_end: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub per_layer: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub failed: u64,
}

impl ResultSet {
    /// Add the metrics of one workload: `body` holds `end_to_end` and
    /// `per_layer` objects whose metrics carry either one `value` (a
    /// workload results file) or every run's (`runs`, the combined file).
    fn merge(&mut self, workload: &str, body: &Json) -> Res<()> {
        for (section, into) in [
            ("end_to_end", &mut self.end_to_end),
            ("per_layer", &mut self.per_layer),
        ] {
            for (name, m) in body.get(section).map_or(&[][..], Json::members) {
                let runs: Vec<f64> = match m.get("runs") {
                    Some(runs) => runs.elements().iter().filter_map(Json::as_f64).collect(),
                    None => m.get("value").and_then(Json::as_f64).into_iter().collect(),
                };
                if runs.is_empty() {
                    return Err(format!("{workload} {name}: no value").into());
                }
                into.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .extend(runs);
            }
        }
        Ok(())
    }

    /// Add one workload results file (as written by [`Outcome::to_json`]).
    pub fn absorb(&mut self, doc: &Json) -> Res<()> {
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("results file names no workload")?;
        self.failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        self.merge(workload, doc)
    }

    /// The combined results file: per metric the median and every run.
    pub fn to_json(&self, settings: Vec<(&'static str, Json)>) -> Json {
        let section = |set: &BTreeMap<String, BTreeMap<String, Vec<f64>>>, w: &str| {
            Json::obj(set.get(w).into_iter().flatten().map(|(name, runs)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(crate::stats::median(runs.clone()))),
                        (
                            "runs",
                            Json::Arr(runs.iter().map(|v| Json::Num(*v)).collect()),
                        ),
                    ]),
                )
            }))
        };
        let workloads = Json::obj(self.end_to_end.keys().map(|w| {
            (
                w.clone(),
                Json::obj([
                    ("end_to_end", section(&self.end_to_end, w)),
                    ("per_layer", section(&self.per_layer, w)),
                ]),
            )
        }));
        let mut pairs = settings;
        pairs.push(("failed", Json::Num(self.failed as f64)));
        pairs.push(("workloads", workloads));
        Json::obj(pairs)
    }

    /// Read a combined results file back.
    pub fn from_json(doc: &Json) -> Res<ResultSet> {
        let mut set = ResultSet {
            failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            ..ResultSet::default()
        };
        let workloads = doc.get("workloads").ok_or("no \"workloads\" in results")?;
        for (w, body) in workloads.members() {
            set.merge(w, body)?;
        }
        Ok(set)
    }

    pub fn load(path: &Path) -> Res<ResultSet> {
        ResultSet::from_json(&Json::parse(&std::fs::read_to_string(path)?)?)
    }
}

/// How one metric of one workload moved between two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound, so neither
    /// "unchanged" nor "regressed" can be said.
    Unresolved,
}

/// `(max − min) ÷ median` of one side's runs; 0 for a single run.
fn spread(runs: &[f64]) -> f64 {
    let med = crate::stats::median(runs.to_vec());
    let (lo, hi) = runs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    if runs.len() < 2 || med == 0.0 {
        0.0
    } else {
        (hi - lo) / med.abs()
    }
}

/// Judge `new` against `old` for one end-to-end metric: how much worse
/// the new median is as a share of the old one, against the bound.
pub fn judge(def: &EndToEndDef, old: &[f64], new: &[f64]) -> (f64, Verdict) {
    let (o, n) = (
        crate::stats::median(old.to_vec()),
        crate::stats::median(new.to_vec()),
    );
    let worse = match def.better {
        Better::Lower => (n - o) / o.abs(),
        Better::Higher => (o - n) / o.abs(),
    };
    let verdict = if spread(old).max(spread(new)) > def.bound {
        Verdict::Unresolved
    } else if worse > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (n / o, verdict)
}

/// Print old, new, ratio and verdict per workload × end-to-end metric;
/// returns how many regressed.
pub fn compare(old: &ResultSet, new: &ResultSet) -> usize {
    let mut regressed = 0;
    println!("compare: workload metric old new new/old verdict (bound)");
    for (w, metrics) in &new.end_to_end {
        for def in &END_TO_END {
            let (Some(n), Some(o)) = (
                metrics.get(def.name),
                old.end_to_end.get(w).and_then(|m| m.get(def.name)),
            ) else {
                println!("compare: {w} {} missing on one side", def.name);
                continue;
            };
            let (new_over_old, verdict) = judge(def, o, n);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "compare: {w} {} {} {} {new_over_old:.4} {} (may worsen by {}, {} is better)",
                def.name,
                crate::stats::median(o.clone()),
                crate::stats::median(n.clone()),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                def.bound,
                def.better.name(),
            );
        }
    }
    regressed
}

/// The repeatability self-check over a set with ≥ 2 runs per metric:
/// no end-to-end metric may differ between runs by more than its own
/// bound, and no exact metric at all. Returns the offences.
pub fn repeatability(set: &ResultSet) -> Vec<String> {
    let mut offences = Vec::new();
    for (w, metrics) in &set.end_to_end {
        for def in &END_TO_END {
            let Some(runs) = metrics.get(def.name) else {
                continue;
            };
            let s = spread(runs);
            if is_exact(w, def.name) && s != 0.0 {
                offences.push(format!("{w} {} is exact but read {runs:?}", def.name));
            } else if s > def.bound {
                offences.push(format!(
                    "{w} {} spread {s:.4} over {runs:?} exceeds its bound {}",
                    def.name, def.bound
                ));
            }
        }
    }
    for (w, metrics) in &set.per_layer {
        for (name, runs) in metrics {
            if is_exact(w, name) && spread(runs) != 0.0 {
                offences.push(format!("{w} {name} is exact but read {runs:?}"));
            }
        }
    }
    offences
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEndDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let p50 = def("stmt_p50_ms");
        let over = 10.0 * (1.0 + p50.bound) + 0.1;
        assert_eq!(judge(p50, &[10.0], &[over - 0.2]).1, Verdict::Ok);
        assert_eq!(judge(p50, &[10.0], &[over]).1, Verdict::Regressed);
        assert_eq!(judge(p50, &[10.0], &[5.0]).1, Verdict::Ok);
        // One side's own runs disagree by more than the bound.
        assert_eq!(
            judge(p50, &[8.0, 10.0, 12.0 + 10.0 * p50.bound], &[over]).1,
            Verdict::Unresolved
        );
        let rate = def("stmts_per_s");
        let under = 100.0 * (1.0 - rate.bound) - 1.0;
        assert_eq!(judge(rate, &[100.0], &[under]).1, Verdict::Regressed);
        assert_eq!(judge(rate, &[100.0], &[under + 2.0]).1, Verdict::Ok);
        assert_eq!(judge(rate, &[100.0], &[300.0]), (3.0, Verdict::Ok));
    }

    #[test]
    fn result_set_round_trips_and_self_checks() {
        let mut set = ResultSet::default();
        for p50 in [10.0, 10.2] {
            let doc = Json::obj([
                ("workload", Json::str("scan_cold")),
                ("failed", Json::Num(0.0)),
                (
                    "end_to_end",
                    Json::obj([
                        ("stmt_p50_ms", metric(p50, "ms")),
                        ("disk_bytes_per_user_byte", metric(0.25, "ratio")),
                    ]),
                ),
                (
                    "per_layer",
                    Json::obj([(
                        "io.block_reads_per_stmt",
                        metric(11.0 + p50 - 10.0, "count"),
                    )]),
                ),
            ]);
            set.absorb(&doc).unwrap();
        }
        let text = set.to_json(vec![("seed", Json::Num(1.0))]).render();
        let back = ResultSet::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, set);
        assert_eq!(
            back.end_to_end["scan_cold"]["stmt_p50_ms"],
            vec![10.0, 10.2]
        );
        // p50 is inside its bound; the exact counter moved and is caught.
        let offences = repeatability(&set);
        assert_eq!(offences.len(), 1, "{offences:?}");
        assert!(offences[0].contains("io.block_reads_per_stmt"));
        assert_eq!(compare(&set, &back), 0);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let fits = |s: &str, max: usize, extra: &str| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(
                fits(n, 64, "_.-") && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|d| d.unit)
            .chain(PER_LAYER.iter().map(|(_, u, _)| *u))
        {
            assert!(fits(unit, 16, "_/%.-"), "{unit}");
        }
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }

    /// `BENCHMARK.json` as the tables above define it.
    fn benchmark_json() -> Json {
        let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
        Json::obj([
            (
                "command",
                strs(&[
                    "cargo",
                    "run",
                    "--release",
                    "--locked",
                    "--quiet",
                    "--manifest-path",
                    "ledger/Cargo.toml",
                    "--",
                ]),
            ),
            ("paths", strs(&["ledger"])),
            ("run_seconds", Json::Num(10.0)),
            (
                "workloads",
                Json::Arr(
                    Workload::ALL
                        .iter()
                        .map(|w| {
                            Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(
                    END_TO_END
                        .iter()
                        .map(|d| {
                            Json::obj([
                                ("name", Json::str(d.name)),
                                ("unit", Json::str(d.unit)),
                                ("better", Json::str(d.better.name())),
                                ("bound", Json::Num(d.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(
                    PER_LAYER
                        .iter()
                        .map(|(name, unit, better)| {
                            Json::obj([
                                ("name", Json::str(*name)),
                                ("unit", Json::str(*unit)),
                                ("better", Json::str(better.name())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// `BENCHMARK.json` is the contract; the tables above are what the
    /// program reports. They must say the same thing. Run the test with
    /// `LEDGER_BLESS=1` to rewrite the file from the tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let want = benchmark_json();
        if std::env::var_os("LEDGER_BLESS").is_some() {
            // One top-level key per line, one array element per line.
            let mut text = String::from("{\n");
            for (i, (key, value)) in want.members().iter().enumerate() {
                let last = i + 1 == want.members().len();
                let flat =
                    matches!(value, Json::Arr(items) if items.iter().all(|v| v.as_str().is_some()));
                match value {
                    Json::Arr(items) if !flat => {
                        text.push_str(&format!("  \"{key}\": [\n"));
                        for (j, item) in items.iter().enumerate() {
                            let comma = if j + 1 == items.len() { "" } else { "," };
                            text.push_str(&format!("    {}{comma}\n", item.render()));
                        }
                        text.push_str("  ]");
                    }
                    _ => text.push_str(&format!("  \"{key}\": {}", value.render())),
                }
                text.push_str(if last { "\n" } else { ",\n" });
            }
            text.push_str("}\n");
            std::fs::write(&path, text).unwrap();
        }
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc, want,
            "BENCHMARK.json and the tables in report.rs disagree"
        );
        assert!(std::fs::metadata(&path).unwrap().len() < 64 * 1024);
    }
}
