//! Model-driven strategy selection — the paper's §6 conclusion put to
//! work: *"Using an analytical model to predict query performance can
//! facilitate materialization strategy decision-making."*
//!
//! The planner derives the model's parameters from catalog statistics
//! (block counts, row counts, run lengths, min/max for selectivity) and
//! asks [`CostModel`] for the cheapest plan, one model entry per operator
//! family:
//!
//! * **Scans**, whatever their filter count, are priced under all four
//!   strategies with [`CostModel::estimate`], over the statement's own
//!   filters, outputs (or group and value columns) and column shapes
//!   ([`Planner::scan_params`]). Each filter's selectivity and the share
//!   of blocks its zone maps admit come from the column's per-block
//!   min/max, so a range on a sorted key is priced at the block or two
//!   an LM leaf actually reads.
//! * **Joins** of any edge count — a plain join is a one-edge tree — go
//!   through one path: enumerate the candidate edge orders, price each
//!   with [`CostModel::join_tree`] (which keeps each edge's cheapest
//!   inner-table representation), and keep the cheapest order.

use std::fmt::Write;

use matstrat_common::{Predicate, Result, TableId, Value};
use matstrat_model::plans::{BushyReduction, JoinTreeCost, JoinTreeEdgeParams};
use matstrat_model::{
    ColumnParams, Constants, CostBreakdown, CostModel, JoinParams, ScanFilter, ScanParams,
};
use matstrat_storage::{ColumnInfo, ColumnReader, EncodingKind, ProjectionInfo, SortOrder, Store};

use crate::ops::join_tree::JoinTreePlan;
use crate::pipeline::FragmentPipeline;
use crate::query::{JoinKeySource, JoinTreeSpec, QuerySpec};
use crate::{InnerStrategy, Strategy};

/// Why the planner picked what it picked.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// Model estimate for the chosen plan, when the model was used.
    pub estimate: Option<CostBreakdown>,
    /// Estimates for every strategy the model could price.
    pub alternatives: Vec<(Strategy, CostBreakdown)>,
    /// Human-readable reasoning.
    pub reason: String,
}

/// The planner's pick for a whole join tree: an execution order plus one
/// inner-table strategy per edge, with every candidate it rejected.
#[derive(Debug, Clone)]
pub struct JoinTreeChoice {
    /// Chosen execution order (indices into `spec.edges`).
    pub order: Vec<usize>,
    /// Chosen inner-table strategy per edge, indexed by **spec**
    /// position.
    pub inners: Vec<InnerStrategy>,
    /// Chosen bushy flag per edge, indexed by **spec** position (empty
    /// means a pure left-deep plan). A bushy snowflake edge's subtree is
    /// built first and semi-join-reduces its parent's hash table.
    pub bushy: Vec<bool>,
    /// Total estimate of the chosen plan (`tree.total`).
    pub estimate: CostBreakdown,
    /// The chosen plan's per-edge costs and chained cardinality
    /// estimates (execution order), from [`CostModel::join_tree`]. Its
    /// total adds the serial delta-merge surcharge, which no edge
    /// carries.
    pub tree: JoinTreeCost,
    /// For each execution slot of the chosen order: all three
    /// representations priced, the rejected ones included (without
    /// bushy-reduction scans or the delta-merge surcharge).
    pub edge_alternatives: Vec<Vec<(InnerStrategy, CostBreakdown)>>,
    /// Every execution order evaluated (each with its per-edge-best
    /// strategies) and its total estimate — the chosen order included.
    pub candidates: Vec<(Vec<usize>, f64)>,
    /// Human-readable reasoning.
    pub reason: String,
}

impl PlanChoice {
    /// One-line EXPLAIN-style summary: the pick plus the reasoning.
    pub fn describe(&self) -> String {
        format!("scan via {}: {}", self.strategy, self.reason)
    }
}

impl JoinTreeChoice {
    /// One-line EXPLAIN-style summary: order, inner strategies, reasoning.
    pub fn describe(&self) -> String {
        format!(
            "join tree, order {:?}, inners {:?}: {}",
            self.order, self.inners, self.reason
        )
    }

    /// The executable plan this choice describes.
    pub fn plan(&self) -> JoinTreePlan {
        JoinTreePlan {
            order: self.order.clone(),
            inners: self.inners.clone(),
            bushy: self.bushy.clone(),
            reuse_builds: true,
        }
    }
}

/// Edge-order enumeration switches from exhaustive to greedy above this
/// many edges (4! = 24 orders × 3 representations per edge stays cheap;
/// 7! would not).
const EXHAUSTIVE_ORDER_EDGES: usize = 4;

/// What planning one join tree reads from the catalog, gathered once per
/// [`Planner::choose_join_tree`] call: every candidate order is priced
/// from it without touching the store again.
struct TreeInputs {
    /// Order-independent model inputs per spec edge (see
    /// [`Planner::tree_inputs`]).
    edges: Vec<JoinParams>,
    /// Workers the right output representation of each spec edge is
    /// built with: the pipeline's skew guard on its inner table.
    build_workers: Vec<usize>,
    /// Workers every probe uses: the skew guard on the base table.
    probe_workers: usize,
    /// Selectivity of the base filter, applied once before the first
    /// probe of whatever edge executes first.
    base_sf: f64,
    /// Base output columns and their total blocks, fetched once at the
    /// top of the tree.
    base_out: (f64, f64),
    /// Serial delta-merge CPU: the base table's tail window probes after
    /// the fragments, each edge's build reads its inner table's tail
    /// blocks. The same for every order.
    delta_cpu: f64,
}

/// One execution order priced at its cheapest bushy configuration.
struct PricedOrder {
    order: Vec<usize>,
    bushy: Vec<bool>,
    /// The slots as priced, in execution order.
    edges: Vec<JoinTreeEdgeParams>,
    /// The composed tree; its total includes the delta-merge surcharge.
    tree: JoinTreeCost,
}

impl PricedOrder {
    /// The representation each edge runs, indexed by spec position.
    fn inners(&self) -> Vec<InnerStrategy> {
        let mut inners = vec![InnerStrategy::MultiColumn; self.order.len()];
        for (&ei, &(kind, _)) in self.order.iter().zip(&self.tree.edges) {
            inners[ei] = kind;
        }
        inners
    }

    /// The EXPLAIN reasoning for this order as the pick among
    /// `candidates` orders.
    fn reason(&self, candidates: usize) -> String {
        let mut out = String::with_capacity(256);
        self.write_reason(&mut out, candidates)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_reason(&self, out: &mut String, candidates: usize) -> std::fmt::Result {
        let plural = |n: usize| if n == 1 { "" } else { "s" };
        write!(
            out,
            "analytical model over {candidates} order{}: [",
            plural(candidates)
        )?;
        for (slot, ei) in self.order.iter().enumerate() {
            write!(out, "{}{ei}", if slot == 0 { "" } else { " → " })?;
        }
        out.push_str("] with [");
        for (slot, &(kind, _)) in self.tree.edges.iter().enumerate() {
            write!(out, "{}{}", if slot == 0 { "" } else { ", " }, kind.name())?;
        }
        let estimate = self.tree.total;
        write!(
            out,
            "] predicted {:.2} ms (cpu {:.2} + io {:.2}, ~{:.0} rows out",
            estimate.total_ms(),
            estimate.cpu_us / 1000.0,
            estimate.io_us / 1000.0,
            self.tree.out_rows(),
        )?;
        let probe_workers = self.edges.first().map_or(1, |e| e.probe_workers);
        if probe_workers > 1 {
            write!(out, ", {probe_workers} probe workers")?;
        }
        let build_workers = self
            .edges
            .iter()
            .map(|e| e.build_workers)
            .max()
            .unwrap_or(1);
        if build_workers > 1 {
            write!(out, ", {build_workers} build workers")?;
        }
        let reused = self.edges.iter().filter(|e| e.build_reused).count();
        if reused > 0 {
            write!(out, ", {reused} build reuse{}", plural(reused))?;
        }
        let code_keyed = self.edges.iter().filter(|e| e.params.code_keyed).count();
        if code_keyed > 0 {
            write!(out, ", {code_keyed} code-keyed edge{}", plural(code_keyed))?;
        }
        let bushy = self.bushy.iter().filter(|b| **b).count();
        if bushy > 0 {
            write!(
                out,
                ", {bushy} bushy edge{} (semi-join reduced)",
                plural(bushy)
            )?;
        }
        out.push(')');
        Ok(())
    }
}

/// The strategy chooser.
#[derive(Debug, Clone)]
pub struct Planner {
    model: CostModel,
    /// Worker threads the executor will use; the model divides CPU terms
    /// by this so `choose()` prices plans as they will actually run.
    parallelism: usize,
}

impl Planner {
    /// Planner with the given model constants, pricing serial execution.
    pub fn new(constants: Constants) -> Planner {
        Planner::with_parallelism(constants, 1)
    }

    /// Planner pricing execution on `workers` granule-parallel threads.
    pub fn with_parallelism(constants: Constants, workers: usize) -> Planner {
        Planner {
            model: CostModel::new(constants),
            parallelism: workers.max(1),
        }
    }

    /// The worker count the planner prices against.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The underlying cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Pick a strategy for `q`: the cheapest of the four, as the model
    /// prices them over one catalog snapshot.
    pub fn choose(&self, store: &Store, q: &QuerySpec) -> Result<PlanChoice> {
        let (proj, delta_cpu) = self.snapshot(store, q.table)?;
        let params = Self::scan_params(store, &proj, q)?;
        // The pipeline's skew guard caps workers at the table's granule
        // count — a one-granule table runs serially no matter the knob —
        // so price with the worker count that will actually run, not the
        // nominal one; otherwise small tables get CPU terms divided by
        // threads that never spawn and the plan choice can flip wrongly.
        let effective =
            FragmentPipeline::effective_workers(proj.num_rows, crate::GRANULE, self.parallelism);
        let alternatives: Vec<(Strategy, CostBreakdown)> = Strategy::ALL
            .iter()
            .map(|&s| {
                let mut cost = self.model.estimate(s, &params, effective);
                cost.cpu_us += delta_cpu;
                (s, cost)
            })
            .collect();
        let &(strategy, estimate) = alternatives
            .iter()
            .min_by(|a, b| a.1.total_us().total_cmp(&b.1.total_us()))
            .expect("four strategies");
        let workers = if effective > 1 {
            format!(", {effective} workers")
        } else {
            String::new()
        };
        Ok(PlanChoice {
            strategy,
            estimate: Some(estimate),
            alternatives,
            reason: format!(
                "analytical model: {} predicted {:.2} ms (cpu {:.2} + io {:.2}{workers})",
                strategy.name(),
                estimate.total_ms(),
                estimate.cpu_us / 1000.0,
                estimate.io_us / 1000.0
            ),
        })
    }

    /// `table`'s catalog entry and the serial CPU surcharge for its
    /// in-memory delta rows: they are read as tail blocks in one window
    /// that runs on one thread after the span fragments, priced at `fc`
    /// (the model's per-tuple function-call cost) per live insert row —
    /// for **every** strategy alike. The term never flips a choice (it is a
    /// constant across alternatives) but keeps reported totals honest as
    /// the delta fraction grows and compaction lag becomes visible in
    /// plans.
    fn snapshot(&self, store: &Store, table: TableId) -> Result<(ProjectionInfo, f64)> {
        let (proj, delta) = store.scan_snapshot(table)?;
        let live_inserts = delta.map_or(0, |d| d.num_inserts() - d.insert_deletes().len());
        Ok((proj, live_inserts as f64 * self.model.constants().fc))
    }

    /// Pick an execution order **and** a per-edge inner-table strategy
    /// for a join tree of any edge count (a plain join is a one-edge
    /// tree), priced with [`CostModel::join_tree`]'s chained
    /// intermediate cardinalities and build-reuse discounts.
    ///
    /// Every dependency-respecting order is enumerated exhaustively up
    /// to 4 edges; larger trees are planned greedily (smallest estimated
    /// cardinality multiplier first), with the spec order always among
    /// the candidates. Within an order the composer keeps each edge's
    /// cheapest representation. Probe CPU divides by the workers the
    /// pipeline's skew guard allows on the base table, each build's by
    /// the guard on its inner table, and the shared I/O by neither.
    pub fn choose_join_tree(&self, store: &Store, spec: &JoinTreeSpec) -> Result<JoinTreeChoice> {
        spec.validate()?;
        let inputs = self.tree_inputs(store, spec)?;
        let mut best: Option<PricedOrder> = None;
        let mut candidates: Vec<(Vec<usize>, f64)> = Vec::new();
        for order in Self::candidate_orders(spec, &inputs) {
            let priced = self.price_order(spec, &inputs, order);
            let total = priced.tree.total_us();
            candidates.push((priced.order.clone(), total));
            if best.as_ref().is_none_or(|b| total < b.tree.total_us()) {
                best = Some(priced);
            }
        }
        let best = best.expect("at least the spec order is a candidate");
        let reason = best.reason(candidates.len());
        let inners = best.inners();
        let edge_alternatives = best.tree.alternatives.iter().map(|a| a.to_vec()).collect();
        Ok(JoinTreeChoice {
            order: best.order,
            inners,
            bushy: best.bushy,
            estimate: best.tree.total,
            tree: best.tree,
            edge_alternatives,
            candidates,
            reason,
        })
    }

    /// Every execution order worth pricing: all dependency-respecting
    /// permutations for small trees, or spec order plus a greedy
    /// smallest-multiplier-first order for large ones.
    fn candidate_orders(spec: &JoinTreeSpec, inputs: &TreeInputs) -> Vec<Vec<usize>> {
        let n = spec.edges.len();
        if n <= EXHAUSTIVE_ORDER_EDGES {
            let mut orders = Vec::new();
            let mut current = Vec::with_capacity(n);
            let mut placed = vec![false; n];
            Self::permute_orders(spec, &mut current, &mut placed, &mut orders);
            return orders;
        }
        // Greedy: repeatedly run the edge that shrinks (or grows) the
        // intermediate least — the standard smallest-intermediate
        // rule — among the dependency-eligible ones.
        let multiplier = |e: usize| inputs.edges[e].match_rate * inputs.edges[e].fanout;
        let mut greedy = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        while greedy.len() < n {
            let next = (0..n)
                .filter(|&e| !placed[e] && Self::deps_placed(spec, e, &placed))
                .min_by(|&a, &b| multiplier(a).total_cmp(&multiplier(b)))
                .expect("spec order is dependency-valid, so some edge is eligible");
            placed[next] = true;
            greedy.push(next);
        }
        let spec_order: Vec<usize> = (0..n).collect();
        if greedy == spec_order {
            vec![spec_order]
        } else {
            vec![spec_order, greedy]
        }
    }

    fn deps_placed(spec: &JoinTreeSpec, edge: usize, placed: &[bool]) -> bool {
        match spec.key_source(edge) {
            Ok(JoinKeySource::Edge(j)) => placed[j],
            _ => true,
        }
    }

    fn permute_orders(
        spec: &JoinTreeSpec,
        current: &mut Vec<usize>,
        placed: &mut [bool],
        out: &mut Vec<Vec<usize>>,
    ) {
        let n = spec.edges.len();
        if current.len() == n {
            out.push(current.clone());
            return;
        }
        for e in 0..n {
            if !placed[e] && Self::deps_placed(spec, e, placed) {
                placed[e] = true;
                current.push(e);
                Self::permute_orders(spec, current, placed, out);
                current.pop();
                placed[e] = false;
            }
        }
    }

    /// Price one execution order with the model's composer. Every subset
    /// of the snowflake edges is additionally tried **bushy** — the
    /// subset with the lowest total wins, with ties going to fewer bushy
    /// edges (the reduction is never free, so a useless one strictly
    /// loses).
    fn price_order(
        &self,
        spec: &JoinTreeSpec,
        inputs: &TreeInputs,
        order: Vec<usize>,
    ) -> PricedOrder {
        let left_deep = Self::tree_edge_params(spec, inputs, &order);
        let snowflake: Vec<usize> = (0..spec.edges.len())
            .filter(|&ei| matches!(spec.key_source(ei), Ok(JoinKeySource::Edge(_))))
            .collect();
        // 2^k configurations; beyond the exhaustive cap only the
        // left-deep plan and single-edge reductions are tried.
        let configs: Vec<u32> = if snowflake.len() <= EXHAUSTIVE_ORDER_EDGES {
            (0..(1u32 << snowflake.len())).collect()
        } else {
            std::iter::once(0)
                .chain((0..snowflake.len() as u32).map(|b| 1 << b))
                .collect()
        };
        let mut best: Option<PricedOrder> = None;
        for mask in configs {
            let bushy: Vec<bool> = if mask == 0 {
                Vec::new()
            } else {
                let mut v = vec![false; spec.edges.len()];
                for (bit, &ei) in snowflake.iter().enumerate() {
                    if mask & (1 << bit) != 0 {
                        v[ei] = true;
                    }
                }
                v
            };
            let mut edges = left_deep.clone();
            let reductions = Self::bushy_setup(spec, &order, &mut edges, &bushy);
            let mut tree = self.model.join_tree(&edges, &reductions);
            tree.total.cpu_us += inputs.delta_cpu;
            if best
                .as_ref()
                .is_none_or(|b| tree.total_us() < b.tree.total_us())
            {
                best = Some(PricedOrder {
                    order: order.clone(),
                    bushy,
                    edges,
                    tree,
                });
            }
        }
        best.expect("the left-deep configuration is always priced")
    }

    /// Fold `bushy` into priced edge params: each bushy child edge is
    /// re-rated at match rate 1.0 (every surviving parent row matches the
    /// reduced table by construction) and a [`BushyReduction`] carries
    /// its original match rate onto the parent's slot. Returns the
    /// reductions for [`CostModel::join_tree`].
    fn bushy_setup(
        spec: &JoinTreeSpec,
        order: &[usize],
        edge_params: &mut [JoinTreeEdgeParams],
        bushy: &[bool],
    ) -> Vec<BushyReduction> {
        let mut reductions = Vec::new();
        for (child_slot, &ei) in order.iter().enumerate() {
            if !bushy.get(ei).copied().unwrap_or(false) {
                continue;
            }
            let Ok(JoinKeySource::Edge(parent)) = spec.key_source(ei) else {
                continue;
            };
            let parent_slot = order
                .iter()
                .position(|&e| e == parent)
                .expect("validated order covers every edge");
            let keep_rate = edge_params[child_slot].params.match_rate;
            edge_params[child_slot].params.match_rate = 1.0;
            reductions.push(BushyReduction {
                parent_slot,
                keep_rate,
                scan_rows: edge_params[parent_slot].params.right_rows(),
            });
        }
        reductions
    }

    /// The model inputs for `order`, in execution order: the base
    /// filter's selectivity on the first slot (the model chains the
    /// probe rows of the rest), the base outputs on the last (whose
    /// output cardinality is the tree's), and build-reuse flags for
    /// repeated (inner table, key column) pairs.
    fn tree_edge_params(
        spec: &JoinTreeSpec,
        inputs: &TreeInputs,
        order: &[usize],
    ) -> Vec<JoinTreeEdgeParams> {
        let build_key = |ei: usize| (spec.edges[ei].right, spec.edges[ei].right_key);
        let mut out = Vec::with_capacity(order.len());
        for (slot, &ei) in order.iter().enumerate() {
            let mut params = inputs.edges[ei];
            if slot == 0 {
                params.sf = inputs.base_sf;
            }
            if slot + 1 == order.len() {
                (params.left_out_cols, params.left_out_blocks) = inputs.base_out;
            }
            out.push(JoinTreeEdgeParams {
                params,
                build_workers: inputs.build_workers[ei],
                probe_workers: inputs.probe_workers,
                build_reused: order[..slot].iter().any(|&e| build_key(e) == build_key(ei)),
            });
        }
        out
    }

    /// Read everything `spec` is priced from, taking one catalog
    /// snapshot per table. Each edge's order-independent [`JoinParams`]
    /// carry the key column shapes, the match rate from the key domains'
    /// overlap, the fan-out from the right key's duplication, and the
    /// edge's right outputs; `sf` and the base outputs are left at 1.0
    /// and 0 for [`Self::tree_edge_params`] to place.
    fn tree_inputs(&self, store: &Store, spec: &JoinTreeSpec) -> Result<TreeInputs> {
        let mut tables: Vec<(TableId, ProjectionInfo, f64)> = Vec::new();
        for id in std::iter::once(spec.base()).chain(spec.edges.iter().map(|e| e.right)) {
            if !tables.iter().any(|t| t.0 == id) {
                let (proj, delta_cpu) = self.snapshot(store, id)?;
                tables.push((id, proj, delta_cpu));
            }
        }
        let table = |id: TableId| {
            let t = tables
                .iter()
                .find(|t| t.0 == id)
                .expect("snapshotted above");
            (&t.1, t.2)
        };
        let workers = |proj: &ProjectionInfo| {
            FragmentPipeline::effective_workers(proj.num_rows, crate::GRANULE, self.parallelism)
        };
        let sum_blocks = |proj: &ProjectionInfo, cols: &[usize]| -> Result<f64> {
            let mut total = 0.0;
            for &c in cols {
                total += proj.column(c)?.stats.num_blocks as f64;
            }
            Ok(total)
        };

        let column = |proj: &ProjectionInfo, col| {
            store
                .reader_for(proj, None, col)
                .map(|r| Self::column_params(&r))
        };

        let (base, mut delta_cpu) = table(spec.base());
        let first = &spec.edges[0];
        let base_sf = match &first.left_filter {
            Some((col, pred)) => Self::selectivity(base.column(*col)?, pred),
            None => 1.0,
        };
        let base_out = (
            first.left_output.len() as f64,
            sum_blocks(base, &first.left_output)?,
        );
        let mut edges = Vec::with_capacity(spec.edges.len());
        let mut build_workers = Vec::with_capacity(spec.edges.len());
        for (ei, edge) in spec.edges.iter().enumerate() {
            let (right, right_delta) = table(edge.right);
            delta_cpu += right_delta;
            build_workers.push(workers(right));
            let rkey = right.column(edge.right_key)?;
            let source = spec.key_source(ei)?;
            let (left_table, hash_key) = match source {
                JoinKeySource::Base => (spec.base(), None),
                JoinKeySource::Edge(j) => (spec.edges[j].right, Some(spec.edges[j].right_key)),
            };
            let lkey = table(left_table).0.column(edge.left_key)?;
            let mut lkey_params = column(table(left_table).0, edge.left_key)?;
            // Snowflake keys indexed out of the through table's
            // *hash-key* decode cost no I/O — the executor reuses the
            // `SharedBuild::keys` it already holds. Keying on any other
            // column makes the executor fetch + decode that column once
            // at build time, so its blocks stay priced.
            if hash_key == Some(edge.left_key) {
                lkey_params.blocks = 0.0;
            }
            let mut params = JoinParams::fk_join(lkey_params, column(right, edge.right_key)?, 1.0);
            params.code_keyed =
                source == JoinKeySource::Base && Self::code_keyed_eligible(lkey, rkey);
            // Fraction of probe keys that land inside the right key's
            // min/max domain, under uniformity — 1.0 for a clean FK join,
            // < 1 when left keys overhang the right domain.
            let lo = lkey.stats.min.max(rkey.stats.min) as f64;
            let hi = lkey.stats.max.min(rkey.stats.max) as f64;
            let l_span = (lkey.stats.max - lkey.stats.min) as f64 + 1.0;
            params.match_rate = ((hi - lo + 1.0) / l_span).clamp(0.0, 1.0);
            // A pushed-down inner predicate thins the build at construction
            // time, exactly like a semi-join reduction: fewer probes match.
            if let Some((col, pred)) = &edge.right_filter {
                params.match_rate *= Self::selectivity(right.column(*col)?, pred);
            }
            // Right-key duplication: matches per matching probe.
            params.fanout = rkey.stats.num_rows as f64 / rkey.stats.distinct.max(1) as f64;
            params.left_out_cols = 0.0;
            params.left_out_blocks = 0.0;
            params.right_out_cols = edge.right_output.len() as f64;
            params.right_out_blocks = sum_blocks(right, &edge.right_output)?;
            edges.push(params);
        }
        Ok(TreeInputs {
            edges,
            build_workers,
            probe_workers: workers(base),
            base_sf,
            base_out,
            delta_cpu,
        })
    }

    /// Whether a hash join over these two key columns can run in the
    /// code domain: both sides dictionary-encoded against a column-wide
    /// shared (sorted) dictionary, over what the statistics say is the
    /// same value domain — the executor additionally verifies the dict
    /// fingerprints at build time, so this is a pricing signal, not a
    /// correctness gate.
    fn code_keyed_eligible(lkey: &ColumnInfo, rkey: &ColumnInfo) -> bool {
        lkey.shared_dict
            && rkey.shared_dict
            && lkey.encoding == EncodingKind::Dict
            && rkey.encoding == EncodingKind::Dict
            && lkey.stats.distinct == rkey.stats.distinct
            && lkey.stats.min == rkey.stats.min
            && lkey.stats.max == rkey.stats.max
    }

    /// Estimate a predicate's selectivity from min/max statistics under a
    /// uniformity assumption.
    fn selectivity(col: &ColumnInfo, pred: &matstrat_common::Predicate) -> f64 {
        pred.uniform_selectivity(col.stats.min, col.stats.max)
    }

    /// `RL_p` of the position list a DS1 over `col` emits, for a range
    /// predicate of selectivity `sf`.
    ///
    /// * A column sorted on itself (or a sort-key column) produces
    ///   *clustered* matches: the matching positions coalesce into one
    ///   run per higher-order sort group — for the paper's secondary-
    ///   sorted SHIPDATE, one run per RETURNFLAG value.
    /// * An unsorted column produces one position run per matching value
    ///   run, so `RL_p` equals the column's own run length.
    fn pos_run_len(proj: &ProjectionInfo, col: &ColumnInfo, sf: f64, n: f64) -> f64 {
        let clustered = col.sort != SortOrder::None || col.self_sorted();
        if clustered {
            // Number of groups above this column in the sort key.
            let groups: f64 = proj
                .columns
                .iter()
                .filter(|c| c.sort.rank() < col.sort.rank())
                .map(|c| c.stats.distinct.max(1) as f64)
                .product();
            ((n * sf) / groups.max(1.0)).max(1.0)
        } else {
            col.stats.avg_run_len().max(1.0)
        }
    }

    /// The model's shape of the column `reader` reads.
    fn column_params(reader: &ColumnReader) -> ColumnParams {
        let col = reader.info();
        // Stored code width mirrors DictBlock's choice: 1/2/4 bytes by
        // dictionary cardinality; non-dict columns iterate full values.
        let code_width = if col.encoding == EncodingKind::Dict {
            match col.stats.distinct {
                0..=255 => 1.0,
                256..=65_535 => 2.0,
                _ => 4.0,
            }
        } else {
            8.0
        };
        ColumnParams {
            blocks: col.stats.num_blocks as f64,
            rows: col.stats.num_rows as f64,
            run_len: col.stats.avg_run_len(),
            resident: reader.resident_fraction(),
            code_width,
            shared_dict: col.shared_dict,
            bit_vector: col.encoding == EncodingKind::BitVec,
        }
    }

    /// The model's description of scan `q` over `proj`, its table's
    /// catalog snapshot: row count, every column `q` reads (in
    /// [`QuerySpec::accessed_columns`] order, each read through one
    /// reader on `proj`), each filter's zone share, selectivity and
    /// position-list run length, the output (or group and value)
    /// columns, and the group count.
    pub fn scan_params(store: &Store, proj: &ProjectionInfo, q: &QuerySpec) -> Result<ScanParams> {
        let n = proj.num_rows as f64;
        let accessed = q.accessed_columns();
        let slot = |c: usize| {
            accessed
                .iter()
                .position(|&a| a == c)
                .expect("accessed_columns covers every column the query names")
        };
        let readers = accessed
            .iter()
            .map(|&c| store.reader_for(proj, None, c))
            .collect::<Result<Vec<_>>>()?;
        let mut filters = Vec::with_capacity(q.filters.len());
        for (c, pred) in &q.filters {
            let reader = &readers[slot(*c)];
            let (zone, sf) = Self::zone_selectivity(reader, pred)?;
            filters.push(ScanFilter {
                column: slot(*c),
                sf,
                pos_run_len: Self::pos_run_len(proj, reader.info(), sf, n),
                zone,
            });
        }
        let (outputs, groups) = match q.aggregate {
            Some(a) => (
                vec![slot(a.group_col), slot(a.value_col)],
                Some(proj.column(a.group_col)?.stats.distinct as f64),
            ),
            None => (q.output.iter().map(|&c| slot(c)).collect(), None),
        };
        Ok(ScanParams {
            rows: n,
            columns: readers.iter().map(Self::column_params).collect(),
            filters,
            outputs,
            groups,
        })
    }

    /// `(zone, sf)` of `pred` over the file blocks `reader` reads: the
    /// share of rows in blocks whose zone map admits it, and its
    /// selectivity with the zone maps as a histogram of one uniform
    /// bucket per block. A block of unknown zone (`Value::MIN..=MAX`, a
    /// file written before zone maps) counts at the column's catalog
    /// estimate. Tail blocks are not walked: the delta surcharge prices
    /// them.
    fn zone_selectivity(reader: &ColumnReader, pred: &Predicate) -> Result<(f64, f64)> {
        let catalog = Self::selectivity(reader.info(), pred);
        let (mut rows, mut admitted, mut matching) = (0.0, 0.0, 0.0);
        for idx in 0..reader.num_blocks() {
            let b = reader.block_meta(idx)?;
            let n = b.count as f64;
            rows += n;
            if b.zone_overlaps(pred) {
                admitted += n;
                matching += n * match (b.min, b.max) {
                    (Value::MIN, Value::MAX) => catalog,
                    (lo, hi) => pred.uniform_selectivity(lo, hi),
                };
            }
        }
        Ok(if rows > 0.0 {
            (admitted / rows, matching / rows)
        } else {
            (1.0, catalog)
        })
    }
}

impl Default for Planner {
    fn default() -> Planner {
        Planner::with_parallelism(
            Constants::host_defaults(),
            crate::exec::default_parallelism(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::join::JoinSpec;
    use matstrat_common::{Predicate, Value};
    use matstrat_storage::{ProjectionSpec, SortOrder as So, Store};

    /// lineitem-shaped projection: retflag (3 values, primary, RLE),
    /// shipdate (100 values, secondary, RLE), linenum (7 values, plain).
    fn setup(linenum_enc: EncodingKind) -> (Store, matstrat_common::TableId) {
        setup_rows(linenum_enc, 30_000)
    }

    /// [`setup`] at `n` rows.
    fn setup_rows(linenum_enc: EncodingKind, n: usize) -> (Store, matstrat_common::TableId) {
        let store = Store::in_memory();
        let mut rows: Vec<(Value, Value, Value)> = (0..n)
            .map(|i| {
                (
                    (i % 3) as Value,
                    ((i * 37) % 100) as Value,
                    ((i * 7) % 7 + 1) as Value,
                )
            })
            .collect();
        rows.sort_unstable();
        let rf: Vec<Value> = rows.iter().map(|r| r.0).collect();
        let sd: Vec<Value> = rows.iter().map(|r| r.1).collect();
        let ln: Vec<Value> = rows.iter().map(|r| r.2).collect();
        let spec = ProjectionSpec::new("lineitem")
            .column("retflag", EncodingKind::Rle, So::Primary)
            .column("shipdate", EncodingKind::Rle, So::Secondary)
            .column("linenum", linenum_enc, So::Tertiary);
        let id = store.load_projection(&spec, &[&rf, &sd, &ln]).unwrap();
        (store, id)
    }

    #[test]
    fn modeled_choice_prefers_lm_for_rle_aggregation() {
        let (store, id) = setup(EncodingKind::Rle);
        let planner = Planner::default();
        let q = QuerySpec::select(id, vec![])
            .filter(1, Predicate::lt(80))
            .filter(2, Predicate::lt(7))
            .aggregate_sum(1, 2);
        let choice = planner.choose(&store, &q).unwrap();
        assert!(
            choice.strategy.is_late(),
            "got {:?}: {}",
            choice.strategy,
            choice.reason
        );
        assert!(choice.estimate.is_some());
        assert!(!choice.alternatives.is_empty());
    }

    #[test]
    fn bitvec_later_filter_is_priced_under_lm_pipelined() {
        // LM-pipelined fetches a bit-vector later filter's values at the
        // survivors: priced like any later filter, its DS3 paying the
        // column's decode, one TICCOL per row.
        let (store, id) = setup(EncodingKind::BitVec);
        let planner = Planner::with_parallelism(Constants::host_defaults(), 1);
        let q = QuerySpec::select(id, vec![1, 2])
            .filter(1, Predicate::lt(80))
            .filter(2, Predicate::lt(7));
        let choice = planner.choose(&store, &q).unwrap();
        let priced: Vec<Strategy> = choice.alternatives.iter().map(|a| a.0).collect();
        assert_eq!(priced, Strategy::ALL);
        let params = Planner::scan_params(&store, &store.projection(id).unwrap(), &q).unwrap();
        assert!(params.columns[1].bit_vector);
        let mut unpacked = params.clone();
        unpacked.columns[1].bit_vector = false;
        let model = planner.model();
        let bits = model.estimate(Strategy::LmPipelined, &params, 1);
        let flat = model.estimate(Strategy::LmPipelined, &unpacked, 1);
        let decode = params.rows * model.constants().tic_col;
        assert!((bits.cpu_us - flat.cpu_us - decode).abs() < 1e-9 * decode);
        assert!(choice.alternatives.contains(&(Strategy::LmPipelined, bits)));
    }

    /// `ids` as a sorted Plain key, beside Plain `linenum` (1..=7) and
    /// `quantity` columns, cold.
    fn keyed_setup(ids: &[Value]) -> (Store, matstrat_common::TableId) {
        let store = Store::in_memory();
        let linenum: Vec<Value> = (0..ids.len()).map(|i| (i % 7 + 1) as Value).collect();
        let quantity: Vec<Value> = (0..ids.len()).map(|i| (i % 50) as Value).collect();
        let spec = ProjectionSpec::new("events")
            .column("id", EncodingKind::Plain, So::Primary)
            .column("linenum", EncodingKind::Plain, So::None)
            .column("quantity", EncodingKind::Plain, So::None);
        let id = store
            .load_projection(&spec, &[ids, &linenum, &quantity])
            .unwrap();
        store.cold_reset();
        (store, id)
    }

    #[test]
    fn zone_maps_see_past_a_skewed_key_domain() {
        // One outlier id stretches the catalog's domain a hundredfold, so
        // its uniform estimate calls `id < 100000` 1 % selective. The
        // zone maps bucket the domain by block: the predicate covers
        // every block but the last, whose 1 720 ids share it with the
        // outlier.
        let ids: Vec<Value> = (0..100_000).chain([10_000_000]).collect();
        let (store, id) = keyed_setup(&ids);
        let q = QuerySpec::select(id, vec![])
            .filter(0, Predicate::lt(100_000))
            .aggregate_sum(1, 2);
        let proj = store.projection(id).unwrap();
        assert!(Planner::selectivity(proj.column(0).unwrap(), &q.filters[0].1) < 0.011);
        let params = Planner::scan_params(&store, &proj, &q).unwrap();
        assert!(params.filters[0].sf >= 0.98, "{:?}", params.filters[0]);
        let choice = Planner::default().choose(&store, &q).unwrap();
        assert!(choice.strategy.is_late(), "{}", choice.reason);
    }

    #[test]
    fn short_range_on_a_sorted_key_is_priced_at_its_blocks() {
        // 64 ids of a sorted Plain key live in one or two blocks: an LM
        // leaf reads only those, while EM reads every block of both
        // columns.
        let ids: Vec<Value> = (0..100_000).collect();
        let (store, id) = keyed_setup(&ids);
        let q = QuerySpec::select(id, vec![0, 2]).filter(0, Predicate::between(40_000, 40_063));
        let params = Planner::scan_params(&store, &store.projection(id).unwrap(), &q).unwrap();
        let blocks = params.columns[0].blocks;
        assert!(blocks > 2.0, "want a multi-block key, got {blocks}");
        assert!(
            params.filters[0].zone * blocks <= 2.0,
            "{:?}",
            params.filters[0]
        );
        let choice = Planner::default().choose(&store, &q).unwrap();
        let io = |s: Strategy| {
            choice
                .alternatives
                .iter()
                .find(|a| a.0 == s)
                .map(|a| a.1.io_us)
                .expect("every strategy is priced")
        };
        for late in [Strategy::LmParallel, Strategy::LmPipelined] {
            for early in [Strategy::EmParallel, Strategy::EmPipelined] {
                assert!(io(late) < io(early), "{late:?} vs {early:?}: {choice:?}");
            }
        }
        assert!(choice.strategy.is_late(), "{}", choice.reason);
    }

    #[test]
    fn heuristic_selective_prefers_lm_pipelined() {
        let (store, id) = setup(EncodingKind::Plain);
        let planner = Planner::default();
        let q = QuerySpec::select(id, vec![0, 1, 2]).filter(1, Predicate::eq(3)); // SF = 1/100
        let choice = planner.choose(&store, &q).unwrap();
        assert_eq!(choice.strategy, Strategy::LmPipelined, "{}", choice.reason);
    }

    #[test]
    fn parallel_planner_caps_workers_at_granule_count() {
        // 30k rows fit in one default granule: the executor runs serially
        // no matter the knob, so the planner must price serially too —
        // dividing CPU by threads that never spawn would flip choices.
        let (store, id) = setup(EncodingKind::Rle);
        let serial = Planner::with_parallelism(Constants::host_defaults(), 1);
        let eight = Planner::with_parallelism(Constants::host_defaults(), 8);
        assert_eq!(eight.parallelism(), 8);
        let q = QuerySpec::select(id, vec![1, 2])
            .filter(1, Predicate::lt(80))
            .filter(2, Predicate::lt(7));
        let c1 = serial.choose(&store, &q).unwrap();
        let c8 = eight.choose(&store, &q).unwrap();
        assert!(!c8.reason.contains("workers"), "{}", c8.reason);
        for ((s1, e1), (s8, e8)) in c1.alternatives.iter().zip(&c8.alternatives) {
            assert_eq!(s1, s8);
            assert!(
                (e8.cpu_us - e1.cpu_us).abs() < 1e-9,
                "{s1:?}: capped serial"
            );
            assert!((e8.io_us - e1.io_us).abs() < 1e-9, "{s1:?}");
        }
    }

    #[test]
    fn parallel_planner_divides_cpu_on_multi_granule_tables() {
        // 4 granules' worth of rows: a 4-worker planner prices CPU at a
        // quarter and leaves the shared cold-I/O term alone.
        let store = Store::in_memory();
        let n = 4 * (crate::GRANULE as usize);
        let a: Vec<Value> = (0..n).map(|i| (i / (n / 8)) as Value).collect();
        let b: Vec<Value> = (0..n).map(|i| ((i * 13) % 100) as Value).collect();
        let spec = ProjectionSpec::new("big")
            .column("a", EncodingKind::Rle, So::Primary)
            .column("b", EncodingKind::Plain, So::None);
        let id = store.load_projection(&spec, &[&a, &b]).unwrap();
        let q = QuerySpec::select(id, vec![0, 1])
            .filter(0, Predicate::lt(6))
            .filter(1, Predicate::lt(80));
        let serial = Planner::with_parallelism(Constants::host_defaults(), 1);
        let four = Planner::with_parallelism(Constants::host_defaults(), 4);
        let c1 = serial.choose(&store, &q).unwrap();
        let c4 = four.choose(&store, &q).unwrap();
        assert!(c4.reason.contains("4 workers"), "{}", c4.reason);
        let overhead = four.model().steal_overhead(4);
        for ((s1, e1), (s4, e4)) in c1.alternatives.iter().zip(&c4.alternatives) {
            assert_eq!(s1, s4);
            assert!(
                (e4.cpu_us - (e1.cpu_us / 4.0 + overhead)).abs() < 1e-9,
                "{s1:?}: CPU divides plus scheduler bookkeeping"
            );
            assert!((e4.io_us - e1.io_us).abs() < 1e-9, "{s1:?}");
        }
    }

    /// Plan `spec` as a one-edge tree — how every plain join is planned.
    fn one_edge(planner: &Planner, store: &Store, spec: &JoinSpec) -> JoinTreeChoice {
        planner
            .choose_join_tree(store, &JoinTreeSpec::new(vec![spec.clone()]))
            .unwrap()
    }

    /// The model inputs the planner prices `spec`'s one-edge tree with.
    fn one_edge_params(planner: &Planner, store: &Store, spec: &JoinSpec) -> JoinParams {
        let tree = JoinTreeSpec::new(vec![spec.clone()]);
        let inputs = planner.tree_inputs(store, &tree).unwrap();
        Planner::tree_edge_params(&tree, &inputs, &[0])[0].params
    }

    /// orders(custkey FK, shipdate) ⋈ customer(custkey PK, nation), with
    /// `left_granules` granules of left rows.
    fn join_setup(left_granules: u64) -> (Store, JoinSpec) {
        let store = Store::in_memory();
        let n = (left_granules * crate::GRANULE) as usize;
        let n_cust = 500i64;
        let custkey: Vec<Value> = (0..n).map(|i| (i as Value * 13) % n_cust).collect();
        let shipdate: Vec<Value> = (0..n).map(|i| (i % 2500) as Value).collect();
        let left = store
            .load_projection(
                &ProjectionSpec::new("orders")
                    .column("custkey", EncodingKind::Plain, So::None)
                    .column("shipdate", EncodingKind::Plain, So::None),
                &[&custkey, &shipdate],
            )
            .unwrap();
        let ckey: Vec<Value> = (0..n_cust).collect();
        let nation: Vec<Value> = (0..n_cust).map(|i| i % 25).collect();
        let right = store
            .load_projection(
                &ProjectionSpec::new("customer")
                    .column("custkey", EncodingKind::Plain, So::Primary)
                    .column("nation", EncodingKind::Plain, So::None),
                &[&ckey, &nation],
            )
            .unwrap();
        let spec = JoinSpec {
            left,
            right,
            left_key: 0,
            right_key: 0,
            left_filter: Some((0, Predicate::lt(250))),
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        };
        (store, spec)
    }

    #[test]
    fn choose_join_prices_all_three_representations() {
        let (store, spec) = join_setup(1);
        let planner = Planner::default();
        let choice = one_edge(&planner, &store, &spec);
        assert_eq!(choice.edge_alternatives[0].len(), 3);
        let best = choice.edge_alternatives[0]
            .iter()
            .map(|(_, c)| c.total_us())
            .fold(f64::INFINITY, f64::min);
        assert!((choice.estimate.total_us() - best).abs() < 1e-9);
        assert!(
            choice.reason.contains("analytical model"),
            "{}",
            choice.reason
        );
        // The FK-shaped params came out of the catalog sensibly.
        let params = one_edge_params(&planner, &store, &spec);
        assert_eq!(params.left_rows(), crate::GRANULE as f64);
        assert_eq!(params.right_rows(), 500.0);
        assert!((params.sf - 0.5).abs() < 0.01, "sf = {}", params.sf);
        assert!((params.match_rate - 1.0).abs() < 1e-9);
    }

    /// Both join keys dictionary-encoded against one shared dictionary
    /// over the same 10-value domain: a code-keyed join.
    fn code_keyed_setup() -> (Store, JoinSpec) {
        let store = Store::in_memory();
        let n = crate::GRANULE as usize;
        let lk: Vec<Value> = (0..n).map(|i| ((i as Value * 7) % 10) * 10).collect();
        let lv: Vec<Value> = (0..n).map(|i| i as Value).collect();
        let left = store
            .load_projection(
                &ProjectionSpec::new("l_dict")
                    .column_shared_dict("k", So::None)
                    .column("v", EncodingKind::Plain, So::None),
                &[&lk, &lv],
            )
            .unwrap();
        let rk: Vec<Value> = (0..10).map(|i| i * 10).collect();
        let rv: Vec<Value> = (0..10).map(|i| i + 500).collect();
        let right = store
            .load_projection(
                &ProjectionSpec::new("r_dict")
                    .column_shared_dict("k", So::Primary)
                    .column("v", EncodingKind::Plain, So::None),
                &[&rk, &rv],
            )
            .unwrap();
        let spec = JoinSpec {
            left,
            right,
            left_key: 0,
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        };
        (store, spec)
    }

    #[test]
    fn code_keyed_join_is_detected_priced_cheaper_and_reported() {
        let (store, spec) = code_keyed_setup();
        let planner = Planner::default();
        let params = one_edge_params(&planner, &store, &spec);
        assert!(params.code_keyed, "shared-dict keys over one domain");
        // 10 distinct values → 1-byte codes on both sides.
        assert!((params.left_key.code_width - 1.0).abs() < 1e-9);
        assert!((params.right_key.code_width - 1.0).abs() < 1e-9);
        assert!(params.left_key.shared_dict && params.right_key.shared_dict);
        let choice = one_edge(&planner, &store, &spec);
        assert!(choice.reason.contains("code-keyed"), "{}", choice.reason);
        assert!(
            choice.describe().starts_with("join tree, order [0]"),
            "{}",
            choice.describe()
        );
        // The code path discounts CPU on every representation; I/O is
        // identical — the executor reads the same blocks either way.
        let mut value_params = params;
        value_params.code_keyed = false;
        let model = planner.model();
        for (s, _) in &choice.edge_alternatives[0] {
            let coded = model.hash_join(&params, *s, 1, 1, false);
            let plain = model.hash_join(&value_params, *s, 1, 1, false);
            assert!(coded.cpu_us < plain.cpu_us, "{s:?}");
            assert!((coded.io_us - plain.io_us).abs() < 1e-9, "{s:?}");
        }
        // Keying on a plain column disables the code path.
        let mut vspec = spec;
        vspec.left_key = 1;
        assert!(!one_edge_params(&planner, &store, &vspec).code_keyed);
    }

    #[test]
    fn join_planner_divides_probe_cpu_by_effective_workers() {
        // 4 granules of left rows but a sub-granule right table: an
        // 8-worker planner runs 4 probe workers and 1 build worker (the
        // pipeline skew guard per table), so probe CPU shrinks while
        // build CPU and I/O stay serial — the estimate drops but not by
        // a full 8x.
        let (store, spec) = join_setup(4);
        let serial = Planner::with_parallelism(Constants::host_defaults(), 1);
        let eight = Planner::with_parallelism(Constants::host_defaults(), 8);
        let c1 = one_edge(&serial, &store, &spec);
        let c8 = one_edge(&eight, &store, &spec);
        assert!(c8.reason.contains("4 probe workers"), "{}", c8.reason);
        assert!(!c8.reason.contains("build workers"), "{}", c8.reason);
        let params = one_edge_params(&serial, &store, &spec);
        let model = serial.model();
        for ((s1, e1), (s8, e8)) in c1.edge_alternatives[0].iter().zip(&c8.edge_alternatives[0]) {
            assert_eq!(s1, s8);
            // Serial build, probe CPU over 4, plus the probe scheduler.
            let expect = model.hash_join(&params, *s1, 1, 4, false);
            assert!((e8.cpu_us - expect.cpu_us).abs() < 1e-6, "{s1:?}");
            assert!((e8.io_us - e1.io_us).abs() < 1e-9, "{s1:?}: io shared");
            assert!(e8.cpu_us < e1.cpu_us, "{s1:?}");
        }
    }

    #[test]
    fn join_planner_divides_build_cpu_on_multi_granule_right_tables() {
        // Both sides span multiple granules: the planner prices the
        // serial key table, the representation (its CPU / build workers)
        // and the parallel probe independently.
        let store = Store::in_memory();
        let n_left = 2 * crate::GRANULE as usize;
        let n_right = 2 * crate::GRANULE as usize;
        let lk: Vec<Value> = (0..n_left).map(|i| (i % 1000) as Value).collect();
        let lv: Vec<Value> = (0..n_left).map(|i| i as Value).collect();
        let left = store
            .load_projection(
                &ProjectionSpec::new("l")
                    .column("k", EncodingKind::Plain, So::None)
                    .column("v", EncodingKind::Plain, So::None),
                &[&lk, &lv],
            )
            .unwrap();
        let rk: Vec<Value> = (0..n_right).map(|i| i as Value).collect();
        let rv: Vec<Value> = (0..n_right).map(|i| (i % 25) as Value).collect();
        let right = store
            .load_projection(
                &ProjectionSpec::new("r")
                    .column("k", EncodingKind::Plain, So::Primary)
                    .column("v", EncodingKind::Plain, So::None),
                &[&rk, &rv],
            )
            .unwrap();
        let spec = JoinSpec {
            left,
            right,
            left_key: 0,
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        };
        let serial = Planner::with_parallelism(Constants::host_defaults(), 1);
        let two = Planner::with_parallelism(Constants::host_defaults(), 2);
        let c1 = one_edge(&serial, &store, &spec);
        let c2 = one_edge(&two, &store, &spec);
        assert!(
            c2.reason.contains("2 probe workers") && c2.reason.contains("2 build workers"),
            "{}",
            c2.reason
        );
        let params = one_edge_params(&serial, &store, &spec);
        let model = serial.model();
        for ((s1, e1), (s2, e2)) in c1.edge_alternatives[0].iter().zip(&c2.edge_alternatives[0]) {
            assert_eq!(s1, s2);
            let expect = model.hash_join(&params, *s1, 2, 2, false);
            assert!((e2.cpu_us - expect.cpu_us).abs() < 1e-6, "{s1:?}");
            assert!((e2.io_us - e1.io_us).abs() < 1e-9, "{s1:?}: io shared");
            assert!(e2.cpu_us < e1.cpu_us, "{s1:?}: both phases shrink");
        }
    }

    #[test]
    fn join_planner_caps_workers_at_left_granule_count() {
        // One granule of left rows: the probe runs serially no matter the
        // knob, so an 8-worker planner must price serially too.
        let (store, spec) = join_setup(1);
        let serial = Planner::with_parallelism(Constants::host_defaults(), 1);
        let eight = Planner::with_parallelism(Constants::host_defaults(), 8);
        let c1 = one_edge(&serial, &store, &spec);
        let c8 = one_edge(&eight, &store, &spec);
        assert!(!c8.reason.contains("workers"), "{}", c8.reason);
        for ((s1, e1), (s8, e8)) in c1.edge_alternatives[0].iter().zip(&c8.edge_alternatives[0]) {
            assert_eq!(s1, s8);
            assert!((e8.cpu_us - e1.cpu_us).abs() < 1e-9, "{s1:?}");
            assert!((e8.io_us - e1.io_us).abs() < 1e-9, "{s1:?}");
        }
    }

    /// orders(custkey FK, datekey FK, shipdate) star-joined to customer
    /// (filtered side) and a tiny date dimension.
    fn tree_setup(left_granules: u64) -> (Store, JoinTreeSpec) {
        let store = Store::in_memory();
        let n = (left_granules * crate::GRANULE) as usize;
        let n_cust = 500i64;
        let n_date = 100i64;
        let custkey: Vec<Value> = (0..n).map(|i| (i as Value * 13) % n_cust).collect();
        let datekey: Vec<Value> = (0..n).map(|i| (i as Value * 7) % n_date).collect();
        let shipdate: Vec<Value> = (0..n).map(|i| (i % 2500) as Value).collect();
        let orders = store
            .load_projection(
                &ProjectionSpec::new("orders")
                    .column("custkey", EncodingKind::Plain, So::None)
                    .column("datekey", EncodingKind::Plain, So::None)
                    .column("shipdate", EncodingKind::Plain, So::None),
                &[&custkey, &datekey, &shipdate],
            )
            .unwrap();
        let ck: Vec<Value> = (0..n_cust).collect();
        let nation: Vec<Value> = (0..n_cust).map(|i| i % 25).collect();
        let customer = store
            .load_projection(
                &ProjectionSpec::new("customer")
                    .column("custkey", EncodingKind::Plain, So::Primary)
                    .column("nation", EncodingKind::Plain, So::None),
                &[&ck, &nation],
            )
            .unwrap();
        // Two rows per datekey: a fan-out-2 dimension, so edge order
        // genuinely matters (probing it early doubles the intermediate).
        let dk: Vec<Value> = (0..2 * n_date).map(|i| i / 2).collect();
        let dname: Vec<Value> = (0..2 * n_date).map(|i| 1000 + i).collect();
        let date = store
            .load_projection(
                &ProjectionSpec::new("date")
                    .column("datekey", EncodingKind::Plain, So::Primary)
                    .column("dname", EncodingKind::Plain, So::None),
                &[&dk, &dname],
            )
            .unwrap();
        let spec = JoinTreeSpec::new(vec![
            JoinSpec {
                left: orders,
                right: customer,
                left_key: 0,
                right_key: 0,
                left_filter: Some((0, Predicate::lt(125))),
                right_filter: None,
                left_output: vec![2],
                right_output: vec![1],
            },
            JoinSpec {
                left: orders,
                right: date,
                left_key: 1,
                right_key: 0,
                left_filter: None,
                right_filter: None,
                left_output: vec![],
                right_output: vec![1],
            },
        ]);
        (store, spec)
    }

    #[test]
    fn single_edge_tree_is_priced_as_one_parallel_hash_join() {
        // A one-edge tree has one order: its alternatives are exactly the
        // model's `hash_join` over the join's catalog params at
        // the per-table effective worker counts, and the pick, estimate,
        // tree total, and sole candidate all agree on the cheapest.
        let (store, spec) = join_setup(2);
        let planner = Planner::default();
        let tree = one_edge(&planner, &store, &spec);
        let params = one_edge_params(&planner, &store, &spec);
        let workers = |t| {
            let rows = store.projection(t).unwrap().num_rows;
            FragmentPipeline::effective_workers(rows, crate::GRANULE, planner.parallelism())
        };
        let (build, probe) = (workers(spec.right), workers(spec.left));
        assert_eq!(tree.order, vec![0]);
        assert_eq!(tree.edge_alternatives.len(), 1);
        for (s, cost) in &tree.edge_alternatives[0] {
            let want = planner.model().hash_join(&params, *s, build, probe, false);
            assert_eq!(*cost, want, "{s:?}");
        }
        let &(best, best_cost) = tree.edge_alternatives[0]
            .iter()
            .min_by(|a, b| a.1.total_us().total_cmp(&b.1.total_us()))
            .unwrap();
        assert_eq!(tree.inners, vec![best]);
        assert_eq!(tree.estimate, best_cost);
        assert_eq!(tree.tree.total, best_cost);
        assert_eq!(tree.candidates, vec![(vec![0], best_cost.total_us())]);
    }

    #[test]
    fn choose_join_tree_picks_the_cheapest_candidate() {
        let (store, spec) = tree_setup(2);
        let planner = Planner::default();
        let choice = planner.choose_join_tree(&store, &spec).unwrap();
        // Two star edges, no dependencies: both orders priced.
        assert_eq!(choice.candidates.len(), 2);
        let best = choice
            .candidates
            .iter()
            .map(|(_, t)| *t)
            .fold(f64::INFINITY, f64::min);
        let chosen = choice
            .candidates
            .iter()
            .find(|(o, _)| *o == choice.order)
            .expect("chosen order among candidates");
        assert!(
            chosen.1 <= best + 1e-9,
            "picked plan priced above a rejected one: {} vs {best}",
            chosen.1
        );
        // The non-expanding customer edge runs before the fan-out-2 date
        // edge: probing the dimension early would double the
        // intermediate the customer probe then has to chew through.
        assert_eq!(choice.order, vec![0, 1], "{}", choice.reason);
        // Per-edge choice is the per-slot minimum of its alternatives.
        for (slot, alts) in choice.edge_alternatives.iter().enumerate() {
            let chosen_kind = choice.inners[choice.order[slot]];
            let chosen_cost = alts
                .iter()
                .find(|(s, _)| *s == chosen_kind)
                .expect("chosen kind priced")
                .1;
            for (s, c) in alts {
                assert!(
                    chosen_cost.total_us() <= c.total_us() + 1e-9,
                    "slot {slot}: {chosen_kind:?} dearer than {s:?}"
                );
            }
        }
        // Cardinality chain: ~0.25 × left rows after the filtered
        // customer edge, doubled by the fan-out-2 date edge.
        let n = (2 * crate::GRANULE) as f64;
        assert!((choice.tree.cards[0] / (0.25 * n) - 1.0).abs() < 0.05);
        assert!((choice.tree.out_rows() / (0.5 * n) - 1.0).abs() < 0.05);
    }

    #[test]
    fn choose_join_tree_prices_build_reuse() {
        // The same date dimension probed on two base columns: the second
        // edge must carry the reuse discount and the reason must say so.
        let (store, mut spec) = tree_setup(1);
        let date = spec.edges[1].right;
        spec.edges[0] = JoinSpec {
            left: spec.edges[0].left,
            right: date,
            left_key: 2, // shipdate % domain happens to overlap; fine for pricing
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![2],
            right_output: vec![1],
        };
        let planner = Planner::default();
        let choice = planner.choose_join_tree(&store, &spec).unwrap();
        assert!(choice.reason.contains("build reuse"), "{}", choice.reason);
        // Whichever order won, its second slot reuses the first's build.
        let inputs = planner.tree_inputs(&store, &spec).unwrap();
        let params = Planner::tree_edge_params(&spec, &inputs, &choice.order);
        assert!(!params[0].build_reused && params[1].build_reused);
    }

    /// `tree_setup(1)` plus a customer → nation snowflake hop keyed on
    /// customer.nation (not the column customer is hashed on).
    fn snowflake_setup() -> (Store, JoinTreeSpec) {
        let (store, mut spec) = tree_setup(1);
        let customer = spec.edges[0].right;
        let nk: Vec<Value> = (0..25).collect();
        let rg: Vec<Value> = (0..25).map(|i| i % 5).collect();
        let nation = store
            .load_projection(
                &ProjectionSpec::new("nation")
                    .column("nationkey", EncodingKind::Plain, So::Primary)
                    .column("region", EncodingKind::Plain, So::None),
                &[&nk, &rg],
            )
            .unwrap();
        spec.edges.push(JoinSpec {
            left: customer,
            right: nation,
            left_key: 1,
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![],
            right_output: vec![1],
        });
        (store, spec)
    }

    #[test]
    fn choose_join_tree_respects_snowflake_dependencies() {
        // customer → nation snowflake: nation can never execute before
        // customer, in any candidate order.
        let (store, spec) = snowflake_setup();
        let planner = Planner::default();
        let choice = planner.choose_join_tree(&store, &spec).unwrap();
        // 3 edges, one dependency (2 after 0): 3 valid orders, not 6.
        assert_eq!(choice.candidates.len(), 3);
        for (order, _) in &choice.candidates {
            let pos0 = order.iter().position(|&e| e == 0).unwrap();
            let pos2 = order.iter().position(|&e| e == 2).unwrap();
            assert!(pos0 < pos2, "snowflake dependency violated: {order:?}");
        }
        // The snowflake hop keys on customer.nation (col 1), not the
        // column customer was hashed on (col 0): the executor will fetch
        // and decode that column at build time, so the planner must keep
        // its blocks priced — only a hash-key-aligned hop is free.
        let p2 = planner.tree_inputs(&store, &spec).unwrap().edges[2];
        assert!(
            p2.left_key.blocks > 0.0,
            "non-hash-key snowflake key I/O priced"
        );
        // A hop aligned with the hash key prices as zero-I/O.
        let mut aligned = spec.clone();
        aligned.edges[2].left_key = 0;
        let p2 = planner.tree_inputs(&store, &aligned).unwrap().edges[2];
        assert_eq!(p2.left_key.blocks, 0.0, "hash-key hop reuses the decode");
    }

    #[test]
    fn one_edge_join_reports_its_cardinality_and_fanout() {
        // orders ⋈ date, where every datekey appears twice: a plain join
        // is priced like the same edge leading a longer tree — fan-out 2,
        // and the chained card is its reported output.
        let (store, star) = tree_setup(1);
        let mut date_edge = star.edges[1].clone();
        date_edge.left_filter = Some((0, Predicate::lt(125)));
        let planner = Planner::with_parallelism(Constants::host_defaults(), 1);
        let params = one_edge_params(&planner, &store, &date_edge);
        assert_eq!(params.fanout, 2.0);
        let plain = one_edge(&planner, &store, &date_edge);
        let want = params.left_rows() * params.sf * params.match_rate * 2.0;
        assert!(want > 0.0);
        assert!(
            (plain.tree.out_rows() - want).abs() < 1e-9 * want,
            "{} vs {want}",
            plain.tree.out_rows()
        );
        let mut customer_edge = star.edges[0].clone();
        customer_edge.left_filter = None;
        let tree = JoinTreeSpec::new(vec![date_edge, customer_edge]);
        let inputs = planner.tree_inputs(&store, &tree).unwrap();
        let led = planner.price_order(&tree, &inputs, vec![0, 1]);
        assert_eq!(led.tree.cards[0], plain.tree.out_rows());
    }

    /// Delta-surcharge rule: `edge_alternatives` never carry it, and the
    /// estimate is the chosen slot costs plus bushy-reduction scans plus
    /// the surcharge.
    fn assert_surcharge_rule(planner: &Planner, store: &Store, spec: &JoinTreeSpec) {
        let choice = planner.choose_join_tree(store, spec).unwrap();
        let inputs = planner.tree_inputs(store, spec).unwrap();
        assert!(inputs.delta_cpu > 0.0, "the fixture has live inserts");
        let mut edges = Planner::tree_edge_params(spec, &inputs, &choice.order);
        let reductions = Planner::bushy_setup(spec, &choice.order, &mut edges, &choice.bushy);
        let mut want = CostBreakdown::default();
        for (slot, alts) in choice.edge_alternatives.iter().enumerate() {
            let kind = choice.inners[choice.order[slot]];
            let (_, cost) = *alts.iter().find(|(s, _)| *s == kind).unwrap();
            // Alternatives are the bare joins at the chained cardinality.
            let mut p = edges[slot].params;
            if slot > 0 {
                p.left_key.rows = choice.tree.cards[slot - 1];
            }
            for r in reductions.iter().filter(|r| r.parent_slot == slot) {
                p.match_rate *= r.keep_rate;
            }
            let e = &edges[slot];
            let bare = planner.model().hash_join(
                &p,
                kind,
                e.build_workers,
                e.probe_workers,
                e.build_reused,
            );
            assert_eq!(cost, bare, "slot {slot}");
            want.cpu_us += cost.cpu_us;
            want.io_us += cost.io_us;
        }
        for r in &reductions {
            want.cpu_us += r.scan_rows * planner.model().constants().fc;
        }
        want.cpu_us += inputs.delta_cpu;
        assert_eq!(choice.estimate, choice.tree.total);
        assert!((choice.estimate.cpu_us - want.cpu_us).abs() < 1e-9 * want.cpu_us);
        assert_eq!(choice.estimate.io_us, want.io_us);
        let (_, pick) = choice
            .candidates
            .iter()
            .find(|(o, _)| *o == choice.order)
            .unwrap();
        assert_eq!(*pick, choice.estimate.total_us());
    }

    #[test]
    fn delta_surcharge_is_in_the_total_never_in_alternatives() {
        let planner = Planner::with_parallelism(Constants::host_defaults(), 1);
        let (store, spec) = join_setup(1);
        store
            .insert_rows(spec.left, &[vec![3, 7], vec![4, 8]])
            .unwrap();
        assert_surcharge_rule(&planner, &store, &JoinTreeSpec::new(vec![spec]));

        let (store, spec) = snowflake_setup();
        assert_eq!(spec.edges.len(), 3);
        store.insert_rows(spec.base(), &[vec![1, 2, 3]]).unwrap();
        store
            .insert_rows(spec.edges[1].right, &[vec![5, 6], vec![7, 8]])
            .unwrap();
        assert_surcharge_rule(&planner, &store, &spec);
    }

    #[test]
    fn plan_picks_are_pinned() {
        // (order, inners, bushy, estimate µs) for fixed fixtures, recorded
        // before the join pricing paths were unified: every join here has
        // a unique right key, so the one composer must pick and price
        // exactly as the per-shape paths did.
        let at = |workers| Planner::with_parallelism(Constants::host_defaults(), workers);
        let mut got = Vec::new();
        for (granules, workers) in [(1, 1), (1, 8), (2, 1), (2, 8)] {
            let (store, spec) = join_setup(granules);
            got.push(one_edge(&at(workers), &store, &spec));
        }
        for workers in [1, 8] {
            let (store, spec) = tree_setup(2);
            got.push(at(workers).choose_join_tree(&store, &spec).unwrap());
            let (store, spec) = code_keyed_setup();
            got.push(one_edge(&at(workers), &store, &spec));
            let (store, spec) = snowflake_setup();
            got.push(at(workers).choose_join_tree(&store, &spec).unwrap());
        }
        use InnerStrategy::Materialized as M;
        let want: [(&[usize], &[InnerStrategy], f64); 10] = [
            (&[0], &[M], 3.5166316e4),
            (&[0], &[M], 3.5166316e4),
            (&[0], &[M], 5.6277051999999996e4),
            (&[0], &[M], 4.9166584e4),
            (&[0, 1], &[M, M], 7.8810556e4),
            (&[0], &[M], 4.28224215e4),
            (&[0, 2, 1], &[M, M, M], 6.4997547e4),
            (&[0, 1], &[M, M], 6.9193594e4),
            (&[0], &[M], 4.28224215e4),
            (&[0, 2, 1], &[M, M, M], 6.4997547e4),
        ];
        for (i, (c, (order, inners, total))) in got.iter().zip(want).enumerate() {
            assert_eq!(c.order, order, "fixture {i}");
            assert_eq!(c.inners, inners, "fixture {i}");
            assert!(c.bushy.is_empty(), "fixture {i}: left-deep");
            let rel = (c.estimate.total_us() - total).abs() / total;
            assert!(
                rel < 1e-12,
                "fixture {i}: {} vs {total}",
                c.estimate.total_us()
            );
        }
    }

    /// The paper's query on the lineitem fixture at three granules, cold:
    /// `shipdate < cutoff AND linenum < 7`, selecting both columns or
    /// grouping on shipdate and summing linenum, for every LINENUM
    /// encoding, planned at 1 and 8 workers. Yields (label, alternatives)
    /// per case.
    fn paper_shape_alternatives() -> Vec<(String, Vec<(Strategy, CostBreakdown)>)> {
        let mut out = Vec::new();
        for enc in [
            EncodingKind::Plain,
            EncodingKind::Rle,
            EncodingKind::BitVec,
            EncodingKind::Dict,
        ] {
            let (store, id) = setup_rows(enc, 3 * crate::GRANULE as usize);
            store.cold_reset();
            // shipdate spans 0..=99: `< 1` keeps 1 %, `< 50` half.
            for cutoff in [1, 50] {
                for aggregated in [false, true] {
                    let mut q = QuerySpec::select(id, vec![1, 2])
                        .filter(1, Predicate::lt(cutoff))
                        .filter(2, Predicate::lt(7));
                    if aggregated {
                        q = q.aggregate_sum(1, 2);
                    }
                    for workers in [1, 8] {
                        let planner =
                            Planner::with_parallelism(Constants::host_defaults(), workers);
                        let choice = planner.choose(&store, &q).unwrap();
                        let label = format!("{enc:?} <{cutoff} agg={aggregated} w={workers}");
                        out.push((label, choice.alternatives));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn scan_estimates_are_pinned() {
        // (strategy, cpu µs, io µs) of every alternative, recorded before
        // the model priced a statement's own filters and outputs: on the
        // paper's shape the per-column pricer must reproduce them.
        use Strategy::{EmParallel as EMP, EmPipelined as EMD};
        use Strategy::{LmParallel as LMP, LmPipelined as LMD};
        #[rustfmt::skip]
        let want: &[(Strategy, f64, f64)] = &[
            // Plain <1 agg=false w=1
            (EMD, 699.0601599999999, 17500.0),
            (EMP, 2042.8571199999997, 17500.0),
            (LMD, 241.20551999999998, 13540.0),
            (LMP, 2000.0656, 17500.0),
            // Plain <1 agg=false w=8
            (EMD, 233.45205333333328, 17500.0),
            (EMP, 681.3843733333332, 17500.0),
            (LMD, 80.83384, 13540.0),
            (LMP, 667.1205333333334, 17500.0),
            // Plain <1 agg=true w=1
            (EMD, 705.5601599999999, 17500.0),
            (EMP, 2049.3571199999997, 17500.0),
            (LMD, 66.89515999999999, 13540.0),
            (LMP, 1825.75524, 17500.0),
            // Plain <1 agg=true w=8
            (EMD, 235.61871999999994, 17500.0),
            (EMP, 683.55104, 17500.0),
            (LMD, 22.73038666666666, 13540.0),
            (LMP, 609.01708, 17500.0),
            // Plain <50 agg=false w=1
            (EMD, 34610.008, 17500.0),
            (EMP, 15433.828, 17500.0),
            (LMD, 11710.857, 15500.0),
            (LMP, 12608.1148, 17500.0),
            // Plain <50 agg=false w=8
            (EMD, 11537.101333333334, 17500.0),
            (EMP, 5145.041333333333, 17500.0),
            (LMD, 3904.051, 15500.0),
            (LMP, 4203.136933333333, 17500.0),
            // Plain <50 agg=true w=1
            (EMD, 34616.508, 17500.0),
            (EMP, 15440.328, 17500.0),
            (LMD, 2676.8389999999995, 15500.0),
            (LMP, 3574.0968000000003, 17500.0),
            // Plain <50 agg=true w=8
            (EMD, 11539.268000000002, 17500.0),
            (EMP, 5147.208, 17500.0),
            (LMD, 892.7116666666665, 15500.0),
            (LMP, 1191.7976, 17500.0),
            // Rle <1 agg=false w=1
            (EMD, 699.0001599999999, 7000.0),
            (EMP, 2042.7971199999997, 7000.0),
            (LMD, 241.14551999999998, 6010.0),
            (LMP, 1999.9456, 7000.0),
            // Rle <1 agg=false w=8
            (EMD, 233.4320533333333, 7000.0),
            (EMP, 681.3643733333332, 7000.0),
            (LMD, 80.81384, 6010.0),
            (LMP, 667.0805333333334, 7000.0),
            // Rle <1 agg=true w=1
            (EMD, 705.5001599999999, 7000.0),
            (EMP, 2049.2971199999997, 7000.0),
            (LMD, 66.83515999999999, 6010.0),
            (LMP, 1825.6352399999998, 7000.0),
            // Rle <1 agg=true w=8
            (EMD, 235.59871999999996, 7000.0),
            (EMP, 683.53104, 7000.0),
            (LMD, 22.71038666666666, 6010.0),
            (LMP, 608.97708, 7000.0),
            // Rle <50 agg=false w=1
            (EMD, 34609.948, 7000.0),
            (EMP, 15433.768, 7000.0),
            (LMD, 11710.796999999999, 6500.0),
            (LMP, 12607.9948, 7000.0),
            // Rle <50 agg=false w=8
            (EMD, 11537.081333333334, 7000.0),
            (EMP, 5145.021333333333, 7000.0),
            (LMD, 3904.0309999999995, 6500.0),
            (LMP, 4203.096933333333, 7000.0),
            // Rle <50 agg=true w=1
            (EMD, 34616.448, 7000.0),
            (EMP, 15440.268, 7000.0),
            (LMD, 2676.7789999999995, 6500.0),
            (LMP, 3573.9767999999995, 7000.0),
            // Rle <50 agg=true w=8
            (EMD, 11539.248, 7000.0),
            (EMP, 5147.188, 7000.0),
            (LMD, 892.6916666666665, 6500.0),
            (LMP, 1191.7576, 7000.0),
            // BitVec <1 agg=false w=1
            (EMD, 699.0001599999999, 7000.0),
            (EMP, 4795.309119999999, 7000.0),
            (LMD, 2993.6575199999997, 6010.0),
            (LMP, 4961.830792000001, 7000.0),
            // BitVec <1 agg=false w=8
            (EMD, 233.4320533333333, 7000.0),
            (EMP, 1598.868373333333, 7000.0),
            (LMD, 998.3178399999999, 6010.0),
            (LMP, 1654.3755973333336, 7000.0),
            // BitVec <1 agg=true w=1
            (EMD, 705.5001599999999, 7000.0),
            (EMP, 4801.809119999999, 7000.0),
            (LMD, 2819.34716, 6010.0),
            (LMP, 4787.520432, 7000.0),
            // BitVec <1 agg=true w=8
            (EMD, 235.59871999999996, 7000.0),
            (EMP, 1601.0350399999998, 7000.0),
            (LMD, 940.2143866666667, 6010.0),
            (LMP, 1596.272144, 7000.0),
            // BitVec <50 agg=false w=1
            (EMD, 34609.948, 7000.0),
            (EMP, 18186.28, 7000.0),
            (LMD, 14463.309, 6500.0),
            (LMP, 22688.008072, 7000.0),
            // BitVec <50 agg=false w=8
            (EMD, 11537.081333333334, 7000.0),
            (EMP, 6062.525333333333, 7000.0),
            (LMD, 4821.535, 6500.0),
            (LMP, 7563.101357333333, 7000.0),
            // BitVec <50 agg=true w=1
            (EMD, 34616.448, 7000.0),
            (EMP, 18192.78, 7000.0),
            (LMD, 5429.290999999999, 6500.0),
            (LMP, 13653.990072, 7000.0),
            // BitVec <50 agg=true w=8
            (EMD, 11539.248, 7000.0),
            (EMP, 6064.691999999999, 7000.0),
            (LMD, 1810.1956666666665, 6500.0),
            (LMP, 4551.762024, 7000.0),
            // Dict <1 agg=false w=1
            (EMD, 699.0601599999999, 17500.0),
            (EMP, 2042.8571199999997, 17500.0),
            (LMD, 241.20551999999998, 13540.0),
            (LMP, 2000.0656, 17500.0),
            // Dict <1 agg=false w=8
            (EMD, 233.45205333333328, 17500.0),
            (EMP, 681.3843733333332, 17500.0),
            (LMD, 80.83384, 13540.0),
            (LMP, 667.1205333333334, 17500.0),
            // Dict <1 agg=true w=1
            (EMD, 705.5601599999999, 17500.0),
            (EMP, 2049.3571199999997, 17500.0),
            (LMD, 66.89515999999999, 13540.0),
            (LMP, 1825.75524, 17500.0),
            // Dict <1 agg=true w=8
            (EMD, 235.61871999999994, 17500.0),
            (EMP, 683.55104, 17500.0),
            (LMD, 22.73038666666666, 13540.0),
            (LMP, 609.01708, 17500.0),
            // Dict <50 agg=false w=1
            (EMD, 34610.008, 17500.0),
            (EMP, 15433.828, 17500.0),
            (LMD, 11710.857, 15500.0),
            (LMP, 12608.1148, 17500.0),
            // Dict <50 agg=false w=8
            (EMD, 11537.101333333334, 17500.0),
            (EMP, 5145.041333333333, 17500.0),
            (LMD, 3904.051, 15500.0),
            (LMP, 4203.136933333333, 17500.0),
            // Dict <50 agg=true w=1
            (EMD, 34616.508, 17500.0),
            (EMP, 15440.328, 17500.0),
            (LMD, 2676.8389999999995, 15500.0),
            (LMP, 3574.0968000000003, 17500.0),
            // Dict <50 agg=true w=8
            (EMD, 11539.268000000002, 17500.0),
            (EMP, 5147.208, 17500.0),
            (LMD, 892.7116666666665, 15500.0),
            (LMP, 1191.7976, 17500.0),
        ];
        let got: Vec<(String, Strategy, CostBreakdown)> = paper_shape_alternatives()
            .into_iter()
            .flat_map(|(label, alts)| alts.into_iter().map(move |(s, c)| (label.clone(), s, c)))
            .collect();
        assert_eq!(got.len(), want.len());
        for ((label, s, cost), &(ws, cpu, io)) in got.iter().zip(want) {
            assert_eq!(*s, ws, "{label}");
            for (what, g, w) in [("cpu", cost.cpu_us, cpu), ("io", cost.io_us, io)] {
                assert!(
                    (g - w).abs() <= 1e-12 * w,
                    "{label} {s:?} {what}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn scan_params_reflect_catalog() {
        let (store, id) = setup(EncodingKind::Plain);
        let q = QuerySpec::select(id, vec![1, 2])
            .filter(1, Predicate::lt(50))
            .filter(2, Predicate::lt(4));
        let params = Planner::scan_params(&store, &store.projection(id).unwrap(), &q).unwrap();
        assert_eq!(params.rows, 30_000.0);
        assert_eq!(params.columns.len(), 2);
        assert_eq!(params.outputs, vec![0, 1]);
        assert_eq!(params.groups, None);
        let sf1 = params.filters[0].sf;
        assert!(sf1 > 0.3 && sf1 < 0.7, "sf1 = {sf1}");
        assert!(!params.columns[1].bit_vector);
        // Secondary-sorted shipdate → clustered positions: long runs.
        assert!(params.filters[0].pos_run_len > 100.0);
    }

    #[test]
    fn scans_are_priced_on_their_own_outputs_and_group_column() {
        let (store, id) = setup(EncodingKind::Plain);
        let planner = Planner::with_parallelism(Constants::host_defaults(), 1);
        let lm_parallel = |q: &QuerySpec| {
            let choice = planner.choose(&store, q).unwrap();
            let (_, cost) = choice
                .alternatives
                .into_iter()
                .find(|(s, _)| *s == Strategy::LmParallel)
                .expect("LM-parallel is always priced");
            cost
        };
        // One more output, the unfiltered Plain linenum: LM-parallel
        // fetches it at the surviving positions and MERGEs three columns.
        let narrow = QuerySpec::select(id, vec![0, 1])
            .filter(0, Predicate::lt(2))
            .filter(1, Predicate::lt(50));
        let mut wide = narrow.clone();
        wide.output.push(2);
        assert!(lm_parallel(&wide).total_us() > lm_parallel(&narrow).total_us());

        // Grouping on the second filter (linenum) against grouping on
        // the first (shipdate), same filters and columns: the LM
        // aggregate steps once per run of the group column and builds
        // one tuple per group, so the two differ by exactly that.
        let filtered = QuerySpec::select(id, vec![])
            .filter(1, Predicate::lt(50))
            .filter(2, Predicate::lt(4));
        let by_shipdate = filtered.clone().aggregate_sum(1, 2);
        let by_linenum = filtered.aggregate_sum(2, 1);
        let proj = store.projection(id).unwrap();
        let (shipdate, linenum) = (proj.column(1).unwrap(), proj.column(2).unwrap());
        assert_ne!(linenum.stats.avg_run_len(), shipdate.stats.avg_run_len());
        let c = planner.model().constants();
        let out = proj.num_rows as f64
            * Planner::selectivity(shipdate, &Predicate::lt(50))
            * Planner::selectivity(linenum, &Predicate::lt(4));
        let agg = |col: &ColumnInfo| {
            out / col.stats.avg_run_len() * (c.tic_col + c.fc)
                + col.stats.distinct as f64 * c.tic_tup
        };
        let want = agg(linenum) - agg(shipdate);
        let got = lm_parallel(&by_linenum).total_us() - lm_parallel(&by_shipdate).total_us();
        assert!((got - want).abs() < 1e-9 * want.abs(), "{got} vs {want}");
    }
}
