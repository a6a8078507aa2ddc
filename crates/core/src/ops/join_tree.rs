//! Multi-way join execution: a left-deep tree of hash joins pipelining
//! **position lists** through successive probes.
//!
//! This is the one join executor: a single join (§4.3) is a one-edge
//! tree. Composing N joins naively would materialize — and re-scan —
//! every intermediate. The tree executor instead keeps the intermediate
//! in its cheapest form for as long as possible: a vector of base-table
//! positions plus one matched-position vector per completed edge, all
//! row-aligned. Each edge's probe only ever *extends* this position
//! state (fan-out duplicates positions, a missed probe drops the row);
//! **no value is fetched in the probe at all**. A span hands its
//! positions to whatever the statement's driver consumes parts with, as
//! one join part (`Part::Join`): the sorted (possibly duplicated) base
//! positions, one right-position vector per edge, the base output
//! columns' mini-columns (their blocks read here, so step 1 still does
//! every read) and each right output column's inner-table representation
//! ([`InnerRep`]). The one MERGE ([`crate::ops::merge`]) the scan executor
//! uses then writes every value once, straight into its row of the
//! result: base values through the mini-column's point walker
//! ([`MiniColumn::gather_sorted_into`]), which hands each block its
//! sub-slice to unpack in one call, right values through the edge's
//! inner strategy. MERGE cuts a join part between any two rows, so its
//! workers share the rows equally. Under an aggregate the part folds
//! instead, reading only the group column and, unless the function is
//! COUNT, the value column; its other output columns are never read.
//! That is the paper's late-materialization discipline carried across a
//! whole join tree: each tuple is built once, at the top.
//!
//! # One pass per edge
//!
//! An edge probes a span's keys in one call
//! (`SharedBuild::fan_out`), which matches the table's key domain and
//! layout once and runs a loop made for it. Every build is one flat
//! table. A table whose live keys are all distinct (every primary key)
//! holds each key's one position where a repeating table holds an id
//! into its position runs, so its lookup is one load, and its loop
//! writes every row's match without a branch per miss. Every layout yields the same shape: this edge's
//! right positions plus a selection vector naming each output row's
//! input row, through which `base_pos` and the earlier edges' positions
//! are gathered once. When every row hit exactly once there is no
//! selection vector, and the earlier columns stand as they are.
//!
//! # Build caching
//!
//! The hash table depends only on a snapshot of the (inner table, key
//! column) pair — never on an edge's strategy or output columns — so it
//! is reused at two levels ([`QueryStats::builds`] /
//! [`QueryStats::build_reuses`] count both sides):
//!
//! * **Within a statement**, when the same inner table is probed by
//!   multiple edges (the date dimension joined on both order date and
//!   ship date, say), the table is built **once** and every later edge
//!   with the same (inner table, key column, inner filter, bushy
//!   children) signature reuses it.
//! * **Across statements**, a reducer-free build (no pushed-down inner
//!   filter, no bushy child) stays resident on the [`Store`], keyed by
//!   (inner table, key column) and tagged with the snapshot it was
//!   built from. A later statement that reads the same snapshot probes
//!   it without reading a block of the inner key, at whatever worker
//!   count: the table is built serially, so no worker count shapes it.
//!   A write to the inner table, its compaction or a cold reset ends
//!   it. A write to the outer table does not. Filtered and semi-reduced
//!   builds live only as long as their statement.
//!
//! [`JoinTreePlan::reuse_builds`]` = false` turns both off: every edge
//! builds its own table, and the store's cache is neither read nor
//! filled. The cached decoded key column doubles as the zero-I/O key
//! source for snowflake edges probing *through* a previous table.
//!
//! # Parallelism contract
//!
//! The probe phase is a read statement like a scan, run by the scan's
//! own driver (`exec::drive`): span-parallel over the **base** table on
//! the [`FragmentPipeline`](crate::FragmentPipeline), each granule run
//! executing the full filter→probe→…→probe pipeline for its positions,
//! the runs' join parts kept in global granule order and handed to
//! MERGE, which writes each slice of rows into its own slice of the
//! result.
//! All per-row state is span-local and the build side is shared
//! read-only, so the result is **byte-identical** at any worker count
//! with exact cold `block_reads` — the property
//! `tests/join_tree_diff.rs` proves against the serial composition of
//! single joins. The base-side filter is the scan's LM-parallel filter
//! step (`exec::filter_window`) over one predicate.
//!
//! # Inserted rows are the last blocks
//!
//! Every table is read through readers opened on one delta snapshot,
//! which cover its inserted rows as in-memory tail blocks after the
//! file's, so there is no second, row-at-a-time path for them. The
//! build side decodes keys, reducer columns and output
//! representations over every logical position; the driver runs the
//! probe over the base table's file rows on the pipeline and then once
//! more, serially, over the tail window
//! `[base_rows, base_rows + inserts)` — its fragment lands after every
//! other, where inserted rows sit in position order. Deleted rows of
//! either kind drop out of the descriptor before any probe. Tail blocks
//! are Plain, so a tail span probes a code-keyed table by value, as the
//! dictionary's own fingerprint check already requires.
//!
//! # Edge ordering
//!
//! Execution order is a plan property ([`JoinTreePlan::order`]), chosen
//! by `Planner::choose_join_tree` to shrink the intermediate early.
//! Output *columns* always follow spec order; output *row* order follows
//! the execution order's fan-out nesting (like any join reorder). For
//! the identity order the rows are byte-identical to the spec-order
//! composition of single joins.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use matstrat_common::{Error, Pos, PosRange, Predicate, Result, TableId, Value};
use matstrat_storage::{ColumnReader, Store};

use crate::exec::{deletes_in, drive, filter_window, ExecOptions, Finish, Sink};
use crate::multicol::MiniColumn;
use crate::ops::join::{
    decode_snapshot, fetch_codes_expanded, fetch_expanded, BuildReducer, FanOut, InnerRep,
    ProbeKeys, SharedBuild,
};
use crate::ops::merge::{JoinCol, JoinRows, Part};
use crate::query::{metered, JoinKeySource, JoinTreeSpec, QueryResult, QueryStats};
use crate::InnerStrategy;

/// How a [`JoinTreeSpec`] is to be executed: the edge order, one inner
/// strategy per edge, which snowflake edges run **bushy** (their
/// dimension subtree joined before the fact side probes it), and whether
/// build tables are cached across edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTreePlan {
    /// Execution order as indices into `spec.edges`. Must be a
    /// permutation in which every snowflake edge runs after the edge it
    /// keys through.
    pub order: Vec<usize>,
    /// Inner-table strategy per edge, indexed by **spec** position.
    pub inners: Vec<InnerStrategy>,
    /// Bushy flag per edge, indexed by **spec** position (empty means
    /// none). A bushy edge must be a snowflake edge; its hash table is
    /// built *before* its parent's, and parent rows with no match in it
    /// are semi-join-reduced out of the parent's table — a dimension
    /// subtree joined ahead of the fact probe. Output-invariant: the
    /// reduced rows would die at the bushy edge's own probe anyway.
    pub bushy: Vec<bool>,
    /// Reuse the build's hash table across edges sharing an
    /// (inner table, key column, inner filter, bushy reduction)
    /// signature, and reducer-free ones across statements through the
    /// store's resident builds. On by default; the differential
    /// batteries turn it off to prove reuse is invisible in the bytes.
    pub reuse_builds: bool,
}

impl JoinTreePlan {
    /// Execute in spec order under the given per-edge strategies.
    pub fn in_spec_order(inners: Vec<InnerStrategy>) -> JoinTreePlan {
        JoinTreePlan {
            order: (0..inners.len()).collect(),
            inners,
            bushy: Vec::new(),
            reuse_builds: true,
        }
    }

    /// Whether edge `ei` (spec index) executes bushy.
    pub fn is_bushy(&self, ei: usize) -> bool {
        self.bushy.get(ei).copied().unwrap_or(false)
    }

    /// Check the plan fits `spec`: one strategy per edge, `order` a
    /// dependency-respecting permutation, and bushy flags only on
    /// snowflake edges.
    pub fn validate(&self, spec: &JoinTreeSpec) -> Result<()> {
        let n = spec.edges.len();
        if self.inners.len() != n {
            return Err(Error::invalid(format!(
                "join tree plan: {} strategies for {n} edges",
                self.inners.len()
            )));
        }
        if !self.bushy.is_empty() && self.bushy.len() != n {
            return Err(Error::invalid(format!(
                "join tree plan: {} bushy flags for {n} edges",
                self.bushy.len()
            )));
        }
        let mut seen = vec![false; n];
        for &ei in &self.order {
            if ei >= n || seen[ei] {
                return Err(Error::invalid(
                    "join tree plan: order must be a permutation of the edges",
                ));
            }
            if let JoinKeySource::Edge(j) = spec.key_source(ei)? {
                if !seen[j] {
                    return Err(Error::invalid(format!(
                        "join tree plan: edge {ei} keys through edge {j}, \
                         which has not executed yet"
                    )));
                }
            } else if self.is_bushy(ei) {
                return Err(Error::invalid(format!(
                    "join tree plan: edge {ei} is marked bushy but probes the \
                     base table (only snowflake edges can reduce a parent build)"
                )));
            }
            seen[ei] = true;
        }
        if seen.iter().any(|s| !s) {
            return Err(Error::invalid(
                "join tree plan: order must cover every edge",
            ));
        }
        Ok(())
    }
}

/// The per-statement build signature: two edges share one
/// [`SharedBuild`] only when the inner table, key column, pushed-down
/// inner filter, *and* the set of bushy children reducing the build all
/// agree — anything less would let a reduced table serve an edge whose
/// probes must see the reduced-out rows. Only a signature with neither
/// reducer is also looked up among the store's resident builds, keyed by
/// (inner table, key column) alone: the table is built serially, so no
/// worker count shapes it.
type BuildKey = (TableId, usize, Option<(usize, Predicate)>, Vec<usize>);

/// Everything one edge's probe needs, shared read-only by all workers.
struct EdgeRun {
    /// The (possibly cache-shared) hash table + decoded keys.
    shared: Arc<SharedBuild>,
    /// The per-edge right output representation.
    rep: InnerRep,
    /// Where this edge's probe keys come from.
    source: KeyFetch,
}

/// Resolved key source: a base-column reader, or the decoded key column
/// of an earlier edge's inner table (by execution slot).
enum KeyFetch {
    Base(ColumnReader),
    Prev { slot: usize, keys: Arc<Vec<Value>> },
}

/// The build phase: every edge's [`SharedBuild`], made at most once per
/// [`BuildKey`] signature when the plan reuses builds. This statement's
/// memo sits above the store's resident builds: a reducer-free
/// signature missing here is looked up there
/// ([`SharedBuild::resident`]) before anything is built.
struct Builds<'a> {
    store: &'a Store,
    spec: &'a JoinTreeSpec,
    plan: &'a JoinTreePlan,
    /// Per spec edge, the bushy children that reduce its build.
    bushy_children: Vec<Vec<usize>>,
    cache: HashMap<BuildKey, Arc<SharedBuild>>,
    /// Per spec edge, its build once made.
    by_spec: Vec<Option<Arc<SharedBuild>>>,
    /// Counts `builds` and `build_reuses`.
    stats: QueryStats,
}

impl Builds<'_> {
    /// Build (or fetch from this statement's memo or the store) edge
    /// `ei`'s [`SharedBuild`], first building every bushy child reducing
    /// it. Memoized per spec index, so the probe loop later finds every
    /// build ready whatever order the recursion produced them in.
    fn ensure(&mut self, ei: usize) -> Result<Arc<SharedBuild>> {
        if let Some(s) = &self.by_spec[ei] {
            return Ok(Arc::clone(s));
        }
        let children = self.bushy_children[ei].clone();
        let mut child_builds: Vec<(usize, Arc<SharedBuild>)> = Vec::new();
        for &c in &children {
            child_builds.push((c, self.ensure(c)?));
        }
        let (spec, edge) = (self.spec, &self.spec.edges[ei]);
        let reducer_free = edge.right_filter.is_none() && children.is_empty();
        let key: BuildKey = (edge.right, edge.right_key, edge.right_filter, children);
        let shared = match self.cache.get(&key) {
            Some(s) if self.plan.reuse_builds => {
                self.stats.build_reuses += 1;
                Arc::clone(s)
            }
            _ if self.plan.reuse_builds && reducer_free => {
                let (s, resident) = SharedBuild::resident(self.store, edge.right, edge.right_key)?;
                if resident {
                    self.stats.build_reuses += 1;
                } else {
                    self.stats.builds += 1;
                }
                self.cache.insert(key, Arc::clone(&s));
                s
            }
            _ => {
                let mut reducers: Vec<BuildReducer<'_>> = edge
                    .right_filter
                    .iter()
                    .map(|&(c, p)| BuildReducer::Filter(c, p))
                    .collect();
                for (c, cb) in &child_builds {
                    reducers.push(BuildReducer::SemiJoin {
                        col: spec.edges[*c].left_key,
                        child: cb,
                    });
                }
                let s = Arc::new(SharedBuild::build(
                    self.store,
                    self.store.scan_snapshot(edge.right)?,
                    edge.right_key,
                    &reducers,
                )?);
                self.stats.builds += 1;
                self.cache.insert(key, Arc::clone(&s));
                s
            }
        };
        self.by_spec[ei] = Some(Arc::clone(&shared));
        Ok(shared)
    }
}

/// Where one flat spec-order output column's values come from.
#[derive(Clone, Copy)]
enum OutCol {
    /// Base column `col`.
    Base(usize),
    /// Column `col` of the right output of the edge run in `slot`.
    Edge { slot: usize, col: usize },
}

/// Execute the tree under an explicit [`JoinTreePlan`] and
/// [`ExecOptions`], returning the result and the tree-level
/// measurements. Byte-identical at any worker count for a fixed plan.
pub fn hash_join_tree_with_options(
    store: &Store,
    spec: &JoinTreeSpec,
    plan: &JoinTreePlan,
    opts: &ExecOptions,
) -> Result<(QueryResult, QueryStats)> {
    metered(|| execute_tree(store, spec, plan, opts))
}

/// [`hash_join_tree_with_options`] under the statement's ledger.
fn execute_tree(
    store: &Store,
    spec: &JoinTreeSpec,
    plan: &JoinTreePlan,
    opts: &ExecOptions,
) -> Result<(QueryResult, QueryStats)> {
    spec.validate()?;
    plan.validate(spec)?;
    let base = spec.base();
    let (base_info, base_delta) = store.scan_snapshot(base)?;
    let edge0 = &spec.edges[0];

    // Output shape in spec order, validated before any I/O.
    let mut names: Vec<String> = Vec::with_capacity(spec.output_width());
    for &c in &edge0.left_output {
        names.push(base_info.column(c)?.name.clone());
    }
    for e in &spec.edges {
        let right_info = store.projection(e.right)?;
        for &c in &e.right_output {
            names.push(right_info.column(c)?.name.clone());
        }
    }
    if names.is_empty() {
        return Err(Error::invalid("join tree must output at least one column"));
    }

    let t0 = Instant::now();

    // ---- Build phase, in execution order --------------------------------
    // One SharedBuild per distinct build signature (see [`BuildKey`]);
    // the per-edge representation is always edge-local (outputs and
    // strategy differ per edge; re-fetches of shared columns are pool
    // hits). A bushy edge's table is built *before* its parent's — the
    // recursion in [`Builds::ensure`] — so the parent build can
    // semi-reduce against it.
    let n_edges = spec.edges.len();
    let mut bushy_children: Vec<Vec<usize>> = vec![Vec::new(); n_edges];
    for ei in 0..n_edges {
        if plan.is_bushy(ei) {
            if let JoinKeySource::Edge(p) = spec.key_source(ei)? {
                bushy_children[p].push(ei);
            }
        }
    }
    let mut builds = Builds {
        store,
        spec,
        plan,
        bushy_children,
        cache: HashMap::new(),
        by_spec: vec![None; n_edges],
        stats: QueryStats::default(),
    };
    for &ei in &plan.order {
        builds.ensure(ei)?;
    }
    let mut spec_to_slot = vec![usize::MAX; n_edges];
    let mut runs: Vec<EdgeRun> = Vec::with_capacity(n_edges);
    for &ei in &plan.order {
        let edge = &spec.edges[ei];
        let shared = builds.ensure(ei)?;
        let rep = InnerRep::build(store, &shared, &edge.right_output, plan.inners[ei], opts)?;
        let source = match spec.key_source(ei)? {
            JoinKeySource::Base => {
                KeyFetch::Base(store.reader_for(&base_info, base_delta.as_ref(), edge.left_key)?)
            }
            JoinKeySource::Edge(j) => {
                let j_slot = spec_to_slot[j];
                debug_assert_ne!(j_slot, usize::MAX, "plan validated above");
                let through = &runs[j_slot];
                // Keying through the column the table was hashed on
                // reuses its decoded keys; any other column decodes once
                // here, from the through-table's snapshot, indexable by
                // logical position — shared read-only by every probe
                // worker.
                let keys = if spec.edges[j].right_key == edge.left_key {
                    Arc::clone(&through.shared.keys)
                } else {
                    let ts = &through.shared;
                    Arc::new(decode_snapshot(
                        store,
                        &ts.info,
                        ts.delta.as_ref(),
                        edge.left_key,
                    )?)
                };
                KeyFetch::Prev { slot: j_slot, keys }
            }
        };
        spec_to_slot[ei] = runs.len();
        runs.push(EdgeRun {
            shared,
            rep,
            source,
        });
    }

    // Base-side readers, opened on the base snapshot (so they cover its
    // inserted rows as tail blocks), shared by every probe worker.
    let mut base_readers = HashMap::new();
    for &c in edge0
        .left_filter
        .iter()
        .map(|(c, _)| c)
        .chain(&edge0.left_output)
    {
        base_readers.insert(c, store.reader_for(&base_info, base_delta.as_ref(), c)?);
    }
    // Every output column's source, in spec order. Under an aggregate
    // (its columns validated by `spec.validate`) only the columns its
    // parts carry are fetched.
    let mut all: Vec<OutCol> = edge0.left_output.iter().map(|&c| OutCol::Base(c)).collect();
    for (ei, e) in spec.edges.iter().enumerate() {
        let slot = spec_to_slot[ei];
        all.extend((0..e.right_output.len()).map(|col| OutCol::Edge { slot, col }));
    }
    let (out, finish) = match spec.aggregate {
        Some(a) => {
            let finish = Finish::Aggregate {
                func: a.func,
                domain: None,
                group: names[a.group_col].clone(),
                value: names[a.value_col].clone(),
            };
            (a.part_columns().iter().map(|&i| all[i]).collect(), finish)
        }
        None => (all, Finish::Merge(names)),
    };
    let task = TreeTask {
        spec,
        runs: &runs,
        out,
        base_readers,
        deletes: base_delta.as_ref().map_or(&[], |d| d.deletes()),
        // Forced position-list representations are a scan ablation.
        opts: ExecOptions {
            force_repr: None,
            ..*opts
        },
    };

    // ---- Probe phase: span-parallel over the base table -----------------
    drive(
        t0,
        builds.stats,
        base_info.num_rows,
        base_delta.as_deref(),
        opts,
        finish,
        |span, sink| task.run_span(span, sink),
    )
}

/// Everything one span's filter→probe→…→probe pipeline reads, shared
/// read-only by every probe worker.
struct TreeTask<'a> {
    spec: &'a JoinTreeSpec,
    runs: &'a [EdgeRun],
    /// The statement's output columns, in order.
    out: Vec<OutCol>,
    /// The base table's filter and output columns' readers, by column.
    base_readers: HashMap<usize, ColumnReader>,
    /// The base table's deleted positions, sorted.
    deletes: &'a [u64],
    opts: ExecOptions,
}

impl<'a> TreeTask<'a> {
    /// Run the full filter→probe→…→probe pipeline over one base-table
    /// span, handing the span's rows to `sink` as one join part.
    fn run_span(&self, span: PosRange, sink: &mut Sink<'a>) -> Result<QueryStats> {
        let edge0 = &self.spec.edges[0];
        // ---- Base side: the scan's LM-parallel filter step ---------------
        // Deleted rows never reach the probes (nor any value fetch).
        let base = filter_window(
            &self.base_readers,
            edge0.left_filter.as_slice(),
            span,
            deletes_in(self.deletes, span),
            &self.opts,
        )?;
        let stats = QueryStats {
            zone_skips: base.zone_skips,
            ..QueryStats::default()
        };

        // ---- The pipelined position intermediate --------------------------
        // Row i of the intermediate is (base_pos[i], rights[0][i], ...,
        // rights[slot-1][i]); every probe extends it in place.
        let mut base_pos: Vec<Pos> = base.desc.into_vec();
        let mut rights: Vec<Vec<u32>> = Vec::with_capacity(self.runs.len());
        for run in self.runs {
            let keys: ProbeKeys = match &run.source {
                KeyFetch::Base(reader) => {
                    let mini = MiniColumn::fetch(reader, span)?;
                    // Compressed probe: key blocks sharing the build's
                    // dictionary (fingerprint, then the dictionary itself)
                    // probe with gathered u32 codes — no key decodes.
                    let code_probe = run.shared.code_dict().is_some_and(|(fp, dict)| {
                        mini.shared_dict_fingerprint() == Some(fp)
                            && mini.shared_dict() == Some(dict)
                    });
                    if code_probe {
                        let codes = fetch_codes_expanded(&mini, &base_pos)?;
                        matstrat_common::codeops::add(codes.len() as u64);
                        ProbeKeys::Codes(codes)
                    } else {
                        ProbeKeys::Values(fetch_expanded(&mini, &base_pos)?)
                    }
                }
                KeyFetch::Prev { slot: j, keys } => {
                    ProbeKeys::Values(rights[*j].iter().map(|&rp| keys[rp as usize]).collect())
                }
            };
            // Fan out: one pass yields this edge's right positions and,
            // unless every row hit exactly once, the selection vector
            // through which the earlier columns are then gathered once.
            let FanOut { right, sel } = run.shared.fan_out(&keys);
            if let Some(sel) = sel {
                base_pos = sel.iter().map(|&i| base_pos[i]).collect();
                for col in &mut rights {
                    *col = sel.iter().map(|&i| col[i]).collect();
                }
            }
            rights.push(right);
        }

        // ---- The part: positions, and the columns' sources ---------------
        // No value is fetched here. The base output columns' blocks are
        // (step 1 does every read); MERGE, or an aggregate's fold, writes
        // each value once, at the rows it lands in.
        let cols = self
            .out
            .iter()
            .map(|&oc| match oc {
                OutCol::Base(c) => Ok(JoinCol::Base(MiniColumn::fetch(
                    &self.base_readers[&c],
                    span,
                )?)),
                OutCol::Edge { slot, col } => Ok(JoinCol::Right {
                    rep: &self.runs[slot].rep,
                    edge: slot,
                    col,
                }),
            })
            .collect::<Result<Vec<_>>>()?;
        if !base_pos.is_empty() {
            sink.push(Part::Join(JoinRows {
                base: base_pos,
                rights,
                cols,
            }))?;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::join::JoinSpec;
    use crate::AggFunc;
    use matstrat_common::Predicate;
    use matstrat_storage::{EncodingKind as Ek, ProjectionSpec, SortOrder, Store};

    /// Execute the tree in spec order under per-edge strategies, with
    /// default options.
    fn hash_join_tree(
        store: &Store,
        spec: &JoinTreeSpec,
        inners: &[InnerStrategy],
    ) -> Result<QueryResult> {
        Ok(hash_join_tree_with_options(
            store,
            spec,
            &JoinTreePlan::in_spec_order(inners.to_vec()),
            &ExecOptions::default(),
        )?
        .0)
    }

    /// orders(custkey, datekey, shipdate) star-joined to customer and a
    /// date dimension; customer snowflakes to nation.
    fn setup() -> (Store, JoinTreeSpec) {
        let store = Store::in_memory();
        let n = 90i64;
        let custkey: Vec<Value> = (0..n).map(|i| i % 15).collect();
        let datekey: Vec<Value> = (0..n).map(|i| (i * 7) % 10).collect();
        let shipdate: Vec<Value> = (0..n).collect();
        let orders = store
            .load_projection(
                &ProjectionSpec::new("orders")
                    .column("custkey", Ek::Plain, SortOrder::None)
                    .column("datekey", Ek::Plain, SortOrder::None)
                    .column("shipdate", Ek::Plain, SortOrder::None),
                &[&custkey, &datekey, &shipdate],
            )
            .unwrap();
        let ck: Vec<Value> = (0..15).collect();
        let nationkey: Vec<Value> = (0..15).map(|i| i % 4).collect();
        let customer = store
            .load_projection(
                &ProjectionSpec::new("customer")
                    .column("custkey", Ek::Plain, SortOrder::Primary)
                    .column("nationkey", Ek::Plain, SortOrder::None),
                &[&ck, &nationkey],
            )
            .unwrap();
        let dk: Vec<Value> = (0..10).collect();
        let dname: Vec<Value> = (0..10).map(|i| 100 + i).collect();
        let date = store
            .load_projection(
                &ProjectionSpec::new("date")
                    .column("datekey", Ek::Plain, SortOrder::Primary)
                    .column("dname", Ek::Plain, SortOrder::None),
                &[&dk, &dname],
            )
            .unwrap();
        let nk: Vec<Value> = (0..4).collect();
        let region: Vec<Value> = (0..4).map(|i| i * 1000).collect();
        let nation = store
            .load_projection(
                &ProjectionSpec::new("nation")
                    .column("nationkey", Ek::Plain, SortOrder::Primary)
                    .column("region", Ek::Plain, SortOrder::None),
                &[&nk, &region],
            )
            .unwrap();
        let spec = JoinTreeSpec::new(vec![
            JoinSpec {
                left: orders,
                right: customer,
                left_key: 0,
                right_key: 0,
                left_filter: Some((0, Predicate::lt(12))),
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
            JoinSpec {
                left: customer,
                right: nation,
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

    /// Row-level oracle straight from the generators.
    fn reference_rows() -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for i in 0..90i64 {
            let ck = i % 15;
            if ck >= 12 {
                continue;
            }
            let nk = ck % 4;
            rows.push(vec![i, nk, 100 + (i * 7) % 10, nk * 1000]);
        }
        rows.sort_unstable();
        rows
    }

    #[test]
    fn three_edge_tree_matches_row_oracle_for_all_strategies() {
        let (store, spec) = setup();
        for inner in InnerStrategy::ALL {
            let r = hash_join_tree(&store, &spec, &[inner; 3]).unwrap();
            assert_eq!(
                r.column_names,
                vec!["shipdate", "nationkey", "dname", "region"],
                "columns in spec order"
            );
            assert_eq!(r.sorted_rows(), reference_rows(), "{inner:?}");
        }
    }

    #[test]
    fn execution_order_changes_rows_not_the_row_set_or_columns() {
        let (store, spec) = setup();
        let inners = [InnerStrategy::MultiColumn; 3];
        let spec_order = hash_join_tree(&store, &spec, &inners).unwrap();
        // date first, then customer, then nation (still dependency-valid).
        let plan = JoinTreePlan {
            order: vec![1, 0, 2],
            inners: inners.to_vec(),
            bushy: Vec::new(),
            reuse_builds: true,
        };
        let reordered = hash_join_tree_with_options(&store, &spec, &plan, &ExecOptions::default())
            .unwrap()
            .0;
        assert_eq!(reordered.column_names, spec_order.column_names);
        assert_eq!(reordered.sorted_rows(), spec_order.sorted_rows());
    }

    #[test]
    fn snowflake_before_its_parent_is_rejected() {
        let (store, spec) = setup();
        let plan = JoinTreePlan {
            order: vec![2, 0, 1], // nation keys through customer: invalid first
            inners: vec![InnerStrategy::MultiColumn; 3],
            bushy: Vec::new(),
            reuse_builds: true,
        };
        let err =
            hash_join_tree_with_options(&store, &spec, &plan, &ExecOptions::default()).unwrap_err();
        assert!(err.to_string().contains("has not executed yet"), "{err}");
    }

    #[test]
    fn validation_rejects_malformed_trees() {
        let (store, spec) = setup();
        // Later edge with a filter.
        let mut bad = spec.clone();
        bad.edges[1].left_filter = Some((0, Predicate::lt(3)));
        assert!(hash_join_tree(&store, &bad, &[InnerStrategy::MultiColumn; 3]).is_err());
        // Later edge with base outputs.
        let mut bad = spec.clone();
        bad.edges[2].left_output = vec![0];
        assert!(hash_join_tree(&store, &bad, &[InnerStrategy::MultiColumn; 3]).is_err());
        // Unresolvable key source: nation joined through a table that is
        // in no earlier edge.
        let mut bad = spec.clone();
        bad.edges[2].left = bad.edges[2].right;
        assert!(hash_join_tree(&store, &bad, &[InnerStrategy::MultiColumn; 3]).is_err());
        // Strategy count mismatch.
        assert!(hash_join_tree(&store, &spec, &[InnerStrategy::MultiColumn; 2]).is_err());
        // Empty tree.
        assert!(hash_join_tree(&store, &JoinTreeSpec::new(vec![]), &[]).is_err());
    }

    #[test]
    fn duplicate_inner_table_builds_once_and_reuse_is_invisible() {
        // The date dimension probed on two different base columns: one
        // build, two probes — and the bytes match a rebuild-per-edge run.
        let store = Store::in_memory();
        let n = 200i64;
        let odate: Vec<Value> = (0..n).map(|i| i % 10).collect();
        let sdate: Vec<Value> = (0..n).map(|i| (i * 3) % 10).collect();
        let orders = store
            .load_projection(
                &ProjectionSpec::new("orders")
                    .column("odate", Ek::Plain, SortOrder::None)
                    .column("sdate", Ek::Plain, SortOrder::None),
                &[&odate, &sdate],
            )
            .unwrap();
        let dk: Vec<Value> = (0..10).collect();
        let dname: Vec<Value> = (0..10).map(|i| 100 + i).collect();
        let date = store
            .load_projection(
                &ProjectionSpec::new("date")
                    .column("datekey", Ek::Plain, SortOrder::Primary)
                    .column("dname", Ek::Plain, SortOrder::None),
                &[&dk, &dname],
            )
            .unwrap();
        let spec = JoinTreeSpec::new(vec![
            JoinSpec {
                left: orders,
                right: date,
                left_key: 0,
                right_key: 0,
                left_filter: None,
                right_filter: None,
                left_output: vec![0, 1],
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
        let inners = vec![InnerStrategy::MultiColumn; 2];
        let reuse = JoinTreePlan::in_spec_order(inners.clone());
        let (r1, s1) =
            hash_join_tree_with_options(&store, &spec, &reuse, &ExecOptions::default()).unwrap();
        assert_eq!(s1.builds, 1, "one build for two edges");
        assert_eq!(s1.build_reuses, 1);
        let rebuild = JoinTreePlan {
            reuse_builds: false,
            ..reuse
        };
        let (r2, s2) =
            hash_join_tree_with_options(&store, &spec, &rebuild, &ExecOptions::default()).unwrap();
        assert_eq!(s2.builds, 2, "rebuild per edge when reuse is off");
        assert_eq!(s2.build_reuses, 0);
        assert_eq!(r1.flat(), r2.flat(), "reuse is invisible in the bytes");
        assert_eq!(r1.num_rows() as u64, s1.rows_out);
        // Every order row matches both date probes: n rows out.
        assert_eq!(r1.num_rows(), 200);
    }

    #[test]
    fn bushy_snowflake_edge_is_byte_identical_to_deep_execution() {
        let (store, spec) = setup();
        let inners = vec![InnerStrategy::MultiColumn; 3];
        let deep = JoinTreePlan::in_spec_order(inners.clone());
        let bushy = JoinTreePlan {
            bushy: vec![false, false, true], // nation folds into customer's build
            ..JoinTreePlan::in_spec_order(inners)
        };
        for workers in [1usize, 4] {
            let opts = ExecOptions {
                granule: 16,
                parallelism: workers,
                ..ExecOptions::default()
            };
            let d = hash_join_tree_with_options(&store, &spec, &deep, &opts)
                .unwrap()
                .0;
            let b = hash_join_tree_with_options(&store, &spec, &bushy, &opts)
                .unwrap()
                .0;
            assert_eq!(b.flat(), d.flat(), "workers={workers}");
            assert_eq!(b.column_names, d.column_names);
        }
    }

    #[test]
    fn bushy_flag_on_a_star_edge_is_rejected() {
        let (store, spec) = setup();
        let plan = JoinTreePlan {
            bushy: vec![true, false, false], // edge 0 probes the base
            ..JoinTreePlan::in_spec_order(vec![InnerStrategy::MultiColumn; 3])
        };
        let err =
            hash_join_tree_with_options(&store, &spec, &plan, &ExecOptions::default()).unwrap_err();
        assert!(err.to_string().contains("bushy"), "{err}");
    }

    #[test]
    fn dimension_predicate_pushdown_matches_the_post_filter_oracle() {
        let (store, mut spec) = setup();
        // Keep only nations {0, 1}: push the predicate into customer's
        // build, versus filtering the unpushed result on the nationkey
        // output column (index 1 in spec order).
        spec.edges[0].right_filter = Some((1, Predicate::lt(2)));
        let mut unpushed = spec.clone();
        unpushed.edges[0].right_filter = None;
        for inner in InnerStrategy::ALL {
            let pushed = hash_join_tree(&store, &spec, &[inner; 3]).unwrap();
            let oracle: Vec<Vec<Value>> = hash_join_tree(&store, &unpushed, &[inner; 3])
                .unwrap()
                .rows()
                .map(|r| r.to_vec())
                .filter(|r| r[1] < 2)
                .collect();
            let mut got: Vec<Vec<Value>> = pushed.rows().map(|r| r.to_vec()).collect();
            let mut want = oracle;
            got.sort_unstable();
            want.sort_unstable();
            assert!(!want.is_empty(), "oracle must keep some rows");
            assert_eq!(got, want, "{inner:?}");
        }
    }

    #[test]
    fn aggregate_over_tree_matches_manual_aggregation_of_the_flat_result() {
        let (store, spec) = setup();
        let inners = [InnerStrategy::MultiColumn; 3];
        let flat = hash_join_tree(&store, &spec, &inners).unwrap();
        // GROUP BY nationkey (col 1), aggregate over dname (col 2); then
        // group and value as one edge column, a base column against an
        // edge column and back, and one edge's two columns.
        for (g, v) in [(1, 2), (1, 1), (0, 3), (3, 0), (2, 2)] {
            for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
                let agg_spec = spec.clone().aggregate_fn(g, v, func);
                let got = hash_join_tree(&store, &agg_spec, &inners).unwrap();
                let mut groups: std::collections::BTreeMap<Value, Vec<Value>> =
                    std::collections::BTreeMap::new();
                for row in flat.rows() {
                    groups.entry(row[g]).or_default().push(row[v]);
                }
                let want: Vec<Vec<Value>> = groups
                    .into_iter()
                    .map(|(g, vs)| {
                        let v = match func {
                            AggFunc::Sum => vs.iter().sum(),
                            AggFunc::Count => vs.len() as Value,
                            AggFunc::Min => *vs.iter().min().unwrap(),
                            AggFunc::Max => *vs.iter().max().unwrap(),
                        };
                        vec![g, v]
                    })
                    .collect();
                let rows: Vec<Vec<Value>> = got.rows().map(|r| r.to_vec()).collect();
                assert_eq!(rows, want, "{g} {v} {func:?}");
                assert_eq!(got.column_names[0], flat.column_names[g], "{func:?}");
            }
        }
    }

    /// facts(a, b, c, v) joined in spec order to three dimensions: `dup`
    /// holds some `a` keys twice (a fan-out edge), `part` holds every `b`
    /// key once but its pushed-down filter drops some (a unique edge that
    /// misses rows), and `full` holds every `c` key once (a unique edge
    /// every row hits, whose earlier columns stand as they are). With
    /// `codes`, every key column is a shared dictionary, so each edge
    /// probes in the code domain.
    fn fan_out_then_unique_setup(store: &Store, codes: bool) -> JoinTreeSpec {
        let spec = |name: &str, cols: &[&str]| {
            cols.iter().fold(ProjectionSpec::new(name), |s, &c| {
                if codes && c.starts_with('k') {
                    s.column_shared_dict(c, SortOrder::None)
                } else {
                    s.column(c, Ek::Plain, SortOrder::None)
                }
            })
        };
        let n = 240i64;
        let a: Vec<Value> = (0..n).map(|i| (i * 5) % 8).collect();
        let b: Vec<Value> = (0..n).map(|i| (i * 7) % 12).collect();
        let c: Vec<Value> = (0..n).map(|i| i % 5).collect();
        let v: Vec<Value> = (0..n).collect();
        let facts = store
            .load_projection(&spec("facts", &["v", "ka", "kb", "kc"]), &[&v, &a, &b, &c])
            .unwrap();
        let dup_k: Vec<Value> = (0..8).chain([0, 3, 6]).collect();
        let dup_w: Vec<Value> = (0..dup_k.len() as Value).map(|r| 1000 + r).collect();
        let dup = store
            .load_projection(&spec("dup", &["k", "w"]), &[&dup_k, &dup_w])
            .unwrap();
        let part_k: Vec<Value> = (0..12).collect();
        let part_p: Vec<Value> = part_k.iter().map(|k| k * 100).collect();
        let part = store
            .load_projection(&spec("part", &["k", "p"]), &[&part_k, &part_p])
            .unwrap();
        let full_k: Vec<Value> = (0..5).collect();
        let full_q: Vec<Value> = full_k.iter().map(|k| k + 50).collect();
        let full = store
            .load_projection(&spec("full", &["k", "q"]), &[&full_k, &full_q])
            .unwrap();
        let edge = |right, left_key, right_filter, left_output| JoinSpec {
            left: facts,
            right,
            left_key,
            right_key: 0,
            left_filter: None,
            right_filter,
            left_output,
            right_output: vec![1],
        };
        JoinTreeSpec::new(vec![
            edge(dup, 1, None, vec![0]),
            edge(part, 2, Some((1, Predicate::lt(700))), vec![]),
            edge(full, 3, None, vec![]),
        ])
    }

    #[test]
    fn fan_out_then_unique_edges_match_row_oracle() {
        let dup_k: Vec<Value> = (0..8).chain([0, 3, 6]).collect();
        let mut want = Vec::new();
        for i in 0..240i64 {
            let (a, b, c) = ((i * 5) % 8, (i * 7) % 12, i % 5);
            for (r, _) in dup_k.iter().enumerate().filter(|&(_, &k)| k == a && b < 7) {
                want.push(vec![i, 1000 + r as Value, b * 100, c + 50]);
            }
        }
        want.sort_unstable();
        for codes in [false, true] {
            let store = Store::in_memory();
            let spec = fan_out_then_unique_setup(&store, codes);
            for inner in InnerStrategy::ALL {
                let plan = JoinTreePlan {
                    reuse_builds: false,
                    ..JoinTreePlan::in_spec_order(vec![inner; 3])
                };
                let mut serial = None;
                for workers in [1, 2, 3, 8] {
                    let opts = ExecOptions {
                        granule: 4,
                        parallelism: workers,
                        ..ExecOptions::default()
                    };
                    let (got, stats) =
                        hash_join_tree_with_options(&store, &spec, &plan, &opts).unwrap();
                    let what = format!("codes={codes} {inner:?} workers={workers}");
                    assert_eq!(got.sorted_rows(), want, "{what}");
                    assert_eq!(stats.code_path_ops > 0, codes, "{what}");
                    let serial = serial.get_or_insert_with(|| got.flat().to_vec());
                    assert_eq!(got.flat(), serial.as_slice(), "{what}");
                }
            }
        }
    }

    #[test]
    fn parallel_tree_is_byte_identical() {
        let (store, spec) = setup();
        for inner in InnerStrategy::ALL {
            let opts = |workers| ExecOptions {
                granule: 16,
                parallelism: workers,
                ..ExecOptions::default()
            };
            let plan = JoinTreePlan::in_spec_order(vec![inner; 3]);
            let serial = hash_join_tree_with_options(&store, &spec, &plan, &opts(1))
                .unwrap()
                .0;
            for workers in [2, 3, 8] {
                let par = hash_join_tree_with_options(&store, &spec, &plan, &opts(workers))
                    .unwrap()
                    .0;
                assert_eq!(par.flat(), serial.flat(), "{inner:?} workers={workers}");
            }
        }
    }
}
