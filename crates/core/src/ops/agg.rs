//! GROUP BY aggregation, over every shape of part step 1 leaves.
//!
//! Under an aggregate, a statement's parts (`Part`, see
//! [`crate::ops::merge`]) carry the group column, then the value column
//! when the function reads values, and each folds into a partial
//! accumulator the moment it is made (`Part::fold`). Early-materialization
//! plans leave constructed tuples, which pay a tuple-iterator step per
//! row ([`Aggregator::add`]). Late-materialization plans leave a position
//! descriptor and the compressed columns, whose *runs* of equal group
//! values are consumed whole ([`aggregate_runs`]) — the §4.2 "operate
//! directly on compressed data" win: an RLE run of 10,000 equal group
//! values costs one accumulator update per run boundary, not 10,000. A
//! join tree leaves gathered columns, folded by runs of equal groups.
//!
//! The paper's experiments use SUM; COUNT, MIN and MAX are provided as
//! extensions (COUNT additionally lets LM plans skip fetching the value
//! column entirely).

use std::collections::HashMap;

use matstrat_common::{PosRange, Result, Value};
use matstrat_poslist::PosList;

use crate::multicol::MiniColumn;
use crate::ops::merge::Part;
use crate::query::QueryResult;

/// Upper bound on the dense-array domain span (8 Mi groups ≈ 64 MB).
const DENSE_LIMIT: i64 = 1 << 23;

/// The aggregate function applied per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Sum of the value column (the paper's experiments).
    Sum,
    /// Count of surviving rows; the value column is never fetched by
    /// LM plans.
    Count,
    /// Minimum of the value column.
    Min,
    /// Maximum of the value column.
    Max,
}

impl AggFunc {
    /// Name used for the output column (`sum_x`, `count_x`, …).
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Whether the function needs the value column's values at all.
    pub fn needs_values(self) -> bool {
        !matches!(self, AggFunc::Count)
    }

    #[inline]
    fn identity(self) -> Value {
        match self {
            AggFunc::Sum | AggFunc::Count => 0,
            AggFunc::Min => Value::MAX,
            AggFunc::Max => Value::MIN,
        }
    }

    #[inline]
    fn combine(self, acc: Value, x: Value) -> Value {
        match self {
            AggFunc::Sum | AggFunc::Count => acc.wrapping_add(x),
            AggFunc::Min => acc.min(x),
            AggFunc::Max => acc.max(x),
        }
    }

    /// Fold a slice of values into one partial aggregate (for `Count`
    /// the slice length is the contribution).
    #[inline]
    fn fold_slice(self, vals: &[Value]) -> Value {
        match self {
            AggFunc::Count => vals.len() as Value,
            _ => vals
                .iter()
                .fold(self.identity(), |a, &v| self.combine(a, v)),
        }
    }
}

enum Repr {
    /// Groups fall in a small dense domain: flat array indexed by
    /// `group - offset`.
    Dense {
        offset: Value,
        accs: Vec<Value>,
        seen: Vec<bool>,
    },
    /// General case.
    Sparse(HashMap<Value, Value>),
}

/// Streaming per-group accumulator.
pub struct Aggregator {
    func: AggFunc,
    repr: Repr,
}

impl Aggregator {
    /// Accumulator for groups known to lie in `[min, max]`; picks the
    /// dense array when the span is small (the common case for TPC-H
    /// attributes like SHIPDATE), otherwise a hash map.
    pub fn with_domain_fn(func: AggFunc, min: Value, max: Value) -> Aggregator {
        let span = max.checked_sub(min).unwrap_or(i64::MAX);
        if max >= min && span < DENSE_LIMIT {
            let n = (span + 1) as usize;
            Aggregator {
                func,
                repr: Repr::Dense {
                    offset: min,
                    accs: vec![func.identity(); n],
                    seen: vec![false; n],
                },
            }
        } else {
            Aggregator::new_fn(func)
        }
    }

    /// SUM accumulator over a known domain.
    pub fn with_domain(min: Value, max: Value) -> Aggregator {
        Aggregator::with_domain_fn(AggFunc::Sum, min, max)
    }

    /// Hash-map accumulator for unknown domains.
    pub fn new_fn(func: AggFunc) -> Aggregator {
        Aggregator {
            func,
            repr: Repr::Sparse(HashMap::new()),
        }
    }

    /// SUM accumulator for unknown domains.
    pub fn new() -> Aggregator {
        Aggregator::new_fn(AggFunc::Sum)
    }

    /// The aggregate function.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Add one (group, value) pair — the tuple-at-a-time EM path.
    #[inline]
    pub fn add(&mut self, group: Value, v: Value) {
        let contribution = match self.func {
            AggFunc::Count => 1,
            _ => v,
        };
        self.merge_partial(group, contribution);
    }

    /// Add a whole run of values for one group — the run-at-a-time LM
    /// path: one fold over the slice, one accumulator update.
    #[inline]
    pub fn add_slice(&mut self, group: Value, vals: &[Value]) {
        if vals.is_empty() {
            return;
        }
        let partial = self.func.fold_slice(vals);
        self.merge_partial(group, partial);
    }

    /// Add `count` surviving rows for `group` without values (COUNT's
    /// value-free LM path).
    #[inline]
    pub fn add_count(&mut self, group: Value, count: u64) {
        if count == 0 {
            return;
        }
        debug_assert_eq!(self.func, AggFunc::Count);
        self.merge_partial(group, count as Value);
    }

    /// Add a run of `len` copies of value `v` for `group` in O(1): the
    /// compressed-execution path that never materializes the run. SUM
    /// contributes `v × len` (`wrapping_mul` equals `len` wrapping adds
    /// in two's complement, so it matches the decoded path bit-for-bit),
    /// COUNT contributes `len`, MIN/MAX contribute `v` once.
    #[inline]
    pub fn add_run(&mut self, group: Value, v: Value, len: u64) {
        if len == 0 {
            return;
        }
        let partial = match self.func {
            AggFunc::Sum => v.wrapping_mul(len as Value),
            AggFunc::Count => len as Value,
            AggFunc::Min | AggFunc::Max => v,
        };
        self.merge_partial(group, partial);
    }

    #[inline]
    fn merge_partial(&mut self, group: Value, partial: Value) {
        let func = self.func;
        match &mut self.repr {
            Repr::Dense { offset, accs, seen } => {
                let idx = (group - *offset) as usize;
                accs[idx] = func.combine(accs[idx], partial);
                seen[idx] = true;
            }
            Repr::Sparse(map) => {
                let e = map.entry(group).or_insert_with(|| func.identity());
                *e = func.combine(*e, partial);
            }
        }
    }

    /// Fold another accumulator of the same function into this one — the
    /// parallel executor's merge of per-worker partial aggregates. Every
    /// [`AggFunc`] combines associatively and commutatively (SUM/COUNT
    /// add, MIN/MAX lattice-join), so merging worker partials in any
    /// order equals aggregating the whole stream serially.
    pub fn merge(&mut self, other: Aggregator) {
        debug_assert_eq!(self.func, other.func, "partials of one aggregation");
        for (group, partial) in other.finish() {
            self.merge_partial(group, partial);
        }
    }

    /// Number of distinct groups seen so far.
    pub fn num_groups(&self) -> usize {
        match &self.repr {
            Repr::Dense { seen, .. } => seen.iter().filter(|&&s| s).count(),
            Repr::Sparse(map) => map.len(),
        }
    }

    /// Finish into `(group, aggregate)` rows sorted by group.
    pub fn finish(self) -> Vec<(Value, Value)> {
        match self.repr {
            Repr::Dense { offset, accs, seen } => accs
                .into_iter()
                .zip(seen)
                .enumerate()
                .filter(|(_, (_, s))| *s)
                .map(|(i, (acc, _))| (offset + i as Value, acc))
                .collect(),
            Repr::Sparse(map) => {
                let mut rows: Vec<(Value, Value)> = map.into_iter().collect();
                rows.sort_unstable_by_key(|&(g, _)| g);
                rows
            }
        }
    }

    /// Finish into the two-column result every aggregate plan returns:
    /// `group` (the group column's name) then `<func>_<value>`, one row
    /// per group, sorted by group — canonical, so every plan shape
    /// produces identical bytes.
    pub(crate) fn into_result(self, group: &str, value: &str) -> QueryResult {
        let names = vec![group.to_string(), format!("{}_{}", self.func.name(), value)];
        let rows = self.finish();
        let mut flat = Vec::with_capacity(rows.len() * 2);
        for (g, v) in rows {
            flat.push(g);
            flat.push(v);
        }
        QueryResult::from_flat(names, flat)
    }
}

impl Default for Aggregator {
    fn default() -> Aggregator {
        Aggregator::new()
    }
}

impl Part<'_> {
    /// Fold this part's rows — group column first, then the value column
    /// unless the function is COUNT — into `acc`.
    pub(crate) fn fold(&self, acc: &mut Aggregator) -> Result<()> {
        match self {
            Part::Late { desc, minis } => match minis.get(1) {
                // COUNT never touches the value column — an LM-only win.
                None => aggregate_runs(desc, &minis[0], &[], acc),
                // Compressed execution: an RLE value column is consumed
                // run-at-a-time, and no value vector is materialized.
                Some(vals) if vals.runs_without_decode() => {
                    aggregate_runs_compressed(desc, &minis[0], vals, acc)
                }
                Some(vals) => {
                    let mut v = Vec::with_capacity(desc.count() as usize);
                    vals.fetch_values(desc, &mut v)?;
                    aggregate_runs(desc, &minis[0], &v, acc)
                }
            },
            Part::Tuples {
                tuples,
                width,
                fields,
            } => {
                for row in tuples.chunks_exact(*width) {
                    acc.add(row[fields[0]], fields.get(1).map_or(0, |&f| row[f]));
                }
                Ok(())
            }
            Part::Join(join) => {
                let groups = join.column(0)?;
                let vals = (join.cols.len() > 1).then(|| join.column(1)).transpose()?;
                let mut at = 0;
                for run in groups.chunk_by(|a, b| a == b) {
                    match &vals {
                        Some(vals) => acc.add_slice(run[0], &vals[at..at + run.len()]),
                        None => acc.add_count(run[0], run.len() as u64),
                    }
                    at += run.len();
                }
                Ok(())
            }
        }
    }
}

/// Column-input aggregation (the LM path): walk the descriptor's valid
/// positions merged against the group column's equal-value runs, folding
/// `vals` (the agg column's values in descriptor order; pass `&[]` for
/// COUNT).
///
/// Each (group-run × descriptor-run) overlap costs one slice fold and one
/// accumulator update, independent of the run length.
pub fn aggregate_runs(
    desc: &PosList,
    group_col: &MiniColumn,
    vals: &[Value],
    agg: &mut Aggregator,
) -> Result<()> {
    let counting = !agg.func().needs_values();
    debug_assert!(counting || desc.count() as usize == vals.len());
    if desc.is_empty() {
        return Ok(());
    }
    // Group runs overlapping the descriptor's covering range.
    let mut runs: Vec<(Value, PosRange)> = Vec::new();
    group_col.for_each_run(|v, r| runs.push((v, r)));
    let mut ri = 0usize;
    let mut vi = 0usize; // cursor into vals
    for dr in desc.to_ranges().ranges() {
        let mut at = dr.start;
        while at < dr.end {
            while ri < runs.len() && runs[ri].1.end <= at {
                ri += 1;
            }
            let (gv, gr) = runs[ri];
            debug_assert!(
                gr.contains(at),
                "descriptor position {at} outside group runs"
            );
            let end = dr.end.min(gr.end);
            let k = (end - at) as usize;
            if counting {
                agg.add_count(gv, k as u64);
            } else {
                agg.add_slice(gv, &vals[vi..vi + k]);
            }
            vi += k;
            at = end;
        }
    }
    Ok(())
}

/// Fully compressed aggregation: both the group column *and* the value
/// column are consumed run-at-a-time, so no value vector is ever
/// materialized. Each (descriptor-range × group-run × value-run) overlap
/// costs one [`Aggregator::add_run`] — for RLE inputs that is one
/// accumulator update per run boundary regardless of run length.
///
/// Byte-identical to gathering the values and calling
/// [`aggregate_runs`]: SUM folds `v × len` with wrapping arithmetic,
/// which equals `len` wrapping adds.
///
/// Each run overlap consumed is charged to the code-path ledger
/// (`matstrat_common::codeops`).
pub fn aggregate_runs_compressed(
    desc: &PosList,
    group_col: &MiniColumn,
    val_col: &MiniColumn,
    agg: &mut Aggregator,
) -> Result<()> {
    debug_assert!(agg.func().needs_values(), "COUNT never fetches values");
    if desc.is_empty() {
        return Ok(());
    }
    let mut gruns: Vec<(Value, PosRange)> = Vec::new();
    group_col.for_each_run(|v, r| gruns.push((v, r)));
    let mut vruns: Vec<(Value, PosRange)> = Vec::new();
    val_col.for_each_run(|v, r| vruns.push((v, r)));
    let mut gi = 0usize;
    let mut vi = 0usize;
    let mut ops = 0u64;
    for dr in desc.to_ranges().ranges() {
        let mut at = dr.start;
        while at < dr.end {
            while gi < gruns.len() && gruns[gi].1.end <= at {
                gi += 1;
            }
            while vi < vruns.len() && vruns[vi].1.end <= at {
                vi += 1;
            }
            let (gv, gr) = gruns[gi];
            let (vv, vr) = vruns[vi];
            debug_assert!(gr.contains(at) && vr.contains(at));
            let end = dr.end.min(gr.end).min(vr.end);
            agg.add_run(gv, vv, end - at);
            ops += 1;
            at = end;
        }
    }
    matstrat_common::codeops::add(ops);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::join::InnerRep;
    use crate::ops::merge::{JoinCol, JoinRows};
    use crate::InnerStrategy;
    use matstrat_common::{Pos, Predicate};
    use matstrat_storage::{EncodingKind, ProjectionSpec, SortOrder, Store};

    #[test]
    fn dense_and_sparse_agree() {
        let pairs: Vec<(Value, Value)> = (0..1000).map(|i| (i % 7, i)).collect();
        let mut dense = Aggregator::with_domain(0, 6);
        let mut sparse = Aggregator::new();
        for &(g, v) in &pairs {
            dense.add(g, v);
            sparse.add(g, v);
        }
        assert_eq!(dense.num_groups(), 7);
        assert_eq!(dense.finish(), sparse.finish());
    }

    #[test]
    fn wide_domain_falls_back_to_sparse() {
        let mut agg = Aggregator::with_domain(i64::MIN, i64::MAX);
        agg.add(i64::MIN, 1);
        agg.add(i64::MAX, 2);
        assert_eq!(agg.finish(), vec![(i64::MIN, 1), (i64::MAX, 2)]);
    }

    #[test]
    fn add_slice_equals_repeated_add_for_every_func() {
        let vals: Vec<Value> = vec![5, -2, 9, 9, 0, 3];
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            let mut a = Aggregator::with_domain_fn(func, 0, 10);
            let mut b = Aggregator::with_domain_fn(func, 0, 10);
            for &v in &vals {
                a.add(3, v);
            }
            b.add_slice(3, &vals);
            b.add_slice(4, &[]); // no-op
            assert_eq!(a.finish(), b.finish(), "{func:?}");
        }
    }

    #[test]
    fn merged_partials_equal_serial_aggregation() {
        let pairs: Vec<(Value, Value)> = (0..999).map(|i| ((i * 31) % 11, i - 400)).collect();
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            let mut serial = Aggregator::with_domain_fn(func, 0, 10);
            for &(g, v) in &pairs {
                serial.add(g, v);
            }
            // Split the stream three ways, aggregate independently, merge.
            let mut parts: Vec<Aggregator> = (0..3)
                .map(|_| Aggregator::with_domain_fn(func, 0, 10))
                .collect();
            for (i, &(g, v)) in pairs.iter().enumerate() {
                parts[i % 3].add(g, v);
            }
            let mut merged = parts.remove(0);
            for p in parts {
                merged.merge(p);
            }
            assert_eq!(merged.finish(), serial.finish(), "{func:?}");
        }
    }

    #[test]
    fn merge_across_representations() {
        // A dense self absorbing a sparse other (and vice versa).
        let mut dense = Aggregator::with_domain(0, 9);
        dense.add(3, 5);
        let mut sparse = Aggregator::new();
        sparse.add(3, 7);
        sparse.add(8, 1);
        dense.merge(sparse);
        assert_eq!(dense.finish(), vec![(3, 12), (8, 1)]);
    }

    #[test]
    fn func_semantics() {
        let vals = [4, -1, 7];
        assert_eq!(AggFunc::Sum.fold_slice(&vals), 10);
        assert_eq!(AggFunc::Count.fold_slice(&vals), 3);
        assert_eq!(AggFunc::Min.fold_slice(&vals), -1);
        assert_eq!(AggFunc::Max.fold_slice(&vals), 7);
        assert!(!AggFunc::Count.needs_values());
        assert!(AggFunc::Min.needs_values());
        assert_eq!(AggFunc::Max.name(), "max");
    }

    #[test]
    fn add_count_accumulates() {
        let mut agg = Aggregator::new_fn(AggFunc::Count);
        agg.add_count(5, 10);
        agg.add_count(5, 7);
        agg.add_count(9, 0); // no-op
        assert_eq!(agg.finish(), vec![(5, 17)]);
    }

    #[test]
    fn finish_sorted_by_group() {
        let mut agg = Aggregator::new();
        agg.add(5, 1);
        agg.add(-3, 2);
        agg.add(0, 3);
        assert_eq!(agg.finish(), vec![(-3, 2), (0, 3), (5, 1)]);
    }

    #[test]
    fn aggregate_runs_matches_tuple_aggregation_all_funcs() {
        // Group column: i / 50 over 1000 rows (RLE-friendly);
        // values: i % 9; descriptor: positions where i % 3 == 0.
        let store = Store::in_memory();
        let g: Vec<Value> = (0..1000).map(|i| i / 50).collect();
        let v: Vec<Value> = (0..1000).map(|i| i % 9).collect();
        let spec = ProjectionSpec::new("t")
            .column("g", EncodingKind::Rle, SortOrder::Primary)
            .column("v", EncodingKind::Plain, SortOrder::None);
        let id = store.load_projection(&spec, &[&g, &v]).unwrap();
        let rg = store.reader(id, 0).unwrap();
        let rv = store.reader(id, 1).unwrap();
        let window = matstrat_common::PosRange::new(0, 1000);
        let mg = MiniColumn::fetch(&rg, window).unwrap();
        let mv = MiniColumn::fetch(&rv, window).unwrap();

        let desc = mv
            .scan_positions(&Predicate::eq(0))
            .or(&mv.scan_positions(&Predicate::eq(3)))
            .or(&mv.scan_positions(&Predicate::eq(6)));
        let mut vals = Vec::new();
        mv.fetch_values(&desc, &mut vals).unwrap();

        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            let mut lm = Aggregator::with_domain_fn(func, 0, 19);
            let slice: &[Value] = if func.needs_values() { &vals } else { &[] };
            aggregate_runs(&desc, &mg, slice, &mut lm).unwrap();

            let mut em = Aggregator::with_domain_fn(func, 0, 19);
            for p in desc.iter() {
                em.add(g[p as usize], v[p as usize]);
            }
            assert_eq!(lm.finish(), em.finish(), "{func:?}");
        }
    }

    #[test]
    fn add_run_equals_repeated_add_for_every_func() {
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            for (v, len) in [(7, 1u64), (-3, 1000), (Value::MAX, 3), (0, 5)] {
                let mut a = Aggregator::new_fn(func);
                let mut b = Aggregator::new_fn(func);
                for _ in 0..len {
                    a.add(1, v);
                }
                b.add_run(1, v, len);
                b.add_run(2, v, 0); // no-op
                assert_eq!(a.finish(), b.finish(), "{func:?} v={v} len={len}");
            }
        }
    }

    #[test]
    fn aggregate_runs_compressed_matches_decoded_path() {
        // Both columns RLE-friendly with misaligned run boundaries, and
        // a descriptor that fragments both.
        let store = Store::in_memory();
        let g: Vec<Value> = (0..2000).map(|i| i / 70).collect();
        let v: Vec<Value> = (0..2000).map(|i| (i / 45) % 6 - 2).collect();
        let spec = ProjectionSpec::new("t")
            .column("g", EncodingKind::Rle, SortOrder::Primary)
            .column("v", EncodingKind::Rle, SortOrder::None);
        let id = store.load_projection(&spec, &[&g, &v]).unwrap();
        let window = matstrat_common::PosRange::new(0, 2000);
        let mg = MiniColumn::fetch(&store.reader(id, 0).unwrap(), window).unwrap();
        let mv = MiniColumn::fetch(&store.reader(id, 1).unwrap(), window).unwrap();
        let desc = mv.scan_positions(&Predicate::ne(1));
        let mut vals = Vec::new();
        mv.fetch_values(&desc, &mut vals).unwrap();

        for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            let mut decoded = Aggregator::with_domain_fn(func, 0, 30);
            aggregate_runs(&desc, &mg, &vals, &mut decoded).unwrap();
            let io = matstrat_common::QueryIo::new();
            let mut compressed = Aggregator::with_domain_fn(func, 0, 30);
            io.run(|| aggregate_runs_compressed(&desc, &mg, &mv, &mut compressed))
                .unwrap();
            assert!(
                io.code_ops() > 0,
                "compressed path must charge the code-op ledger"
            );
            assert_eq!(compressed.finish(), decoded.finish(), "{func:?}");
        }
    }

    #[test]
    fn every_part_shape_folds_to_the_same_groups() {
        // The same rows as a late-materialized part (RLE values, taking
        // the compressed path, and Plain values), as constructed tuples
        // and as a join part.
        let store = Store::in_memory();
        let g: Vec<Value> = (0..2000).map(|i| i / 70).collect();
        let v: Vec<Value> = (0..2000).map(|i| (i / 45) % 6 - 2).collect();
        let spec = ProjectionSpec::new("t")
            .column("g", EncodingKind::Rle, SortOrder::Primary)
            .column("v", EncodingKind::Rle, SortOrder::None)
            .column("p", EncodingKind::Plain, SortOrder::None);
        let id = store.load_projection(&spec, &[&g, &v, &v]).unwrap();
        let window = PosRange::new(0, 2000);
        let mini = |c| MiniColumn::fetch(&store.reader(id, c).unwrap(), window).unwrap();
        let desc = mini(1).scan_positions(&Predicate::ne(1));
        let (groups, vals): (Vec<Value>, Vec<Value>) =
            desc.iter().map(|p| (g[p as usize], v[p as usize])).unzip();
        let tuples: Vec<Value> = groups
            .iter()
            .zip(&vals)
            .flat_map(|(&g, &v)| [v, -1, g])
            .collect();
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            let cols = |c: &[usize]| c.iter().map(|&c| mini(c)).collect::<Vec<_>>();
            let (late, plain, fields) = if func.needs_values() {
                (cols(&[0, 1]), cols(&[0, 2]), &[2, 0][..])
            } else {
                (cols(&[0]), cols(&[0]), &[2][..])
            };
            // The join part: the group column at the base positions, the
            // value column (Plain) as a right column at the same positions.
            let base: Vec<Pos> = desc.iter().collect();
            let rep = InnerRep::new(cols(&[2]), InnerStrategy::SingleColumn, 1).unwrap();
            let mut join_cols = vec![JoinCol::Base(mini(0))];
            join_cols.extend(func.needs_values().then_some(JoinCol::Right {
                rep: &rep,
                edge: 0,
                col: 0,
            }));
            let parts = [
                Part::Late {
                    desc: desc.clone(),
                    minis: late,
                },
                Part::Late {
                    desc: desc.clone(),
                    minis: plain,
                },
                Part::Tuples {
                    tuples: tuples.clone(),
                    width: 3,
                    fields,
                },
                Part::Join(JoinRows {
                    rights: vec![base.iter().map(|&p| p as u32).collect()],
                    base,
                    cols: join_cols,
                }),
            ];
            let folded: Vec<Vec<(Value, Value)>> = parts
                .iter()
                .enumerate()
                .map(|(i, part)| {
                    let io = matstrat_common::QueryIo::new();
                    let mut acc = Aggregator::with_domain_fn(func, 0, 30);
                    io.run(|| part.fold(&mut acc)).unwrap();
                    let compressed = i == 0 && func.needs_values();
                    assert_eq!(io.code_ops() > 0, compressed, "{func:?} part {i}");
                    acc.finish()
                })
                .collect();
            assert!(folded.iter().all(|f| *f == folded[0]), "{func:?}");
        }
    }

    #[test]
    fn aggregate_runs_empty_descriptor() {
        let store = Store::in_memory();
        let g: Vec<Value> = vec![1; 10];
        let spec = ProjectionSpec::new("t").column("g", EncodingKind::Rle, SortOrder::Primary);
        let id = store.load_projection(&spec, &[&g]).unwrap();
        let rg = store.reader(id, 0).unwrap();
        let mg = MiniColumn::fetch(&rg, matstrat_common::PosRange::new(0, 10)).unwrap();
        let mut agg = Aggregator::new();
        aggregate_runs(&PosList::empty(), &mg, &[], &mut agg).unwrap();
        assert_eq!(agg.num_groups(), 0);
    }
}
