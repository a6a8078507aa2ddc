//! MERGE: combine k aligned value columns into k-ary row tuples.
//!
//! This is the top of every late-materialization plan (Figure 5), and
//! every read statement ends in exactly one. A statement runs in two
//! steps, both owned by one driver that scans and join trees share
//! (`exec::drive`). Step 1, the granule pipeline, does all the filtering
//! and every block fetch, and leaves one `Part` per granule (per probed
//! span, in a join tree) in global granule order:
//!
//! * a late-materialized granule leaves its position descriptor and the
//!   output columns' mini-columns (`Part::Late`);
//! * an early-materialized one its constructed tuples (`Part::Tuples`);
//! * a join span its row-aligned positions — the sorted base positions
//!   and one right-position vector per edge — with the base output
//!   columns' mini-columns and each right output column's inner-table
//!   representation (`Part::Join`). No join value is fetched in step 1.
//!
//! Step 2 is `merge`: the parts' row counts size the result exactly once,
//! each part gets a disjoint slice of it, and every output value is
//! written once, straight into its row-major slot — a late-materialized
//! value goes from its compressed block to its tuple slot through a
//! strided DS3 ([`MiniColumn::fetch_values_into`]); a join's base value
//! through the mini-column's sorted-position walker
//! ([`MiniColumn::gather_sorted_into`]) and its right value through the
//! edge's inner strategy ([`InnerRep::fetch_into`], §4.3's positional
//! join); never through a per-column vector, a growing fragment or a
//! concatenation. That is the model's `2·k·FC` per tuple (`merge_cost`):
//! k reads and k writes per row. A join part's positions slice freely, so
//! MERGE cuts it between rows and every worker gets an equal share of the
//! rows; a descriptor or a tuple buffer stays whole. Under an aggregate
//! the same parts fold instead (`Part::fold`, in [`crate::ops::agg`]) and
//! never reach MERGE.

use std::ops::Range;

use matstrat_common::{Error, Pos, Result, Value};
use matstrat_poslist::PosList;
use matstrat_storage::Slots;

use crate::multicol::MiniColumn;
use crate::ops::join::InnerRep;

/// What one granule (or join span) leaves for MERGE: its output rows, in
/// position order.
pub(crate) enum Part<'a> {
    /// Late-materialized: the surviving positions, and each output
    /// column's mini-column in output order, whose blocks step 1 fetched.
    Late {
        desc: PosList,
        minis: Vec<MiniColumn>,
    },
    /// Early-materialized: row-major tuples of `width` values, output
    /// column `c` being field `fields[c]`.
    Tuples {
        tuples: Vec<Value>,
        width: usize,
        fields: &'a [usize],
    },
    /// A join tree's probed span: positions only, fetched from at MERGE.
    Join(JoinRows<'a>),
}

/// A join tree's probed span, row-aligned: row `i` is
/// `(base[i], rights[0][i], rights[1][i], …)`. No value has been fetched;
/// any slice of its rows can be written on its own.
pub(crate) struct JoinRows<'a> {
    /// The surviving base positions, ascending, one per output row
    /// (repeated where an edge fanned out).
    pub(crate) base: Vec<Pos>,
    /// Per edge, in execution order, each row's matched right position.
    pub(crate) rights: Vec<Vec<u32>>,
    /// Where each output column's values come from, in output order.
    pub(crate) cols: Vec<JoinCol<'a>>,
}

/// The source of one join output column.
pub(crate) enum JoinCol<'a> {
    /// A base column's mini-column over the span, gathered at `base`.
    Base(MiniColumn),
    /// Column `col` of edge `edge`'s right output, fetched at
    /// `rights[edge]` by the edge's inner strategy.
    Right {
        rep: &'a InnerRep,
        edge: usize,
        col: usize,
    },
}

impl JoinRows<'_> {
    /// Write output column `c` at `rows` to the next cells of `out`:
    /// base values off the sorted positions through the mini-column's
    /// point walker, right values through their [`InnerRep`]. Errs unless
    /// every row was written.
    pub(crate) fn fetch_into(
        &self,
        c: usize,
        rows: Range<usize>,
        out: &mut Slots<'_>,
    ) -> Result<()> {
        let room = out.len();
        match &self.cols[c] {
            JoinCol::Base(mini) => mini.gather_sorted_into(&self.base[rows.clone()], out)?,
            JoinCol::Right { rep, edge, col } => {
                let right = &self.rights[*edge];
                if right.len() != self.base.len() {
                    return Err(Error::invalid(format!(
                        "MERGE: {} right positions in a {}-row join part",
                        right.len(),
                        self.base.len()
                    )));
                }
                rep.fetch_into(*col, &right[rows.clone()], out)?;
            }
        }
        if room - out.len() != rows.len() {
            return Err(Error::invalid(format!(
                "MERGE: {} of {} join rows written",
                room - out.len(),
                rows.len()
            )));
        }
        Ok(())
    }

    /// Output column `c`'s values at every row, in a vector of their own:
    /// what an aggregate's fold reads.
    pub(crate) fn column(&self, c: usize) -> Result<Vec<Value>> {
        let mut vals = vec![0 as Value; self.base.len()];
        self.fetch_into(c, 0..self.base.len(), &mut Slots::column(&mut vals, 0, 1))?;
        Ok(vals)
    }
}

impl Part<'_> {
    /// Output rows.
    fn rows(&self) -> usize {
        match self {
            Part::Late { desc, .. } => desc.count() as usize,
            Part::Tuples { tuples, width, .. } => tuples.len() / width,
            Part::Join(join) => join.base.len(),
        }
    }

    /// Output columns.
    fn width(&self) -> usize {
        match self {
            Part::Late { minis, .. } => minis.len(),
            Part::Tuples { fields, .. } => fields.len(),
            Part::Join(join) => join.cols.len(),
        }
    }

    /// Whether MERGE may cut this part between any two rows. A join part's
    /// positions slice freely; a descriptor or a tuple buffer stays whole.
    fn cuttable(&self) -> bool {
        matches!(self, Part::Join(_))
    }

    /// Write every cell of `dst`, the `rows.len() × width` slice of the
    /// result holding this part's `rows` (all of them, unless the part is
    /// [`cuttable`](Self::cuttable)). Errors rather than leave a cell
    /// unwritten.
    fn write(&self, rows: Range<usize>, dst: &mut [Value], width: usize) -> Result<()> {
        if self.width() != width {
            return Err(Error::invalid(format!(
                "MERGE: a {}-column part in a {width}-column result",
                self.width()
            )));
        }
        debug_assert!(self.cuttable() || rows == (0..self.rows()), "an uncut part");
        match self {
            Part::Late { desc, minis } => {
                for (c, mini) in minis.iter().enumerate() {
                    mini.fetch_values_into(desc, &mut Slots::column(dst, c, width))?;
                }
            }
            Part::Tuples {
                tuples,
                width: tw,
                fields,
            } => {
                for (row, tuple) in dst.chunks_exact_mut(width).zip(tuples.chunks_exact(*tw)) {
                    for (cell, &f) in row.iter_mut().zip(fields.iter()) {
                        *cell = tuple[f];
                    }
                }
            }
            Part::Join(join) => {
                for c in 0..width {
                    join.fetch_into(c, rows.clone(), &mut Slots::column(dst, c, width))?;
                }
            }
        }
        Ok(())
    }
}

/// One worker's share of MERGE: part `.0`'s rows `.1`, in order.
pub(crate) type Piece = (usize, Range<usize>);

/// MERGE `parts`, in output order, into one exact-size row-major buffer
/// of `width`-value rows (`width` ≥ 1). The buffer is allocated once and
/// split into one disjoint slice per piece; [`split`] cuts the parts into
/// pieces and groups them, and each group runs on its own
/// [`fan_out`](matstrat_common::fan_out) worker — at most `workers`, at
/// most one per `granule` rows of output, and none at all (the caller
/// assembles) under one granule.
pub(crate) fn merge(
    parts: &[Part<'_>],
    width: usize,
    workers: usize,
    granule: usize,
) -> Result<Vec<Value>> {
    let sizes: Vec<(usize, bool)> = parts.iter().map(|p| (p.rows(), p.cuttable())).collect();
    let mut out = vec![0 as Value; sizes.iter().map(|s| s.0).sum::<usize>() * width];
    let mut groups = Vec::new();
    let mut rest = out.as_mut_slice();
    for group in split(&sizes, workers, granule) {
        let mut jobs = Vec::with_capacity(group.len());
        for (i, rows) in group {
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * width);
            jobs.push((&parts[i], rows, dst));
            rest = tail;
        }
        groups.push(jobs);
    }
    matstrat_common::fan_out(groups, |jobs| {
        jobs.into_iter()
            .try_for_each(|(part, rows, dst)| part.write(rows, dst, width))
    })
    .into_iter()
    .collect::<Result<()>>()?;
    Ok(out)
}

/// MERGE's work split over parts of `(rows, cuttable)`: groups of pieces,
/// in order, covering every row exactly once. There are at most `workers`
/// groups and at most one per `granule` rows of output; below one granule
/// there is one group, which the caller runs itself. Share `k` ends at row
/// `⌊k · total / shares⌋`: a cuttable part is cut exactly there, so
/// shares of cuttable parts differ by at most one row, while a group
/// holding a whole part runs on to that part's end and the shares it
/// passed are skipped. No piece and no group is empty, and a zero-row
/// part is in none.
pub(crate) fn split(parts: &[(usize, bool)], workers: usize, granule: usize) -> Vec<Vec<Piece>> {
    let total: usize = parts.iter().map(|p| p.0).sum();
    let shares = workers.min(total / granule.max(1)).max(1);
    let bound = |k: usize| total * k / shares;
    let (mut groups, mut group) = (Vec::new(), Vec::new());
    let (mut done, mut k) = (0, 1);
    for (i, &(n, cuttable)) in parts.iter().enumerate() {
        let mut at = 0;
        while at < n {
            let end = if cuttable {
                n.min(at + bound(k) - done)
            } else {
                n
            };
            group.push((i, at..end));
            done += end - at;
            at = end;
            if done >= bound(k) {
                groups.push(std::mem::take(&mut group));
                while k < shares && bound(k) <= done {
                    k += 1;
                }
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InnerStrategy;
    use matstrat_common::PosRange;
    use matstrat_storage::{EncodingKind as Ek, ProjectionSpec, SortOrder, Store};

    /// Append row-major tuples built from `cols` (equal-length value
    /// vectors) to `out` — MERGE over value vectors, the reference `merge`
    /// is held to.
    fn merge_columns(cols: &[&[Value]], out: &mut Vec<Value>) {
        let n = cols.first().map_or(0, |c| c.len());
        assert!(cols.iter().all(|c| c.len() == n), "MERGE inputs must align");
        for i in 0..n {
            out.extend(cols.iter().map(|c| c[i]));
        }
    }

    #[test]
    fn merge_two_columns() {
        let mut out = Vec::new();
        merge_columns(&[&[1, 2, 3], &[10, 20, 30]], &mut out);
        assert_eq!(out, vec![1, 10, 2, 20, 3, 30]);
    }

    #[test]
    fn merge_one_and_three_and_four() {
        let mut out = Vec::new();
        merge_columns(&[&[7, 8]], &mut out);
        assert_eq!(out, vec![7, 8]);
        out.clear();
        merge_columns(&[&[1], &[2], &[3]], &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        out.clear();
        merge_columns(&[&[1], &[2], &[3], &[4]], &mut out);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn merge_empty_inputs() {
        let mut out = Vec::new();
        merge_columns(&[], &mut out);
        assert!(out.is_empty());
        merge_columns(&[&[], &[]], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn merge_appends_after_existing() {
        let mut out = vec![99];
        merge_columns(&[&[1], &[2]], &mut out);
        assert_eq!(out, vec![99, 1, 2]);
    }

    /// Check `split(parts, workers, granule)`'s contract and return its
    /// groups: pieces cover every row once, in order; a whole part is never
    /// cut; no piece, group or zero-row part is empty or named; at most
    /// `workers` groups and one per granule.
    fn checked_split(parts: &[(usize, bool)], workers: usize, granule: usize) -> Vec<Vec<Piece>> {
        let groups = split(parts, workers, granule);
        let total: usize = parts.iter().map(|p| p.0).sum();
        let what = format!("{parts:?} workers={workers} granule={granule}");
        assert!(
            groups.len() <= workers.max(1),
            "{what}: at most `workers` groups"
        );
        assert!(
            groups.len() <= (total / granule).max(1),
            "{what}: one per granule"
        );
        assert!(
            groups.iter().all(|g| !g.is_empty()),
            "{what}: an empty group"
        );
        let pieces: Vec<&Piece> = groups.iter().flatten().collect();
        assert!(
            pieces.iter().all(|(_, r)| !r.is_empty()),
            "{what}: an empty piece"
        );
        // Pieces, in order, are each part's rows from 0 to its end.
        let mut want = Vec::new();
        for (i, &(n, _)) in parts.iter().enumerate().filter(|(_, p)| p.0 > 0) {
            let mine: Vec<Range<usize>> = pieces
                .iter()
                .filter(|p| p.0 == i)
                .map(|p| p.1.clone())
                .collect();
            assert!(
                parts[i].1 || (mine.len() == 1 && mine[0] == (0..n)),
                "{what}: part {i} cut"
            );
            let mut at = 0;
            for r in &mine {
                assert_eq!(r.start, at, "{what}: part {i} rows in order");
                at = r.end;
            }
            assert_eq!(at, n, "{what}: part {i} covered");
            want.extend(std::iter::repeat_n(i, mine.len()));
        }
        let order: Vec<usize> = pieces.iter().map(|p| p.0).collect();
        assert_eq!(order, want, "{what}: parts in order");
        groups
    }

    /// Rows per group.
    fn shares(groups: &[Vec<Piece>]) -> Vec<usize> {
        groups
            .iter()
            .map(|g| g.iter().map(|p| p.1.len()).sum())
            .collect()
    }

    #[test]
    fn split_gives_zero_row_parts_no_worker() {
        for cut in [false, true] {
            let rows = [0, 0, 5000, 0, 0, 3000, 0, 4000, 0].map(|n| (n, cut));
            let groups = checked_split(&rows, 4, 1000);
            assert!(
                groups.iter().flatten().all(|(i, _)| rows[*i].0 > 0),
                "cut={cut}: a zero-row part named"
            );
            assert!(split(&[(0, cut); 3], 8, 1).is_empty(), "no rows, no group");
        }
    }

    #[test]
    fn split_under_one_granule_is_one_group() {
        for cut in [false, true] {
            let rows = [100, 0, 200, 300].map(|n| (n, cut));
            let groups = checked_split(&rows, 8, 1000);
            assert_eq!(groups, vec![vec![(0, 0..100), (2, 0..200), (3, 0..300)]]);
            // Exactly one granule of rows: still one group.
            assert_eq!(checked_split(&[(500, cut), (500, cut)], 8, 1000).len(), 1);
            // One worker: one group whatever the size.
            assert_eq!(checked_split(&[(5000, cut); 6], 1, 1000).len(), 1);
        }
        // One join part under a granule: one piece, the whole part.
        assert_eq!(
            checked_split(&[(999, true)], 2, 1000),
            vec![vec![(0, 0..999)]]
        );
    }

    #[test]
    fn split_covers_every_part_once_in_order_within_the_caps() {
        for (rows, workers, granule) in [
            (vec![1000usize; 12], 4usize, 1000usize),
            (vec![1000; 12], 8, 3000),
            (vec![9000, 10, 10, 10, 9000], 4, 1000),
            (vec![0, 7, 0, 0, 7, 7, 0], 3, 1),
            (vec![64, 1, 1, 1, 1, 1], 2, 2),
        ] {
            for cut in [false, true] {
                let parts: Vec<(usize, bool)> = rows.iter().map(|&n| (n, cut)).collect();
                checked_split(&parts, workers, granule);
            }
            // Whole and cuttable parts mixed.
            let mixed: Vec<(usize, bool)> = rows
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, i % 2 == 0))
                .collect();
            checked_split(&mixed, workers, granule);
        }
        // Enough rows and parts: every worker gets a group.
        assert_eq!(checked_split(&[(1000, false); 12], 4, 1000).len(), 4);
    }

    #[test]
    fn split_cuts_join_parts_into_shares_within_one_row() {
        // `orders` at 150 000 rows in three granule parts: two workers
        // get 75 000 rows each, not one part and a half against the rest.
        let parts = [(65_536, true), (65_536, true), (18_928, true)];
        let groups = checked_split(&parts, 2, 65_536);
        assert_eq!(shares(&groups), vec![75_000, 75_000]);
        for (rows, workers, granule) in [
            (vec![150_000usize], 2usize, 1000usize),
            (vec![7, 0, 13, 1, 1, 29], 4, 1),
            (vec![1; 50], 8, 1),
            (vec![3, 3, 3], 8, 1),
            (vec![10_001, 2, 9_999], 3, 100),
            (vec![5, 5], 7, 2),
        ] {
            let parts: Vec<(usize, bool)> = rows.iter().map(|&n| (n, true)).collect();
            let groups = checked_split(&parts, workers, granule);
            let total: usize = rows.iter().sum();
            assert_eq!(
                groups.len(),
                workers.min(total / granule).max(1),
                "{rows:?}: every share gets a group"
            );
            let s = shares(&groups);
            let (lo, hi) = (s.iter().min().unwrap(), s.iter().max().unwrap());
            assert!(hi - lo <= 1, "{rows:?}: shares {s:?}");
        }
    }

    #[test]
    fn split_never_leaves_a_group_empty() {
        // A whole part that runs past several share ends, before and
        // after cuttable ones, and a last part that ends exactly on one:
        // every group has rows, the caller's included, and no trailing
        // group is left for a worker to start on nothing.
        for parts in [
            vec![(10, true), (900, false), (10, true), (80, true)],
            vec![(900, false), (100, true)],
            vec![(100, true), (900, false)],
            vec![(250, true), (250, false), (250, true), (250, false)],
            vec![(1, false), (1, true), (998, false)],
        ] {
            for workers in 1..=8 {
                for granule in [1, 100, 400] {
                    let groups = checked_split(&parts, workers, granule);
                    assert!(shares(&groups).iter().all(|&n| n > 0), "{parts:?}");
                }
            }
        }
    }

    /// A 5000-row table — a (RLE, runs of 7), b (plain), c (bit-vector) —
    /// as whole-table mini-columns, with the raw columns.
    fn table() -> (Vec<MiniColumn>, Vec<Vec<Value>>) {
        let store = Store::in_memory();
        let cols: Vec<Vec<Value>> = vec![
            (0..5000).map(|i| i / 7).collect(),
            (0..5000).map(|i| (i * 31) % 1000).collect(),
            (0..5000).map(|i| i % 5).collect(),
        ];
        let spec = ProjectionSpec::new("t")
            .column("a", Ek::Rle, SortOrder::Primary)
            .column("b", Ek::Plain, SortOrder::None)
            .column("c", Ek::BitVec, SortOrder::None);
        let id = store
            .load_projection(&spec, &[&cols[0], &cols[1], &cols[2]])
            .unwrap();
        let w = PosRange::new(0, 5000);
        let minis = (0..3)
            .map(|c| MiniColumn::fetch(&store.reader(id, c).unwrap(), w).unwrap())
            .collect();
        (minis, cols)
    }

    #[test]
    fn merge_equals_gathered_columns_stitched_at_any_worker_count() {
        let (minis, raw) = table();
        let order = [2usize, 0, 1];
        let descs = [
            PosList::full(PosRange::new(0, 1500)),
            PosList::from_positions((1500..3000).step_by(3).collect()),
            PosList::Bitmap(matstrat_poslist::Bitmap::from_positions(
                PosRange::new(3000, 4000),
                (3000..4000).filter(|p| p % 4 != 1),
            )),
            PosList::empty(),
            PosList::full(PosRange::new(4000, 5000)),
        ];
        let tuples: Vec<Value> = (0..40).flat_map(|i| [i, -i, 2 * i, 3 * i]).collect();
        // Join parts, one per inner strategy: base column `b` at sorted
        // positions with repeats, and right columns `c` and `a` (the same
        // table as its own inner side) at unsorted positions with repeats.
        let base: Vec<Pos> = (0..4000)
            .step_by(3)
            .flat_map(|p| [p; 2])
            .take(2100)
            .collect();
        let right: Vec<u32> = (0..base.len() as u32).map(|i| (i * 7919) % 5000).collect();
        let reps: Vec<InnerRep> = InnerStrategy::ALL
            .iter()
            .map(|&s| InnerRep::new(minis.clone(), s, 2).unwrap())
            .collect();
        let mut parts: Vec<Part<'_>> = descs
            .iter()
            .map(|d| Part::Late {
                desc: d.clone(),
                minis: order.iter().map(|&c| minis[c].clone()).collect(),
            })
            .collect();
        parts.push(Part::Tuples {
            tuples: tuples.clone(),
            width: 4,
            fields: &order,
        });
        for rep in &reps {
            parts.push(Part::Join(JoinRows {
                base: base.clone(),
                rights: vec![right.clone()],
                cols: vec![
                    JoinCol::Base(minis[1].clone()),
                    JoinCol::Right {
                        rep,
                        edge: 0,
                        col: 2,
                    },
                    JoinCol::Right {
                        rep,
                        edge: 0,
                        col: 0,
                    },
                ],
            }));
        }
        // The oracle: each part's columns gathered, then stitched.
        let mut want = Vec::new();
        for d in &descs {
            let picked: Vec<Vec<Value>> = order
                .iter()
                .map(|&c| d.iter().map(|p| raw[c][p as usize]).collect())
                .collect();
            merge_columns(&[&picked[0], &picked[1], &picked[2]], &mut want);
        }
        let fields: Vec<Vec<Value>> = order
            .iter()
            .map(|&f| tuples.chunks_exact(4).map(|t| t[f]).collect())
            .collect();
        merge_columns(&[&fields[0], &fields[1], &fields[2]], &mut want);
        for _ in &reps {
            for (&b, &r) in base.iter().zip(&right) {
                want.extend([raw[1][b as usize], raw[2][r as usize], raw[0][r as usize]]);
            }
        }
        for workers in [1, 2, 3, 8] {
            for granule in [1, 700, 1 << 20] {
                assert_eq!(
                    merge(&parts, 3, workers, granule).unwrap(),
                    want,
                    "workers={workers} granule={granule}"
                );
            }
        }
    }

    #[test]
    fn merge_refuses_a_count_mismatch() {
        let (minis, _) = table();
        let none = MiniColumn::empty(PosRange::new(0, 5000));
        let rep = InnerRep::new(minis.clone(), InnerStrategy::MultiColumn, 1).unwrap();
        let join = |base: Vec<Pos>, right: Vec<u32>| {
            Part::Join(JoinRows {
                base,
                rights: vec![right],
                cols: vec![
                    JoinCol::Base(minis[0].clone()),
                    JoinCol::Right {
                        rep: &rep,
                        edge: 0,
                        col: 1,
                    },
                ],
            })
        };
        let cases = [
            // A column whose blocks hold none of the descriptor's
            // positions, as ranges and as points.
            (
                Part::Late {
                    desc: PosList::full(PosRange::new(0, 10)),
                    minis: vec![none.clone()],
                },
                1,
            ),
            (
                Part::Late {
                    desc: PosList::from_positions(vec![5, 9]),
                    minis: vec![none],
                },
                1,
            ),
            // A right column shorter than its part.
            (join(vec![1, 2, 3], vec![4, 5]), 2),
            // A base position outside the base column's window, and a
            // right one outside the inner table.
            (join(vec![1, 2, 5000], vec![4, 5, 6]), 2),
            (join(vec![1, 2, 3], vec![4, 5000, 6]), 2),
            // Fewer columns than the result.
            (
                Part::Late {
                    desc: PosList::full(PosRange::new(0, 10)),
                    minis: vec![minis[1].clone()],
                },
                2,
            ),
        ];
        for (i, (part, width)) in cases.into_iter().enumerate() {
            let err = merge(&[part], width, 2, 1).unwrap_err();
            assert!(matches!(err, Error::InvalidArgument(_)), "case {i}: {err}");
        }
    }
}
