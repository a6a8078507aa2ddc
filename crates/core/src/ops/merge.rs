//! MERGE: combine k aligned value columns into k-ary row tuples.
//!
//! This is the top of every late-materialization plan (Figure 5), and
//! every read statement ends in exactly one. A statement runs in two
//! steps, both owned by one driver that scans and join trees share
//! (`exec::drive`). Step 1, the granule pipeline, does all the filtering
//! and every block fetch, and leaves one `Part` per granule (per probed
//! span, in a join tree) in global granule order: a late-materialized granule
//! leaves its position descriptor and the output columns' mini-columns,
//! an early-materialized one its constructed tuples. Step 2 is `merge`:
//! the parts' row counts size the result exactly once, each part gets a
//! disjoint slice of it, and every output value is written once, straight
//! into its row-major slot — a late-materialized value goes from its
//! compressed block to its tuple slot through a strided DS3
//! ([`MiniColumn::fetch_values_into`]), never through a per-column
//! vector, a growing fragment or a concatenation. That is the model's
//! `2·k·FC` per tuple (`merge_cost`): k reads and k writes per row.
//! Under an aggregate the same parts fold instead (`Part::fold`, in
//! [`crate::ops::agg`]) and never reach MERGE.

use std::ops::Range;

use matstrat_common::{Error, Result, Value};
use matstrat_poslist::PosList;
use matstrat_storage::Slots;

use crate::multicol::MiniColumn;

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
    /// Value columns already gathered (a join tree's base and right
    /// outputs), in output order.
    Columns(Vec<Vec<Value>>),
}

impl Part<'_> {
    /// Output rows.
    fn rows(&self) -> usize {
        match self {
            Part::Late { desc, .. } => desc.count() as usize,
            Part::Tuples { tuples, width, .. } => tuples.len() / width,
            Part::Columns(cols) => cols.first().map_or(0, Vec::len),
        }
    }

    /// Output columns.
    fn width(&self) -> usize {
        match self {
            Part::Late { minis, .. } => minis.len(),
            Part::Tuples { fields, .. } => fields.len(),
            Part::Columns(cols) => cols.len(),
        }
    }

    /// Write every cell of `dst`, this part's `rows() × width` slice of
    /// the result. Errors rather than leave a cell unwritten.
    fn write(&self, dst: &mut [Value], width: usize) -> Result<()> {
        if self.width() != width {
            return Err(Error::invalid(format!(
                "MERGE: a {}-column part in a {width}-column result",
                self.width()
            )));
        }
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
            Part::Columns(cols) => {
                let rows = dst.len() / width;
                for (c, col) in cols.iter().enumerate() {
                    if col.len() != rows {
                        return Err(Error::invalid(format!(
                            "MERGE: a {}-value column in a {rows}-row part",
                            col.len()
                        )));
                    }
                    Slots::column(dst, c, width).put(col.iter().copied());
                }
            }
        }
        Ok(())
    }
}

/// MERGE `parts`, in output order, into one exact-size row-major buffer
/// of `width`-value rows (`width` ≥ 1). The buffer is allocated once and
/// split into one disjoint slice per part; [`split`] groups the parts,
/// and each group runs on its own [`fan_out`](matstrat_common::fan_out)
/// worker — at most `workers`, at most one per `granule` rows of output,
/// and none at all (the caller assembles) under one granule.
pub(crate) fn merge(
    parts: &[Part<'_>],
    width: usize,
    workers: usize,
    granule: usize,
) -> Result<Vec<Value>> {
    let rows: Vec<usize> = parts.iter().map(Part::rows).collect();
    let mut out = vec![0 as Value; rows.iter().sum::<usize>() * width];
    // Parts outside every group have no rows, so their slices are empty.
    let mut groups: Vec<Vec<(&Part<'_>, &mut [Value])>> = Vec::new();
    let mut rest = out.as_mut_slice();
    for group in split(&rows, workers, granule) {
        let mut jobs = Vec::with_capacity(group.len());
        for i in group {
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(rows[i] * width);
            jobs.push((&parts[i], dst));
            rest = tail;
        }
        groups.push(jobs);
    }
    matstrat_common::fan_out(groups, |jobs| {
        jobs.into_iter()
            .try_for_each(|(part, dst)| part.write(dst, width))
    })
    .into_iter()
    .collect::<Result<()>>()?;
    Ok(out)
}

/// MERGE's work split: contiguous groups of part indices, in order,
/// covering every part with rows exactly once. No group starts or ends on
/// a zero-row part, so a group always has rows to write. There are at
/// most `workers` groups and at most one per `granule` rows of output;
/// below one granule there is one group, which the caller runs itself.
/// Group `g` closes at the part where the running row count reaches
/// `g + 1` shares of the total.
pub(crate) fn split(rows: &[usize], workers: usize, granule: usize) -> Vec<Range<usize>> {
    let total: usize = rows.iter().sum();
    let shares = workers.min(total / granule.max(1)).max(1);
    let mut groups = Vec::new();
    let mut start = None;
    let mut done = 0usize;
    for (i, &n) in rows.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let first = *start.get_or_insert(i);
        done += n;
        if done * shares >= total * (groups.len() + 1) {
            groups.push(first..i + 1);
            start = None;
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The non-empty parts, in order, across `groups`.
    fn covered(rows: &[usize], groups: &[Range<usize>]) -> Vec<usize> {
        groups
            .iter()
            .flat_map(|g| g.clone())
            .filter(|&i| rows[i] > 0)
            .collect()
    }

    #[test]
    fn split_gives_zero_row_parts_no_worker() {
        let rows = [0, 0, 5000, 0, 0, 3000, 0, 4000, 0];
        let groups = split(&rows, 4, 1000);
        for g in &groups {
            assert!(
                rows[g.start] > 0 && rows[g.end - 1] > 0,
                "{g:?} starts or ends empty"
            );
        }
        assert_eq!(covered(&rows, &groups), vec![2, 5, 7]);
        assert!(split(&[0, 0, 0], 8, 1).is_empty(), "no rows, no group");
    }

    #[test]
    fn split_under_one_granule_is_one_group() {
        let rows = [100, 0, 200, 300];
        assert_eq!(split(&rows, 8, 1000), vec![0..4]);
        // Exactly one granule of rows: still one group.
        assert_eq!(split(&[500, 500], 8, 1000), vec![0..2]);
        // One worker: one group whatever the size.
        assert_eq!(split(&[5000; 6], 1, 1000), vec![0..6]);
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
            let groups = split(&rows, workers, granule);
            let total: usize = rows.iter().sum();
            assert!(
                groups.len() <= workers,
                "{rows:?}: at most `workers` groups"
            );
            assert!(
                groups.len() <= (total / granule).max(1),
                "{rows:?}: one per granule"
            );
            for w in groups.windows(2) {
                assert!(
                    w[0].end <= w[1].start,
                    "{rows:?}: groups ascend and are disjoint"
                );
            }
            let want: Vec<usize> = (0..rows.len()).filter(|&i| rows[i] > 0).collect();
            assert_eq!(covered(&rows, &groups), want, "{rows:?}");
        }
        // Enough rows and parts: every worker gets a group.
        assert_eq!(split(&[1000; 12], 4, 1000).len(), 4);
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
        let cols = vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]];
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
        parts.push(Part::Columns(cols.clone()));
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
        merge_columns(&[&cols[0], &cols[1], &cols[2]], &mut want);
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
            // A column shorter than its part.
            (Part::Columns(vec![vec![1, 2, 3], vec![4, 5]]), 2),
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
