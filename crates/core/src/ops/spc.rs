//! SPC: Scan, Predicate, and Construct — the EM-parallel leaf (Figure 6).
//!
//! Reads every provided column over the window, applies the predicates
//! with short-circuiting (a column's values are only extracted at
//! positions that survived all earlier predicates), and constructs full
//! row-major tuples immediately.

use matstrat_common::{Pos, Predicate, Result, Value};

use crate::multicol::MiniColumn;

/// Output of one SPC granule: surviving positions plus row-major tuples
/// over the provided columns, in input column order.
#[derive(Debug, Default)]
pub struct SpcOutput {
    /// Surviving positions, ascending.
    pub positions: Vec<Pos>,
    /// Row-major tuples, `positions.len() * width` values.
    pub tuples: Vec<Value>,
    /// Tuple width (number of input columns).
    pub width: usize,
    /// Whether any column required the bit-vector decompression fallback.
    pub decompressed: bool,
}

/// Run SPC over one window. `cols` pairs each mini-column with its
/// optional predicate; tuple layout follows `cols` order.
pub fn spc_scan(cols: &[(MiniColumn, Option<Predicate>)]) -> Result<SpcOutput> {
    let mut out = SpcOutput {
        width: cols.len(),
        ..SpcOutput::default()
    };
    let Some(((first_mini, first_pred), rest)) = cols.split_first() else {
        return Ok(out);
    };

    // Leaf column: scan (pos, value) pairs.
    let mut positions: Vec<Pos> = Vec::new();
    let mut tuples: Vec<Value> = Vec::new();
    match first_pred {
        Some(p) => first_mini.scan_pairs(p, &mut positions, &mut tuples),
        None => first_mini.scan_pairs(&Predicate::always_true(), &mut positions, &mut tuples),
    }

    // Each later column: fetch values at surviving positions, test the
    // predicate, and widen the tuples (copying — this is EM's cost).
    let mut width = 1usize;
    for (mini, pred) in rest {
        if positions.is_empty() {
            break;
        }
        let mut vals = Vec::with_capacity(positions.len());
        let kind = mini.fetch_sorted(&positions, &mut vals)?;
        if kind == crate::multicol::FetchKind::Decompressed {
            out.decompressed = true;
        }
        let mut new_positions = Vec::with_capacity(positions.len());
        let mut new_tuples = Vec::with_capacity(tuples.len() + vals.len());
        for (i, &v) in vals.iter().enumerate() {
            if pred.is_none_or(|p| p.matches(v)) {
                new_positions.push(positions[i]);
                new_tuples.extend_from_slice(&tuples[i * width..(i + 1) * width]);
                new_tuples.push(v);
            }
        }
        positions = new_positions;
        tuples = new_tuples;
        width += 1;
    }

    // A predicate chain that emptied out still yields width = cols.len().
    if positions.is_empty() {
        out.positions.clear();
        out.tuples.clear();
        return Ok(out);
    }
    // If we broke early (positions empty mid-chain) we never get here, so
    // width == cols.len() holds.
    debug_assert_eq!(width, out.width);
    out.positions = positions;
    out.tuples = tuples;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matstrat_common::PosRange;
    use matstrat_storage::{EncodingKind, ProjectionSpec, SortOrder, Store};

    fn setup() -> (Vec<Value>, Vec<Value>, MiniColumn, MiniColumn) {
        let store = Store::in_memory();
        let a: Vec<Value> = (0..500).map(|i| i / 50).collect();
        let b: Vec<Value> = (0..500).map(|i| i % 7).collect();
        let spec = ProjectionSpec::new("t")
            .column("a", EncodingKind::Rle, SortOrder::Primary)
            .column("b", EncodingKind::Plain, SortOrder::None);
        let id = store.load_projection(&spec, &[&a, &b]).unwrap();
        let w = PosRange::new(0, 500);
        let ma = MiniColumn::fetch(&store.reader(id, 0).unwrap(), w).unwrap();
        let mb = MiniColumn::fetch(&store.reader(id, 1).unwrap(), w).unwrap();
        (a, b, ma, mb)
    }

    #[test]
    fn spc_two_predicates_matches_reference() {
        let (a, b, ma, mb) = setup();
        let out = spc_scan(&[(ma, Some(Predicate::lt(5))), (mb, Some(Predicate::lt(3)))]).unwrap();
        let expected: Vec<(Pos, Value, Value)> = (0..500u64)
            .filter(|&i| a[i as usize] < 5 && b[i as usize] < 3)
            .map(|i| (i, a[i as usize], b[i as usize]))
            .collect();
        assert_eq!(out.positions.len(), expected.len());
        assert_eq!(out.width, 2);
        for (i, &(p, va, vb)) in expected.iter().enumerate() {
            assert_eq!(out.positions[i], p);
            assert_eq!(&out.tuples[i * 2..i * 2 + 2], &[va, vb]);
        }
    }

    #[test]
    fn spc_output_column_without_predicate() {
        let (a, b, ma, mb) = setup();
        let out = spc_scan(&[(ma, Some(Predicate::eq(2))), (mb, None)]).unwrap();
        let expected: Vec<Pos> = (0..500u64).filter(|&i| a[i as usize] == 2).collect();
        assert_eq!(out.positions, expected);
        for (i, &p) in expected.iter().enumerate() {
            assert_eq!(out.tuples[i * 2 + 1], b[p as usize]);
        }
    }

    #[test]
    fn spc_empty_result_and_empty_input() {
        let (_, _, ma, mb) = setup();
        let out = spc_scan(&[(ma, Some(Predicate::lt(-1))), (mb, None)]).unwrap();
        assert!(out.positions.is_empty());
        assert!(out.tuples.is_empty());
        let out = spc_scan(&[]).unwrap();
        assert_eq!(out.width, 0);
    }

    #[test]
    fn spc_flags_bitvec_decompression() {
        let store = Store::in_memory();
        let a: Vec<Value> = (0..100).map(|i| i / 10).collect();
        let c: Vec<Value> = (0..100).map(|i| i % 5).collect();
        let spec = ProjectionSpec::new("t")
            .column("a", EncodingKind::Rle, SortOrder::Primary)
            .column("c", EncodingKind::BitVec, SortOrder::None);
        let id = store.load_projection(&spec, &[&a, &c]).unwrap();
        let w = PosRange::new(0, 100);
        let ma = MiniColumn::fetch(&store.reader(id, 0).unwrap(), w).unwrap();
        let mc = MiniColumn::fetch(&store.reader(id, 1).unwrap(), w).unwrap();
        let out = spc_scan(&[(ma, Some(Predicate::lt(3))), (mc, Some(Predicate::lt(2)))]).unwrap();
        assert!(out.decompressed);
        let expected: Vec<Pos> = (0..100u64)
            .filter(|&i| a[i as usize] < 3 && c[i as usize] < 2)
            .collect();
        assert_eq!(out.positions, expected);
    }
}
