//! SARGable predicates.
//!
//! C-Store data sources accept *search-argument* (SARG) predicates
//! (Selinger et al. \[15\] in the paper) so that filtering happens inside
//! the scan, against encoded data, instead of in a separate operator.
//! A predicate is a single comparison of a column value against one or
//! two constants; conjunctions are expressed as one predicate per column,
//! combined by the positional AND operator.

use crate::types::Value;

/// Comparison operator of a SARGable predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `column < c`
    Lt,
    /// `column <= c`
    Le,
    /// `column > c`
    Gt,
    /// `column >= c`
    Ge,
    /// `column == c`
    Eq,
    /// `column != c`
    Ne,
    /// `lo <= column <= hi` (both bounds inclusive)
    Between,
}

/// A single-column SARGable predicate.
///
/// `Between` uses both operands; every other operator uses only `operand`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// Comparison operator.
    pub op: CompareOp,
    /// Primary constant operand (lower bound for `Between`).
    pub operand: Value,
    /// Upper bound for `Between`; ignored otherwise.
    pub operand2: Value,
}

impl Predicate {
    /// `column < c`
    pub fn lt(c: Value) -> Predicate {
        Predicate {
            op: CompareOp::Lt,
            operand: c,
            operand2: c,
        }
    }

    /// `column <= c`
    pub fn le(c: Value) -> Predicate {
        Predicate {
            op: CompareOp::Le,
            operand: c,
            operand2: c,
        }
    }

    /// `column > c`
    pub fn gt(c: Value) -> Predicate {
        Predicate {
            op: CompareOp::Gt,
            operand: c,
            operand2: c,
        }
    }

    /// `column >= c`
    pub fn ge(c: Value) -> Predicate {
        Predicate {
            op: CompareOp::Ge,
            operand: c,
            operand2: c,
        }
    }

    /// `column == c`
    pub fn eq(c: Value) -> Predicate {
        Predicate {
            op: CompareOp::Eq,
            operand: c,
            operand2: c,
        }
    }

    /// `column != c`
    pub fn ne(c: Value) -> Predicate {
        Predicate {
            op: CompareOp::Ne,
            operand: c,
            operand2: c,
        }
    }

    /// `lo <= column <= hi` (inclusive). `lo > hi` matches nothing.
    pub fn between(lo: Value, hi: Value) -> Predicate {
        Predicate {
            op: CompareOp::Between,
            operand: lo,
            operand2: hi,
        }
    }

    /// A predicate that matches every value (`column <= i64::MAX`).
    pub fn always_true() -> Predicate {
        Predicate::le(Value::MAX)
    }

    /// Evaluate the predicate against a single value.
    #[inline(always)]
    pub fn matches(&self, v: Value) -> bool {
        match self.op {
            CompareOp::Lt => v < self.operand,
            CompareOp::Le => v <= self.operand,
            CompareOp::Gt => v > self.operand,
            CompareOp::Ge => v >= self.operand,
            CompareOp::Eq => v == self.operand,
            CompareOp::Ne => v != self.operand,
            CompareOp::Between => v >= self.operand && v <= self.operand2,
        }
    }

    /// The matching value interval as inclusive `[lo, hi]` bounds, or
    /// `None` when the predicate is not a contiguous interval (`Ne`).
    ///
    /// Bit-vector scans use this to decide which per-value bit-strings to
    /// OR together, and sorted-column scans use it to binary-search run
    /// boundaries.
    pub fn value_interval(&self) -> Option<(Value, Value)> {
        match self.op {
            CompareOp::Lt => {
                if self.operand == Value::MIN {
                    Some((0, -1)) // empty interval
                } else {
                    Some((Value::MIN, self.operand - 1))
                }
            }
            CompareOp::Le => Some((Value::MIN, self.operand)),
            CompareOp::Gt => {
                if self.operand == Value::MAX {
                    Some((0, -1))
                } else {
                    Some((self.operand + 1, Value::MAX))
                }
            }
            CompareOp::Ge => Some((self.operand, Value::MAX)),
            CompareOp::Eq => Some((self.operand, self.operand)),
            CompareOp::Ne => None,
            CompareOp::Between => Some((self.operand, self.operand2)),
        }
    }

    /// Translate the predicate into the code domain of `dict`: the
    /// returned [`CodePredicate`] matches code `c` exactly when `self`
    /// matches `dict[c]`.
    ///
    /// This is what lets dictionary blocks filter without decoding:
    /// equality and inequality collapse to a single code compare (or to
    /// `None`/`All` when the operand is absent from the dictionary),
    /// range operators collapse to a code range when the dictionary is
    /// sorted, and only an unsorted dictionary falls back to a per-code
    /// match table — still one predicate evaluation per *distinct* value
    /// instead of one per row.
    pub fn to_code_domain(&self, dict: &[Value]) -> CodePredicate {
        let k = dict.len() as u32;
        match self.op {
            CompareOp::Eq => match dict.iter().position(|&d| d == self.operand) {
                Some(c) => CodePredicate::Eq(c as u32),
                None => CodePredicate::None,
            },
            CompareOp::Ne => match dict.iter().position(|&d| d == self.operand) {
                Some(c) if k == 1 => {
                    debug_assert_eq!(c, 0);
                    CodePredicate::None
                }
                Some(c) => CodePredicate::Ne(c as u32),
                None => {
                    if k == 0 {
                        CodePredicate::None
                    } else {
                        CodePredicate::All
                    }
                }
            },
            _ => {
                let (lo, hi) = self
                    .value_interval()
                    .expect("every non-Ne operator is an interval");
                if hi < lo || k == 0 {
                    return CodePredicate::None;
                }
                if dict.windows(2).all(|w| w[0] < w[1]) {
                    // Sorted dictionary: the matching codes are contiguous.
                    let lo_c = dict.partition_point(|&d| d < lo) as u32;
                    let hi_c = dict.partition_point(|&d| d <= hi) as u32;
                    CodePredicate::from_range(lo_c, hi_c, k)
                } else {
                    CodePredicate::from_table(dict.iter().map(|&d| self.matches(d)).collect())
                }
            }
        }
    }

    /// Whether *any* value in the inclusive range `[min, max]` can match —
    /// the zone-map pruning test: a block (or granule) whose stored
    /// min/max fails this cannot contain a matching row and is skipped
    /// without being read. Conservative by construction: `true` means
    /// "maybe", never "definitely".
    pub fn overlaps_range(&self, min: Value, max: Value) -> bool {
        if max < min {
            return false;
        }
        match self.value_interval() {
            Some((lo, hi)) => lo.max(min) <= hi.min(max),
            // Ne: only an all-`operand` zone is excluded.
            None => !(min == max && min == self.operand),
        }
    }

    /// Estimated fraction of values matching, assuming a uniform domain
    /// `[min, max]` (inclusive). Used by the planner for selectivity (SF)
    /// estimates fed into the analytical model.
    pub fn uniform_selectivity(&self, min: Value, max: Value) -> f64 {
        if max < min {
            return 0.0;
        }
        // Widths in i128: `max - min + 1` overflows i64 on a domain
        // that holds both extremes.
        let width = |lo: Value, hi: Value| (hi as i128 - lo as i128 + 1) as f64;
        let n = width(min, max);
        match self.value_interval() {
            Some((lo, hi)) => {
                let lo = lo.max(min);
                let hi = hi.min(max);
                if hi < lo {
                    0.0
                } else {
                    (width(lo, hi) / n).clamp(0.0, 1.0)
                }
            }
            // Ne: everything except one domain value.
            None => ((n - 1.0) / n).clamp(0.0, 1.0),
        }
    }
}

/// A [`Predicate`] translated into a dictionary's code domain
/// (see [`Predicate::to_code_domain`]).
///
/// Codes are dictionary indices, so `matches_code(c)` is defined for
/// `c < dict.len()` and conservatively `false` beyond it. The variants
/// are normalized: a table that matches everything becomes `All`, one
/// that matches nothing becomes `None`, and single-code (or
/// single-exclusion) tables become `Eq`/`Ne`, so scans can dispatch on
/// the cheapest possible comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodePredicate {
    /// No code matches.
    None,
    /// Every code matches.
    All,
    /// Exactly one code matches.
    Eq(u32),
    /// Every code except one matches.
    Ne(u32),
    /// Codes in `lo..=hi` match (sorted dictionaries).
    Range(u32, u32),
    /// Per-code match table (unsorted dictionaries).
    Table(Vec<bool>),
}

impl CodePredicate {
    /// Normalize the half-open code range `[lo, hi)` over a `k`-entry
    /// dictionary into the cheapest equivalent variant.
    pub fn from_range(lo: u32, hi: u32, k: u32) -> CodePredicate {
        if hi <= lo {
            CodePredicate::None
        } else if lo == 0 && hi >= k {
            CodePredicate::All
        } else if hi == lo + 1 {
            CodePredicate::Eq(lo)
        } else if lo == 0 && hi + 1 == k {
            CodePredicate::Ne(k - 1)
        } else if lo == 1 && hi >= k {
            CodePredicate::Ne(0)
        } else {
            CodePredicate::Range(lo, hi - 1)
        }
    }

    /// Normalize a per-code match table into the cheapest equivalent
    /// variant.
    pub fn from_table(table: Vec<bool>) -> CodePredicate {
        let hits = table.iter().filter(|&&m| m).count();
        match hits {
            0 => CodePredicate::None,
            n if n == table.len() => CodePredicate::All,
            1 => {
                let c = table.iter().position(|&m| m).expect("one hit") as u32;
                CodePredicate::Eq(c)
            }
            n if n + 1 == table.len() => {
                let c = table.iter().position(|&m| !m).expect("one miss") as u32;
                CodePredicate::Ne(c)
            }
            _ => CodePredicate::Table(table),
        }
    }

    /// Evaluate against a single code.
    #[inline(always)]
    pub fn matches_code(&self, c: u32) -> bool {
        match self {
            CodePredicate::None => false,
            CodePredicate::All => true,
            CodePredicate::Eq(c0) => c == *c0,
            CodePredicate::Ne(c0) => c != *c0,
            CodePredicate::Range(lo, hi) => c >= *lo && c <= *hi,
            CodePredicate::Table(t) => t.get(c as usize).copied().unwrap_or(false),
        }
    }

    /// Whether no code can match (scans skip the block entirely).
    pub fn matches_nothing(&self) -> bool {
        matches!(self, CodePredicate::None)
    }

    /// Whether every code matches (scans emit the whole window).
    pub fn matches_everything(&self) -> bool {
        matches!(self, CodePredicate::All)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_all_ops() {
        assert!(Predicate::lt(5).matches(4));
        assert!(!Predicate::lt(5).matches(5));
        assert!(Predicate::le(5).matches(5));
        assert!(!Predicate::le(5).matches(6));
        assert!(Predicate::gt(5).matches(6));
        assert!(!Predicate::gt(5).matches(5));
        assert!(Predicate::ge(5).matches(5));
        assert!(!Predicate::ge(5).matches(4));
        assert!(Predicate::eq(5).matches(5));
        assert!(!Predicate::eq(5).matches(6));
        assert!(Predicate::ne(5).matches(6));
        assert!(!Predicate::ne(5).matches(5));
        assert!(Predicate::between(2, 4).matches(2));
        assert!(Predicate::between(2, 4).matches(4));
        assert!(!Predicate::between(2, 4).matches(5));
        assert!(!Predicate::between(4, 2).matches(3));
    }

    #[test]
    fn always_true_matches_extremes() {
        let p = Predicate::always_true();
        assert!(p.matches(Value::MIN));
        assert!(p.matches(0));
        assert!(p.matches(Value::MAX));
    }

    #[test]
    fn value_interval_agrees_with_matches() {
        let preds = [
            Predicate::lt(10),
            Predicate::le(10),
            Predicate::gt(10),
            Predicate::ge(10),
            Predicate::eq(10),
            Predicate::between(3, 17),
        ];
        for p in preds {
            let (lo, hi) = p.value_interval().unwrap();
            for v in -30..30 {
                assert_eq!(p.matches(v), v >= lo && v <= hi, "pred {p:?} value {v}");
            }
        }
        assert!(Predicate::ne(10).value_interval().is_none());
    }

    #[test]
    fn value_interval_extreme_operands() {
        // `< MIN` matches nothing; interval must be empty.
        let (lo, hi) = Predicate::lt(Value::MIN).value_interval().unwrap();
        assert!(hi < lo);
        // `> MAX` matches nothing.
        let (lo, hi) = Predicate::gt(Value::MAX).value_interval().unwrap();
        assert!(hi < lo);
    }

    #[test]
    fn uniform_selectivity_basics() {
        // domain 0..=9, pred < 5 matches {0..4} = 0.5
        assert!((Predicate::lt(5).uniform_selectivity(0, 9) - 0.5).abs() < 1e-12);
        assert!((Predicate::eq(3).uniform_selectivity(0, 9) - 0.1).abs() < 1e-12);
        assert!((Predicate::ne(3).uniform_selectivity(0, 9) - 0.9).abs() < 1e-12);
        assert_eq!(Predicate::lt(0).uniform_selectivity(0, 9), 0.0);
        assert_eq!(Predicate::le(9).uniform_selectivity(0, 9), 1.0);
        // Degenerate domain.
        assert_eq!(Predicate::eq(5).uniform_selectivity(9, 0), 0.0);
        // A domain holding both extremes: its width does not fit an i64.
        let (lo, hi) = (Value::MIN, Value::MAX);
        assert!((Predicate::lt(0).uniform_selectivity(lo, hi) - 0.5).abs() < 1e-12);
        assert_eq!(Predicate::le(Value::MAX).uniform_selectivity(lo, hi), 1.0);
        assert!(Predicate::eq(3).uniform_selectivity(lo, hi) > 0.0);
        assert!((Predicate::ne(3).uniform_selectivity(lo, hi) - 1.0).abs() < 1e-12);
    }

    /// Oracle check: the code-domain translation must agree with
    /// value-domain evaluation on every dictionary entry.
    fn assert_code_domain_agrees(pred: &Predicate, dict: &[Value]) {
        let cp = pred.to_code_domain(dict);
        for (c, &v) in dict.iter().enumerate() {
            assert_eq!(
                cp.matches_code(c as u32),
                pred.matches(v),
                "pred {pred:?} dict {dict:?} code {c} value {v} via {cp:?}"
            );
        }
        // A match table is conservative beyond the dictionary (codes out
        // of range cannot occur in well-formed blocks anyway).
        if matches!(cp, CodePredicate::Table(_)) {
            assert!(!cp.matches_code(dict.len() as u32 + 7));
        }
    }

    #[test]
    fn code_domain_eq_ne_collapse_to_single_compare() {
        let dict = [30, 10, 20]; // first-appearance order, unsorted
        assert_eq!(
            Predicate::eq(10).to_code_domain(&dict),
            CodePredicate::Eq(1)
        );
        assert_eq!(
            Predicate::ne(20).to_code_domain(&dict),
            CodePredicate::Ne(2)
        );
        // Absent operands: eq matches nothing, ne matches everything.
        assert_eq!(Predicate::eq(99).to_code_domain(&dict), CodePredicate::None);
        assert_eq!(Predicate::ne(99).to_code_domain(&dict), CodePredicate::All);
        // A one-entry dictionary: ne of the entry matches nothing.
        assert_eq!(Predicate::ne(5).to_code_domain(&[5]), CodePredicate::None);
        assert_eq!(Predicate::eq(5).to_code_domain(&[]), CodePredicate::None);
    }

    #[test]
    fn code_domain_ranges_on_sorted_dict() {
        let dict = [10, 20, 30, 40];
        assert_eq!(
            Predicate::between(15, 35).to_code_domain(&dict),
            CodePredicate::Range(1, 2)
        );
        assert_eq!(Predicate::lt(10).to_code_domain(&dict), CodePredicate::None);
        assert_eq!(Predicate::le(40).to_code_domain(&dict), CodePredicate::All);
        assert_eq!(
            Predicate::ge(40).to_code_domain(&dict),
            CodePredicate::Eq(3)
        );
        assert_eq!(
            Predicate::lt(40).to_code_domain(&dict),
            CodePredicate::Ne(3)
        );
        assert_eq!(
            Predicate::gt(10).to_code_domain(&dict),
            CodePredicate::Ne(0)
        );
        assert_eq!(
            Predicate::between(4, 2).to_code_domain(&dict),
            CodePredicate::None
        );
    }

    #[test]
    fn code_domain_table_on_unsorted_dict() {
        let dict = [30, 10, 40, 20];
        let cp = Predicate::le(25).to_code_domain(&dict);
        assert_eq!(cp, CodePredicate::Table(vec![false, true, false, true]));
        assert_code_domain_agrees(&Predicate::le(25), &dict);
    }

    #[test]
    fn code_domain_agrees_for_every_op() {
        let dicts: [&[Value]; 4] = [
            &[10, 20, 30, 40], // sorted
            &[30, 10, 40, 20], // unsorted
            &[7],              // singleton
            &[Value::MIN, 0, Value::MAX],
        ];
        for dict in dicts {
            for c in [Value::MIN, -1, 0, 7, 10, 25, 40, Value::MAX] {
                for p in [
                    Predicate::lt(c),
                    Predicate::le(c),
                    Predicate::gt(c),
                    Predicate::ge(c),
                    Predicate::eq(c),
                    Predicate::ne(c),
                    Predicate::between(c, c.saturating_add(15)),
                    Predicate::between(c, c),
                ] {
                    assert_code_domain_agrees(&p, dict);
                }
            }
        }
    }

    #[test]
    fn overlaps_range_agrees_with_matches() {
        let preds = [
            Predicate::lt(10),
            Predicate::le(10),
            Predicate::gt(10),
            Predicate::ge(10),
            Predicate::eq(10),
            Predicate::ne(10),
            Predicate::between(3, 17),
            Predicate::between(17, 3),
        ];
        for p in preds {
            for lo in -25..25 {
                for hi in lo..25 {
                    let any = (lo..=hi).any(|v| p.matches(v));
                    assert_eq!(
                        p.overlaps_range(lo, hi),
                        any,
                        "pred {p:?} zone [{lo}, {hi}]"
                    );
                }
                // Inverted zones never overlap.
                assert!(!p.overlaps_range(lo, lo - 1));
            }
        }
    }

    #[test]
    fn uniform_selectivity_clips_to_domain() {
        // between 100..200 on domain 0..=9 matches nothing
        assert_eq!(Predicate::between(100, 200).uniform_selectivity(0, 9), 0.0);
        // between -5..4 on domain 0..=9 matches half
        assert!((Predicate::between(-5, 4).uniform_selectivity(0, 9) - 0.5).abs() < 1e-12);
    }
}
