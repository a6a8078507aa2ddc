//! Per-operator cost formulas (Figures 1–6 of the paper).
//!
//! Every function returns `(cpu_us, io_us)` or a single `f64` of CPU µs
//! for streaming operators that never touch disk. The formulas are
//! transcriptions of the paper's cost figures; step numbers in comments
//! refer to the pseudocode line numbers printed alongside each figure.

use crate::constants::Constants;

/// Parameters of one column access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnParams {
    /// `|Ci|`: number of 64 KB blocks.
    pub blocks: f64,
    /// `||Ci||`: number of rows.
    pub rows: f64,
    /// `RL`: average run length of the stored encoding (1 if
    /// uncompressed).
    pub run_len: f64,
    /// `F`: fraction of the column's pages already in the buffer pool.
    pub resident: f64,
    /// `W`: bytes per stored code when dictionary-encoded (1, 2 or 4),
    /// or 8 — the decoded value width — otherwise. The decode-avoidance
    /// term: operators running in the code domain touch `W` bytes per
    /// unit instead of 8.
    pub code_width: f64,
    /// Whether every block of the column shares one sorted dictionary,
    /// making the column eligible for code-keyed joins.
    pub shared_dict: bool,
    /// Whether the column is bit-vector encoded: DS1 over it emits a
    /// bit-string, and producing its values decodes the whole column.
    pub bit_vector: bool,
}

impl ColumnParams {
    /// Convenience constructor with `F = 0` (cold), no dictionary and no
    /// bit-vector encoding.
    pub fn cold(blocks: f64, rows: f64, run_len: f64) -> ColumnParams {
        ColumnParams {
            blocks,
            rows,
            run_len,
            resident: 0.0,
            code_width: 8.0,
            shared_dict: false,
            bit_vector: false,
        }
    }

    /// The paper's standard I/O term:
    /// `(|Ci|/PF * SEEK + |Ci| * READ) * (1 - F)`.
    pub fn io_full_scan(&self, c: &Constants) -> f64 {
        (self.blocks / c.pf * c.seek + self.blocks * c.read) * (1.0 - self.resident)
    }

    /// Multiplier on the per-unit column-iterator step when the operator
    /// stays in the code domain: a `W`-byte code costs `W/8` of touching
    /// a decoded 8-byte value. 1 for undictionaried columns.
    pub fn code_cpu_factor(&self) -> f64 {
        (self.code_width / 8.0).clamp(0.125, 1.0)
    }

    /// CPU an operator producing this column's values pays on top of its
    /// figure: a bit-vector column decompresses to be read at a position
    /// (a value is found only by reading every bit-string), priced as the
    /// whole column decoded (one column-iterator step per row). Zero for
    /// every other encoding.
    fn value_decode(&self, c: &Constants) -> f64 {
        if self.bit_vector {
            self.rows * c.tic_col
        } else {
            0.0
        }
    }
}

/// One input to the AND operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AndInput {
    /// `||inpos_i||`: number of positions in the list.
    pub positions: f64,
    /// `RL_p`: average run length of the position list (ranges), or 1
    /// for unencoded lists.
    pub run_len: f64,
    /// Whether the list is a bit-string (then the effective unit is the
    /// machine word, not the run).
    pub is_bitstring: bool,
}

impl AndInput {
    /// Number of iterator steps the AND pays for this input:
    /// `||inpos||/RL_p` for ranges, `||inpos||/word` for bit-strings.
    fn units(&self, c: &Constants) -> f64 {
        if self.is_bitstring {
            self.positions / c.word_bits
        } else {
            self.positions / self.run_len.max(1.0)
        }
    }
}

/// DS Case 1 (Figure 1): scan + predicate → positions.
///
/// `CPU = |C|*BIC + ||C||*(TICCOL + FC)/RL + SF*||C||*FC`
pub fn ds1(col: &ColumnParams, sf: f64, c: &Constants) -> (f64, f64) {
    let cpu = col.blocks * c.bic                                   // (1)
        + col.rows * (c.tic_col + c.fc) / col.run_len.max(1.0)     // (3,4)
        + sf * col.rows * c.fc; // (5)
    (cpu, col.io_full_scan(c)) // (2)
}

/// DS Case 1 run entirely in the **code domain** — the compressed-
/// execution variant of [`ds1`]. The per-unit decode call (`FC`) drops
/// out and the column-iterator step touches a `code_width`-byte code
/// instead of an 8-byte value; the emit term (`SF*||C||*FC` — hash
/// inserts, position pushes) is unchanged, as is the I/O: the same
/// blocks are read either way.
///
/// `CPU = |C|*BIC + ||C||*TICCOL*(W/8)/RL + SF*||C||*FC`
pub fn ds1_code(col: &ColumnParams, sf: f64, c: &Constants) -> (f64, f64) {
    let cpu = col.blocks * c.bic
        + col.rows * c.tic_col * col.code_cpu_factor() / col.run_len.max(1.0)
        + sf * col.rows * c.fc;
    (cpu, col.io_full_scan(c))
}

/// DS Case 2: scan + predicate → (position, value) pairs.
///
/// Same as Case 1 except step (5) pays `TICTUP + FC` per emitted pair,
/// plus the whole-column decode of a bit-vector column.
pub fn ds2(col: &ColumnParams, sf: f64, c: &Constants) -> (f64, f64) {
    let cpu = col.blocks * c.bic
        + col.rows * (c.tic_col + c.fc) / col.run_len.max(1.0)
        + sf * col.rows * (c.tic_tup + c.fc)
        + col.value_decode(c);
    (cpu, col.io_full_scan(c))
}

/// DS Case 3 (Figure 2): position list → values.
///
/// `CPU = |C|*BIC + ||POSLIST||/RLp*TICCOL + ||POSLIST||/RLp*(TICCOL+FC)`
///
/// `positions` is `||POSLIST||` and `pos_run_len` its `RL_p`.
/// `reaccess = true` models the multi-column optimization (§3.6): the
/// column was already read earlier in the plan, so `F = 1` and I/O → 0.
/// Otherwise I/O is `(|C|/PF*SEEK + SF*|C|*READ) * (1-F)` — only the
/// fraction of blocks containing matches is read (localized matches).
/// A bit-vector column adds its whole-column decode.
pub fn ds3(
    col: &ColumnParams,
    positions: f64,
    pos_run_len: f64,
    sf: f64,
    reaccess: bool,
    c: &Constants,
) -> (f64, f64) {
    let steps = positions / pos_run_len.max(1.0);
    let cpu = col.blocks * c.bic            // (1)
        + steps * c.tic_col                 // (3)
        + steps * (c.tic_col + c.fc)        // (4)
        + col.value_decode(c);
    let io = if reaccess {
        0.0
    } else {
        (col.blocks / c.pf * c.seek + sf * col.blocks * c.read) * (1.0 - col.resident)
    };
    (cpu, io)
}

/// DS Case 4 (Figure 3): EM tuples + column + predicate → wider tuples.
///
/// `CPU = |C|*BIC + ||EM||*TICTUP + ||EM||*((FC+TICTUP)+FC)
///        + SF*||EM||*TICTUP`
pub fn ds4(col: &ColumnParams, em_tuples: f64, sf: f64, c: &Constants) -> (f64, f64) {
    let cpu = col.blocks * c.bic                       // (1)
        + em_tuples * c.tic_tup                        // (3)
        + em_tuples * ((c.fc + c.tic_tup) + c.fc)      // (4)
        + sf * em_tuples * c.tic_tup; // (5)
    (cpu, col.io_full_scan(c)) // (2)
}

/// AND operator (Figure 4), all three cases. Streaming: CPU only.
///
/// `COST = Σ TICCOL*units_i + M*(k-1)*FC + M*TICCOL*FC` where
/// `M = max(units_i)` and `units_i` is runs for range inputs or words
/// for bit-string inputs (Case 2 substitutes `||inpos||/word`).
pub fn and_cost(inputs: &[AndInput], c: &Constants) -> f64 {
    if inputs.len() < 2 {
        return 0.0;
    }
    let k = inputs.len() as f64;
    let m = inputs.iter().map(|i| i.units(c)).fold(0.0_f64, f64::max);
    let step1: f64 = inputs.iter().map(|i| c.tic_col * i.units(c)).sum();
    step1 + m * (k - 1.0) * c.fc + m * c.tic_col * c.fc
}

/// MERGE operator (Figure 5): k value streams → k-ary tuples.
///
/// `COST = ||VAL||*k*FC + ||VAL||*k*FC` (vector access + array produce).
pub fn merge_cost(values_per_col: f64, k: f64, c: &Constants) -> f64 {
    values_per_col * k * c.fc + values_per_col * k * c.fc
}

/// SPC operator (Figure 6): scan k columns, apply predicates, construct
/// tuples at the leaf (the EM-parallel leaf).
///
/// ```text
/// CPU = Σ_i |Ci|*BIC                               (2)
///     + Σ_i ||Ci||*FC*Π_{j<i}(SFj)                 (4)
///     + ||Ck||*TICTUP*Π_{j=1..k}(SFj)              (5)
/// IO  = Σ_i (|Ci|/PF*SEEK + |Ci|*READ)             (3)
/// ```
///
/// A bit-vector column adds its whole-column decode to step (4).
pub fn spc(cols: &[ColumnParams], sfs: &[f64], c: &Constants) -> (f64, f64) {
    assert_eq!(cols.len(), sfs.len());
    let mut cpu = 0.0;
    let mut io = 0.0;
    let mut sel_prefix = 1.0; // Π_{j<i} SF_j
    for (col, &sf) in cols.iter().zip(sfs) {
        cpu += col.blocks * c.bic; // (2)
        cpu += col.rows * c.fc * sel_prefix + col.value_decode(c); // (4)
        io += col.io_full_scan(c); // (3)
        sel_prefix *= sf;
    }
    let last = cols.last().expect("spc needs at least one column");
    cpu += last.rows * c.tic_tup * sel_prefix; // (5), sel_prefix = Π all SF
    (cpu, io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> Constants {
        Constants::paper()
    }

    fn col(blocks: f64, rows: f64, rl: f64) -> ColumnParams {
        ColumnParams::cold(blocks, rows, rl)
    }

    #[test]
    fn ds1_formula_hand_check() {
        // |C|=5, ||C||=1000, RL=10, SF=0.5
        let (cpu, io) = ds1(&col(5.0, 1000.0, 10.0), 0.5, &c());
        let expected_cpu = 5.0 * 0.020 + 1000.0 * (0.014 + 0.009) / 10.0 + 0.5 * 1000.0 * 0.009;
        assert!((cpu - expected_cpu).abs() < 1e-9);
        let expected_io = 5.0 / 1.0 * 2500.0 + 5.0 * 1000.0;
        assert!((io - expected_io).abs() < 1e-9);
    }

    #[test]
    fn ds2_costs_more_than_ds1() {
        let p = col(5.0, 1000.0, 1.0);
        let (cpu1, _) = ds1(&p, 0.5, &c());
        let (cpu2, _) = ds2(&p, 0.5, &c());
        assert!(
            cpu2 > cpu1,
            "pair construction must cost more than positions"
        );
        // Difference is exactly SF*||C||*(TICTUP - FC)... no:
        // ds1 step5 = SF*N*FC; ds2 step5 = SF*N*(TICTUP+FC).
        assert!((cpu2 - cpu1 - 0.5 * 1000.0 * 0.065).abs() < 1e-9);
    }

    #[test]
    fn ds3_reaccess_has_zero_io() {
        let p = col(5.0, 1000.0, 1.0);
        let (_, io) = ds3(&p, 100.0, 1.0, 0.1, true, &c());
        assert_eq!(io, 0.0);
        let (_, io_cold) = ds3(&p, 100.0, 1.0, 0.1, false, &c());
        // (5 seeks * 2500) + 0.1*5 blocks * 1000
        assert!((io_cold - (5.0 * 2500.0 + 0.5 * 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn ds3_cpu_scales_with_poslist_runs_not_rows() {
        let p = col(100.0, 1_000_000.0, 1.0);
        let (cpu_fine, _) = ds3(&p, 10_000.0, 1.0, 0.01, true, &c());
        let (cpu_runs, _) = ds3(&p, 10_000.0, 100.0, 0.01, true, &c());
        assert!(cpu_runs < cpu_fine, "range-encoded positions are cheaper");
    }

    #[test]
    fn ds4_formula_hand_check() {
        let (cpu, _) = ds4(&col(5.0, 1000.0, 1.0), 200.0, 0.5, &c());
        let expected =
            5.0 * 0.020 + 200.0 * 0.065 + 200.0 * ((0.009 + 0.065) + 0.009) + 0.5 * 200.0 * 0.065;
        assert!((cpu - expected).abs() < 1e-9);
    }

    #[test]
    fn and_ranges_vs_bitstrings() {
        let cc = c();
        // Two range lists of 1000 positions with run length 100: 10 units each.
        let ranges = and_cost(
            &[
                AndInput {
                    positions: 1000.0,
                    run_len: 100.0,
                    is_bitstring: false,
                },
                AndInput {
                    positions: 1000.0,
                    run_len: 100.0,
                    is_bitstring: false,
                },
            ],
            &cc,
        );
        // Bit-strings over the same positions: 1000/32 = 31.25 units each.
        let bits = and_cost(
            &[
                AndInput {
                    positions: 1000.0,
                    run_len: 1.0,
                    is_bitstring: true,
                },
                AndInput {
                    positions: 1000.0,
                    run_len: 1.0,
                    is_bitstring: true,
                },
            ],
            &cc,
        );
        // Unencoded singleton lists: 1000 units each.
        let lists = and_cost(
            &[
                AndInput {
                    positions: 1000.0,
                    run_len: 1.0,
                    is_bitstring: false,
                },
                AndInput {
                    positions: 1000.0,
                    run_len: 1.0,
                    is_bitstring: false,
                },
            ],
            &cc,
        );
        assert!(ranges < bits, "long runs beat bit-strings");
        assert!(bits < lists, "bit-strings beat singleton lists");
    }

    #[test]
    fn and_fewer_than_two_inputs_is_free() {
        assert_eq!(and_cost(&[], &c()), 0.0);
        assert_eq!(
            and_cost(
                &[AndInput {
                    positions: 10.0,
                    run_len: 1.0,
                    is_bitstring: false
                }],
                &c()
            ),
            0.0
        );
    }

    #[test]
    fn merge_linear_in_values_and_arity() {
        let cc = c();
        let base = merge_cost(100.0, 2.0, &cc);
        assert!((merge_cost(200.0, 2.0, &cc) - 2.0 * base).abs() < 1e-9);
        assert!((merge_cost(100.0, 4.0, &cc) - 2.0 * base).abs() < 1e-9);
    }

    #[test]
    fn spc_predicate_order_matters() {
        let cc = c();
        let c1 = col(10.0, 10_000.0, 1.0);
        let c2 = col(10.0, 10_000.0, 1.0);
        // Selective predicate first: later column pays fewer FC steps.
        let (cpu_sel_first, _) = spc(&[c1, c2], &[0.01, 0.9], &cc);
        let (cpu_sel_last, _) = spc(&[c1, c2], &[0.9, 0.01], &cc);
        assert!(cpu_sel_first < cpu_sel_last);
    }

    #[test]
    fn spc_io_reads_all_columns_fully() {
        let cc = c();
        let (_, io) = spc(
            &[col(10.0, 100.0, 1.0), col(20.0, 100.0, 1.0)],
            &[0.5, 0.5],
            &cc,
        );
        let expected = (10.0 * 2500.0 + 10.0 * 1000.0) + (20.0 * 2500.0 + 20.0 * 1000.0);
        assert!((io - expected).abs() < 1e-9);
    }

    #[test]
    fn ds1_code_drops_decode_and_narrows_the_iterator_step() {
        let cc = c();
        let mut p = col(5.0, 1000.0, 10.0);
        p.code_width = 1.0; // one-byte dictionary codes
        let (cpu, io) = ds1_code(&p, 0.5, &cc);
        // |C|*BIC + ||C||*TICCOL*(1/8)/RL + SF*||C||*FC — no FC decode
        // per unit.
        let expected = 5.0 * 0.020 + 1000.0 * 0.014 * 0.125 / 10.0 + 0.5 * 1000.0 * 0.009;
        assert!((cpu - expected).abs() < 1e-9);
        // Same blocks read either way.
        let (_, io_value) = ds1(&p, 0.5, &cc);
        assert!((io - io_value).abs() < 1e-9);
        // The code path is strictly cheaper than the decoded pass.
        let (cpu_value, _) = ds1(&p, 0.5, &cc);
        assert!(cpu < cpu_value);
    }

    #[test]
    fn code_cpu_factor_by_width() {
        let mut p = col(1.0, 1.0, 1.0);
        assert_eq!(p.code_cpu_factor(), 1.0, "undictionaried = decoded width");
        p.code_width = 1.0;
        assert_eq!(p.code_cpu_factor(), 0.125);
        p.code_width = 2.0;
        assert_eq!(p.code_cpu_factor(), 0.25);
        p.code_width = 4.0;
        assert_eq!(p.code_cpu_factor(), 0.5);
    }

    #[test]
    fn resident_fraction_scales_io() {
        let cc = c();
        let mut p = col(10.0, 100.0, 1.0);
        p.resident = 0.75;
        let (_, io) = ds1(&p, 0.5, &cc);
        let (_, io_cold) = ds1(&col(10.0, 100.0, 1.0), 0.5, &cc);
        assert!((io - 0.25 * io_cold).abs() < 1e-9);
    }
}
