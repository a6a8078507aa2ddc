//! Property tests for the storage layer: whatever the data, whatever the
//! encoding, a column written through the block/file machinery reads
//! back exactly, every access path agrees with the raw data, and the
//! write-time statistics are truthful.

use matstrat_common::Width;
use matstrat_common::{PosRange, Predicate, Value};
use matstrat_poslist::{PosList, PosListBuilder};
use matstrat_storage::{
    BitVecBlock, ColumnFileReader, ColumnFileWriter, DictBlock, EncodedBlock, EncodingKind,
    MemDisk, PlainBlock, RleBlock, Slots,
};
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

const ENCODINGS: [EncodingKind; 4] = [
    EncodingKind::Plain,
    EncodingKind::Rle,
    EncodingKind::BitVec,
    EncodingKind::Dict,
];

fn arb_values() -> impl PropStrategy<Value = Vec<Value>> {
    // Runs + noise: realistic for semi-sorted projections, and exercises
    // every codec's run/dictionary handling.
    prop::collection::vec((-20i64..20, 1usize..20), 0..60).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect()
    })
}

fn arb_pred() -> impl PropStrategy<Value = Predicate> {
    (-25i64..25, 0usize..6).prop_map(|(x, op)| match op {
        0 => Predicate::lt(x),
        1 => Predicate::le(x),
        2 => Predicate::gt(x),
        3 => Predicate::eq(x),
        4 => Predicate::ne(x),
        _ => Predicate::between(x, x + 10),
    })
}

const WIDTHS: [Width; 4] = [Width::W1, Width::W2, Width::W4, Width::W8];

/// The smallest and largest value `width` holds.
fn width_domain(width: Width) -> (Value, Value) {
    let bits = 8 * width.bytes() as u32;
    (Value::MIN >> (64 - bits), Value::MAX >> (64 - bits))
}

/// Every operator against `x`, plus the three empty intervals.
fn every_op(x: Value, y: Value) -> [Predicate; 10] {
    [
        Predicate::lt(x),
        Predicate::le(x),
        Predicate::gt(x),
        Predicate::ge(x),
        Predicate::eq(x),
        Predicate::ne(x),
        Predicate::between(x.min(y), x.max(y)),
        Predicate::lt(Value::MIN),
        Predicate::gt(Value::MAX),
        Predicate::between(5, 3),
    ]
}

/// DS1 as the plain kernel did it before it worked a word at a time:
/// decode, test and push one value at a time, then let the builder pick.
fn pushed_one_at_a_time(block: &PlainBlock, pred: &Predicate, window: PosRange) -> PosList {
    let mut out = Vec::new();
    EncodedBlock::Plain(block.clone())
        .gather_range(window, &mut out)
        .unwrap();
    let mut b = PosListBuilder::new();
    for (p, v) in window.iter().zip(out) {
        if pred.matches(v) {
            b.push(p);
        }
    }
    b.finish()
}

fn write_and_open(disk: &MemDisk, enc: EncodingKind, values: &[Value]) -> ColumnFileReader {
    let mut w = ColumnFileWriter::create(disk, "c.col", enc, Width::W2).unwrap();
    w.push_all(values).unwrap();
    let stats = w.finish().unwrap();
    assert_eq!(stats.num_rows as usize, values.len());
    ColumnFileReader::open(disk, "c.col").unwrap()
}

/// Write `values` under `enc` at `width` and check the column's stats
/// against the data: min, max, run count, and an exact distinct count.
fn assert_stats_truthful(label: &str, values: &[Value], enc: EncodingKind, width: Width) {
    let disk = MemDisk::new();
    let mut w = ColumnFileWriter::create(&disk, "c.col", enc, width).unwrap();
    w.push_all(values).unwrap();
    let s = w.finish().unwrap();
    assert_eq!(s.num_rows as usize, values.len(), "{label} {enc}");
    let reread = ColumnFileReader::open(&disk, "c.col").unwrap().stats();
    assert_eq!(reread, s, "{label} {enc}: stats read back");
    if values.is_empty() {
        assert_eq!(
            (s.distinct, s.num_runs, s.min, s.max),
            (0, 0, 0, 0),
            "{label} {enc}"
        );
        return;
    }
    assert_eq!(s.min, *values.iter().min().unwrap(), "{label} {enc}");
    assert_eq!(s.max, *values.iter().max().unwrap(), "{label} {enc}");
    let mut distinct = values.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(s.distinct as usize, distinct.len(), "{label} {enc}");
    let runs = 1 + values.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(s.num_runs as usize, runs, "{label} {enc}");
}

/// The distinct count is exact on the columns at the edges of both of
/// its counting paths: dense spans (the bitmap), sparse ones (the sort),
/// a span that overflows `i64`, one value, and none.
#[test]
fn distinct_count_is_exact_at_the_edges() {
    let dense_negative: Vec<Value> = (0..3000).map(|i| -5000 + (i * 7) % 1200).collect();
    let all_equal = vec![-42; 2000];
    let extremes: Vec<Value> = (0..900)
        .map(|i| match i % 3 {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => i64::MIN + 1 + (i % 5),
        })
        .collect();
    let sparse_wide: Vec<Value> = (0..1500).map(|i| ((i * 31) % 400) << 40).collect();
    let columns: [(&str, &[Value]); 5] = [
        ("dense negative", &dense_negative),
        ("all equal", &all_equal),
        ("i64 extremes", &extremes),
        ("sparse wide", &sparse_wide),
        ("empty", &[]),
    ];
    for (label, values) in columns {
        for enc in ENCODINGS {
            assert_stats_truthful(label, values, enc, Width::W8);
        }
    }
    // More run starts than a writer collects before folding them, so the
    // count passes through several folds: over few values (the bitmap)
    // and over ever more of them (the sort). The folds are column-wide,
    // whatever the encoding, so the two cheap codecs cover them.
    let n = 300_000;
    let many_runs_dense: Vec<Value> = (0..n).map(|i| (i * 7919) % 5000 - 2500).collect();
    let many_runs_sparse: Vec<Value> = (0..n).map(|i| ((i * 7919) % 200_000) << 30).collect();
    for (label, values) in [
        ("many runs, dense", &many_runs_dense),
        ("many runs, sparse", &many_runs_sparse),
    ] {
        for enc in [EncodingKind::Plain, EncodingKind::Rle] {
            assert_stats_truthful(label, values, enc, Width::W8);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decode_roundtrip_every_encoding(values in arb_values()) {
        for enc in ENCODINGS {
            let disk = MemDisk::new();
            let r = write_and_open(&disk, enc, &values);
            let mut decoded = Vec::new();
            for i in 0..r.num_blocks() {
                r.fetch_block(&disk, i).unwrap().decode_all(&mut decoded);
            }
            prop_assert_eq!(&decoded, &values, "{}", enc);
        }
    }

    #[test]
    fn scan_equals_filter_every_encoding(values in arb_values(), pred in arb_pred()) {
        let expected: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| pred.matches(**v))
            .map(|(i, _)| i as u64)
            .collect();
        for enc in ENCODINGS {
            let disk = MemDisk::new();
            let r = write_and_open(&disk, enc, &values);
            let mut got = Vec::new();
            for i in 0..r.num_blocks() {
                let block = r.fetch_block(&disk, i).unwrap();
                got.extend(block.scan_positions(&pred).to_vec());
            }
            prop_assert_eq!(&got, &expected, "{} {:?}", enc, pred);
        }
    }

    #[test]
    fn stats_are_truthful(values in arb_values()) {
        for enc in ENCODINGS {
            assert_stats_truthful("generated", &values, enc, Width::W2);
        }
    }

    #[test]
    fn value_at_agrees_with_raw(values in arb_values(), idx in 0usize..1000) {
        prop_assume!(!values.is_empty());
        let idx = idx % values.len();
        for enc in ENCODINGS {
            let disk = MemDisk::new();
            let r = write_and_open(&disk, enc, &values);
            let b = r.block_for_pos(idx as u64).unwrap();
            let block = r.fetch_block(&disk, b).unwrap();
            prop_assert_eq!(block.value_at(idx as u64).unwrap(), values[idx], "{}", enc);
        }
    }

    #[test]
    fn windowed_scan_equals_clipped_scan(
        values in arb_values(),
        pred in arb_pred(),
        lo in 0u64..500,
        len in 0u64..500,
    ) {
        prop_assume!(!values.is_empty());
        let n = values.len() as u64;
        let window = PosRange::new(lo.min(n), (lo + len).min(n));
        for enc in ENCODINGS {
            let disk = MemDisk::new();
            let r = write_and_open(&disk, enc, &values);
            let mut got: Vec<u64> = Vec::new();
            let mut expected: Vec<u64> = Vec::new();
            for i in 0..r.num_blocks() {
                let block = r.fetch_block(&disk, i).unwrap();
                got.extend(block.scan_positions_in(&pred, window).to_vec());
                expected.extend(block.scan_positions(&pred).clip(window).to_vec());
            }
            prop_assert_eq!(&got, &expected, "{} {:?} {}", enc, pred, window);
        }
    }

    #[test]
    fn gather_equals_index_where_supported(values in arb_values(), seed in 0u64..1000) {
        prop_assume!(values.len() >= 4);
        let n = values.len() as u64;
        // A deterministic pseudo-random subset of positions.
        let positions: Vec<u64> = (0..n).filter(|p| (p * 7 + seed) % 3 == 0).collect();
        let expected: Vec<Value> = positions.iter().map(|&p| values[p as usize]).collect();
        let pl = PosList::from_positions(positions);
        for enc in ENCODINGS {
            let disk = MemDisk::new();
            let r = write_and_open(&disk, enc, &values);
            let mut got = Vec::new();
            for i in 0..r.num_blocks() {
                let block = r.fetch_block(&disk, i).unwrap();
                let clipped = pl.clip(block.covering());
                block.gather(&clipped.to_vec(), &mut got).unwrap();
            }
            prop_assert_eq!(&got, &expected, "{}", enc);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The word kernel equals the builder path in positions **and**
    /// representation (a bitmap's covering range included), at every
    /// width, for every operator, with operands inside, at the edge of and
    /// beyond the width's domain, over windows of any alignment and
    /// length — shorter than one word among them.
    #[test]
    fn plain_word_kernel_equals_the_builder_path(
        w in 0usize..4,
        runs in prop::collection::vec((0u8..8, -40i64..40, 1usize..24), 0..40),
        start in 0u64..200,
        ops in (0u8..6, -45i64..45, -45i64..45),
        win in (0u64..1000, 0u64..1000),
    ) {
        let width = WIDTHS[w];
        let (min, max) = width_domain(width);
        let values: Vec<Value> = runs
            .iter()
            .flat_map(|&(kind, v, n)| {
                let v = match kind {
                    6 => min,
                    7 => max,
                    _ => v,
                };
                std::iter::repeat_n(v, n)
            })
            .collect();
        let block = PlainBlock::from_values(start, width, &values);
        let n = values.len() as u64;
        let lo = win.0 % (n + 1);
        let windows = [
            PosRange::new(start, start + n),
            PosRange::new(start + lo, start + (lo + win.1).min(n)),
            PosRange::new(start + lo, start + (lo + win.1 % 64).min(n)),
        ];
        // Operands near the data, at the domain's edges, just beyond them
        // and at the extremes of `Value`.
        let (which, x, y) = ops;
        let x = match which {
            0 => min,
            1 => max,
            2 => min.saturating_sub(1),
            3 => max.saturating_add(1),
            4 => if x < 0 { Value::MIN } else { Value::MAX },
            _ => x,
        };
        for window in windows {
            for pred in every_op(x, y) {
                prop_assert_eq!(
                    block.scan_positions_in(&pred, window),
                    pushed_one_at_a_time(&block, &pred, window),
                    "{:?} {:?} {}",
                    width,
                    pred,
                    window
                );
            }
        }
    }
}

/// MERGE's stitch over gathered columns — row-major tuples, column by
/// column, the layout `matstrat_core`'s MERGE writes.
fn merge_columns(cols: &[Vec<Value>]) -> Vec<Value> {
    let rows = cols.first().map_or(0, Vec::len);
    (0..rows)
        .flat_map(|r| cols.iter().map(move |c| c[r]))
        .collect()
}

/// `values` cut at `cuts` into contiguous blocks of `codec` from `start`.
fn cut_blocks(
    codec: usize,
    width: Width,
    start: u64,
    values: &[Value],
    cuts: &[usize],
) -> Vec<EncodedBlock> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (values.len() + 1)).collect();
    bounds.extend([0, values.len()]);
    bounds.sort_unstable();
    bounds.dedup();
    bounds
        .windows(2)
        .map(|w| {
            let at = start + w[0] as u64;
            let slice = &values[w[0]..w[1]];
            match codec {
                0 => EncodedBlock::Plain(PlainBlock::from_values(at, width, slice)),
                1 => EncodedBlock::Rle(RleBlock::from_values(at, slice)),
                2 => EncodedBlock::Dict(DictBlock::from_values(at, slice)),
                _ => EncodedBlock::BitVec(BitVecBlock::from_values(at, slice)),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The strided range gather writes exactly the bytes MERGE would build
    /// from a point gather of each column: every codec, plain at W1–W8, values at each width's domain edges
    /// and `Value::MIN/MAX`, RLE runs that start, end or straddle a range
    /// edge, ranges crossing block boundaries or lying past the blocks,
    /// empty and one-row ranges — at strides 1–4 and every column offset,
    /// leaving the other columns' cells untouched.
    #[test]
    fn strided_range_gather_equals_gather(
        codec in 0usize..4,
        w in 0usize..4,
        runs in prop::collection::vec((0u8..8, -40i64..40, 1usize..24), 1..30),
        cuts in prop::collection::vec(0usize..800, 0..4),
        start in 0u64..200,
        spans in prop::collection::vec((0u64..20, 0u64..30), 0..12),
    ) {
        let width = if codec == 0 { WIDTHS[w] } else { Width::W8 };
        let (min, max) = width_domain(width);
        let values: Vec<Value> = runs
            .iter()
            .flat_map(|&(kind, v, n)| {
                let v = match kind {
                    6 => min,
                    7 => max,
                    _ => v,
                };
                std::iter::repeat_n(v, n)
            })
            .collect();
        let blocks = cut_blocks(codec, width, start, &values, &cuts);
        // Ascending, disjoint ranges — empty ones too — from a little
        // before the first block to past the last.
        let mut at = start.saturating_sub(5);
        let ranges: Vec<PosRange> = spans
            .iter()
            .map(|&(gap, len)| {
                let r = PosRange::new(at + gap, at + gap + len);
                at = r.end;
                r
            })
            .collect();

        // The oracle column: each block's point gather of its positions.
        let mut gathered = Vec::new();
        for b in &blocks {
            let cov = b.covering();
            let points: Vec<u64> = ranges
                .iter()
                .flat_map(|r| {
                    let r = r.intersect(&cov);
                    r.start..r.end
                })
                .collect();
            b.gather(&points, &mut gathered).unwrap();
        }
        let n = gathered.len();
        for stride in 1..=4usize {
            for col in 0..stride {
                // Every other column holds a marker no value can equal.
                let mut cols: Vec<Vec<Value>> =
                    (0..stride).map(|k| vec![0x5EED_0000 + k as Value; n]).collect();
                let mut buf = merge_columns(&cols);
                let mut cells = Slots::column(&mut buf, col, stride);
                for b in &blocks {
                    b.gather_ranges_into(&ranges, &mut cells);
                }
                prop_assert_eq!(cells.len(), 0, "every cell of the column written");
                cols[col] = gathered.clone();
                prop_assert_eq!(&buf, &merge_columns(&cols), "stride {} col {}", stride, col);
            }
        }
    }
}
