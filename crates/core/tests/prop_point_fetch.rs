//! Property test of the point path — DS3 at a sorted list of positions —
//! against a per-position `value_at` oracle.
//!
//! Every codec (Plain at each width, RLE, a shared dictionary, and
//! bit-vector through the decompress path) is loaded over enough rows to
//! span several blocks. Each case cuts a window that starts and ends
//! inside a block, draws position sets — empty, single, every block
//! boundary ±1, every position, sparse and dense — and checks that:
//!
//! * an explicit and a bitmap descriptor fetch the oracle's values, into
//!   a plain vector and into the middle column of 3-wide rows (the other
//!   cells untouched);
//! * the slice fetch with positions repeated equals the naive expansion,
//!   and a dictionary column's codes name the same values;
//! * a position outside the window or in a gap between fetched blocks is
//!   an error that leaves the output as it was, never a short result.

use std::sync::OnceLock;

use matstrat_common::{Pos, PosRange, SplitMix64 as Rng, TableId, Value};
use matstrat_core::multicol::FetchKind;
use matstrat_core::MiniColumn;
use matstrat_poslist::{Bitmap, PosList, PosVec};
use matstrat_storage::{EncodedBlock, EncodingKind as Ek, ProjectionSpec, Slots, SortOrder, Store};
use proptest::prelude::*;

/// Rows per column: three W1 Plain blocks, more of every other codec.
const ROWS: u64 = 140_000;

/// The columns, in load order, by name.
const COLUMNS: [&str; 7] = [
    "plain_w1", "plain_w2", "plain_w4", "plain_w8", "rle", "dict", "bitvec",
];
const DICT: usize = 5;
const BITVEC: usize = 6;

fn fixture() -> &'static (Store, TableId) {
    static FIXTURE: OnceLock<(Store, TableId)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let col = |f: &dyn Fn(i64) -> Value| (0..ROWS as i64).map(f).collect::<Vec<Value>>();
        let w8 = |i: i64| match i % 1000 {
            0 => Value::MIN,
            1 => Value::MAX,
            _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64),
        };
        let data = [
            col(&|i| (i * 7) % 200 - 100),
            col(&|i| (i * 31) % 60_000 - 30_000),
            col(&|i| (i * 7919) % 2_000_000_000 - 1_000_000_000),
            col(&w8),
            col(&|i| (i / 3) % 50),
            col(&|i| ((i * 13) % 40) * 5),
            col(&|i| (i * 7) % 50),
        ];
        let spec = ProjectionSpec::new("t")
            .column(COLUMNS[0], Ek::Plain, SortOrder::None)
            .column(COLUMNS[1], Ek::Plain, SortOrder::None)
            .column(COLUMNS[2], Ek::Plain, SortOrder::None)
            .column(COLUMNS[3], Ek::Plain, SortOrder::None)
            .column(COLUMNS[4], Ek::Rle, SortOrder::None)
            .column_shared_dict(COLUMNS[5], SortOrder::None)
            .column(COLUMNS[6], Ek::BitVec, SortOrder::None);
        let store = Store::in_memory();
        let refs: Vec<&[Value]> = data.iter().map(Vec::as_slice).collect();
        let id = store.load_projection(&spec, &refs).unwrap();
        (store, id)
    })
}

/// A window over two to four blocks of `full` that starts and ends
/// inside a block.
fn mid_block_window(full: &MiniColumn, rng: &mut Rng) -> PosRange {
    let blocks = full.blocks();
    let first = rng.range(0, blocks.len() as u64 - 1) as usize;
    let last = (first + 1 + rng.range(0, 3) as usize).min(blocks.len() - 1);
    let (a, b) = (blocks[first].covering(), blocks[last].covering());
    let start = rng.range(a.start, a.start + a.len() / 2 + 1);
    let end = rng.range(b.end - b.len() / 2, b.end + 1).max(start + 1);
    PosRange::new(start, end.min(b.end))
}

/// The position sets one window is checked over, each ascending and
/// without repeats.
fn position_sets(mc: &MiniColumn, rng: &mut Rng) -> Vec<(&'static str, Vec<Pos>)> {
    let w = mc.window();
    let mut edges: Vec<Pos> = vec![w.start, w.end - 1];
    for b in mc.blocks() {
        let s = b.covering().start;
        edges.extend([s.saturating_sub(1), s, s + 1]);
    }
    edges.retain(|&p| w.contains(p));
    edges.sort_unstable();
    edges.dedup();
    let every: Vec<Pos> = (w.start..w.end).collect();
    let sparse_gap = rng.range(50, 400);
    let sparse: Vec<Pos> = every
        .iter()
        .copied()
        .filter(|_| rng.next() % sparse_gap == 0)
        .collect();
    let dense: Vec<Pos> = every
        .iter()
        .copied()
        .filter(|_| rng.next() % 3 != 0)
        .collect();
    vec![
        ("empty", vec![]),
        ("single", vec![rng.range(w.start, w.end)]),
        ("block boundaries", edges),
        ("every", every),
        ("sparse", sparse),
        ("dense", dense),
    ]
}

/// Check every fetch of `positions` on `mc` against the oracle.
fn check_set(mc: &MiniColumn, col: usize, positions: &[Pos], rng: &mut Rng, ctx: &str) {
    let want: Vec<Value> = positions.iter().map(|&p| mc.value_at(p).unwrap()).collect();
    let kind = if col == BITVEC {
        FetchKind::Decompressed
    } else {
        FetchKind::Gathered
    };
    let explicit = PosList::Explicit(PosVec::from_sorted(positions.to_vec()));
    let bitmap = PosList::Bitmap(Bitmap::from_positions(
        mc.window(),
        positions.iter().copied(),
    ));
    for (name, desc) in [("explicit", &explicit), ("bitmap", &bitmap)] {
        let mut out = vec![-7];
        assert_eq!(
            mc.fetch_values(desc, &mut out).unwrap(),
            kind,
            "{ctx} {name}"
        );
        assert_eq!(out[0], -7, "{ctx} {name}: earlier values kept");
        assert_eq!(&out[1..], want, "{ctx} {name}");
        // The middle column of 3-wide rows, every other cell untouched.
        let mut rows = vec![Value::MIN; 3 * positions.len()];
        mc.fetch_values_into(desc, &mut Slots::column(&mut rows, 1, 3))
            .unwrap();
        for (i, row) in rows.chunks_exact(3).enumerate() {
            assert_eq!(
                row,
                [Value::MIN, want[i], Value::MIN],
                "{ctx} {name} row {i}"
            );
        }
    }

    // Repeats: each position one to three times, against the naive
    // expansion of the oracle.
    let (mut repeated, mut expanded) = (Vec::new(), Vec::new());
    for (&p, &v) in positions.iter().zip(&want) {
        let n = rng.range(1, 4) as usize;
        repeated.extend(std::iter::repeat_n(p, n));
        expanded.extend(std::iter::repeat_n(v, n));
    }
    for (name, ps, vals) in [
        ("sorted", positions, &want),
        ("repeated", &repeated[..], &expanded),
    ] {
        let mut out = Vec::new();
        assert_eq!(mc.fetch_sorted(ps, &mut out).unwrap(), kind, "{ctx} {name}");
        assert_eq!(&out, vals, "{ctx} {name}");
        if col == DICT {
            let dict = mc.shared_dict().expect("shared dictionary");
            let mut codes = Vec::new();
            mc.gather_codes(ps, &mut codes).unwrap();
            let via_dict: Vec<Value> = codes.iter().map(|&c| dict[c as usize]).collect();
            assert_eq!(&via_dict, vals, "{ctx} {name} codes");
        }
    }
}

/// Every fetch of `positions` errs and leaves its output as it was.
fn check_refused(mc: &MiniColumn, col: usize, positions: &[Pos], ctx: &str) {
    let mut out = vec![-7];
    let explicit = PosList::Explicit(PosVec::from_sorted(positions.to_vec()));
    assert!(
        mc.fetch_values(&explicit, &mut out).is_err(),
        "{ctx}: explicit"
    );
    assert!(
        mc.fetch_sorted(positions, &mut out).is_err(),
        "{ctx}: slice"
    );
    assert_eq!(out, [-7], "{ctx}: output untouched");
    if col == DICT {
        let mut codes = vec![9];
        assert!(
            mc.gather_codes(positions, &mut codes).is_err(),
            "{ctx}: codes"
        );
        assert_eq!(codes, [9], "{ctx}: codes untouched");
    }
}

fn check_case(seed: u64) {
    let (store, id) = fixture();
    let mut rng = Rng(seed);
    for (col, name) in COLUMNS.iter().enumerate() {
        let reader = store.reader(*id, col).unwrap();
        let full = MiniColumn::fetch(&reader, PosRange::new(0, ROWS)).unwrap();
        assert!(full.blocks().len() >= 3, "{name}: want several blocks");
        let window = mid_block_window(&full, &mut rng);
        let mc = MiniColumn::fetch(&reader, window).unwrap();
        for (set, positions) in position_sets(&mc, &mut rng) {
            let ctx = format!("seed {seed} {name} window {window} {set}");
            check_set(&mc, col, &positions, &mut rng, &ctx);
        }

        // Just outside the window, on either side: the blocks there may
        // hold the position, the window does not.
        let inside = rng.range(window.start, window.end);
        if window.start > 0 {
            let ps = [window.start - 1, inside];
            check_refused(
                &mc,
                col,
                &ps,
                &format!("seed {seed} {name} before {window}"),
            );
        }
        if window.end < ROWS {
            let ps = [inside, window.end];
            check_refused(&mc, col, &ps, &format!("seed {seed} {name} after {window}"));
        }

        // A gap: only the blocks holding the first and last position are
        // fetched, so one in a block between them has no block.
        let blocks = full.blocks();
        let mid = rng.range(1, blocks.len() as u64 - 1) as usize;
        let (lo, hi) = (
            blocks[mid - 1].covering().start,
            blocks[mid + 1].covering().end - 1,
        );
        let gappy = MiniColumn::fetch_selective(
            &reader,
            PosRange::new(0, ROWS),
            &PosList::from_positions(vec![lo, hi]),
        )
        .unwrap();
        assert_eq!(gappy.blocks().len(), 2, "{name}: two blocks fetched");
        let in_gap = rng.range(blocks[mid].covering().start, blocks[mid].covering().end);
        check_set(
            &gappy,
            col,
            &[lo, hi],
            &mut rng,
            &format!("{name} around a gap"),
        );
        check_refused(
            &gappy,
            col,
            &[lo, in_gap, hi],
            &format!("seed {seed} {name} gap"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn point_fetch_matches_value_at(seed in 0u64..u64::MAX) {
        check_case(seed);
    }
}

/// The codecs under test are the ones named: Plain at every width, RLE,
/// a dictionary and bit-vector, each over several blocks.
#[test]
fn fixture_covers_every_codec_and_width() {
    let (store, id) = fixture();
    let mut seen = Vec::new();
    for (col, name) in COLUMNS.iter().enumerate() {
        let reader = store.reader(*id, col).unwrap();
        let full = MiniColumn::fetch(&reader, PosRange::new(0, ROWS)).unwrap();
        seen.push(match full.blocks()[0].as_ref() {
            EncodedBlock::Plain(b) => format!("plain_w{}", b.width().bytes()),
            EncodedBlock::Rle(_) => "rle".into(),
            EncodedBlock::Dict(_) => "dict".into(),
            EncodedBlock::BitVec(_) => "bitvec".into(),
        });
        assert!(full.blocks().len() >= 3, "{name}: several blocks");
    }
    assert_eq!(seen, COLUMNS);
}
