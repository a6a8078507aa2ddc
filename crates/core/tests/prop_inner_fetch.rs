//! Property test of a join's right-side fetch — `InnerRep::fetch_into`,
//! the positional join MERGE runs for every inner strategy — against a
//! per-row `value_at` oracle.
//!
//! Every codec (Plain at each width, RLE, a shared dictionary and
//! bit-vector) is loaded over enough rows to span several blocks, the
//! last one a short tail block. Each case cuts a window that starts and
//! ends inside a block, and one over the last two blocks whole; builds
//! the representation of each inner strategy over the codec's column
//! beside another one; draws right positions in probe order — empty,
//! single, every block boundary ±1, the tail block, sparse and dense —
//! each shuffled and repeated; and checks that:
//!
//! * each strategy writes the oracle's values into the middle column of
//!   3-wide rows, every other cell untouched, and into a plain vector;
//! * a position outside the window, or in a gap between fetched blocks,
//!   is a typed error that writes no cell — never a panic, though Plain's
//!   kernel indexes its bytes by offset. Materialized refuses a gapped
//!   column when it is built, since its tuples are indexed by position.

use std::sync::OnceLock;

use matstrat_common::{Error, PosRange, SplitMix64 as Rng, TableId, Value};
use matstrat_core::ops::join::InnerRep;
use matstrat_core::{InnerStrategy, MiniColumn};
use matstrat_poslist::PosList;
use matstrat_storage::{EncodingKind as Ek, ProjectionSpec, Slots, SortOrder, Store};
use proptest::prelude::*;

/// Rows per column: three W1 Plain blocks and a tail, more of every
/// other codec.
const ROWS: u64 = 140_000;

/// The columns, in load order, by name.
const COLUMNS: [&str; 7] = [
    "plain_w1", "plain_w2", "plain_w4", "plain_w8", "rle", "dict", "bitvec",
];

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
        let spec = COLUMNS[..4]
            .iter()
            .fold(ProjectionSpec::new("t"), |s, c| {
                s.column(*c, Ek::Plain, SortOrder::None)
            })
            .column(COLUMNS[4], Ek::Rle, SortOrder::None)
            .column_shared_dict(COLUMNS[5], SortOrder::None)
            .column(COLUMNS[6], Ek::BitVec, SortOrder::None);
        let store = Store::in_memory();
        let refs: Vec<&[Value]> = data.iter().map(Vec::as_slice).collect();
        let id = store.load_projection(&spec, &refs).unwrap();
        (store, id)
    })
}

/// `v` shuffled, each element one to three times.
trait ShuffledWithRepeats {
    fn shuffled_with_repeats(&mut self, v: &[u32]) -> Vec<u32>;
}

impl ShuffledWithRepeats for Rng {
    fn shuffled_with_repeats(&mut self, v: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = v
            .iter()
            .flat_map(|&p| std::iter::repeat_n(p, self.range(1, 4) as usize))
            .collect();
        for i in (1..out.len()).rev() {
            out.swap(i, self.range(0, i as u64 + 1) as usize);
        }
        out
    }
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

/// The right-position sets one window is checked over, in probe order:
/// shuffled, with repeats.
fn position_sets(mc: &MiniColumn, rng: &mut Rng) -> Vec<(&'static str, Vec<u32>)> {
    let w = mc.window();
    let mut edges: Vec<u32> = vec![w.start as u32, w.end as u32 - 1];
    for b in mc.blocks() {
        let s = b.covering().start;
        edges.extend([s.saturating_sub(1), s, s + 1].map(|p| p as u32));
    }
    edges.retain(|&p| w.contains(p as u64));
    let last = mc.blocks().last().unwrap().covering().intersect(&w);
    let tail: Vec<u32> = (last.start..last.end)
        .filter(|_| rng.next() % 7 == 0)
        .map(|p| p as u32)
        .collect();
    let sparse_gap = rng.range(50, 400);
    let sparse: Vec<u32> = (w.start..w.end)
        .filter(|_| rng.next() % sparse_gap == 0)
        .map(|p| p as u32)
        .collect();
    // Dense: two rows in three, over at most 16 000 rows around a block
    // start inside the window.
    let starts: Vec<u64> = mc.blocks().iter().map(|b| b.covering().start).collect();
    let mid = starts[rng.range(0, starts.len() as u64) as usize].max(w.start);
    let dense: Vec<u32> = (mid.saturating_sub(8000).max(w.start)..(mid + 8000).min(w.end))
        .filter(|_| rng.next() % 3 != 0)
        .map(|p| p as u32)
        .collect();
    let single = vec![rng.range(w.start, w.end) as u32];
    vec![
        ("empty", vec![]),
        ("single", rng.shuffled_with_repeats(&single)),
        ("block boundaries", rng.shuffled_with_repeats(&edges)),
        ("tail block", rng.shuffled_with_repeats(&tail)),
        ("sparse", rng.shuffled_with_repeats(&sparse)),
        ("dense", rng.shuffled_with_repeats(&dense)),
    ]
}

/// Each strategy's representation of `[other, mc]`, both over one window.
fn reps(other: &MiniColumn, mc: &MiniColumn) -> Vec<(InnerStrategy, InnerRep)> {
    InnerStrategy::ALL
        .iter()
        .map(|&s| {
            (
                s,
                InnerRep::new(vec![other.clone(), mc.clone()], s, 2).unwrap(),
            )
        })
        .collect()
}

/// Every strategy's fetch of column 1 (`mc`) at `right` equals the oracle.
fn check_set(reps: &[(InnerStrategy, InnerRep)], mc: &MiniColumn, right: &[u32], ctx: &str) {
    let want: Vec<Value> = right
        .iter()
        .map(|&p| mc.value_at(p as u64).unwrap())
        .collect();
    for (strategy, rep) in reps {
        let mut rows = vec![Value::MIN; 3 * right.len()];
        let mut out = Slots::column(&mut rows, 1, 3);
        rep.fetch_into(1, right, &mut out).unwrap();
        assert!(out.is_empty(), "{ctx} {strategy:?}: every row written");
        for (i, row) in rows.chunks_exact(3).enumerate() {
            assert_eq!(
                row,
                [Value::MIN, want[i], Value::MIN],
                "{ctx} {strategy:?} row {i}"
            );
        }
        let mut flat = vec![0; right.len()];
        rep.fetch_into(1, right, &mut Slots::column(&mut flat, 0, 1))
            .unwrap();
        assert_eq!(flat, want, "{ctx} {strategy:?} stride 1");
    }
}

/// Every strategy's fetch at `right` is a typed error and writes no cell.
fn check_refused(reps: &[(InnerStrategy, InnerRep)], right: &[u32], ctx: &str) {
    for (strategy, rep) in reps {
        let mut cells = vec![-7 as Value; 2 * right.len()];
        let err = rep
            .fetch_into(1, right, &mut Slots::column(&mut cells, 0, 2))
            .unwrap_err();
        assert!(
            matches!(err, Error::InvalidArgument(_)),
            "{ctx} {strategy:?}: {err}"
        );
        assert!(
            cells.iter().all(|&v| v == -7),
            "{ctx} {strategy:?}: cells untouched"
        );
    }
}

fn check_case(seed: u64) {
    let (store, id) = fixture();
    let mut rng = Rng(seed);
    let other = store.reader(*id, 3).unwrap();
    for (col, name) in COLUMNS.iter().enumerate() {
        let reader = store.reader(*id, col).unwrap();
        let full = MiniColumn::fetch(&reader, PosRange::new(0, ROWS)).unwrap();
        assert!(full.blocks().len() >= 3, "{name}: want several blocks");
        let tail = full.blocks().last().unwrap().num_rows();
        assert!(
            tail < full.blocks()[0].num_rows(),
            "{name}: want a short tail block"
        );
        // The last two blocks, the short tail among them, whole.
        let tail_window = PosRange::new(full.blocks()[full.blocks().len() - 2].start_pos(), ROWS);
        for window in [mid_block_window(&full, &mut rng), tail_window] {
            let mc = MiniColumn::fetch(&reader, window).unwrap();
            let reps = reps(&MiniColumn::fetch(&other, window).unwrap(), &mc);
            for (set, right) in position_sets(&mc, &mut rng) {
                let ctx = format!("seed {seed} {name} window {window} {set}");
                check_set(&reps, &mc, &right, &ctx);
            }
            // Just outside the window, on either side, after a position
            // inside it: the blocks there may hold the position, the
            // window does not.
            let inside = rng.range(window.start, window.end) as u32;
            let mut outside = vec![window.end as u32];
            outside.extend((window.start > 0).then(|| window.start as u32 - 1));
            for p in outside {
                let ctx = format!("seed {seed} {name} {p} outside {window}");
                check_refused(&reps, &[inside, p, inside], &ctx);
            }
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
        let both = vec![MiniColumn::fetch(&other, gappy.window()).unwrap(), gappy];
        let unmaterialized: Vec<(InnerStrategy, InnerRep)> =
            [InnerStrategy::MultiColumn, InnerStrategy::SingleColumn]
                .into_iter()
                .map(|s| (s, InnerRep::new(both.clone(), s, 1).unwrap()))
                .collect();
        let ends = [hi as u32, lo as u32, hi as u32];
        check_set(
            &unmaterialized,
            &both[1],
            &ends,
            &format!("{name} around a gap"),
        );
        let ctx = format!("seed {seed} {name} gap");
        check_refused(
            &unmaterialized,
            &[hi as u32, in_gap as u32, lo as u32],
            &ctx,
        );
        assert!(
            InnerRep::new(both, InnerStrategy::Materialized, 1).is_err(),
            "{ctx}: a gapped column has no position-indexed tuples"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn inner_fetch_matches_value_at(seed in 0u64..u64::MAX) {
        check_case(seed);
    }
}
