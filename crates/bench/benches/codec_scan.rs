//! Micro-benchmarks for the data-source access paths per codec
//! (DS1/DS2/DS3/decode of §3.2).
//!
//! The figure-level results decompose into these costs: RLE's DS1 is
//! per-run, plain's is per-value; bit-vector answers predicates with
//! word ORs but pays full decompression for value access.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use matstrat_common::{PosRange, Predicate, Value};
use matstrat_core::MiniColumn;
use matstrat_poslist::PosList;
use matstrat_storage::{EncodingKind, ProjectionSpec, SortOrder, Store};

const ROWS: usize = 500_000;

/// Load one column of semi-sorted low-cardinality data per encoding.
fn setup() -> Vec<(EncodingKind, Store, matstrat_common::TableId)> {
    // Runs of average length 50 over 7 distinct values.
    let values: Vec<Value> = (0..ROWS).map(|i| ((i / 50) % 7) as Value).collect();
    [
        EncodingKind::Plain,
        EncodingKind::Rle,
        EncodingKind::BitVec,
        EncodingKind::Dict,
    ]
    .into_iter()
    .map(|enc| {
        let store = Store::in_memory();
        let spec = ProjectionSpec::new("c").column("v", enc, SortOrder::None);
        let id = store.load_projection(&spec, &[&values]).unwrap();
        (enc, store, id)
    })
    .collect()
}

fn mini(store: &Store, id: matstrat_common::TableId) -> MiniColumn {
    MiniColumn::fetch(&store.reader(id, 0).unwrap(), PosRange::new(0, ROWS as u64)).unwrap()
}

fn bench_ds1(c: &mut Criterion) {
    let mut g = c.benchmark_group("ds1_scan_positions");
    for (enc, store, id) in setup() {
        let m = mini(&store, id);
        g.bench_with_input(BenchmarkId::from_parameter(enc.name()), &m, |b, m| {
            b.iter(|| black_box(m.scan_positions(&Predicate::lt(4))).count())
        });
    }
    g.finish();
}

fn bench_ds2(c: &mut Criterion) {
    let mut g = c.benchmark_group("ds2_scan_pairs");
    for (enc, store, id) in setup() {
        let m = mini(&store, id);
        g.bench_with_input(BenchmarkId::from_parameter(enc.name()), &m, |b, m| {
            b.iter(|| {
                let mut pos = Vec::new();
                let mut val = Vec::new();
                m.scan_pairs(&Predicate::lt(4), &mut pos, &mut val);
                black_box(pos.len())
            })
        });
    }
    g.finish();
}

fn bench_ds3(c: &mut Criterion) {
    let mut g = c.benchmark_group("ds3_fetch_values");
    // Fetch at 10% of positions, clustered (range-representable).
    let ranges: Vec<PosRange> = (0..(ROWS as u64 / 5000))
        .map(|i| PosRange::new(i * 5000, i * 5000 + 500))
        .collect();
    let pl = PosList::Ranges(matstrat_poslist::RangeList::from_ranges(ranges));
    for (enc, store, id) in setup() {
        let m = mini(&store, id);
        g.bench_with_input(BenchmarkId::from_parameter(enc.name()), &m, |b, m| {
            b.iter(|| {
                let mut out = Vec::new();
                // fetch_values decompresses inside the bit-vector codec.
                m.fetch_values(&pl, &mut out).unwrap();
                black_box(out.len())
            })
        });
    }
    g.finish();
}

fn bench_ds4_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("ds4_value_at");
    let probes: Vec<u64> = (0..ROWS as u64).step_by(97).collect();
    for (enc, store, id) in setup() {
        let m = mini(&store, id);
        g.bench_with_input(BenchmarkId::from_parameter(enc.name()), &m, |b, m| {
            b.iter(|| {
                let mut acc = 0i64;
                for &p in &probes {
                    acc = acc.wrapping_add(m.value_at(p).unwrap());
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("decode_full");
    for (enc, store, id) in setup() {
        let m = mini(&store, id);
        g.bench_with_input(BenchmarkId::from_parameter(enc.name()), &m, |b, m| {
            b.iter(|| {
                let mut out = Vec::with_capacity(ROWS);
                m.decode(&mut out).unwrap();
                black_box(out.len())
            })
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_ds1, bench_ds2, bench_ds3, bench_ds4_probe, bench_decode
}
criterion_main!(benches);
