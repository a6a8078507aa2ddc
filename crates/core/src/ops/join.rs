//! Hash-join building blocks with the three inner-table materialization
//! strategies of §4.3.
//!
//! A join probes the **left** (outer) relation against a hash table
//! built on the **right** (inner) relation's key column. Left positions
//! exit the probe in sorted order, so left output columns are fetched
//! with a cheap merge on position. The right side is where strategy
//! matters:
//!
//! * [`InnerStrategy::Materialized`] — right tuples are fully constructed
//!   *before* the join (early materialization): the build phase decodes
//!   every right output column into row-major tuples.
//! * [`InnerStrategy::MultiColumn`] — the right side stays compressed in
//!   mini-columns; when a probe matches, the matched position indexes the
//!   mini-columns and the tuple is constructed on the fly.
//! * [`InnerStrategy::SingleColumn`] — "pure" late materialization: only
//!   the key column enters the join, which emits (left pos, right pos)
//!   pairs. Right positions come out **unsorted**, so fetching right
//!   output values costs an extra sort + gather + scatter — the Figure 13
//!   penalty.
//!
//! This module holds the build side (`SharedBuild`, `InnerRep`) and
//! the fetch helpers; the probe pipeline that drives them is the
//! join-tree executor ([`crate::ops::join_tree`]), which runs a single
//! join as a one-edge tree. The right-side fetch itself runs at MERGE,
//! where [`InnerRep::fetch_into`] writes each right value into its slot
//! of the result.
//!
//! # The build
//!
//! Every build is one flat hash table over the inner table's live keys:
//! one index from key to a dense id and one CSR array of positions, so a
//! build allocates a fixed handful of vectors however many distinct keys
//! the inner table holds. A table whose live keys are all distinct
//! (every primary key) drops the CSR arrays and indexes each key's one
//! position instead. The index is picked from the keys: a slot array
//! addressed by `key − min` when the keys are dense (every primary key
//! and every shared-dictionary code in the paper's schema), a SipHash
//! map otherwise. The build visits positions ascending, so every key's
//! position run is the list a 0..n insertion loop produces. A probe runs
//! a whole span's keys through one loop made for the table's layout
//! (`SharedBuild::fan_out`).
//! The table is built serially. On dense keys (every join key in the
//! paper's schema) one serial table builds and probes faster than radix
//! partitions built on two workers. Sparse, wide keys over more than one
//! granule build faster partitioned, but a reducer-free build is made
//! once and stays resident, and every probe of the one table is faster.
//! The right output representations are built column-parallel the same
//! way the projection loader encodes columns (decodes, bit-vector
//! fallbacks, and the Materialized row-major flatten all split across
//! workers), which changes nothing observable: each column file is
//! still read once, sequentially, by exactly one worker.

use std::collections::HashMap;
use std::sync::Arc;

use matstrat_common::{Error, Pos, PosRange, Predicate, Result, TableId, Value};
use matstrat_storage::{ProjectionInfo, Slots, Store, TableDelta, Tombstones};

use crate::exec::ExecOptions;
use crate::multicol::{outside_window, FetchKind, MiniColumn};
use crate::pipeline::FragmentPipeline;
use crate::InnerStrategy;

/// An equi-join between two projections with optional predicates on
/// either side:
///
/// ```sql
/// SELECT l.<left_output...>, r.<right_output...>
/// FROM left l, right r
/// WHERE l.<left_key> = r.<right_key> [AND l.<filter col> <op> const]
///                                    [AND r.<filter col> <op> const]
/// ```
///
/// The right-side predicate is applied at **build** time as a semi-join
/// reduction: failing inner rows never enter the hash table, so the
/// probe never sees them and pays nothing per probe for the filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSpec {
    /// Outer (probe) projection.
    pub left: TableId,
    /// Inner (build) projection.
    pub right: TableId,
    /// Join key column index in the left projection.
    pub left_key: usize,
    /// Join key column index in the right projection.
    pub right_key: usize,
    /// Optional predicate on a left column.
    pub left_filter: Option<(usize, Predicate)>,
    /// Optional predicate on a right column, pushed into the build.
    pub right_filter: Option<(usize, Predicate)>,
    /// Left columns to output.
    pub left_output: Vec<usize>,
    /// Right columns to output.
    pub right_output: Vec<usize>,
}

/// A hash-table key: the decoded value on the classic path, or the u32
/// dictionary code on the compressed path (§ compressed execution) —
/// same table, narrower key.
pub(crate) trait JoinKey: Copy + Eq + std::hash::Hash {
    /// The key's place on the integer line, which a dense domain's slot
    /// array is addressed by.
    fn ordinal(self) -> i64;
}

impl JoinKey for Value {
    #[inline]
    fn ordinal(self) -> i64 {
        self
    }
}

impl JoinKey for u32 {
    #[inline]
    fn ordinal(self) -> i64 {
        i64::from(self)
    }
}

/// The shared read-only hash table on the right key, without an
/// allocation per key. When its live keys repeat, `index` maps each
/// distinct key to a dense id, and id `i`'s ascending positions are
/// `positions[offsets[i]..offsets[i + 1]]` (CSR): O(rows + distinct
/// keys) `u32`s in three allocations. When
/// every live key is distinct (every primary key), `index` holds each
/// key's one position where its id would be and `runs` is `None`, so a
/// lookup is one load.
pub(crate) struct FlatTable<K: JoinKey> {
    index: KeyIndex<K>,
    runs: Option<Runs>,
}

/// A non-unique table's CSR position runs, by key id.
struct Runs {
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl Runs {
    /// Id `id`'s ascending positions.
    #[inline]
    fn of(&self, id: u32) -> &[u32] {
        let id = id as usize;
        &self.positions[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }
}

/// A dense key domain gets a slot array when its `[min, max]` span is at
/// most this many slots per build row: the array is then O(rows), the
/// bound the CSR `positions` already takes, and no larger than the
/// SipHash map it replaces (about 16 bytes an entry).
const DENSE_SLOTS_PER_ROW: usize = 4;

/// A slot that holds no key.
const NO_KEY: u32 = u32::MAX;

/// A flat table's key → entry index, chosen per build from its keys. An
/// entry is the key's id into the CSR runs, or, in a unique table, the
/// key's one position.
enum KeyIndex<K: JoinKey> {
    /// `slots[key − min]` is the key's entry, [`NO_KEY`] for a key the
    /// build never saw. No hash to compute or flood, and its length is
    /// bounded by the build's own rows.
    Dense { min: i64, slots: Vec<u32> },
    /// Sparse or hostile key sets keep SipHash.
    Sparse(HashMap<K, u32>),
}

impl<K: JoinKey> KeyIndex<K> {
    /// An empty index for the keys `keys` yields: the slot array when
    /// their span is at most [`DENSE_SLOTS_PER_ROW`] per key, else a map
    /// sized for them. The span is taken in `i128`, so keys at
    /// `i64::MIN` and `i64::MAX` cannot wrap into a small one.
    fn for_keys(keys: impl Iterator<Item = K>) -> KeyIndex<K> {
        let (mut lo, mut hi, mut rows) = (i64::MAX, i64::MIN, 0usize);
        for k in keys {
            lo = lo.min(k.ordinal());
            hi = hi.max(k.ordinal());
            rows += 1;
        }
        let span = i128::from(hi) - i128::from(lo) + 1;
        match usize::try_from(span) {
            Ok(span) if rows > 0 && span <= rows.saturating_mul(DENSE_SLOTS_PER_ROW) => {
                KeyIndex::Dense {
                    min: lo,
                    slots: vec![NO_KEY; span],
                }
            }
            _ => KeyIndex::Sparse(HashMap::with_capacity(rows)),
        }
    }

    /// `key`'s slot in a dense index: `None` for a key outside
    /// `[min, max]`. The offset is taken mod 2^64, one subtraction and one
    /// compare: `[min, min + len)` lies inside `i64`, so an offset below
    /// `len` names exactly one key, and a key below `min` or too far
    /// above it wraps past the array.
    #[inline]
    fn slot(min: i64, slots: &[u32], key: K) -> Option<usize> {
        let off = key.ordinal().wrapping_sub(min) as u64;
        (off < slots.len() as u64).then_some(off as usize)
    }

    /// `key`'s id, giving it `next` if it has none yet.
    #[inline]
    fn id_or_insert(&mut self, key: K, next: u32) -> u32 {
        match self {
            KeyIndex::Dense { min, slots } => {
                let off = Self::slot(*min, slots, key).expect("a build key lies in [min, max]");
                let id = &mut slots[off];
                if *id == NO_KEY {
                    *id = next;
                }
                *id
            }
            KeyIndex::Sparse(map) => *map.entry(key).or_insert(next),
        }
    }

    /// `key`'s entry, if the build saw it.
    #[inline]
    fn entry(&self, key: K) -> Option<&u32> {
        match self {
            KeyIndex::Dense { min, slots } => {
                let e = &slots[Self::slot(*min, slots, key)?];
                (*e != NO_KEY).then_some(e)
            }
            KeyIndex::Sparse(map) => map.get(&key),
        }
    }

    /// Replace every entry `e` by `f(e)`.
    fn remap(&mut self, f: impl Fn(u32) -> u32) {
        match self {
            KeyIndex::Dense { slots, .. } => {
                for e in slots.iter_mut().filter(|e| **e != NO_KEY) {
                    *e = f(*e);
                }
            }
            KeyIndex::Sparse(map) => {
                for e in map.values_mut() {
                    *e = f(*e);
                }
            }
        }
    }
}

/// One edge's probe over a span's keys: this edge's matched right
/// positions, one per output row, and the selection vector naming each
/// output row's input row. Input rows stay in order and a key's matches
/// ascend, so repeated rows keep the nested-loop order.
pub(crate) struct FanOut {
    /// The matched right positions.
    pub(crate) right: Vec<u32>,
    /// Each output row's input row, or `None` when every input row hit
    /// exactly once, so output row `i` is input row `i`.
    pub(crate) sel: Option<Vec<usize>>,
}

/// The fan-out over a unique layout, where `entry(key)` is the key's
/// one position or [`NO_KEY`]. One pass looks every key up; unless some
/// key missed, that is the whole fan-out. Otherwise the hits are packed
/// in place: every row writes the next cell and the cursor advances by
/// hit, so a miss costs no branch.
fn fan_out_unique<T: Copy>(keys: &[T], entry: impl Fn(T) -> u32) -> FanOut {
    let mut right: Vec<u32> = keys.iter().map(|&k| entry(k)).collect();
    if !right.contains(&NO_KEY) {
        return FanOut { right, sel: None };
    }
    let mut sel = vec![0; right.len()];
    let mut at = 0;
    for i in 0..right.len() {
        let p = right[i];
        right[at] = p;
        sel[at] = i;
        at += usize::from(p != NO_KEY);
    }
    right.truncate(at);
    sel.truncate(at);
    FanOut {
        right,
        sel: Some(sel),
    }
}

/// The fan-out over any layout, where `get(key)` is the key's ascending
/// positions: one output row per match, each input row repeated once per
/// position, in input order.
fn fan_out_runs<'t, T: Copy>(keys: &[T], get: impl Fn(T) -> Option<&'t [u32]>) -> FanOut {
    let mut right = Vec::with_capacity(keys.len());
    let mut sel = Vec::with_capacity(keys.len());
    let mut every_row_once = true;
    for (i, &k) in keys.iter().enumerate() {
        let rps = get(k).unwrap_or_default();
        every_row_once &= rps.len() == 1;
        sel.extend(std::iter::repeat_n(i, rps.len()));
        right.extend_from_slice(rps);
    }
    FanOut {
        right,
        sel: (!every_row_once).then_some(sel),
    }
}

impl<K: JoinKey> FlatTable<K> {
    /// Build over every position of `keys` not in `deletes` (sorted),
    /// in ascending position order: a pass over the live keys' bounds
    /// picks the index, the next gives each new key the next id and
    /// records every row's id. If no key repeated, each id is its row's
    /// arrival index, and the index takes that row's position in its
    /// place. Otherwise a prefix sum over the id counts places each run,
    /// and the last pass scatters the positions into their runs in
    /// arrival order.
    fn build(keys: &[K], deletes: &[u64]) -> FlatTable<K> {
        let mut dead = Tombstones::new(deletes, 0);
        let rows = keys
            .iter()
            .enumerate()
            .filter(move |&(pos, _)| !dead.is_deleted(pos as u64))
            .map(|(pos, &k)| (pos as u32, k));
        let mut index = KeyIndex::for_keys(rows.clone().map(|(_, k)| k));
        let mut counts: Vec<u32> = Vec::new();
        let mut ids: Vec<u32> = Vec::with_capacity(keys.len());
        for (_, k) in rows.clone() {
            let next = counts.len() as u32;
            let id = index.id_or_insert(k, next);
            if id == next {
                counts.push(0);
            }
            counts[id as usize] += 1;
            ids.push(id);
        }
        if counts.len() == ids.len() {
            let arrivals: Vec<u32> = rows.map(|(pos, _)| pos).collect();
            index.remap(|id| arrivals[id as usize]);
            return FlatTable { index, runs: None };
        }
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        offsets.push(0);
        let mut at = 0u32;
        for c in counts.iter_mut() {
            // `counts` becomes each run's write cursor: its start.
            let start = at;
            at += *c;
            *c = start;
            offsets.push(at);
        }
        let mut positions = vec![0u32; ids.len()];
        for ((pos, _), &id) in rows.zip(&ids) {
            let cursor = &mut counts[id as usize];
            positions[*cursor as usize] = pos;
            *cursor += 1;
        }
        FlatTable {
            index,
            runs: Some(Runs { offsets, positions }),
        }
    }

    /// The ascending positions holding `key`, if any.
    #[inline]
    fn get(&self, key: K) -> Option<&[u32]> {
        let e = self.index.entry(key)?;
        Some(match &self.runs {
            None => std::slice::from_ref(e),
            Some(runs) => runs.of(*e),
        })
    }

    /// Probe every key of `keys` in one pass made for this table's
    /// layout (see [`SharedBuild::fan_out`]).
    fn fan_out(&self, keys: &[K]) -> FanOut {
        match &self.index {
            KeyIndex::Dense { min, slots } => self.fan_out_by(keys, |k| {
                KeyIndex::slot(*min, slots, k).map_or(NO_KEY, |off| slots[off])
            }),
            KeyIndex::Sparse(map) => {
                self.fan_out_by(keys, |k| map.get(&k).copied().unwrap_or(NO_KEY))
            }
        }
    }

    /// [`fan_out`](Self::fan_out) over one index's `entry` lookup.
    #[inline]
    fn fan_out_by(&self, keys: &[K], entry: impl Fn(K) -> u32) -> FanOut {
        match &self.runs {
            None => fan_out_unique(keys, entry),
            Some(runs) => fan_out_runs(keys, |k| match entry(k) {
                NO_KEY => None,
                id => Some(runs.of(id)),
            }),
        }
    }

    /// Whether the build chose the slot array.
    #[cfg(test)]
    fn is_dense(&self) -> bool {
        matches!(self.index, KeyIndex::Dense { .. })
    }

    /// Whether the index holds each key's one position (no CSR runs).
    #[cfg(test)]
    fn is_direct(&self) -> bool {
        self.runs.is_none()
    }
}

/// The build side's one [`FlatTable`], in one of two key domains.
///
/// `Codes` is the compressed-execution path: when every base block of
/// the right key column carries one shared, sorted dictionary *and*
/// every delta-insert key encodes under it, the table hashes the u32
/// dictionary codes instead of decoded values. A probe whose key column
/// shares that exact dictionary then probes with gathered codes and
/// never decodes a key; probes arriving with decoded values translate
/// through the sorted dictionary by binary search (a key absent from
/// the dictionary matches nothing — sound, because the build proved
/// every right key encodes). `Values` is the decoded fallback,
/// byte-identical in output.
pub(crate) enum KeyTable {
    Values(FlatTable<Value>),
    Codes {
        table: FlatTable<u32>,
        /// The shared dictionary, sorted strictly ascending.
        dict: Arc<Vec<Value>>,
        /// The dictionary's FNV fingerprint, compared against probe-side
        /// blocks before any code is trusted.
        fingerprint: u64,
    },
}

/// One span's probe keys for one edge, in whichever domain that edge's
/// build hashes: u32 dictionary codes when the span's key blocks carry
/// the build's shared dictionary, decoded values otherwise.
pub(crate) enum ProbeKeys {
    Values(Vec<Value>),
    Codes(Vec<u32>),
}

/// The strategy-independent half of a join's build side: the one hash
/// table on an (inner table, key column) pair plus the decoded key
/// values it was built from. The table depends only on a snapshot of the
/// inner table and its key column, never on an edge's output columns,
/// inner strategy or worker count, so it is reused at two levels:
/// within a statement,
/// by every edge that probes the same inner table ([`BuildReducer`]s
/// included in the signature); and across statements, when it has no
/// reducer, as resident state on the [`Store`] ([`SharedBuild::resident`])
/// that lives until a write or compaction changes the inner table. The
/// decoded keys double as the zero-I/O key source for snowflake edges
/// that join *through* this table on the same column.
pub(crate) struct SharedBuild {
    /// right key → ascending right positions holding it, keyed on u32
    /// dictionary codes when the key column carries a shared sorted
    /// dictionary (see [`KeyTable`]). Deleted right positions never
    /// enter the table.
    pub(crate) table: KeyTable,
    /// The decoded key column, indexable by **logical** right position:
    /// immutable base rows first, then every delta-insert row in stamp
    /// order (deleted rows included, so indexing stays positional).
    pub(crate) keys: Arc<Vec<Value>>,
    /// Logical right table row count (base + delta inserts).
    pub(crate) rows: u64,
    /// The right projection and its delta at snapshot time: every later
    /// read of the right table ([`InnerRep::build`], snowflake key
    /// decodes) opens its readers on this pair, so build and rep read
    /// one consistent epoch even while a compaction swaps the catalog.
    pub(crate) info: ProjectionInfo,
    /// The right table's delta at the same snapshot.
    pub(crate) delta: Option<Arc<TableDelta>>,
}

/// A build-time reduction on the inner table: rows it rejects never
/// enter the hash table (the decoded `keys` stay full-length, so
/// positional indexing by snowflake edges is unaffected). Both variants
/// are output-invariant for the queries that use them — a filtered row
/// fails its own predicate, and a semi-reduced row would die at the
/// child edge's probe anyway.
pub(crate) enum BuildReducer<'a> {
    /// Exclude rows where column `0` fails predicate `1` (pushed-down
    /// inner-table WHERE).
    Filter(usize, Predicate),
    /// Exclude rows whose value in column `col` has no match in
    /// `child`'s hash table — the bushy-plan reduction that joins a
    /// dimension subtree before the fact side probes it.
    SemiJoin {
        /// Key column of *this* table the child edge joins through.
        col: usize,
        /// The child edge's already-built hash table.
        child: &'a SharedBuild,
    },
}

impl BuildReducer<'_> {
    /// The column this reducer inspects.
    fn col(&self) -> usize {
        match self {
            BuildReducer::Filter(c, _) => *c,
            BuildReducer::SemiJoin { col, .. } => *col,
        }
    }

    /// Whether the row holding `v` in the inspected column survives.
    fn keeps(&self, v: Value) -> bool {
        match self {
            BuildReducer::Filter(_, pred) => pred.matches(v),
            BuildReducer::SemiJoin { child, .. } => child.probe(v).is_some(),
        }
    }
}

/// One table as a statement reads it: the catalog entry and delta of
/// one [`Store::scan_snapshot`].
pub(crate) type Snapshot = (ProjectionInfo, Option<Arc<TableDelta>>);

/// Workers the right output representations over `rows` inner rows are
/// built with: the probe's skew guard applied to the *right* table, so a
/// one-granule inner table builds serially no matter the knob. The
/// planner prices the representations' CPU with exactly this count; the
/// hash table itself is always built serially.
fn build_workers(rows: u64, opts: &ExecOptions) -> usize {
    FragmentPipeline::effective_workers(rows, opts.granule, opts.parallelism.max(1))
}

impl SharedBuild {
    /// Edge `right.right_key`'s reducer-free build, and whether it was
    /// resident: the store's entry when it was made from the snapshot
    /// this call takes, otherwise built here from that snapshot and left
    /// resident for the next statement. A resident build reads none of
    /// the inner key's blocks.
    pub(crate) fn resident(
        store: &Store,
        right: TableId,
        right_key: usize,
    ) -> Result<(Arc<SharedBuild>, bool)> {
        let (info, delta) = store.scan_snapshot(right)?;
        let key = (right, right_key);
        let hit = store
            .cached_build(key, &info, delta.as_ref())
            .and_then(|b| b.downcast::<SharedBuild>().ok());
        if let Some(build) = hit {
            return Ok((build, true));
        }
        let build = Arc::new(SharedBuild::build(store, (info, delta), right_key, &[])?);
        store.cache_build(
            key,
            &build.info,
            build.delta.as_ref(),
            Arc::clone(&build) as _,
        );
        Ok((build, false))
    }

    /// Scan + decode the key column and build its one hash table over
    /// the live keys. Reads every logical position of the right table's
    /// `snapshot` — the file's blocks, then the tail blocks of its
    /// inserted rows; deleted positions, plus every position a
    /// [`BuildReducer`] rejects, are skipped by the hash-table build.
    pub(crate) fn build(
        store: &Store,
        snapshot: Snapshot,
        right_key: usize,
        reducers: &[BuildReducer<'_>],
    ) -> Result<SharedBuild> {
        let (info, delta) = snapshot;
        let base_rows = info.num_rows;
        let rkey_reader = store.reader_for(&info, delta.as_ref(), right_key)?;
        let rows = rkey_reader.num_rows();
        let base_mini = MiniColumn::fetch(&rkey_reader, PosRange::new(0, base_rows))?;
        let mut keys = Vec::with_capacity(rows as usize);
        base_mini.decode(&mut keys)?;
        MiniColumn::fetch(&rkey_reader, PosRange::new(base_rows, rows))?.decode(&mut keys)?;
        // Shared-dictionary codes, harvested from the base blocks when
        // they all agree on one sorted dictionary. The decoded keys are
        // kept regardless: snowflake edges index them by position
        // ([`KeyFetch::Prev`]) whichever domain the table hashes.
        let mut code_build: Option<(u64, Vec<Value>, Vec<u32>)> = None;
        if let (Some(fp), Some(dict)) =
            (base_mini.shared_dict_fingerprint(), base_mini.shared_dict())
        {
            // Binary-search translation below needs sorted codes; the
            // shared-dict loader guarantees this, a per-block
            // first-appearance dictionary that happens to span one block
            // does not.
            if dict.windows(2).all(|w| w[0] < w[1]) {
                let mut codes = Vec::with_capacity(rows as usize);
                base_mini.decode_codes(&mut codes)?;
                // Tail keys are raw values; translate each through the
                // dictionary. One untranslatable key sinks the code
                // path — the value table is always correct.
                let tail: Option<Vec<u32>> = keys[base_rows as usize..]
                    .iter()
                    .map(|key| dict.binary_search(key).ok().map(|c| c as u32))
                    .collect();
                code_build = tail.map(|tail| {
                    codes.extend(tail);
                    (fp, dict.to_vec(), codes)
                });
            }
        }
        // Positions the hash table must never hold: the snapshot's
        // deletes plus every row a reducer rejects. Reducers read the
        // same snapshot the keys came from (the key decode is reused
        // when a reducer inspects the key column), so the exclusion
        // list is consistent with `keys` by construction.
        let mut excluded: Vec<u64> = delta.as_ref().map_or(Vec::new(), |d| d.deletes().to_vec());
        if !reducers.is_empty() {
            let mut col_vals: HashMap<usize, Vec<Value>> = HashMap::new();
            for r in reducers {
                let col = r.col();
                if col != right_key && !col_vals.contains_key(&col) {
                    col_vals.insert(col, decode_snapshot(store, &info, delta.as_ref(), col)?);
                }
            }
            for r in reducers {
                let vals: &[Value] = if r.col() == right_key {
                    &keys
                } else {
                    &col_vals[&r.col()]
                };
                for (pos, &v) in vals.iter().enumerate() {
                    if !r.keeps(v) {
                        excluded.push(pos as u64);
                    }
                }
            }
            excluded.sort_unstable();
            excluded.dedup();
        }
        let table = match code_build {
            Some((fingerprint, dict, codes)) => {
                let table = FlatTable::build(&codes, &excluded);
                matstrat_common::codeops::add(codes.len() as u64);
                KeyTable::Codes {
                    table,
                    dict: Arc::new(dict),
                    fingerprint,
                }
            }
            None => KeyTable::Values(FlatTable::build(&keys, &excluded)),
        };
        Ok(SharedBuild {
            table,
            keys: Arc::new(keys),
            rows,
            info,
            delta,
        })
    }

    /// Probe with a decoded key value, whichever domain the table hashes.
    /// On the code-keyed table an absent dictionary entry matches
    /// nothing: the build proved every right key encodes, so a value
    /// outside the dictionary cannot equal any right key.
    #[inline]
    pub(crate) fn probe(&self, key: Value) -> Option<&[u32]> {
        match &self.table {
            KeyTable::Values(t) => t.get(key),
            KeyTable::Codes { table, dict, .. } => match dict.binary_search(&key) {
                Ok(c) => table.get(c as u32),
                Err(_) => None,
            },
        }
    }

    /// Probe a span's keys in one pass, dispatched once on the table's
    /// domain and layout (see [`FanOut`]). Codes are valid only when the
    /// probe side verified its blocks share the build dictionary (see
    /// [`SharedBuild::code_dict`]); values probe a code table through the
    /// dictionary, as [`probe`](Self::probe) does.
    pub(crate) fn fan_out(&self, keys: &ProbeKeys) -> FanOut {
        match (&self.table, keys) {
            (KeyTable::Values(table), ProbeKeys::Values(v)) => table.fan_out(v),
            (KeyTable::Codes { table, .. }, ProbeKeys::Codes(c)) => table.fan_out(c),
            (KeyTable::Codes { .. }, ProbeKeys::Values(v)) => fan_out_runs(v, |k| self.probe(k)),
            (KeyTable::Values(_), ProbeKeys::Codes(_)) => {
                unreachable!("code probe on a value-keyed table")
            }
        }
    }

    /// The code table's (fingerprint, dictionary), when the build took
    /// the code-keyed path. Probe sides compare both — fingerprint for
    /// the cheap reject, the dictionary itself to rule out a
    /// fingerprint collision — before gathering codes.
    #[inline]
    pub(crate) fn code_dict(&self) -> Option<(u64, &[Value])> {
        match &self.table {
            KeyTable::Codes {
                dict, fingerprint, ..
            } => Some((*fingerprint, dict.as_slice())),
            KeyTable::Values(_) => None,
        }
    }
}

/// The per-edge, strategy-dependent right-side representation: the
/// compressed mini-columns of the output columns, plus the Materialized
/// row-major flatten when the strategy calls for it. MERGE (or an
/// aggregate's fold) reads it once per output column and row slice
/// through [`fetch_into`](Self::fetch_into), which writes each value
/// straight into its slot of the result — the positional join of §4.3,
/// run as Figure 13 and `join_phases` price each strategy:
///
/// * Materialized indexes its row-major tuples;
/// * MultiColumn keeps probe order: one counting pass buckets the
///   positions by block, and each bucket is one point gather through its
///   block's codec;
/// * SingleColumn sorts (right position, row) with a radix sort, gathers
///   once through the mini-column's sorted-position walker, and scatters
///   the values back to row order — the sort + gather + scatter penalty.
///
/// Materialized and MultiColumn read bit-vector columns through the
/// codec's own gather, which decodes the rows a block's positions span;
/// SingleColumn indexes a decode made once, at build time.
pub struct InnerRep {
    /// Right output columns as compressed mini-columns over one window
    /// — in a join, every logical right position: the file's blocks, then
    /// the tail blocks of the snapshot's inserted rows (all strategies
    /// fetch these blocks at build time).
    minis: Vec<MiniColumn>,
    /// Row-major right tuples over the window (Materialized only).
    materialized: Option<Vec<Value>>,
    /// Per right output column: every value of the window, decoded once,
    /// where SingleColumn reads a bit-vector column.
    decoded: Vec<Option<Vec<Value>>>,
    /// The strategy the representation was built for.
    inner: InnerStrategy,
}

impl InnerRep {
    /// Fetch the right output columns from the build's snapshot, then
    /// [`new`](Self::new) the representation on the workers the
    /// statement's `opts` give the inner table (see `build_workers`).
    pub(crate) fn build(
        store: &Store,
        shared: &SharedBuild,
        right_output: &[usize],
        inner: InnerStrategy,
        opts: &ExecOptions,
    ) -> Result<InnerRep> {
        let window = PosRange::new(0, shared.rows);
        let build_workers = build_workers(shared.rows, opts);
        let minis: Vec<MiniColumn> =
            matstrat_common::par_map_indexed(right_output.len(), build_workers, |c| {
                let reader =
                    store.reader_for(&shared.info, shared.delta.as_ref(), right_output[c])?;
                MiniColumn::fetch(&reader, window)
            })?;
        InnerRep::new(minis, inner, build_workers)
    }

    /// The representation of `minis` — mini-columns over one window — for
    /// `inner`, made column-parallel on up to `workers` threads.
    /// Materialized decodes and flattens every row up front. SingleColumn
    /// decodes a bit-vector column whole, once: indexing that decode
    /// costs less than sorting the positions, gathering them through the
    /// codec — which decodes the rows they span, again for every slice
    /// MERGE fetches — and scattering the values back. A decode that misses
    /// some of the window (a gap between blocks) is not kept.
    pub fn new(minis: Vec<MiniColumn>, inner: InnerStrategy, workers: usize) -> Result<InnerRep> {
        let materialized = match inner {
            InnerStrategy::Materialized => {
                let rows = minis.first().map_or(0, |m| m.window().len() as usize);
                let cols: Vec<Vec<Value>> =
                    matstrat_common::par_map_indexed(minis.len(), workers, |c| -> Result<_> {
                        let mut v = Vec::with_capacity(rows);
                        minis[c].decode(&mut v)?;
                        Ok(v)
                    })?;
                // Tuples are indexed by position: every column must hold
                // every row of the one window.
                if cols
                    .iter()
                    .zip(&minis)
                    .any(|(c, m)| c.len() != rows || m.window() != minis[0].window())
                {
                    return Err(Error::invalid(
                        "materialized inner columns must cover one window whole",
                    ));
                }
                Some(flatten_row_major(&cols, rows, workers))
            }
            _ => None,
        };
        let decoded = match inner {
            InnerStrategy::SingleColumn => {
                matstrat_common::par_map_indexed(minis.len(), workers, |c| -> Result<_> {
                    let mini = &minis[c];
                    if mini.fetch_kind() == FetchKind::Gathered {
                        return Ok(None);
                    }
                    let rows = mini.window().len() as usize;
                    let mut v = Vec::with_capacity(rows);
                    mini.decode(&mut v)?;
                    Ok((v.len() == rows).then_some(v))
                })?
            }
            _ => vec![None; minis.len()],
        };
        Ok(InnerRep {
            minis,
            materialized,
            decoded,
            inner,
        })
    }

    /// Output width (number of right output columns).
    pub fn width(&self) -> usize {
        self.minis.len()
    }

    /// Write output column `col`'s values at `right_pos` — right
    /// positions in probe order, repeats allowed — to the next
    /// `right_pos.len()` cells of `out`, by the representation's strategy
    /// (see [`InnerRep`]). Errs, writing no cell, on a position outside
    /// the window or in a gap between its blocks.
    pub fn fetch_into(&self, col: usize, right_pos: &[u32], out: &mut Slots<'_>) -> Result<()> {
        let mini = self
            .minis
            .get(col)
            .ok_or_else(|| Error::invalid(format!("no inner output column {col}")))?;
        let window = mini.window();
        match (self.inner, &self.decoded[col]) {
            (InnerStrategy::Materialized, _) => {
                let flat = self.materialized.as_deref().unwrap_or_default();
                index_window(flat, self.width(), col, window, right_pos, out)?;
            }
            (InnerStrategy::MultiColumn, _) => gather_by_block(mini, right_pos, out)?,
            (InnerStrategy::SingleColumn, Some(decoded)) => {
                index_window(decoded, 1, 0, window, right_pos, out)?;
            }
            (InnerStrategy::SingleColumn, None) => {
                let (positions, rows) = sort_by_position(right_pos);
                let mut values = vec![0 as Value; positions.len()];
                mini.gather_sorted_into(&positions, &mut Slots::column(&mut values, 0, 1))?;
                out.scatter(&rows, &values);
                out.skip(rows.len());
            }
        }
        Ok(())
    }
}

/// Write `values[(p − window.start) · stride + offset]` for each `p` of
/// `right_pos` to the next cells of `out`: the fetch out of a
/// position-major decode of `window`. Errs, writing no cell, on a
/// position outside `window`.
fn index_window(
    values: &[Value],
    stride: usize,
    offset: usize,
    window: PosRange,
    right_pos: &[u32],
    out: &mut Slots<'_>,
) -> Result<()> {
    if let Some(&p) = right_pos.iter().find(|&&p| !window.contains(p as Pos)) {
        return Err(outside_window(p as Pos, window));
    }
    let at = |p: u32| (p as Pos - window.start) as usize * stride + offset;
    out.put(right_pos.iter().map(|&p| values[at(p)]));
    Ok(())
}

/// MultiColumn's fetch, in probe order: one counting pass finds each
/// position's block, a second places the positions bucket by bucket
/// (probe order within each), and each bucket is one point gather
/// through its block's codec, scattered to its rows. A one-block column
/// gathers straight into `out`.
fn gather_by_block(mini: &MiniColumn, right_pos: &[u32], out: &mut Slots<'_>) -> Result<()> {
    let (window, blocks) = (mini.window(), mini.blocks());
    if let Some(&p) = right_pos.iter().find(|&&p| !window.contains(p as Pos)) {
        return Err(outside_window(p as Pos, window));
    }
    let positions = right_pos.iter().map(|&p| p as Pos);
    if let [block] = blocks {
        let positions: Vec<Pos> = positions.collect();
        return block.gather_unsorted_into(&positions, out);
    }
    let ends: Vec<Pos> = blocks.iter().map(|b| b.covering().end).collect();
    let mut block_of: Vec<u32> = Vec::with_capacity(right_pos.len());
    let mut next = vec![0usize; blocks.len() + 1];
    for p in positions.clone() {
        let b = ends.partition_point(|&e| e <= p);
        if b == blocks.len() {
            return Err(Error::invalid(format!(
                "position {p} falls past the mini-column's last block"
            )));
        }
        next[b + 1] += 1;
        block_of.push(b as u32);
    }
    for b in 0..blocks.len() {
        next[b + 1] += next[b];
    }
    let bounds = next.clone();
    let mut bucketed = vec![0 as Pos; right_pos.len()];
    let mut rows = vec![0u32; right_pos.len()];
    for ((row, p), &b) in (0u32..).zip(positions).zip(&block_of) {
        let at = &mut next[b as usize];
        (bucketed[*at], rows[*at]) = (p, row);
        *at += 1;
    }
    let mut values = vec![0 as Value; right_pos.len()];
    for (b, block) in blocks.iter().enumerate() {
        let bucket = bounds[b]..bounds[b + 1];
        let cells = &mut Slots::column(&mut values[bucket.clone()], 0, 1);
        block.gather_unsorted_into(&bucketed[bucket], cells)?;
    }
    out.scatter(&rows, &values);
    out.skip(rows.len());
    Ok(())
}

/// `right_pos` in ascending order, each with its row (its index in
/// `right_pos`): a stable LSD radix sort over the positions' significant
/// bits, in digits of about `log2(rows)` bits (8 to 16), so an inner
/// table of up to 2^16 rows — or as many rows as probes — sorts in one
/// counting pass. The last pass writes the positions as [`Pos`] for the
/// gather. Repeats stay in row order.
fn sort_by_position(right_pos: &[u32]) -> (Vec<Pos>, Vec<u32>) {
    let n = right_pos.len();
    let bits = u32::BITS - right_pos.iter().max().map_or(0, |m| m.leading_zeros());
    let width = bits
        .min((usize::BITS - n.leading_zeros()).clamp(8, 16))
        .max(1);
    let passes = bits.div_ceil(width).max(1);
    let mut counts = vec![0u32; 1 << width];
    let mut between: Option<(Vec<u32>, Vec<u32>)> = None;
    for k in 0..passes - 1 {
        let (mut ps, mut rs) = (vec![0u32; n], vec![0u32; n]);
        let (src, src_rows) = between.as_ref().map_or((right_pos, None), |(p, r)| {
            (p.as_slice(), Some(r.as_slice()))
        });
        radix_pass(&mut counts, k * width, src, src_rows, |at, p, r| {
            (ps[at], rs[at]) = (p, r)
        });
        between = Some((ps, rs));
    }
    let (mut positions, mut rows) = (vec![0 as Pos; n], vec![0u32; n]);
    let (src, src_rows) = between.as_ref().map_or((right_pos, None), |(p, r)| {
        (p.as_slice(), Some(r.as_slice()))
    });
    radix_pass(
        &mut counts,
        (passes - 1) * width,
        src,
        src_rows,
        |at, p, r| (positions[at], rows[at]) = (Pos::from(p), r),
    );
    (positions, rows)
}

/// One counting pass of [`sort_by_position`] over (position, row) pairs —
/// the rows implicit (`0..`) when `rows` is `None` — on the digit of
/// `counts.len()` values at `shift`, handing each pair to `put` with its
/// place in the pass's order.
#[inline]
fn radix_pass(
    counts: &mut [u32],
    shift: u32,
    ps: &[u32],
    rows: Option<&[u32]>,
    mut put: impl FnMut(usize, u32, u32),
) {
    let mask = counts.len() - 1;
    let digit = |p: u32| (p >> shift) as usize & mask;
    counts.fill(0);
    for &p in ps {
        counts[digit(p)] += 1;
    }
    let mut at = 0;
    for c in counts.iter_mut() {
        (*c, at) = (at, at + *c);
    }
    for (i, &p) in ps.iter().enumerate() {
        let slot = &mut counts[digit(p)];
        put(*slot as usize, p, rows.map_or(i as u32, |r| r[i]));
        *slot += 1;
    }
}

/// Every value of column `col` of a `(projection, delta)` snapshot,
/// indexable by logical position: the file's blocks, then the tail
/// blocks of the inserted rows (deleted rows included).
pub(crate) fn decode_snapshot(
    store: &Store,
    info: &ProjectionInfo,
    delta: Option<&Arc<TableDelta>>,
    col: usize,
) -> Result<Vec<Value>> {
    let reader = store.reader_for(info, delta, col)?;
    let mut vals = Vec::with_capacity(reader.num_rows() as usize);
    MiniColumn::fetch(&reader, PosRange::new(0, reader.num_rows()))?.decode(&mut vals)?;
    Ok(vals)
}

/// Fetch one span-local column at a **sorted, possibly duplicated**
/// position list. The shape every merge-on-position fetch in the join
/// paths uses (left output values, join-tree base keys): positions exit
/// the probe sorted, duplicates come from non-unique right keys. The
/// point walker gathers straight off the slice, repeats included, so
/// nothing is copied or deduplicated.
pub(crate) fn fetch_expanded(mini: &MiniColumn, positions: &[Pos]) -> Result<Vec<Value>> {
    let mut vals = Vec::with_capacity(positions.len());
    mini.fetch_sorted(positions, &mut vals)?;
    Ok(vals)
}

/// [`fetch_expanded`] in the code domain: gather u32 dictionary codes —
/// never decoded values — at a sorted, possibly duplicated position
/// list. Only valid on a mini-column whose blocks all share one
/// dictionary (the caller verified it against the build's).
pub(crate) fn fetch_codes_expanded(mini: &MiniColumn, positions: &[Pos]) -> Result<Vec<u32>> {
    let mut codes = Vec::with_capacity(positions.len());
    mini.gather_codes(positions, &mut codes)?;
    Ok(codes)
}

/// Flatten decoded columns into row-major tuples — the Materialized
/// strategy's up-front tuple construction — splitting the row range
/// across up to `workers` [`fan_out`](matstrat_common::fan_out) workers.
/// Each worker writes a disjoint slice of the output, so the result is
/// identical to the serial double loop at any worker count.
fn flatten_row_major(cols: &[Vec<Value>], rows: usize, workers: usize) -> Vec<Value> {
    let width = cols.len();
    if rows == 0 || width == 0 {
        return Vec::new();
    }
    let mut flat = vec![0 as Value; rows * width];
    let workers = workers.min(rows).max(1);
    let chunk_rows = rows.div_ceil(workers);
    matstrat_common::fan_out(
        flat.chunks_mut(chunk_rows * width).enumerate(),
        |(chunk_idx, chunk)| {
            let base = chunk_idx * chunk_rows;
            for (r, row) in chunk.chunks_exact_mut(width).enumerate() {
                for (c, col) in cols.iter().enumerate() {
                    row[c] = col[base + r];
                }
            }
        },
    );
    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecOptions;
    use crate::ops::join_tree::{hash_join_tree_with_options, JoinTreePlan};
    use crate::query::{JoinTreeSpec, QueryResult};
    use matstrat_storage::{EncodingKind as Ek, ProjectionSpec, SortOrder, Store};

    /// Run `spec` as a one-edge tree under `inner` — the only way a
    /// single join executes.
    fn join(
        store: &Store,
        spec: &JoinSpec,
        inner: InnerStrategy,
        opts: &ExecOptions,
    ) -> QueryResult {
        hash_join_tree_with_options(
            store,
            &JoinTreeSpec::new(vec![spec.clone()]),
            &JoinTreePlan::in_spec_order(vec![inner]),
            opts,
        )
        .unwrap()
        .0
    }

    /// [`join`] with default options.
    fn join_default(store: &Store, spec: &JoinSpec, inner: InnerStrategy) -> QueryResult {
        join(store, spec, inner, &ExecOptions::default())
    }

    /// left: 60 orders (custkey = i % 20, shipdate = i); right: 20
    /// customers (custkey = 0..20 PK, nation = custkey * 10).
    fn setup() -> (Store, JoinSpec) {
        let store = Store::in_memory();
        let n = 60i64;
        let custkey: Vec<Value> = (0..n).map(|i| i % 20).collect();
        let shipdate: Vec<Value> = (0..n).collect();
        // Orders sorted by nothing in particular — declare no sort key.
        let orders = ProjectionSpec::new("orders")
            .column("custkey", Ek::Plain, SortOrder::None)
            .column("shipdate", Ek::Plain, SortOrder::None);
        let left = store
            .load_projection(&orders, &[&custkey, &shipdate])
            .unwrap();

        let ckey: Vec<Value> = (0..20).collect();
        let nation: Vec<Value> = (0..20).map(|i| i * 10).collect();
        let customer = ProjectionSpec::new("customer")
            .column("custkey", Ek::Plain, SortOrder::Primary)
            .column("nation", Ek::Plain, SortOrder::None);
        let right = store.load_projection(&customer, &[&ckey, &nation]).unwrap();

        let spec = JoinSpec {
            left,
            right,
            left_key: 0,
            right_key: 0,
            left_filter: Some((0, Predicate::lt(10))),
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        };
        (store, spec)
    }

    fn reference_rows() -> Vec<Vec<Value>> {
        // custkey = i % 20 < 10 → join nation = (i % 20) * 10.
        let mut rows: Vec<Vec<Value>> = (0..60i64)
            .filter(|i| i % 20 < 10)
            .map(|i| vec![i, (i % 20) * 10])
            .collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn all_three_strategies_agree_with_reference() {
        let (store, spec) = setup();
        for inner in InnerStrategy::ALL {
            let res = join_default(&store, &spec, inner);
            assert_eq!(res.column_names, vec!["shipdate", "nation"]);
            assert_eq!(res.sorted_rows(), reference_rows(), "{inner:?}");
        }
    }

    #[test]
    fn join_without_filter_is_full_fk_join() {
        let (store, mut spec) = setup();
        spec.left_filter = None;
        for inner in InnerStrategy::ALL {
            let res = join_default(&store, &spec, inner);
            assert_eq!(res.num_rows(), 60, "{inner:?}");
        }
    }

    #[test]
    fn parallel_probe_is_byte_identical() {
        let (store, spec) = setup();
        for inner in InnerStrategy::ALL {
            let serial = join(
                &store,
                &spec,
                inner,
                &ExecOptions {
                    granule: 8,
                    parallelism: 1,
                    ..ExecOptions::default()
                },
            );
            for workers in [2, 3, 8] {
                let par = join(
                    &store,
                    &spec,
                    inner,
                    &ExecOptions {
                        granule: 8,
                        parallelism: workers,
                        ..ExecOptions::default()
                    },
                );
                assert_eq!(par.flat(), serial.flat(), "{inner:?} workers={workers}");
                assert_eq!(par.column_names, serial.column_names);
            }
        }
    }

    #[test]
    fn join_with_unmatched_left_keys() {
        // Left keys 0..40, right only 0..20: half the left rows drop out.
        let store = Store::in_memory();
        let lk: Vec<Value> = (0..40).collect();
        let lv: Vec<Value> = (0..40).map(|i| i + 100).collect();
        let left = store
            .load_projection(
                &ProjectionSpec::new("l")
                    .column("k", Ek::Plain, SortOrder::Primary)
                    .column("v", Ek::Plain, SortOrder::None),
                &[&lk, &lv],
            )
            .unwrap();
        let rk: Vec<Value> = (0..20).collect();
        let rv: Vec<Value> = (0..20).map(|i| i * 2).collect();
        let right = store
            .load_projection(
                &ProjectionSpec::new("r")
                    .column("k", Ek::Plain, SortOrder::Primary)
                    .column("v", Ek::Plain, SortOrder::None),
                &[&rk, &rv],
            )
            .unwrap();
        let spec = JoinSpec {
            left,
            right,
            left_key: 0,
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![0, 1],
            right_output: vec![1],
        };
        for inner in InnerStrategy::ALL {
            let res = join_default(&store, &spec, inner);
            assert_eq!(res.num_rows(), 20, "{inner:?}");
            let rows = res.sorted_rows();
            assert_eq!(rows[5], vec![5, 105, 10], "{inner:?}");
        }
    }

    #[test]
    fn join_with_duplicate_right_keys() {
        // Right has duplicate keys: each left match fans out.
        let store = Store::in_memory();
        let lk: Vec<Value> = vec![1, 2, 3];
        let left = store
            .load_projection(
                &ProjectionSpec::new("l").column("k", Ek::Plain, SortOrder::Primary),
                &[&lk],
            )
            .unwrap();
        let rk: Vec<Value> = vec![1, 1, 2];
        let rv: Vec<Value> = vec![10, 11, 20];
        let right = store
            .load_projection(
                &ProjectionSpec::new("r")
                    .column("k", Ek::Plain, SortOrder::Primary)
                    .column("v", Ek::Plain, SortOrder::None),
                &[&rk, &rv],
            )
            .unwrap();
        let spec = JoinSpec {
            left,
            right,
            left_key: 0,
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![0],
            right_output: vec![1],
        };
        for inner in InnerStrategy::ALL {
            let res = join_default(&store, &spec, inner);
            let rows = res.sorted_rows();
            assert_eq!(
                rows,
                vec![vec![1, 10], vec![1, 11], vec![2, 20]],
                "{inner:?}"
            );
        }
    }

    #[test]
    fn sort_by_position_is_a_stable_sort_in_one_pass_or_several() {
        let mut x = 7u64;
        let mut next = move |bound: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % bound) as u32
        };
        // Empty, all zero, one pass (≤ 16 bits), two and three passes
        // (up to 32 bits, few rows), and repeats throughout.
        for (n, bound) in [
            (0, 1),
            (50, 1),
            (5000, 15_000),
            (200_000, 15_000),
            (3000, 1 << 20),
            (40, u32::MAX as u64 + 1),
        ] {
            let right: Vec<u32> = (0..n).map(|_| next(bound)).collect();
            let mut want: Vec<(u32, u32)> = right.iter().copied().zip(0..).collect();
            want.sort_by_key(|&(p, _)| p);
            let (positions, rows) = sort_by_position(&right);
            let got: Vec<(u32, u32)> = positions.iter().map(|&p| p as u32).zip(rows).collect();
            assert_eq!(got, want, "{n} rows below {bound}");
        }
    }

    #[test]
    fn strategy_names_match_figure13() {
        assert_eq!(
            InnerStrategy::Materialized.name(),
            "Right Table Materialized"
        );
        assert_eq!(
            InnerStrategy::MultiColumn.name(),
            "Right Table Multi-Column"
        );
        assert_eq!(
            InnerStrategy::SingleColumn.name(),
            "Right Table Single Column"
        );
    }

    /// Both key columns over the identical ten-value domain, loaded with
    /// shared dictionaries — identical sorted dictionaries, identical
    /// fingerprints, so build and probe both run in the code domain.
    fn shared_dict_setup(store: &Store) -> (TableId, TableId) {
        let n = 3000i64;
        let lk: Vec<Value> = (0..n).map(|i| ((i * 7) % 10) * 10).collect();
        let lv: Vec<Value> = (0..n).collect();
        let left = store
            .load_projection(
                &ProjectionSpec::new("l_dict")
                    .column_shared_dict("k", SortOrder::None)
                    .column("v", Ek::Plain, SortOrder::None),
                &[&lk, &lv],
            )
            .unwrap();
        let rk: Vec<Value> = (0..10).map(|i| i * 10).collect();
        let rv: Vec<Value> = (0..10).map(|i| i + 500).collect();
        let right = store
            .load_projection(
                &ProjectionSpec::new("r_dict")
                    .column_shared_dict("k", SortOrder::Primary)
                    .column("v", Ek::Plain, SortOrder::None),
                &[&rk, &rv],
            )
            .unwrap();
        (left, right)
    }

    /// The fan-out's fetch: positions repeated by non-unique right keys
    /// come back once per repeat, as the naive expansion of a fetch at
    /// the distinct positions; values and codes alike, across blocks.
    #[test]
    fn fetch_expanded_with_and_without_repeats_matches_naive_expansion() {
        let store = Store::in_memory();
        let n = 150_000u64;
        let k: Vec<Value> = (0..n as i64).map(|i| ((i * 31) % 10) * 5).collect();
        let spec = ProjectionSpec::new("t").column_shared_dict("k", SortOrder::None);
        let id = store.load_projection(&spec, &[&k]).unwrap();
        let mini = MiniColumn::fetch(&store.reader(id, 0).unwrap(), PosRange::new(0, n)).unwrap();
        assert!(mini.blocks().len() > 1, "want a multi-block window");
        let dict = mini.shared_dict().unwrap().to_vec();
        let edge = mini.blocks()[1].covering().start;
        let distinct: Vec<Pos> = vec![0, 1, edge - 1, edge, edge + 1, n - 1];
        let repeats = [1usize, 3, 2, 1, 4, 2];
        let repeated: Vec<Pos> = distinct
            .iter()
            .zip(repeats)
            .flat_map(|(&p, r)| std::iter::repeat_n(p, r))
            .collect();
        for positions in [&distinct, &repeated] {
            let naive: Vec<Value> = positions.iter().map(|&p| k[p as usize]).collect();
            assert_eq!(fetch_expanded(&mini, positions).unwrap(), naive);
            let codes = fetch_codes_expanded(&mini, positions).unwrap();
            let via_dict: Vec<Value> = codes.iter().map(|&c| dict[c as usize]).collect();
            assert_eq!(via_dict, naive);
        }
        // A position past the mini-column's window is refused, never
        // dropped from the result.
        let window = PosRange::new(edge - 10, edge + 10);
        let narrow = MiniColumn::fetch(&store.reader(id, 0).unwrap(), window).unwrap();
        for positions in [[edge - 11, edge], [edge, edge + 10]] {
            assert!(fetch_expanded(&narrow, &positions).is_err());
            assert!(fetch_codes_expanded(&narrow, &positions).is_err());
        }
    }

    #[test]
    fn code_keyed_join_matches_value_path_and_charges_code_ops() {
        let store = Store::in_memory();
        let (left, right) = shared_dict_setup(&store);
        let spec = JoinSpec {
            left,
            right,
            left_key: 0,
            right_key: 0,
            left_filter: Some((1, Predicate::lt(2000))),
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        };
        // Oracle: the row set from first principles.
        let expected: Vec<Vec<Value>> = (0..2000i64).map(|i| vec![i, (i * 7) % 10 + 500]).collect();
        let serial = ExecOptions {
            granule: 256,
            parallelism: 1,
            ..ExecOptions::default()
        };
        for inner in InnerStrategy::ALL {
            let (res, stats) = hash_join_tree_with_options(
                &store,
                &JoinTreeSpec::new(vec![spec.clone()]),
                &JoinTreePlan::in_spec_order(vec![inner]),
                &serial,
            )
            .unwrap();
            let mut rows = res.sorted_rows();
            rows.sort_unstable();
            assert_eq!(rows, expected, "{inner:?}");
            // Build charged 10 right rows, the probe one op per
            // surviving left row.
            let ops = stats.code_path_ops;
            assert!(ops >= 2000, "{inner:?}: code path must run, got {ops} ops");
        }
        // Parallel runs stay byte-identical to serial.
        let serial_flat = join(&store, &spec, InnerStrategy::MultiColumn, &serial)
            .flat()
            .to_vec();
        for workers in [2, 4, 8] {
            let par = join(
                &store,
                &spec,
                InnerStrategy::MultiColumn,
                &ExecOptions {
                    granule: 256,
                    parallelism: workers,
                    ..ExecOptions::default()
                },
            );
            assert_eq!(par.flat(), serial_flat, "workers={workers}");
        }
    }

    #[test]
    fn delta_key_outside_dict_falls_back_to_value_build() {
        let store = Store::in_memory();
        let (left, right) = shared_dict_setup(&store);
        // 999 encodes under neither dictionary: the right build must
        // fall back to decoded keys, and both inserted rows still join.
        store.insert_rows(right, &[vec![999, 777]]).unwrap();
        store.insert_rows(left, &[vec![999, 5000]]).unwrap();
        let spec = JoinSpec {
            left,
            right,
            left_key: 0,
            right_key: 0,
            left_filter: Some((1, Predicate::ge(5000))),
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        };
        for inner in InnerStrategy::ALL {
            let res = join_default(&store, &spec, inner);
            assert_eq!(res.sorted_rows(), vec![vec![5000, 777]], "{inner:?}");
        }
    }

    #[test]
    fn left_delta_probe_translates_values_through_the_code_table() {
        let store = Store::in_memory();
        let (left, right) = shared_dict_setup(&store);
        // Left-side inserts probe the code-keyed table with raw values:
        // 30 translates and matches, 31 is absent from the (verified
        // complete) dictionary and must match nothing.
        store
            .insert_rows(left, &[vec![30, 6000], vec![31, 6001]])
            .unwrap();
        let spec = JoinSpec {
            left,
            right,
            left_key: 0,
            right_key: 0,
            left_filter: Some((1, Predicate::ge(6000))),
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        };
        for inner in InnerStrategy::ALL {
            let res = join_default(&store, &spec, inner);
            assert_eq!(res.sorted_rows(), vec![vec![6000, 503]], "{inner:?}");
        }
    }

    /// The serial insertion loop the flat table replaced, kept as the
    /// oracle: every live position pushed onto its key's list in
    /// ascending order.
    fn push_loop<K: JoinKey>(keys: &[K], deletes: &[u64]) -> HashMap<K, Vec<u32>> {
        let mut table: HashMap<K, Vec<u32>> = HashMap::new();
        let mut dead = Tombstones::new(deletes, 0);
        for (pos, &k) in keys.iter().enumerate() {
            if !dead.is_deleted(pos as u64) {
                table.entry(k).or_default().push(pos as u32);
            }
        }
        table
    }

    /// Build one table over `keys`, check that it chose the index its
    /// live keys call for, and compare every probe against the push loop.
    fn assert_matches_push_loop<K: JoinKey + std::fmt::Debug>(
        keys: &[K],
        deletes: &[u64],
        probes: &[K],
    ) {
        let oracle = push_loop(keys, deletes);
        let table = FlatTable::build(keys, deletes);
        // (min, max, rows, distinct keys) over the live keys, in i128 so
        // the span of i64::MIN..=i64::MAX cannot wrap.
        let (mut lo, mut hi, mut rows, mut distinct) = (i128::MAX, i128::MIN, 0i128, 0i128);
        for (&key, list) in &oracle {
            let k = i128::from(key.ordinal());
            (lo, hi) = (lo.min(k), hi.max(k));
            rows += list.len() as i128;
            distinct += 1;
        }
        // A span of hi − lo + 1 slots, at most the cutoff.
        let dense = rows > 0 && hi - lo < rows * DENSE_SLOTS_PER_ROW as i128;
        let shape = format!("keys {lo}..={hi}, {distinct} over {rows} rows");
        assert_eq!(table.is_dense(), dense, "{shape}");
        assert_eq!(table.is_direct(), rows == distinct, "{shape}");
        let probed: Vec<K> = keys.iter().chain(probes).copied().collect();
        for &k in &probed {
            assert_eq!(
                table.get(k),
                oracle.get(&k).map(Vec::as_slice),
                "key {k:?}, {shape}"
            );
        }
        // The one-pass fan-out: every probe's matches, in probe order,
        // over the probes and over the live keys alone (where a unique
        // table hits every row once).
        let live: Vec<K> = oracle.keys().copied().collect();
        for probed in [&probed, &live] {
            let want: Vec<(usize, u32)> = probed
                .iter()
                .enumerate()
                .flat_map(|(i, k)| oracle.get(k).into_iter().flatten().map(move |&rp| (i, rp)))
                .collect();
            let FanOut { right, sel } = table.fan_out(probed);
            let every_row_once =
                want.iter().enumerate().all(|(j, &(i, _))| i == j) && want.len() == probed.len();
            assert_eq!(sel.is_none(), every_row_once, "{shape}");
            let sel = sel.unwrap_or_else(|| (0..right.len()).collect());
            let got: Vec<(usize, u32)> = sel.into_iter().zip(right).collect();
            assert_eq!(got, want, "{shape}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The flat table answers exactly what the per-key `Vec` map
        /// answered, over `Value` keys and over u32 dictionary codes:
        /// dense, repeated, sparse-and-wide, all-equal, extreme and empty
        /// key sets, dense runs pinned to either end of `i64`, spans at
        /// the slot array's cutoff and one past it, negative keys with
        /// holes and random tombstones — both indexes, on both sides of
        /// the density line — and unique
        /// key sets, which hold positions in place of ids: dense with
        /// holes, spread from `i64::MIN` to `i64::MAX`, sparse, and a
        /// repeated key whose twin is deleted.
        #[test]
        fn flat_table_answers_as_the_push_loop(
            shape in 0u8..15,
            n in 1usize..400,
            draws in proptest::collection::vec(0u64..u64::MAX, 400..401),
            dead in proptest::collection::vec(0u8..100, 400..401),
            dead_pct in 0u8..101,
        ) {
            let n = if shape == 5 { 0 } else { n };
            let extremes = [Value::MIN, Value::MAX, Value::MIN + 1, Value::MAX - 1, 0, -1];
            // Shapes 8 and 9 span exactly the cutoff's 4n slots and one
            // more, from a base well inside i64; they keep every row, so
            // the build sits right on the density line.
            let base = draws[1] as Value / 2;
            let cutoff = (DENSE_SLOTS_PER_ROW * n) as Value;
            let keys: Vec<Value> = (0..n)
                .map(|i| match shape {
                    0 => i as Value,
                    1 => (draws[i] % n as u64) as Value,
                    2 => draws[(draws[i] % 24) as usize] as Value,
                    3 => draws[0] as Value,
                    4 => extremes[(draws[i] % 6) as usize],
                    6 => Value::MIN + i as Value,
                    7 => Value::MAX - i as Value,
                    8 | 9 if i == 0 => base,
                    8 if i == n - 1 => base + cutoff - 1,
                    9 if i == n - 1 => base + cutoff,
                    8 | 9 => base + (draws[i] % cutoff as u64) as Value,
                    11 => 3 * i as Value,
                    12 if i % 2 == 0 => Value::MIN + i as Value,
                    12 => Value::MAX - i as Value,
                    // Only the last row repeats a key, and it is deleted.
                    13 if i > 0 && i == n - 1 => 0,
                    13 => i as Value,
                    // Distinct low bits under random high ones.
                    14 => ((draws[i] << 9) | i as u64) as Value,
                    _ => -1 - (draws[i] % (2 * n as u64)) as Value,
                })
                .collect();
            let deletes: Vec<u64> = (0..n as u64)
                .filter(|&p| match shape {
                    8 | 9 => false,
                    13 => p + 1 == n as u64,
                    _ => dead[p as usize] < dead_pct,
                })
                .collect();
            let mut probes: Vec<Value> = extremes.to_vec();
            probes.extend(draws[..8].iter().map(|&d| d as Value));
            probes.extend(keys.iter().map(|k| k.wrapping_add(1)));
            // Just outside [min, max], wrapping past either end of i64.
            probes.extend(keys.iter().min().map(|k| k.wrapping_sub(1)));
            probes.extend(keys.iter().max().map(|k| k.wrapping_add(1)));
            assert_matches_push_loop(&keys, &deletes, &probes);

            // The code domain: each key's rank in the sorted dictionary,
            // probed also past the dictionary's end.
            let mut dict = keys.clone();
            dict.sort_unstable();
            dict.dedup();
            let codes: Vec<u32> = keys
                .iter()
                .map(|k| dict.binary_search(k).unwrap() as u32)
                .collect();
            let absent = [dict.len() as u32, dict.len() as u32 + 1, u32::MAX];
            assert_matches_push_loop(&codes, &deletes, &absent);
        }
    }
}
