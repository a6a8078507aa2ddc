//! The storage facade: disk + buffer pool + I/O meter + catalog.
//!
//! A [`Store`] owns everything below the query executor. Loading a
//! projection writes one file per column; reading goes through
//! [`ColumnReader`], which pulls blocks through the buffer pool and
//! charges the I/O meter on misses.
//!
//! # The write path
//!
//! Bulk loads aside, a table changes through [`Store::insert_rows`] and
//! [`Store::delete_positions`]. Both log to the table's write-ahead log
//! first (`wal_t{N}.log`, one group commit per call — see the
//! `matstrat-wal` crate), then apply to the in-memory
//! [`DeltaStore`]. Scans read the delta as more
//! blocks: a [`ColumnReader`] opened on the `(ProjectionInfo, delta
//! snapshot)` pair returned by [`Store::scan_snapshot`] serves the
//! inserted rows as in-memory tail blocks after the file's.
//!
//! [`Store::compact`] folds a table's delta back into fresh immutable
//! column files, in logical row order (so results are byte-identical
//! across a compaction), and swaps the catalog entry atomically with
//! respect to `scan_snapshot`. Crash safety comes from ordering: new
//! files are written and synced first, then the catalog with a bumped
//! `wal_epoch` is written and synced, then the WAL is truncated, and only then
//! is the old generation of files retired — a crash anywhere in between
//! replays old-epoch records as stale no-ops and finds every file its
//! catalog names. Writers serialize with each other and with compaction
//! on a single write mutex; readers never take it.
//!
//! # Resident join builds
//!
//! A join's reducer-free build — the hash table on one inner table's
//! key column — depends only on a snapshot of that table, so it is
//! resident state like a pooled block: the store keeps it between
//! statements ([`Store::cached_build`], [`Store::cache_build`]), keyed
//! by (table, key column) — one entry serves statements at any worker
//! count — and tagged with the snapshot it was made from, the catalog
//! entry's `wal_epoch` and the delta `Arc`. The delta is compared by pointer while the entry holds it, so
//! the first write after that clones it ([`Arc::make_mut`]) and no
//! later delta can share its address. Every event that outdates an
//! entry passes through the store and drops the table's entries under
//! the cache lock after it changes the table: [`Store::insert_rows`],
//! [`Store::delete_positions`], [`Store::compact`] (before it retires
//! the old files, so an entry never keeps a retired generation on disk)
//! and [`Store::cold_reset`] (which empties the cache). A build is
//! cached only if, under that same lock, its snapshot is still the
//! table's current one, so none made before a write survives it. The
//! store holds at most one entry per key: its memory is bounded by the
//! join keys the workload uses, not by how many statements run.
//!
//! # Pinning and reclaim
//!
//! Every [`ProjectionInfo`] the store hands out — from
//! [`Store::scan_snapshot`], [`Store::projection`] or by name — carries
//! a pin on the generation of column files it names
//! ([`crate::generation`]), and so does every [`ColumnReader`] opened
//! from one. A retired generation's files are removed from the disk,
//! and its blocks from the pool, when the last pin drops: at the end of
//! `compact` if nobody was reading, otherwise on the thread of the last
//! reader to finish. A compaction therefore leaves nothing behind, and
//! a reader that started before it keeps reading the bytes it started
//! on. What a crash strands — a new generation whose catalog never
//! became durable, an old one whose removal never ran — is swept by
//! [`Store::open_disk`]: column files the recovered catalog does not
//! name are removed; logs and the catalog are never touched.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use matstrat_common::{Error, Pos, Result, TableId, Value, Width};
use parking_lot::{Mutex, RwLock};

use crate::block::{EncodedBlock, PlainBlock};
use crate::catalog::{
    verify_sort_order, Catalog, ColumnInfo, ColumnSpec, ProjectionInfo, ProjectionSpec, SortOrder,
};
use crate::delta::{DeltaStore, TableDelta, Tombstones};
use crate::disk::{Disk, FileDisk, MemDisk};
use crate::encoding::EncodingKind;
use crate::file::{BlockIndexEntry, ColumnFileReader, ColumnFileWriter};
use crate::generation::Generation;
use crate::meter::IoMeter;
use crate::pool::BufferPool;
use matstrat_wal::{Wal, WalRecord, WalStorage, MAX_VALUES};

/// Default buffer pool capacity: 16 Ki blocks ≈ 1 GB.
pub const DEFAULT_POOL_BLOCKS: usize = 16 * 1024;

const CATALOG_FILE: &str = "catalog.msc";
/// Where the next catalog is written before it is renamed over the last.
const CATALOG_TMP: &str = "catalog.msc.tmp";

/// The WAL file of table `t` — one log per table, so compacting one
/// table truncates only its own log.
fn wal_file(t: TableId) -> String {
    format!("wal_t{}.log", t.0)
}

/// Sorted ascending distinct values of a column — the shared dictionary
/// a `shared_dict` column encodes every block against.
fn sorted_distinct(data: &[Value]) -> Vec<Value> {
    let mut d = data.to_vec();
    d.sort_unstable();
    d.dedup();
    d
}

/// Adapts the store's [`Disk`] to the wal crate's [`WalStorage`]: the
/// log is just another named file, created on first append.
struct DiskWal {
    disk: Arc<dyn Disk>,
    name: String,
}

impl WalStorage for DiskWal {
    fn len(&self) -> Result<u64> {
        if self.disk.exists(&self.name) {
            self.disk.len(&self.name)
        } else {
            Ok(0)
        }
    }

    fn append(&self, bytes: &[u8]) -> Result<()> {
        if !self.disk.exists(&self.name) {
            self.disk.create(&self.name)?;
        }
        let at = self.disk.len(&self.name)?;
        self.disk.write_at(&self.name, at, bytes)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let bytes = self.disk.read_at(&self.name, offset, buf.len())?;
        buf.copy_from_slice(&bytes);
        Ok(())
    }

    fn reset(&self) -> Result<()> {
        self.disk.create(&self.name)
    }

    fn sync(&self) -> Result<()> {
        self.disk.sync(&self.name)
    }
}

/// What WAL replay found for one table when the store opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The table whose log was replayed.
    pub table: TableId,
    /// Live records applied to the rebuilt delta.
    pub applied: u64,
    /// Whole records that passed CRC + sequence checks (live + stale).
    pub recovered: u64,
    /// `true` when replay stopped at a torn or corrupt tail.
    pub torn: bool,
}

struct StoreInner {
    disk: Arc<dyn Disk>,
    /// Shared with every [`Generation`], which drops its blocks from
    /// the pool when it is reclaimed.
    pool: Arc<BufferPool>,
    meter: IoMeter,
    catalog: RwLock<Catalog>,
    persistent: bool,
    /// Mutable side of every table; see [`crate::delta`].
    delta: DeltaStore,
    /// Open per-table logs, created lazily on first write.
    wals: Mutex<HashMap<TableId, Wal>>,
    /// Serializes writers and compaction. Readers never take it: they
    /// get consistency from [`Store::scan_snapshot`]'s retry loop.
    write_lock: Mutex<()>,
    /// What replay found when this store opened (empty for fresh disks).
    recovery: Mutex<Vec<RecoveryReport>>,
    /// Resident join builds; see the module docs.
    builds: Mutex<HashMap<ResidentKey, ResidentBuild>>,
}

/// Which build a resident entry is: (inner table, key column). A build
/// answers probes alike whatever worker count made it, so a table
/// joined at several is resident once.
pub type ResidentKey = (TableId, usize);

/// A join build the store keeps between statements, with the snapshot
/// of its table it was made from.
struct ResidentBuild {
    epoch: u32,
    /// Held, so that no later delta of the table can reuse its address.
    delta: Option<Arc<TableDelta>>,
    build: Arc<dyn Any + Send + Sync>,
}

impl ResidentBuild {
    /// Whether the entry was made from the snapshot `(epoch, delta)`.
    fn made_from(&self, epoch: u32, delta: Option<&Arc<TableDelta>>) -> bool {
        self.epoch == epoch
            && match (&self.delta, delta) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

/// Cheap-to-clone handle to the storage engine.
#[derive(Clone)]
pub struct Store {
    inner: Arc<StoreInner>,
}

impl Store {
    /// A store backed by an in-memory disk image.
    pub fn in_memory() -> Store {
        Store::with_disk(Arc::new(MemDisk::new()), DEFAULT_POOL_BLOCKS, false)
    }

    /// A store backed by an in-memory disk with a custom pool capacity
    /// (in blocks) — the knob for cold/warm-cache experiments.
    pub fn in_memory_with_pool(pool_blocks: usize) -> Store {
        Store::with_disk(Arc::new(MemDisk::new()), pool_blocks, false)
    }

    /// A store backed by real files under `dir`; reloads the catalog if
    /// one was persisted there and replays any write-ahead logs.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Store> {
        let disk: Arc<dyn Disk> = Arc::new(FileDisk::open(dir)?);
        Store::open_disk(disk, DEFAULT_POOL_BLOCKS)
    }

    /// Open (rather than create) a store over an existing [`Disk`]:
    /// reload the persisted catalog, remove the column files it does
    /// not name (`sweep_orphans`), then replay every table's
    /// write-ahead log into a rebuilt delta. This is `open_dir` without
    /// the directory — crash-recovery tests hand the same `Arc<MemDisk>`
    /// to a second store to simulate a restart.
    pub fn open_disk(disk: Arc<dyn Disk>, pool_blocks: usize) -> Result<Store> {
        let store = Store::with_disk(disk, pool_blocks, true);
        if store.reload_catalog()? {
            store.sweep_orphans()?;
        }
        store.recover_wals()?;
        Ok(store)
    }

    /// A store over any [`Disk`] implementation.
    pub fn with_disk(disk: Arc<dyn Disk>, pool_blocks: usize, persistent: bool) -> Store {
        Store::with_pool(disk, BufferPool::new(pool_blocks), persistent)
    }

    /// A store over `disk` that caches blocks in `pool`, whose striping
    /// ([`BufferPool::with_shards`]) stays fixed for the store's life.
    pub fn with_pool(disk: Arc<dyn Disk>, pool: BufferPool, persistent: bool) -> Store {
        Store {
            inner: Arc::new(StoreInner {
                disk,
                pool: Arc::new(pool),
                meter: IoMeter::new(),
                catalog: RwLock::new(Catalog::new()),
                persistent,
                delta: DeltaStore::new(),
                wals: Mutex::new(HashMap::new()),
                write_lock: Mutex::new(()),
                recovery: Mutex::new(Vec::new()),
                builds: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// A pin-able handle on the column files of `columns`.
    fn generation_of(&self, columns: &[ColumnInfo]) -> Arc<Generation> {
        Generation::new(
            Arc::clone(&self.inner.disk),
            Arc::clone(&self.inner.pool),
            columns.iter().map(|c| c.file.clone()).collect(),
        )
    }

    /// Load the persisted catalog, if the disk holds one (`false` when
    /// it does not).
    fn reload_catalog(&self) -> Result<bool> {
        if !self.inner.disk.exists(CATALOG_FILE) {
            return Ok(false);
        }
        let len = self.inner.disk.len(CATALOG_FILE)?;
        let bytes = self.inner.disk.read_at(CATALOG_FILE, 0, len as usize)?;
        let mut cat = Catalog::parse(&bytes)?;
        for i in 0..cat.projections().len() {
            let p = &cat.projections()[i];
            let (id, generation) = (p.id, self.generation_of(&p.columns));
            cat.pin(id, generation)?;
        }
        *self.inner.catalog.write() = cat;
        Ok(true)
    }

    /// Remove every column file the catalog does not name. A crash
    /// between writing a new generation and making its catalog durable,
    /// or between that and removing the old generation, leaves such
    /// files, and nothing else would ever delete them; a crash before a
    /// catalog's swap leaves its temporary file. Only `*.col` names and
    /// that file are candidates — logs and the catalog are never touched —
    /// and only a disk that has a catalog is swept: without one there is
    /// no telling data from debris. (Where [`Disk::remove`] can only
    /// truncate, the empty stub is "removed" again on each open; recovery
    /// reads nothing the catalog does not name, so it never sees one.)
    fn sweep_orphans(&self) -> Result<()> {
        let cat = self.inner.catalog.read();
        let named: HashSet<&str> = cat
            .projections()
            .iter()
            .flat_map(|p| p.columns.iter().map(|c| c.file.as_str()))
            .collect();
        for file in self.inner.disk.list() {
            if file == CATALOG_TMP || file.ends_with(".col") && !named.contains(file.as_str()) {
                self.inner.disk.remove(&file)?;
            }
        }
        Ok(())
    }

    /// Make the catalog as it is now durable: the one place it is
    /// written. It is written and synced under a temporary name, then
    /// renamed over the last one, so a crash leaves the old catalog or
    /// the new one, never a torn one. Every column file it names was
    /// synced when [`Self::write_column`] wrote it, so a durable catalog
    /// never names bytes that are not.
    fn persist_catalog(&self) -> Result<()> {
        if self.inner.persistent {
            let (disk, bytes) = (&self.inner.disk, self.inner.catalog.read().serialize());
            disk.create(CATALOG_TMP)?;
            disk.write_at(CATALOG_TMP, 0, &bytes)?;
            disk.sync(CATALOG_TMP)?;
            disk.rename(CATALOG_TMP, CATALOG_FILE)?;
        }
        Ok(())
    }

    /// Write `data` as column file `file` under `spec` — the packed width
    /// from the observed min/max, a shared dictionary of the sorted
    /// distinct values when `spec` asks for one — and, on a persistent
    /// store, sync it before any catalog can name it.
    fn write_column(&self, file: String, spec: &ColumnSpec, data: &[Value]) -> Result<ColumnInfo> {
        let (min, max) = data.iter().fold((Value::MAX, Value::MIN), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
        let width = if data.is_empty() {
            Width::W8
        } else {
            Width::fitting(min, max)
        };
        if spec.shared_dict && spec.encoding != EncodingKind::Dict {
            return Err(Error::invalid(format!(
                "column {}: shared_dict requires dict encoding",
                spec.name
            )));
        }
        let disk = self.inner.disk.as_ref();
        let mut w = if spec.shared_dict {
            ColumnFileWriter::create_shared_dict(disk, &file, sorted_distinct(data))?
        } else {
            ColumnFileWriter::create(disk, &file, spec.encoding, width)?
        };
        w.push_all(data)?;
        let stats = w.finish()?;
        if self.inner.persistent {
            disk.sync(&file)?;
        }
        Ok(ColumnInfo {
            id: matstrat_common::ColumnId(0), // assigned by the catalog
            name: spec.name.clone(),
            encoding: spec.encoding,
            width,
            sort: spec.sort,
            stats,
            file,
            shared_dict: spec.shared_dict,
        })
    }

    /// Load a projection: one column file per spec column.
    ///
    /// Validates that all columns have equal length and that the declared
    /// sort key actually orders the data lexicographically. The packed
    /// width for `Plain` columns is chosen from the observed min/max.
    ///
    /// Columns are independent — each writes its own file — so encoding
    /// runs column-parallel on up to `MATSTRAT_THREADS` scoped workers
    /// (the executor's worker-pool pattern). The produced files, stats,
    /// and catalog entry are identical at any worker count; only wall
    /// time changes.
    pub fn load_projection(&self, spec: &ProjectionSpec, columns: &[&[Value]]) -> Result<TableId> {
        self.load_projection_with_workers(spec, columns, matstrat_common::default_parallelism())
    }

    /// [`load_projection`](Self::load_projection) with an explicit worker
    /// count (clamped to `[1, columns]`).
    pub fn load_projection_with_workers(
        &self,
        spec: &ProjectionSpec,
        columns: &[&[Value]],
        workers: usize,
    ) -> Result<TableId> {
        if spec.columns.len() != columns.len() {
            return Err(Error::invalid(format!(
                "spec has {} columns, data has {}",
                spec.columns.len(),
                columns.len()
            )));
        }
        let num_rows = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != num_rows) {
            return Err(Error::invalid("all columns must have equal length"));
        }
        let sort_cols: Vec<&[Value]> = spec.sort_key().iter().map(|&i| columns[i]).collect();
        verify_sort_order(&sort_cols)?;

        // Reserve the table id up front so file names are stable.
        let table_idx = self.inner.catalog.read().projections().len() as u32;
        let encode_one = |ci: usize| {
            let cspec = &spec.columns[ci];
            let file = format!("t{table_idx}_c{ci}_{}.col", cspec.name);
            self.write_column(file, cspec, columns[ci])
        };
        // Scoped workers claim column indices from a shared counter
        // (columns vary wildly in encoding cost, so striding would
        // skew); results are reordered by index afterwards, so the
        // catalog entry is identical to a serial load.
        let infos: Vec<ColumnInfo> =
            matstrat_common::par_map_indexed(spec.columns.len(), workers, encode_one)?;
        let generation = self.generation_of(&infos);
        let id = {
            let mut cat = self.inner.catalog.write();
            let id = cat.add_projection(&spec.name, num_rows as u64, infos)?;
            cat.pin(id, generation)?;
            id
        };
        self.persist_catalog()?;
        Ok(id)
    }

    /// Projection metadata by id.
    pub fn projection(&self, id: TableId) -> Result<ProjectionInfo> {
        Ok(self.inner.catalog.read().projection(id)?.clone())
    }

    /// Projection metadata by name.
    pub fn projection_by_name(&self, name: &str) -> Result<ProjectionInfo> {
        Ok(self.inner.catalog.read().projection_by_name(name)?.clone())
    }

    /// Names of all loaded projections.
    pub fn projection_names(&self) -> Vec<String> {
        self.inner
            .catalog
            .read()
            .projections()
            .iter()
            .map(|p| p.name.clone())
            .collect()
    }

    /// Open a reader for column `col_idx` of projection `table`, as the
    /// catalog has it now: the column file's blocks only.
    pub fn reader(&self, table: TableId, col_idx: usize) -> Result<ColumnReader> {
        let (info, generation) = {
            let cat = self.inner.catalog.read();
            let proj = cat.projection(table)?;
            (proj.column(col_idx)?.clone(), pin_of(proj)?)
        };
        self.open_reader(info, generation, None, col_idx)
    }

    /// Open a reader for column `col_idx` of a `(projection, delta)`
    /// pair the caller already holds — the executor opens every reader
    /// from one [`Self::scan_snapshot`], so a compaction that swaps the
    /// projection mid-query cannot hand it a mix of generations. The
    /// reader takes its own pin on the entry's files, so it stays valid
    /// after `proj` is dropped, however many compactions later. With a
    /// `delta`, the reader also covers its inserted rows, as tail blocks
    /// past the file's (see [`ColumnReader`]).
    pub fn reader_for(
        &self,
        proj: &ProjectionInfo,
        delta: Option<&Arc<TableDelta>>,
        col_idx: usize,
    ) -> Result<ColumnReader> {
        let info = proj.column(col_idx)?.clone();
        if let Some(d) = delta.filter(|d| d.base_rows() != proj.num_rows) {
            return Err(Error::invalid(format!(
                "delta over {} rows does not belong to {} ({} rows)",
                d.base_rows(),
                proj.name,
                proj.num_rows
            )));
        }
        self.open_reader(info, pin_of(proj)?, delta, col_idx)
    }

    fn open_reader(
        &self,
        info: ColumnInfo,
        generation: Arc<Generation>,
        delta: Option<&Arc<TableDelta>>,
        col_idx: usize,
    ) -> Result<ColumnReader> {
        let tail = delta.filter(|d| d.num_inserts() > 0).map(|d| {
            Arc::new(Tail {
                delta: Arc::clone(d),
                col: col_idx,
                blocks: (0..d.num_inserts().div_ceil(tail_block_rows()))
                    .map(|_| OnceLock::new())
                    .collect(),
            })
        });
        Ok(ColumnReader {
            store: self.inner.clone(),
            info,
            file: generation.file(col_idx)?,
            tail,
            _pin: generation,
        })
    }

    /// The buffer pool (for stats and cold-cache resets).
    pub fn pool(&self) -> &BufferPool {
        &self.inner.pool
    }

    /// The simulated-disk meter.
    pub fn meter(&self) -> &IoMeter {
        &self.inner.meter
    }

    /// Drop every cached block and every resident join build, and reset
    /// I/O accounting — a cold start: nothing is resident.
    pub fn cold_reset(&self) {
        let builds = std::mem::take(&mut *self.inner.builds.lock());
        drop(builds);
        self.inner.pool.clear();
        self.inner.meter.reset();
    }

    /// The join build resident under `key`, if it was made from the
    /// snapshot `(proj, delta)` a statement read from
    /// [`Self::scan_snapshot`]. The caller downcasts it to the type it
    /// cached.
    pub fn cached_build(
        &self,
        key: ResidentKey,
        proj: &ProjectionInfo,
        delta: Option<&Arc<TableDelta>>,
    ) -> Option<Arc<dyn Any + Send + Sync>> {
        let builds = self.inner.builds.lock();
        let entry = builds.get(&key)?;
        entry
            .made_from(proj.wal_epoch, delta)
            .then(|| Arc::clone(&entry.build))
    }

    /// Keep `build`, made from the snapshot `(proj, delta)` of table
    /// `key.0`, resident under `key` in place of any entry there. It is
    /// kept only if that snapshot is still the table's current one,
    /// checked under the cache lock every write takes to drop the
    /// table's entries; returns whether it was kept.
    pub fn cache_build(
        &self,
        key: ResidentKey,
        proj: &ProjectionInfo,
        delta: Option<&Arc<TableDelta>>,
        build: Arc<dyn Any + Send + Sync>,
    ) -> bool {
        let entry = ResidentBuild {
            epoch: proj.wal_epoch,
            delta: delta.cloned(),
            build,
        };
        let mut builds = self.inner.builds.lock();
        let current = match self.inner.catalog.read().projection(key.0) {
            Ok(p) => p.wal_epoch,
            Err(_) => return false,
        };
        if !entry.made_from(current, self.inner.delta.snapshot(key.0).as_ref()) {
            return false;
        }
        let replaced = builds.insert(key, entry);
        drop(builds);
        drop(replaced);
        true
    }

    /// How many join builds are resident.
    pub fn resident_builds(&self) -> usize {
        self.inner.builds.lock().len()
    }

    /// Forget `table`'s resident builds, once a write or a compaction
    /// has changed its delta or catalog entry. The entries themselves
    /// are dropped after the lock is released: the last pin on a
    /// generation may go with them.
    fn drop_builds(&self, table: TableId) {
        let gone: Vec<ResidentBuild> = {
            let mut builds = self.inner.builds.lock();
            let keys: Vec<ResidentKey> = builds.keys().filter(|k| k.0 == table).copied().collect();
            keys.iter().filter_map(|k| builds.remove(k)).collect()
        };
        drop(gone);
    }

    /// The disk this store reads and writes (crash tests reopen a second
    /// store over the same image and tamper with WAL bytes through it).
    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.inner.disk
    }

    /// What WAL replay found when this store opened, one entry per table
    /// that had a log on disk. Empty for stores created fresh.
    pub fn recovery_reports(&self) -> Vec<RecoveryReport> {
        self.inner.recovery.lock().clone()
    }

    /// Replay every table's WAL (if present) into a rebuilt delta.
    fn recover_wals(&self) -> Result<()> {
        let projections: Vec<(TableId, u64, u32, usize)> = {
            let cat = self.inner.catalog.read();
            cat.projections()
                .iter()
                .map(|p| (p.id, p.num_rows, p.wal_epoch, p.columns.len()))
                .collect()
        };
        let mut reports = Vec::new();
        for (table, base_rows, epoch, ncols) in projections {
            let name = wal_file(table);
            if !self.inner.disk.exists(&name) {
                continue;
            }
            let storage = DiskWal {
                disk: Arc::clone(&self.inner.disk),
                name,
            };
            let (wal, recovery) = Wal::open(Box::new(storage), epoch)?;
            let applied = recovery.records.len() as u64;
            self.apply_records(table, base_rows, ncols, recovery.records)?;
            reports.push(RecoveryReport {
                table,
                applied,
                recovered: recovery.recovered,
                torn: recovery.torn,
            });
            self.inner.wals.lock().insert(table, wal);
        }
        *self.inner.recovery.lock() = reports;
        Ok(())
    }

    /// Rebuild delta state from replayed records, in log order. Runs of
    /// inserts and runs of deletes are applied a run at a time, so the
    /// rebuilt delta has a chunk per run, not per row, and a long tail of
    /// deletes is one merge.
    fn apply_records(
        &self,
        table: TableId,
        base_rows: u64,
        ncols: usize,
        records: Vec<WalRecord>,
    ) -> Result<()> {
        let delta = &self.inner.delta;
        let mut next = base_rows;
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut doomed: Vec<u64> = Vec::new();
        for rec in records {
            debug_assert_eq!(rec.table(), table.0, "record in the wrong table's log");
            match rec {
                WalRecord::Insert { pos, values, .. } => {
                    if !doomed.is_empty() {
                        delta.delete_positions(table, base_rows, &doomed)?;
                        doomed.clear();
                    }
                    if pos != next || values.len() != ncols {
                        return Err(Error::corrupt(format!(
                            "WAL replay: insert of {} values at {pos}, expected {ncols} at {next}",
                            values.len()
                        )));
                    }
                    next += 1;
                    rows.push(values);
                }
                WalRecord::Delete { pos, .. } => {
                    if !rows.is_empty() {
                        delta.append_rows(table, base_rows, &rows);
                        rows.clear();
                    }
                    doomed.push(pos);
                }
            }
        }
        if !rows.is_empty() {
            delta.append_rows(table, base_rows, &rows);
        }
        if !doomed.is_empty() {
            delta.delete_positions(table, base_rows, &doomed)?;
        }
        Ok(())
    }

    /// Run `f` on `table`'s open WAL, opening it (empty or not) first if
    /// needed. Callers hold the write lock.
    fn with_wal<R>(
        &self,
        table: TableId,
        epoch: u32,
        f: impl FnOnce(&mut Wal) -> Result<R>,
    ) -> Result<R> {
        let mut wals = self.inner.wals.lock();
        if let std::collections::hash_map::Entry::Vacant(slot) = wals.entry(table) {
            let storage = DiskWal {
                disk: Arc::clone(&self.inner.disk),
                name: wal_file(table),
            };
            let (wal, _) = Wal::open(Box::new(storage), epoch)?;
            slot.insert(wal);
        }
        f(wals.get_mut(&table).expect("just inserted"))
    }

    /// Insert `rows` into `table`: logged to the WAL (one group commit),
    /// then applied to the delta, then the table's resident join builds
    /// are dropped. Returns the position stamp of the first inserted
    /// row. Durable when this returns.
    pub fn insert_rows(&self, table: TableId, rows: &[Vec<Value>]) -> Result<u64> {
        let _w = self.inner.write_lock.lock();
        let (ncols, base_rows, epoch) = {
            let cat = self.inner.catalog.read();
            let p = cat.projection(table)?;
            (p.columns.len(), p.num_rows, p.wal_epoch)
        };
        if ncols > MAX_VALUES {
            return Err(Error::unsupported(format!(
                "insert into a {ncols}-column projection exceeds the \
                 {MAX_VALUES}-value WAL record budget"
            )));
        }
        for row in rows {
            if row.len() != ncols {
                return Err(Error::invalid(format!(
                    "insert row has {} values, projection has {ncols} columns",
                    row.len()
                )));
            }
        }
        let start = self
            .inner
            .delta
            .snapshot(table)
            .map_or(base_rows, |d| d.total_rows());
        let records: Vec<WalRecord> = rows
            .iter()
            .enumerate()
            .map(|(i, values)| WalRecord::Insert {
                table: table.0,
                pos: start + i as u64,
                values: values.clone(),
            })
            .collect();
        self.with_wal(table, epoch, |wal| wal.append_batch(&records))?;
        let stamped = self.inner.delta.append_rows(table, base_rows, rows);
        self.drop_builds(table);
        debug_assert_eq!(stamped, start);
        Ok(start)
    }

    /// Delete the rows at `positions` of `table`: logged to the WAL,
    /// then applied to the delta, then the table's resident join builds
    /// are dropped. Positions already deleted are skipped;
    /// out-of-range positions are an error (nothing is logged or
    /// applied). Returns how many rows were newly deleted. Durable when
    /// this returns.
    pub fn delete_positions(&self, table: TableId, positions: &[u64]) -> Result<u64> {
        self.delete_positions_inner(table, None, positions)
            .map(|n| n.expect("unconditional delete"))
    }

    /// [`delete_positions`], but only if the table's compaction epoch
    /// still equals `epoch` — the find-then-delete idiom: a caller that
    /// resolved positions against a [`scan_snapshot`] passes that
    /// snapshot's `wal_epoch`, and gets `None` (nothing logged or
    /// applied) when a compaction has since rewritten the position
    /// space; rescan and retry.
    ///
    /// [`delete_positions`]: Self::delete_positions
    /// [`scan_snapshot`]: Self::scan_snapshot
    pub fn delete_positions_at_epoch(
        &self,
        table: TableId,
        epoch: u32,
        positions: &[u64],
    ) -> Result<Option<u64>> {
        self.delete_positions_inner(table, Some(epoch), positions)
    }

    fn delete_positions_inner(
        &self,
        table: TableId,
        expect_epoch: Option<u32>,
        positions: &[u64],
    ) -> Result<Option<u64>> {
        let _w = self.inner.write_lock.lock();
        let (base_rows, epoch) = {
            let cat = self.inner.catalog.read();
            let p = cat.projection(table)?;
            (p.num_rows, p.wal_epoch)
        };
        if expect_epoch.is_some_and(|e| e != epoch) {
            return Ok(None);
        }
        // The snapshot is a temporary of this one statement: held across
        // the mutation below, it would make that mutation copy-on-write
        // against ourselves.
        let fresh = match self.inner.delta.snapshot(table) {
            Some(d) => d.fresh_deletes(positions)?,
            None => TableDelta::new(base_rows).fresh_deletes(positions)?,
        };
        if fresh.is_empty() {
            return Ok(Some(0));
        }
        let records: Vec<WalRecord> = fresh
            .iter()
            .map(|&pos| WalRecord::Delete {
                table: table.0,
                pos,
            })
            .collect();
        self.with_wal(table, epoch, |wal| wal.append_batch(&records))?;
        let deleted = self.inner.delta.delete_positions(table, base_rows, &fresh);
        self.drop_builds(table);
        deleted.map(Some)
    }

    /// A consistent `(projection, delta)` pair for scanning `table`.
    ///
    /// The delta is `None` when the table has no pending writes — the
    /// read-only fast path. Consistency against a racing [`compact`]
    /// (which swaps both under the catalog write lock) comes from
    /// optimistic retry: re-read until the pair demonstrably belongs to
    /// one moment — delta base matches the catalog row count and the
    /// catalog epoch did not move between the two reads.
    ///
    /// [`compact`]: Self::compact
    pub fn scan_snapshot(
        &self,
        table: TableId,
    ) -> Result<(ProjectionInfo, Option<Arc<TableDelta>>)> {
        loop {
            let info = self.inner.catalog.read().projection(table)?.clone();
            let delta = self.inner.delta.snapshot(table);
            if let Some(d) = &delta {
                if d.base_rows() != info.num_rows {
                    continue; // caught mid-swap; go again
                }
            }
            let epoch_now = self.inner.catalog.read().projection(table)?.wal_epoch;
            if epoch_now == info.wal_epoch {
                return Ok((info, delta));
            }
        }
    }

    /// Tables with a non-empty delta, in id order.
    pub fn dirty_tables(&self) -> Vec<TableId> {
        self.inner.delta.dirty_tables()
    }

    /// Fold `table`'s delta into fresh immutable column files and swap
    /// them in. Returns `false` (and does nothing) when the delta is
    /// empty. See the module docs for the crash-ordering argument. The
    /// table's resident join builds are dropped after the swap and
    /// before the old generation is retired, so none of them keeps the
    /// retired files on disk.
    ///
    /// Holds the write lock for the duration: writers queue behind the
    /// rewrite, readers race it freely and stay byte-identical — the
    /// merge preserves logical row order (immutable positions, then
    /// surviving inserts in stamp order), so the same scan sees the same
    /// rows whether it resolves against old blocks + delta or the new
    /// blocks. Columns whose declared sort order the merged data no
    /// longer satisfies are demoted to [`SortOrder::None`] rather than
    /// re-sorted — reordering rows would change query output.
    pub fn compact(&self, table: TableId) -> Result<bool> {
        let _w = self.inner.write_lock.lock();
        let info = self.projection(table)?;
        // This function's own pin: the old files cannot go before it
        // returns, whoever else lets go of theirs meanwhile.
        let old_generation = pin_of(&info)?;
        let delta = match self.inner.delta.snapshot(table) {
            Some(d) if !d.is_empty() => d,
            _ => return Ok(false),
        };
        debug_assert_eq!(delta.base_rows(), info.num_rows, "write-lock invariant");

        // Merge every column in logical row order. Maintenance I/O goes
        // straight to the file reader: no pool churn, no meter charges —
        // the cold-read ledger stays a pure account of query work.
        let base_deletes = delta.base_deletes();
        let new_epoch = info.wal_epoch + 1;
        let mut merged: Vec<Vec<Value>> = Vec::with_capacity(info.columns.len());
        for (ci, col) in info.columns.iter().enumerate() {
            let file = old_generation.file(ci)?;
            let mut vals: Vec<Value> = Vec::with_capacity(delta.live_rows() as usize);
            let mut block_buf = Vec::new();
            for b in 0..file.num_blocks() {
                let block = file.fetch_block(self.inner.disk.as_ref(), b)?;
                block_buf.clear();
                block.decode_all(&mut block_buf);
                vals.extend_from_slice(&block_buf);
            }
            if vals.len() as u64 != delta.base_rows() {
                return Err(Error::corrupt(format!(
                    "column {} decoded {} rows, catalog says {}",
                    col.name,
                    vals.len(),
                    delta.base_rows()
                )));
            }
            if !base_deletes.is_empty() {
                let mut dead = Tombstones::new(base_deletes, 0);
                let mut pos = 0u64;
                vals.retain(|_| {
                    pos += 1;
                    !dead.is_deleted(pos - 1)
                });
            }
            delta.extend_live_column(ci, &mut vals);
            merged.push(vals);
        }
        let new_rows = merged.first().map_or(0, |c| c.len()) as u64;
        debug_assert_eq!(new_rows, delta.live_rows());

        // Does the merged data still satisfy the declared sort key?
        let mut key: Vec<(u8, usize)> = info
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.sort != SortOrder::None)
            .map(|(ci, c)| (c.sort.rank(), ci))
            .collect();
        key.sort_unstable();
        let sort_cols: Vec<&[Value]> = key.iter().map(|&(_, ci)| merged[ci].as_slice()).collect();
        let keep_sort = verify_sort_order(&sort_cols).is_ok();

        // Write the new generation of column files (versioned names, so
        // stale pool keys and reader handles can never alias them).
        // A shared-dict column stays shared-dict across compaction; the
        // dictionary is recomputed because inserts may have widened the
        // value domain.
        let mut new_infos = Vec::with_capacity(info.columns.len());
        for (ci, col) in info.columns.iter().enumerate() {
            let file = format!("t{}_c{ci}_{}_e{new_epoch}.col", table.0, col.name);
            let spec = ColumnSpec {
                name: col.name.clone(),
                encoding: col.encoding,
                sort: if keep_sort { col.sort } else { SortOrder::None },
                shared_dict: col.shared_dict,
            };
            new_infos.push(self.write_column(file, &spec, &merged[ci])?);
        }

        // Swap catalog + delta atomically with respect to scan_snapshot
        // (readers block on the catalog lock or retry on the epoch).
        drop(delta);
        let new_generation = self.generation_of(&new_infos);
        {
            let mut cat = self.inner.catalog.write();
            cat.replace_projection(table, new_rows, new_infos)?;
            cat.pin(table, new_generation)?;
            self.inner.delta.replace(table, TableDelta::new(new_rows));
        }
        self.drop_builds(table);
        // Persist the new epoch BEFORE truncating the log: a crash in
        // between replays the old records as stale-epoch no-ops.
        self.persist_catalog()?;
        self.with_wal(table, new_epoch, |wal| wal.truncate_to_epoch(new_epoch))?;

        // The catalog that no longer names the old generation is durable
        // and the log is clean: from here a crash needs none of the old
        // files. They, and their pooled blocks, go when the last pin does
        // — right here if no reader started before the swap.
        old_generation.retire();
        Ok(true)
    }

    /// Compact every table with a non-empty delta; returns how many
    /// tables were compacted.
    pub fn compact_all(&self) -> Result<usize> {
        let mut n = 0;
        for t in self.dirty_tables() {
            if self.compact(t)? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Start a background compactor: a thread that folds dirty tables
    /// into fresh immutable blocks every `interval` until the returned
    /// handle is stopped (or dropped). Queries race it freely — that is
    /// the point of the atomic swap.
    pub fn spawn_compactor(&self, interval: std::time::Duration) -> CompactorHandle {
        let store = self.clone();
        let signal = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let thread_signal = Arc::clone(&signal);
        let thread = std::thread::spawn(move || {
            let (stop, cvar) = &*thread_signal;
            let mut stopped = stop.lock().unwrap();
            loop {
                if *stopped {
                    return;
                }
                let (guard, _) = cvar.wait_timeout(stopped, interval).unwrap();
                stopped = guard;
                if *stopped {
                    return;
                }
                drop(stopped);
                // Errors are swallowed by design: a failed maintenance
                // pass leaves the (still consistent) delta for the next
                // tick; queries and writes are unaffected.
                let _ = store.compact_all();
                stopped = stop.lock().unwrap();
            }
        });
        CompactorHandle {
            signal,
            thread: Some(thread),
        }
    }
}

/// Handle to a running background compactor; stops it on drop.
pub struct CompactorHandle {
    signal: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl CompactorHandle {
    /// Stop the compactor and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            let (stop, cvar) = &*self.signal;
            *stop.lock().unwrap() = true;
            cvar.notify_all();
            let _ = thread.join();
        }
    }
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The pin a store-owned catalog entry carries.
fn pin_of(proj: &ProjectionInfo) -> Result<Arc<Generation>> {
    proj.generation
        .clone()
        .ok_or_else(|| Error::invalid(format!("projection {} belongs to no store", proj.name)))
}

/// Rows per tail block: a full W8 Plain block.
fn tail_block_rows() -> usize {
    PlainBlock::capacity(Width::W8)
}

/// A reader's in-memory tail: one column of a delta snapshot's inserted
/// rows, cut into Plain blocks, each built on first use.
struct Tail {
    delta: Arc<TableDelta>,
    col: usize,
    blocks: Vec<OnceLock<Arc<EncodedBlock>>>,
}

impl Tail {
    /// The inserted rows (indices in stamp order) of tail block `k`.
    fn rows(&self, k: usize) -> Range<usize> {
        let first = k * tail_block_rows();
        first..(first + tail_block_rows()).min(self.delta.num_inserts())
    }
}

/// Read access to one column. A reader pins the generation of files it
/// was opened on, so it reads the same bytes for as long as it lives,
/// across any number of compactions.
///
/// A reader opened on a delta snapshot ([`Store::reader_for`]) covers
/// the table's logical positions `[0, base_rows + inserts)`: the file's
/// blocks come through the buffer pool, then **tail blocks** hold the
/// snapshot's inserted rows (deleted ones included, so positions stay
/// positional), [`PlainBlock::capacity`]`(W8)` values each. A tail
/// block is built from the delta's chunks on its first [`Self::block`]
/// call and at most once per reader (clones share it); it never enters
/// the pool, never charges the meter, and its zone is
/// `(Value::MIN, Value::MAX)`, so zone maps never prune it.
#[derive(Clone)]
pub struct ColumnReader {
    store: Arc<StoreInner>,
    info: ColumnInfo,
    file: Arc<ColumnFileReader>,
    tail: Option<Arc<Tail>>,
    _pin: Arc<Generation>,
}

impl ColumnReader {
    /// Catalog metadata for the column.
    pub fn info(&self) -> &ColumnInfo {
        &self.info
    }

    /// Physical encoding.
    pub fn encoding(&self) -> EncodingKind {
        self.info.encoding
    }

    /// Total rows (`||C||`), the tail's included.
    pub fn num_rows(&self) -> u64 {
        self.info.stats.num_rows
            + self
                .tail
                .as_ref()
                .map_or(0, |t| t.delta.num_inserts() as u64)
    }

    /// Total blocks (`|C|`), the tail's included.
    pub fn num_blocks(&self) -> usize {
        self.file.num_blocks() + self.tail.as_ref().map_or(0, |t| t.blocks.len())
    }

    /// The tail's index into its block list, when `idx` names a tail
    /// block.
    fn tail_index(&self, idx: usize) -> Option<(&Tail, usize)> {
        let t = self.tail.as_deref()?;
        let k = idx.checked_sub(self.file.num_blocks())?;
        (k < t.blocks.len()).then_some((t, k))
    }

    /// Index entry (start position, row count) for block `idx` — no I/O.
    pub fn block_meta(&self, idx: usize) -> Result<BlockIndexEntry> {
        if let Some(e) = self.file.index().get(idx) {
            return Ok(*e);
        }
        let (t, k) = self
            .tail_index(idx)
            .ok_or_else(|| Error::invalid(format!("block {idx} out of range")))?;
        let rows = t.rows(k);
        Ok(BlockIndexEntry {
            offset: 0,
            len: 0,
            start_pos: t.delta.base_rows() + rows.start as u64,
            count: rows.len() as u32,
            min: Value::MIN,
            max: Value::MAX,
        })
    }

    /// Index of the block containing position `pos` — no I/O.
    pub fn block_for_pos(&self, pos: Pos) -> Result<usize> {
        let base = self.info.stats.num_rows;
        if pos < base || self.tail.is_none() {
            return self.file.block_for_pos(pos);
        }
        if pos >= self.num_rows() {
            return Err(Error::invalid(format!(
                "position {pos} beyond column {} ({} rows)",
                self.info.name,
                self.num_rows()
            )));
        }
        Ok(self.file.num_blocks() + (pos - base) as usize / tail_block_rows())
    }

    /// Fetch block `idx`. A file block comes through the buffer pool; a
    /// miss reads from disk and charges the I/O meter. Concurrent misses
    /// on one block are single-flighted by the pool, so parallel cold
    /// runs read and count each block exactly once, like a serial run.
    /// The read is charged to the thread that filled and to nobody else:
    /// across overlapping queries every cold block is charged to exactly
    /// one of them, so a query never pays more than it does alone and the
    /// queries' reads sum to the blocks actually transferred, whoever won
    /// which fill. A tail block is built in memory, once.
    pub fn block(&self, idx: usize) -> Result<Arc<EncodedBlock>> {
        if let Some((t, k)) = self.tail_index(idx) {
            let block = t.blocks[k].get_or_init(|| {
                let rows = t.rows(k);
                let start = t.delta.base_rows() + rows.start as u64;
                let values = t.delta.column_range(t.col, rows);
                Arc::new(EncodedBlock::Plain(PlainBlock::from_slices(
                    start,
                    Width::W8,
                    values,
                )))
            });
            return Ok(Arc::clone(block));
        }
        let key = (self.info.file.clone(), idx as u32);
        let meta = self.block_meta(idx)?;
        self.store.pool.get_or_insert_with(&key, || {
            self.store
                .meter
                .record_read(&self.info.file, meta.offset, meta.len as u64);
            Ok::<_, Error>(Arc::new(
                self.file.fetch_block(self.store.disk.as_ref(), idx)?,
            ))
        })
    }

    /// Fraction of this column's file blocks currently resident in the
    /// pool — the model's `F`. Tail blocks are never pooled and do not
    /// count.
    pub fn resident_fraction(&self) -> f64 {
        let total = self.file.num_blocks();
        if total == 0 {
            return 1.0;
        }
        self.store.pool.resident_blocks(&self.info.file) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SortOrder;
    use matstrat_common::Predicate;

    fn demo_spec() -> ProjectionSpec {
        ProjectionSpec::new("demo")
            .column("a", EncodingKind::Rle, SortOrder::Primary)
            .column("b", EncodingKind::Plain, SortOrder::None)
    }

    fn demo_data() -> (Vec<Value>, Vec<Value>) {
        let a: Vec<Value> = (0..1000).map(|i| i / 100).collect();
        let b: Vec<Value> = (0..1000).map(|i| (i * 7) % 13).collect();
        (a, b)
    }

    #[test]
    fn load_and_read_back() {
        let store = Store::in_memory();
        let (a, b) = demo_data();
        let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        let p = store.projection(id).unwrap();
        assert_eq!(p.num_rows, 1000);
        assert_eq!(p.columns[0].stats.distinct, 10);

        let ra = store.reader(id, 0).unwrap();
        let mut decoded = Vec::new();
        for i in 0..ra.num_blocks() {
            ra.block(i).unwrap().decode_all(&mut decoded);
        }
        assert_eq!(decoded, a);
    }

    #[test]
    fn shared_dict_survives_insert_and_compaction() {
        let store = Store::in_memory();
        let a: Vec<Value> = (0..1000).map(|i| i / 100).collect();
        let k: Vec<Value> = (0..1000).map(|i| ((i * 31) % 9) * 10).collect();
        let spec = ProjectionSpec::new("t")
            .column("a", EncodingKind::Rle, SortOrder::Primary)
            .column_shared_dict("k", SortOrder::None);
        let id = store.load_projection(&spec, &[&a, &k]).unwrap();
        assert!(store.projection(id).unwrap().columns[1].shared_dict);

        // Insert a row whose key widens the dictionary domain, compact,
        // and check the new generation is still a single shared dict.
        store.insert_rows(id, &[vec![9, 999]]).unwrap();
        assert!(store.compact(id).unwrap());
        let p = store.projection(id).unwrap();
        assert!(p.columns[1].shared_dict, "flag must survive compaction");
        let r = store.reader(id, 1).unwrap();
        let mut fps = std::collections::HashSet::new();
        let mut decoded = Vec::new();
        for i in 0..r.num_blocks() {
            let b = r.block(i).unwrap();
            match b.as_ref() {
                EncodedBlock::Dict(d) => {
                    assert!(d.dictionary().windows(2).all(|w| w[0] < w[1]));
                    assert!(d.dictionary().contains(&999));
                    fps.insert(d.fingerprint());
                }
                other => panic!("expected dict block, got {:?}", other.encoding()),
            }
            b.decode_all(&mut decoded);
        }
        assert_eq!(fps.len(), 1);
        let mut expected = k.clone();
        expected.push(999);
        assert_eq!(decoded, expected);
    }

    #[test]
    fn mismatched_columns_rejected() {
        let store = Store::in_memory();
        let a = vec![1, 2, 3];
        let b = vec![1, 2];
        assert!(store.load_projection(&demo_spec(), &[&a, &b]).is_err());
        assert!(store.load_projection(&demo_spec(), &[&a]).is_err());
    }

    #[test]
    fn unsorted_data_rejected() {
        let store = Store::in_memory();
        let a = vec![2, 1, 3]; // declared Primary but not sorted
        let b = vec![0, 0, 0];
        assert!(store.load_projection(&demo_spec(), &[&a, &b]).is_err());
    }

    #[test]
    fn pool_serves_second_read_without_io() {
        let store = Store::in_memory();
        let (a, b) = demo_data();
        let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        let r = store.reader(id, 0).unwrap();
        r.block(0).unwrap();
        let after_first = store.meter().snapshot();
        r.block(0).unwrap();
        assert_eq!(store.meter().snapshot(), after_first, "hit must not do I/O");
        assert!((r.resident_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_snapshot_reader_serves_inserts_as_unpooled_tail_blocks() {
        let store = Store::in_memory();
        let (a, b) = demo_data();
        let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        let cap = PlainBlock::capacity(Width::W8);
        assert_eq!(cap, 8190);
        let inserts = cap + 10;
        let rows: Vec<Vec<Value>> = (0..inserts as i64).map(|i| vec![10, -i]).collect();
        store.insert_rows(id, &rows).unwrap();
        store.delete_positions(id, &[1000]).unwrap();
        let (info, delta) = store.scan_snapshot(id).unwrap();
        let file_blocks = store.reader(id, 1).unwrap().num_blocks();
        let r = store.reader_for(&info, delta.as_ref(), 1).unwrap();

        // Geometry: the file's rows and blocks, then two tail blocks.
        let total = 1000 + inserts as u64;
        assert_eq!(r.num_rows(), total);
        assert_eq!(r.num_blocks(), file_blocks + 2);
        assert_eq!(r.block_for_pos(999).unwrap(), file_blocks - 1);
        assert_eq!(r.block_for_pos(1000).unwrap(), file_blocks);
        assert_eq!(r.block_for_pos(total - 1).unwrap(), file_blocks + 1);
        assert!(r.block_for_pos(total).is_err());
        let last = r.block_meta(file_blocks + 1).unwrap();
        assert_eq!((last.start_pos, last.count), (1000 + cap as u64, 10));
        assert_eq!((last.min, last.max), (Value::MIN, Value::MAX));
        assert!(r.block_meta(file_blocks + 2).is_err());

        // Tail blocks cost no I/O and never enter the pool.
        store.cold_reset();
        let (io, resident, lookups) = (
            store.meter().snapshot(),
            store.pool().len(),
            store.pool().stats(),
        );
        let first = r.block(file_blocks).unwrap();
        let again = r.block(file_blocks).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "built once per reader");
        let mut vals = Vec::new();
        r.block(file_blocks + 1).unwrap().decode_all(&mut vals);
        assert_eq!(
            vals,
            (cap as i64..inserts as i64).map(|i| -i).collect::<Vec<_>>()
        );
        assert_eq!(
            first.covering(),
            matstrat_common::PosRange::new(1000, 1000 + cap as u64)
        );
        assert_eq!(
            first.value_at(1000).unwrap(),
            0,
            "deleted rows stay positional"
        );
        assert_eq!(store.meter().snapshot(), io);
        assert_eq!(store.pool().len(), resident);
        assert_eq!(store.pool().stats(), lookups, "no pool lookups either");

        // The model's `F` counts file blocks only.
        assert_eq!(r.resident_fraction(), 0.0);
        for i in 0..file_blocks {
            r.block(i).unwrap();
        }
        assert!((r.resident_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_build_from_a_snapshot_older_than_the_table_is_never_kept() {
        let store = Store::in_memory();
        let (a, b) = demo_data();
        let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        let key = (id, 0);
        let build = || Arc::new(7u32) as Arc<dyn Any + Send + Sync>;
        let hit = |store: &Store| {
            let (info, delta) = store.scan_snapshot(id).unwrap();
            store.cached_build(key, &info, delta.as_ref()).is_some()
        };

        // Built, then the table is written, then offered: refused, for
        // the old snapshot and the new one alike.
        for write in [
            |s: &Store, t| assert_eq!(s.insert_rows(t, &[vec![10, 1]]).unwrap(), 1000),
            |s: &Store, t| assert_eq!(s.delete_positions(t, &[3]).unwrap(), 1),
            |s: &Store, t| assert!(s.compact(t).unwrap()),
        ] {
            let (info, delta) = store.scan_snapshot(id).unwrap();
            write(&store, id);
            assert!(!store.cache_build(key, &info, delta.as_ref(), build()));
            assert!(store.cached_build(key, &info, delta.as_ref()).is_none());
            assert!(!hit(&store));
            assert_eq!(store.resident_builds(), 0);
        }

        // Offered from the current snapshot: kept, and found by it.
        let (info, delta) = store.scan_snapshot(id).unwrap();
        assert!(store.cache_build(key, &info, delta.as_ref(), build()));
        assert!(hit(&store));
        assert_eq!(store.resident_builds(), 1);
        // Another table's write leaves it; its own write and a cold
        // reset drop it.
        let other = store
            .load_projection(
                &ProjectionSpec {
                    name: "other".into(),
                    ..demo_spec()
                },
                &[&a, &b],
            )
            .unwrap();
        store.insert_rows(other, &[vec![10, 1]]).unwrap();
        assert!(hit(&store));
        store.insert_rows(id, &[vec![10, 2]]).unwrap();
        assert_eq!(store.resident_builds(), 0);
        let (info, delta) = store.scan_snapshot(id).unwrap();
        assert!(store.cache_build(key, &info, delta.as_ref(), build()));
        store.cold_reset();
        assert_eq!(store.resident_builds(), 0);
        assert!(!hit(&store));
    }

    #[test]
    fn cold_reset_forces_refetch() {
        let store = Store::in_memory();
        let (a, b) = demo_data();
        let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        let r = store.reader(id, 0).unwrap();
        r.block(0).unwrap();
        store.cold_reset();
        assert_eq!(store.meter().snapshot().block_reads, 0);
        r.block(0).unwrap();
        assert_eq!(store.meter().snapshot().block_reads, 1);
    }

    #[test]
    fn persistent_store_reloads_catalog() {
        let dir = std::env::temp_dir().join(format!("matstrat-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (a, b) = demo_data();
        {
            let store = Store::open_dir(&dir).unwrap();
            store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        }
        // Fresh handle: catalog and data must come back from disk.
        let store = Store::open_dir(&dir).unwrap();
        let p = store.projection_by_name("demo").unwrap();
        assert_eq!(p.num_rows, 1000);
        let r = store.reader(p.id, 1).unwrap();
        let block = r.block(0).unwrap();
        let pl = block.scan_positions(&Predicate::eq(b[0]));
        assert!(pl.contains(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_load_is_byte_identical_to_serial() {
        // Mixed encodings and widths, enough data for several blocks per
        // column: the column-parallel loader must produce the exact
        // files, stats, and catalog entry of a serial load.
        let n = 150_000usize;
        let a: Vec<Value> = (0..n).map(|i| (i / 5000) as Value).collect();
        let b: Vec<Value> = (0..n).map(|i| ((i * 31) % 1000) as Value).collect();
        let c: Vec<Value> = (0..n).map(|i| ((i * 7) % 5) as Value).collect();
        let d: Vec<Value> = (0..n).map(|i| (i * i % 97) as Value).collect();
        let spec = ProjectionSpec::new("wide")
            .column("a", EncodingKind::Rle, SortOrder::Primary)
            .column("b", EncodingKind::Plain, SortOrder::None)
            .column("c", EncodingKind::BitVec, SortOrder::None)
            .column("d", EncodingKind::Dict, SortOrder::None);
        let cols: [&[Value]; 4] = [&a, &b, &c, &d];

        let load = |workers: usize| {
            let disk = Arc::new(MemDisk::new());
            let store = Store::with_disk(Arc::clone(&disk) as Arc<dyn Disk>, 64, false);
            let id = store
                .load_projection_with_workers(&spec, &cols, workers)
                .unwrap();
            let proj = store.projection(id).unwrap();
            let mut files: Vec<(String, Vec<u8>)> = disk
                .list()
                .into_iter()
                .map(|f| {
                    let len = disk.len(&f).unwrap() as usize;
                    let bytes = disk.read_at(&f, 0, len).unwrap();
                    (f, bytes)
                })
                .collect();
            files.sort();
            (proj, files)
        };

        let (serial_proj, serial_files) = load(1);
        for workers in [2, 4, 8] {
            let (proj, files) = load(workers);
            assert_eq!(proj.num_rows, serial_proj.num_rows);
            for (s, p) in serial_proj.columns.iter().zip(&proj.columns) {
                assert_eq!(s.stats, p.stats, "workers={workers} col {}", s.name);
                assert_eq!(s.file, p.file);
                assert_eq!(s.width, p.width);
            }
            assert_eq!(files, serial_files, "workers={workers}: file bytes");
        }
    }

    /// A disk that delegates to [`MemDisk`] but fails every write to
    /// files whose name contains `poison` — forces an encode error
    /// *inside* a loader worker, past the serial pre-validation.
    #[derive(Debug)]
    struct PoisonedDisk {
        inner: MemDisk,
        poison: &'static str,
    }

    impl Disk for PoisonedDisk {
        fn create(&self, name: &str) -> matstrat_common::Result<()> {
            self.inner.create(name)
        }
        fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> matstrat_common::Result<()> {
            if name.contains(self.poison) {
                return Err(Error::invalid(format!("injected disk failure on {name}")));
            }
            self.inner.write_at(name, offset, data)
        }
        fn read_at(&self, name: &str, offset: u64, len: usize) -> matstrat_common::Result<Vec<u8>> {
            self.inner.read_at(name, offset, len)
        }
        fn len(&self, name: &str) -> matstrat_common::Result<u64> {
            self.inner.len(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
    }

    #[test]
    fn parallel_load_propagates_worker_encode_errors() {
        // Column c2's file is poisoned: its worker hits the error mid-
        // encode while siblings succeed, and the load must surface it
        // at every worker count (the slots reassembly keeps the first
        // error in column order).
        let a: Vec<Value> = (0..5000).collect();
        let cols: [&[Value]; 4] = [&a, &a, &a, &a];
        let spec = ProjectionSpec::new("p")
            .column("w", EncodingKind::Plain, SortOrder::Primary)
            .column("x", EncodingKind::Plain, SortOrder::None)
            .column("y", EncodingKind::Plain, SortOrder::None)
            .column("z", EncodingKind::Plain, SortOrder::None);
        for workers in [1, 2, 4] {
            let disk = Arc::new(PoisonedDisk {
                inner: MemDisk::new(),
                poison: "_c2_",
            });
            let store = Store::with_disk(disk, 64, false);
            let err = store
                .load_projection_with_workers(&spec, &cols, workers)
                .unwrap_err();
            assert!(
                err.to_string().contains("injected disk failure"),
                "workers={workers}: {err}"
            );
            // The failed load must not register a projection.
            assert!(store.projection_names().is_empty(), "workers={workers}");
        }
    }

    /// A [`MemDisk`] that logs every write and sync in order, and at each
    /// catalog sync records the column files that catalog names whose
    /// last write no sync has followed yet.
    #[derive(Debug, Default)]
    struct RecordingDisk {
        inner: MemDisk,
        log: Mutex<Vec<(&'static str, String)>>,
        catalog_syncs: Mutex<u32>,
        unsynced: Mutex<Vec<String>>,
    }

    impl Disk for RecordingDisk {
        fn create(&self, name: &str) -> matstrat_common::Result<()> {
            self.log.lock().push(("write", name.to_string()));
            self.inner.create(name)
        }
        fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> matstrat_common::Result<()> {
            self.log.lock().push(("write", name.to_string()));
            self.inner.write_at(name, offset, data)
        }
        fn read_at(&self, name: &str, offset: u64, len: usize) -> matstrat_common::Result<Vec<u8>> {
            self.inner.read_at(name, offset, len)
        }
        fn len(&self, name: &str) -> matstrat_common::Result<u64> {
            self.inner.len(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
        fn remove(&self, name: &str) -> matstrat_common::Result<()> {
            self.inner.remove(name)
        }
        fn sync(&self, name: &str) -> matstrat_common::Result<()> {
            let mut log = self.log.lock();
            if name == CATALOG_FILE {
                *self.catalog_syncs.lock() += 1;
                let bytes = self
                    .inner
                    .read_at(name, 0, self.inner.len(name)? as usize)?;
                let last =
                    |op: &str, file: &str| log.iter().rposition(|(o, n)| *o == op && n == file);
                for p in Catalog::parse(&bytes)?.projections() {
                    for c in &p.columns {
                        if last("sync", &c.file) < last("write", &c.file) {
                            self.unsynced.lock().push(c.file.clone());
                        }
                    }
                }
            }
            log.push(("sync", name.to_string()));
            self.inner.sync(name)
        }
    }

    #[test]
    fn a_catalog_is_synced_only_after_every_column_file_it_names() {
        let disk = Arc::new(RecordingDisk::default());
        let store = Store::with_disk(Arc::clone(&disk) as Arc<dyn Disk>, 64, true);
        let (a, b) = demo_data();
        let t = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        assert_eq!(
            *disk.catalog_syncs.lock(),
            1,
            "a load makes its catalog durable"
        );
        store.insert_rows(t, &[vec![9, 1], vec![9, 2]]).unwrap();
        store.delete_positions(t, &[0, 1000]).unwrap();
        assert!(store.compact(t).unwrap());
        assert_eq!(*disk.catalog_syncs.lock(), 2, "so does a compaction");
        assert_eq!(
            *disk.unsynced.lock(),
            Vec::<String>::new(),
            "a durable catalog named column bytes that were never synced"
        );
    }

    #[test]
    fn projection_names_listing() {
        let store = Store::in_memory();
        let (a, b) = demo_data();
        store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        assert_eq!(store.projection_names(), vec!["demo".to_string()]);
        assert!(store.projection_by_name("demo").is_ok());
        assert!(store.projection_by_name("nope").is_err());
    }

    /// The logical row view of a (projection, delta) snapshot, column-
    /// major — the oracle the compaction tests compare against.
    fn logical_rows(store: &Store, table: TableId) -> Vec<Vec<Value>> {
        let (info, delta) = store.scan_snapshot(table).unwrap();
        let mut cols: Vec<Vec<Value>> = Vec::new();
        for ci in 0..info.columns.len() {
            let r = store.reader(table, ci).unwrap();
            let mut vals = Vec::new();
            let mut buf = Vec::new();
            for b in 0..r.num_blocks() {
                buf.clear();
                r.block(b).unwrap().decode_all(&mut buf);
                vals.extend_from_slice(&buf);
            }
            if let Some(d) = &delta {
                let mut live: Vec<Value> = vals
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| !d.is_deleted(*i as u64))
                    .map(|(_, v)| v)
                    .collect();
                d.extend_live_column(ci, &mut live);
                cols.push(live);
            } else {
                cols.push(vals);
            }
        }
        cols
    }

    #[test]
    fn inserts_and_deletes_survive_a_reopen() {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let (a, b) = demo_data();
        let id = {
            let store = Store::open_disk(Arc::clone(&disk), 64).unwrap();
            let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
            assert_eq!(
                store.insert_rows(id, &[vec![9, 1], vec![9, 2]]).unwrap(),
                1000
            );
            assert_eq!(store.delete_positions(id, &[3, 1000]).unwrap(), 2);
            // Re-deleting is a no-op, out of range is an error.
            assert_eq!(store.delete_positions(id, &[3]).unwrap(), 0);
            assert!(store.delete_positions(id, &[5000]).is_err());
            id
        };
        // "Crash" (drop) and reopen over the same disk image.
        let store = Store::open_disk(disk, 64).unwrap();
        let reports = store.recovery_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].applied, 4, "2 inserts + 2 deletes");
        assert!(!reports[0].torn);
        let (info, delta) = store.scan_snapshot(id).unwrap();
        assert_eq!(info.num_rows, 1000);
        let d = delta.expect("replay rebuilt the delta");
        let columns: Vec<Vec<Value>> = (0..2)
            .map(|c| d.column_chunks(c).flatten().copied().collect())
            .collect();
        assert_eq!(columns, vec![vec![9, 9], vec![1, 2]]);
        assert_eq!(d.deletes(), &[3, 1000]);
        assert_eq!(d.live_rows(), 1000);
    }

    #[test]
    fn replay_rebuilds_the_delta_that_was_logged() {
        // Interleaved runs of inserts and deletes — of base rows and of
        // rows the same log inserted — some written under an outstanding
        // snapshot, so the logged delta is several chunks: replay must
        // arrive at an equal delta, however differently it chunks it.
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let (a, b) = demo_data();
        let store = Store::open_disk(Arc::clone(&disk), 64).unwrap();
        let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        let mut held = Vec::new();
        for round in 0..6i64 {
            let rows: Vec<Vec<Value>> = (0..5).map(|i| vec![10 + round, round * 5 + i]).collect();
            let first = store.insert_rows(id, &rows).unwrap();
            if round % 2 == 0 {
                held.push(store.scan_snapshot(id).unwrap());
            }
            store
                .delete_positions(id, &[first + 3, round as u64 * 7, first + 1])
                .unwrap();
        }
        let (_, logged) = store.scan_snapshot(id).unwrap();
        let logged = logged.unwrap();
        assert_eq!(logged.num_inserts(), 30);
        assert_eq!(logged.deletes().len(), 18);
        drop(held);

        let reopened = Store::open_disk(disk, 64).unwrap();
        let (_, rebuilt) = reopened.scan_snapshot(id).unwrap();
        assert_eq!(*rebuilt.unwrap(), *logged);
        assert_eq!(logical_rows(&reopened, id), logical_rows(&store, id));
    }

    #[test]
    fn replay_rejects_an_insert_of_the_wrong_width() {
        // The log is the only input the columnar delta does not get from
        // a validated statement: a record of another width is corruption,
        // not a panic.
        let store = Store::in_memory();
        let (a, b) = demo_data();
        let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        let narrow = WalRecord::Insert {
            table: id.0,
            pos: 1000,
            values: vec![7],
        };
        let err = store.apply_records(id, 1000, 2, vec![narrow]).unwrap_err();
        assert!(err.to_string().contains("expected 2 at 1000"), "{err}");
        let gap = WalRecord::Insert {
            table: id.0,
            pos: 1001,
            values: vec![7, 7],
        };
        assert!(store.apply_records(id, 1000, 2, vec![gap]).is_err());
    }

    #[test]
    fn insert_arity_and_width_are_validated() {
        let store = Store::in_memory();
        let (a, b) = demo_data();
        let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        assert!(store.insert_rows(id, &[vec![1]]).is_err(), "arity");
        let wide_spec = (0..13).fold(ProjectionSpec::new("wide"), |s, i| {
            s.column(format!("c{i}"), EncodingKind::Plain, SortOrder::None)
        });
        let col: Vec<Value> = vec![0; 4];
        let cols: Vec<&[Value]> = (0..13).map(|_| col.as_slice()).collect();
        let wide = store.load_projection(&wide_spec, &cols).unwrap();
        let err = store.insert_rows(wide, &[vec![0; 13]]).unwrap_err();
        assert!(err.to_string().contains("record budget"), "{err}");
    }

    #[test]
    fn compaction_preserves_logical_rows_and_bumps_epoch() {
        let store = Store::in_memory();
        let (a, b) = demo_data();
        let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        store
            .insert_rows(id, &[vec![10, 100], vec![11, 101], vec![12, 102]])
            .unwrap();
        // Delete one base row, one inserted row.
        store.delete_positions(id, &[17, 1001]).unwrap();
        let before = logical_rows(&store, id);
        assert_eq!(before[0].len(), 1001);
        assert_eq!(store.dirty_tables(), vec![id]);

        assert!(store.compact(id).unwrap());

        let (info, delta) = store.scan_snapshot(id).unwrap();
        assert!(delta.is_none(), "compaction empties the delta");
        assert_eq!(info.num_rows, 1001);
        assert_eq!(info.wal_epoch, 1);
        assert_eq!(logical_rows(&store, id), before, "byte-identical view");
        assert!(!store.compact(id).unwrap(), "nothing left to fold");
        // Appending past a compaction stamps from the new base.
        assert_eq!(store.insert_rows(id, &[vec![13, 103]]).unwrap(), 1001);
    }

    #[test]
    fn compaction_demotes_broken_sort_order_but_keeps_valid_one() {
        let store = Store::in_memory();
        let (a, b) = demo_data();
        let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        // `a` is Primary-sorted and ends at 9; appending 10 keeps order.
        store.insert_rows(id, &[vec![10, 0]]).unwrap();
        store.compact(id).unwrap();
        let p = store.projection(id).unwrap();
        assert_eq!(p.columns[0].sort, SortOrder::Primary, "order still holds");
        // Appending 0 breaks it; compaction must demote, not re-sort.
        store.insert_rows(id, &[vec![0, 0]]).unwrap();
        store.compact(id).unwrap();
        let p = store.projection(id).unwrap();
        assert_eq!(p.columns[0].sort, SortOrder::None, "demoted");
        assert_eq!(p.num_rows, 1002);
        let rows = logical_rows(&store, id);
        assert_eq!(rows[0][1000..], [10, 0], "stamp order preserved");
    }

    #[test]
    fn crash_between_catalog_swap_and_truncation_is_safe() {
        // Simulate the narrowest crash window by hand: persist a catalog
        // with the bumped epoch, keep the full WAL, reopen. The stale-
        // epoch records must replay as no-ops.
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let (a, b) = demo_data();
        let store = Store::open_disk(Arc::clone(&disk), 64).unwrap();
        let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        store.insert_rows(id, &[vec![10, 0]]).unwrap();
        // Capture the epoch-0 log, compact (which truncates it), then
        // put the old log back — as if the crash hit mid-window.
        let wal_name = "wal_t0.log";
        let wal_len = disk.len(wal_name).unwrap() as usize;
        let old_log = disk.read_at(wal_name, 0, wal_len).unwrap();
        store.compact(id).unwrap();
        disk.create(wal_name).unwrap();
        disk.write_at(wal_name, 0, &old_log).unwrap();
        drop(store);

        let store2 = Store::open_disk(Arc::clone(&disk), 64).unwrap();
        let reports = store2.recovery_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].recovered, 1, "the record still parses");
        assert_eq!(reports[0].applied, 0, "but its epoch is stale");
        let (info, delta) = store2.scan_snapshot(id).unwrap();
        assert_eq!(info.num_rows, 1001, "compacted state, applied once");
        assert!(delta.is_none());
    }

    #[test]
    fn background_compactor_folds_dirty_tables() {
        let store = Store::in_memory();
        let (a, b) = demo_data();
        let id = store.load_projection(&demo_spec(), &[&a, &b]).unwrap();
        let handle = store.spawn_compactor(std::time::Duration::from_millis(5));
        store.insert_rows(id, &[vec![10, 7]]).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !store.dirty_tables().is_empty() {
            assert!(std::time::Instant::now() < deadline, "compactor never ran");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        handle.stop();
        let (info, delta) = store.scan_snapshot(id).unwrap();
        assert_eq!(info.num_rows, 1001);
        assert!(delta.is_none());
    }
}
