//! Column-oriented storage engine for matstrat.
//!
//! Faithful to the C-Store layout described in §1.1 of the paper:
//!
//! * each column lives in its own file, a sequence of **64 KB blocks**;
//! * blocks are encoded **uncompressed**, with **run-length encoding**
//!   (RLE), or with **bit-vector encoding**; a dictionary codec is
//!   provided as an extension;
//! * blocks are pulled through a **buffer pool** whose hits/misses feed
//!   both the wall clock and a **simulated-disk meter** that prices seeks
//!   and block reads with the analytical model's constants;
//! * a **catalog** records projections (column sets stored in a common
//!   sort order) and per-column statistics (rows, blocks, min/max,
//!   distinct count, average run length) used by the cost model.
//!
//! All data sources support the two basic C-Store access patterns —
//! reading positions and reading (position, value) pairs — with SARGable
//! predicates pushed into the encoded data.
//!
//! On top of the immutable blocks sits the **write path**: a per-table
//! write-ahead log (the `matstrat-wal` crate), a columnar, position-
//! stamped [`delta`] store that readers serve as tail blocks after the
//! column file's, and a
//! compactor that folds deltas back into fresh blocks and reclaims the
//! files it supersedes once their last reader is done ([`generation`])
//! — see [`store`]'s module docs.

pub mod block;
pub mod catalog;
pub mod delta;
pub mod disk;
pub mod encoding;
pub mod file;
pub mod generation;
pub mod meter;
pub mod pool;
pub mod store;
pub mod wire;

pub use block::{BitVecBlock, DictBlock, EncodedBlock, PlainBlock, RleBlock, RleRun, Slots};
pub use catalog::{Catalog, ColumnInfo, ColumnSpec, ProjectionInfo, ProjectionSpec, SortOrder};
pub use delta::{retain_live, DeltaStore, TableDelta, Tombstones};
pub use disk::{Disk, FileDisk, MemDisk};
pub use encoding::EncodingKind;
pub use file::{BlockIndexEntry, ColumnFileReader, ColumnFileWriter, ColumnStats};
pub use generation::Generation;
pub use meter::{IoMeter, IoStats};
pub use pool::{default_pool_shards, BufferPool, PoolStats};
pub use store::{ColumnReader, CompactorHandle, RecoveryReport, ResidentKey, Store};

/// Size of an on-disk block: 64 KB, as in C-Store.
pub const BLOCK_SIZE: usize = 64 * 1024;
