//! Analytical cost model for materialization strategies (§3 of the paper).
//!
//! The model prices each operator of a query plan in microseconds of CPU
//! and I/O, using the constants of Table 1/2:
//!
//! | symbol | meaning |
//! |---|---|
//! | `\|Ci\|` | number of disk blocks in column i |
//! | `\|\|Ci\|\|` | number of rows in column i |
//! | `\|\|POSLIST\|\|` | number of positions in a position list |
//! | `F` | fraction of the column's pages already in the buffer pool |
//! | `SF` | selectivity factor of a predicate |
//! | `BIC` | block-iterator `getNext()` CPU time |
//! | `TIC_TUP` | tuple-iterator `getNext()` CPU time |
//! | `TIC_COL` | column-iterator `getNext()` CPU time |
//! | `FC` | function-call time |
//! | `PF` | prefetch size in blocks |
//! | `SEEK` | disk seek time |
//! | `READ` | one-block read time |
//! | `RL` | average run length (1 if uncompressed) |
//!
//! [`ops`] implements the per-operator formulas (DS cases 1–4, AND,
//! MERGE, SPC) exactly as printed in the paper's Figures 1–6; [`plans`]
//! composes them over the statement the executor runs, one entry per
//! operator family, each taking the worker counts it runs at:
//! [`CostModel::estimate`] prices a scan under one [`Strategy`] from its
//! own filters, outputs and columns ([`ScanParams`]),
//! [`CostModel::hash_join`] one §4.3 hash join under an
//! [`InnerStrategy`], and [`CostModel::join_tree`] chains join
//! cardinalities through a tree of any edge count and keeps each edge's
//! cheapest representation. A plan's cost is the sum of its operators'
//! costs at their input cardinalities, as in §3. [`calibrate`]
//! re-measures the CPU constants on the host, the way Table 2 was
//! produced ("running the small segments of code that only performed
//! the variable in question").

pub mod calibrate;
pub mod constants;
pub mod ops;
pub mod plans;
pub mod strategy;

pub use constants::Constants;
pub use ops::{AndInput, ColumnParams};
pub use plans::{CostBreakdown, CostModel, JoinParams, ScanFilter, ScanParams};
pub use strategy::{InnerStrategy, Strategy};
