//! Shared primitives for the `matstrat` column-store.
//!
//! This crate defines the vocabulary types used by every layer of the
//! system: logical values and positions, SARGable predicates that can be
//! pushed into column scans, and the crate-wide error type.
//!
//! The design follows the C-Store executor described in *Abadi, Myers,
//! DeWitt, Madden: "Materialization Strategies in a Column-Oriented DBMS"*
//! (ICDE 2007): every attribute is stored as a separate column of
//! fixed-width integer-coded values, addressed by 0-based *positions*.

pub mod codeops;
pub mod error;
pub mod par;
pub mod pred;
pub mod query_io;
pub mod splitmix;
pub mod types;

pub use error::{Error, Result};
pub use par::{default_parallelism, env_worker_count, fan_out, join_unwinding, par_map_indexed};
pub use pred::{CodePredicate, CompareOp, Predicate};
pub use query_io::QueryIo;
pub use splitmix::SplitMix64;
pub use types::{ColumnId, Pos, PosRange, TableId, Value, Width};
