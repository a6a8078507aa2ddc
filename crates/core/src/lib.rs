//! The materialization-strategy executor: the paper's primary contribution.
//!
//! This crate implements the four tuple-construction strategies of
//! *Abadi et al., "Materialization Strategies in a Column-Oriented DBMS"*
//! over the `matstrat-storage` substrate:
//!
//! * [`Strategy::EmPipelined`] — DS2 → DS4 chains: tuples are built
//!   incrementally, one column per operator, probing later columns at the
//!   positions that survived earlier predicates;
//! * [`Strategy::EmParallel`] — an SPC (scan-predicate-construct) leaf
//!   that reads all needed columns in lockstep and emits full tuples;
//! * [`Strategy::LmPipelined`] — positions flow down a DS1/DS3 chain;
//!   later columns are fetched **only** at surviving positions, skipping
//!   whole blocks when a granule produced no matches;
//! * [`Strategy::LmParallel`] — every predicate column is filtered to a
//!   position list, the lists are intersected with word-wise ANDs, and
//!   values are stitched at the very top.
//!
//! Late-materialization plans communicate via §3.6 multi-columns: a
//! position descriptor in one of the three representations of
//! `matstrat-poslist`, and compressed [`MiniColumn`]s referencing
//! buffer-pool blocks.
//!
//! The [`Database`] facade ties storage, execution, the §4.3 join
//! strategies, and the model-driven [`planner`] together.

pub mod db;
pub mod exec;
pub mod multicol;
pub mod ops;
pub mod pipeline;
pub mod planner;
pub mod query;
pub mod rowstore;
pub mod session;

pub use db::{delete_where, Database, QueryOutcome, QueryPlan};
pub use exec::{default_parallelism, execute_with_options, ExecOptions};
pub use matstrat_model::{InnerStrategy, Strategy};
pub use multicol::MiniColumn;
pub use ops::agg::AggFunc;
pub use ops::join::JoinSpec;
pub use ops::join_tree::{hash_join_tree_with_options, JoinTreePlan};
pub use pipeline::FragmentPipeline;
pub use planner::{JoinTreeChoice, PlanChoice, Planner};
pub use query::{
    AggSpec, JoinKeySource, JoinTreeSpec, QueryResult, QuerySpec, QueryStats, Statement,
};
pub use session::{fair_share, ServeGuard, Server, ServerConfig, ServerStats, Session};

/// Number of positions processed per pipeline iteration (one "granule").
///
/// Multi-columns are horizontal partitions; this is their height. 64 Ki
/// positions keeps a granule of a 1-byte uncompressed column at roughly
/// one 64 KB storage block, mirroring C-Store's block-at-a-time operator
/// loop.
pub const GRANULE: u64 = 64 * 1024;
