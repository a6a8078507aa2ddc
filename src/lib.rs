//! # matstrat — Materialization Strategies in a Column-Oriented DBMS
//!
//! A from-scratch Rust reproduction of *Abadi, Myers, DeWitt, Madden:
//! "Materialization Strategies in a Column-Oriented DBMS"* (ICDE 2007).
//!
//! A column store keeps every attribute in its own file; to answer queries
//! through a row-oriented interface it must *materialize* tuples by
//! stitching columns back together. This crate implements and evaluates
//! the paper's four strategies for deciding **when** to stitch:
//!
//! * **EM-pipelined** — build tuples incrementally, one column at a time;
//! * **EM-parallel** — build full tuples at the leaves (SPC operator);
//! * **LM-pipelined** — operate on positions, fetching each next column
//!   only at positions that survived earlier predicates;
//! * **LM-parallel** — filter all columns to position lists, intersect
//!   with word-wise ANDs, then fetch values and merge.
//!
//! This umbrella crate re-exports the full public API of the workspace:
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | [`common`] | `matstrat-common` | values, positions, SARG predicates |
//! | [`poslist`] | `matstrat-poslist` | range/bitmap/explicit position lists |
//! | [`storage`] | `matstrat-storage` | 64 KB blocks, codecs, buffer pool, catalog |
//! | [`model`] | `matstrat-model` | the §3 analytical cost model |
//! | [`core`] | `matstrat-core` | multi-columns, operators, strategies, planner, query service |
//! | [`lang`] | `matstrat-lang` | the SQL-dialect front-end (parse, lower, pretty-print) |
//! | [`net`] | `matstrat-net` | TCP wire frontend (newline-framed protocol, `matstrat serve`) |
//! | [`client`] | `matstrat-client` | thin protocol client for tests/benches/tools |
//! | [`tpch`] | `matstrat-tpch` | TPC-H-style workload generator |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```
//! use matstrat::prelude::*;
//!
//! // An in-memory database with one two-column projection.
//! let db = Database::in_memory();
//! let spec = ProjectionSpec::new("demo")
//!     .column("a", EncodingKind::Rle, SortOrder::Primary)
//!     .column("b", EncodingKind::Plain, SortOrder::None);
//! let a: Vec<i64> = (0..1000).map(|i| i / 100).collect();
//! let b: Vec<i64> = (0..1000).map(|i| i % 7).collect();
//! let table = db.load_projection(&spec, &[&a, &b]).unwrap();
//!
//! // SELECT a, b FROM demo WHERE a < 5 AND b < 3 — planned and run
//! // through the unified entry point.
//! let query = QuerySpec::select(table, vec![0, 1])
//!     .filter(0, Predicate::lt(5))
//!     .filter(1, Predicate::lt(3));
//! let out = db.execute(&Statement::Select(query)).unwrap();
//! assert_eq!(out.rows.num_rows(), 216);
//! println!("{}", out.choice.describe()); // which strategy the planner chose
//! ```

pub use matstrat_client as client;
pub use matstrat_common as common;
pub use matstrat_core as core;
pub use matstrat_lang as lang;
pub use matstrat_model as model;
pub use matstrat_net as net;
pub use matstrat_poslist as poslist;
pub use matstrat_storage as storage;
pub use matstrat_tpch as tpch;

/// One-line import for applications: `use matstrat::prelude::*;`.
pub mod prelude {
    pub use matstrat_client::{Client, Response, Rows, WireError};
    pub use matstrat_common::{CompareOp, Error, Pos, PosRange, Predicate, Result, Value};
    pub use matstrat_core::{
        default_parallelism, AggSpec, Database, ExecOptions, FragmentPipeline, InnerStrategy,
        JoinSpec, JoinTreePlan, JoinTreeSpec, MiniColumn, QueryOutcome, QueryPlan, QueryResult,
        QuerySpec, QueryStats, Server, ServerConfig, ServerStats, Session, Statement, Strategy,
    };
    pub use matstrat_lang::{compile, print_statement, ParseError};
    pub use matstrat_model::{Constants, CostModel};
    pub use matstrat_net::{NetConfig, NetServer, NetStats};
    pub use matstrat_poslist::{PosList, Repr};
    pub use matstrat_storage::{EncodingKind, ProjectionSpec, SortOrder};
    pub use matstrat_tpch::{JoinTables, LineitemGen, TpchConfig};
}
