//! Set-up: generate the TPC-H-style data for a seed, load every table
//! into a store on the counting disk, and boot the query service and
//! its TCP frontend over it. All six workloads run over this one
//! database, so `setup_s` and `peak_rss_mb` compare across them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use matstrat_common::{Result, Value};
use matstrat_core::{Database, Server, ServerConfig, Session};
use matstrat_net::{NetConfig, NetServer};
use matstrat_storage::store::DEFAULT_POOL_BLOCKS;
use matstrat_storage::{EncodingKind, ProjectionSpec, SortOrder, Store};
use matstrat_tpch::{JoinTables, LineitemData, LineitemGen, TpchConfig};

use crate::disk::CountingDisk;

/// The LINENUM encodings `lineitem` is loaded under, one table each
/// (`lineitem_plain`, `lineitem_rle`, …).
pub const ENCODINGS: [EncodingKind; 4] = [
    EncodingKind::Plain,
    EncodingKind::Rle,
    EncodingKind::BitVec,
    EncodingKind::Dict,
];

/// `events` keeps every `EVENTS_STRIDE`-th lineitem row: 100 k rows at
/// the default scale.
const EVENTS_STRIDE: usize = 6;

/// How a workload wants its store and service shaped.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Buffer-pool capacity in blocks; `None` is the store default,
    /// which holds the whole database.
    pub pool_blocks: Option<usize>,
    /// Catalog and logs are written through to the disk, so the store
    /// can be reopened from it.
    pub persistent: bool,
    /// Executor workers per statement (`worker_budget`), which is also
    /// what the service prices plans at.
    pub workers: usize,
}

/// The loaded database with the data it was generated from (workloads
/// derive predicate cutoffs from the data, never from the store).
pub struct Fixture {
    pub store: Store,
    pub disk: Arc<CountingDisk>,
    pub lineitem: LineitemData,
    pub join: JoinTables,
    /// Rows of `events` as loaded; the writer's keys start here.
    pub events_rows: usize,
    /// LINENUM and QUANTITY of `events` as loaded, for the write shadow.
    pub events_linenum: Vec<Value>,
    pub events_quantity: Vec<Value>,
    /// Values loaded, over all tables (8 B of user data each).
    pub user_values: u64,
    /// Rows loaded, over all tables.
    pub rows: u64,
    pub pool_blocks: usize,
    pub generate_s: f64,
    pub load_s: f64,
}

impl Fixture {
    /// Generate for `(seed, scale)` and load under `shape`.
    pub fn build(seed: u64, scale: f64, shape: Shape) -> Result<Fixture> {
        let t0 = Instant::now();
        let cfg = TpchConfig { scale, seed };
        let lineitem = LineitemGen::new(cfg).generate();
        let join = JoinTables::generate(cfg);
        let generate_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let disk = CountingDisk::new();
        let pool_blocks = shape.pool_blocks.unwrap_or(DEFAULT_POOL_BLOCKS);
        let store = Store::with_disk(disk.clone(), pool_blocks, shape.persistent);
        let db = Database::with_store(store.clone());
        for enc in ENCODINGS {
            lineitem.load(&db, &format!("lineitem_{}", enc.name()), enc)?;
        }
        join.load_orders(&db, "orders")?;
        join.load_customer(&db, "customer")?;
        join.load_nation(&db, "nation")?;
        join.load_date(&db, "date")?;

        let strided =
            |col: &[Value]| -> Vec<Value> { col.iter().step_by(EVENTS_STRIDE).copied().collect() };
        let (shipdate, linenum, quantity) = (
            strided(&lineitem.shipdate),
            strided(&lineitem.linenum),
            strided(&lineitem.quantity),
        );
        let ids: Vec<Value> = (0..shipdate.len() as Value).collect();
        let spec = ProjectionSpec::new("events")
            .column("id", EncodingKind::Plain, SortOrder::Primary)
            .column("shipdate", EncodingKind::Plain, SortOrder::None)
            .column("linenum", EncodingKind::Plain, SortOrder::None)
            .column("quantity", EncodingKind::Plain, SortOrder::None);
        store.load_projection(&spec, &[&ids, &shipdate, &linenum, &quantity])?;
        let load_s = t1.elapsed().as_secs_f64();

        let (mut rows, mut user_values) = (0u64, 0u64);
        for name in store.projection_names() {
            let p = store.projection_by_name(&name)?;
            rows += p.num_rows;
            user_values += p.num_rows * p.columns.len() as u64;
        }
        Ok(Fixture {
            store,
            disk,
            events_rows: ids.len(),
            events_linenum: linenum,
            events_quantity: quantity,
            lineitem,
            join,
            user_values,
            rows,
            pool_blocks,
            generate_s,
            load_s,
        })
    }

    /// Blocks of every column of every table: the whole database.
    pub fn total_blocks(&self) -> Result<usize> {
        let mut blocks = 0;
        for name in self.store.projection_names() {
            let p = self.store.projection_by_name(&name)?;
            for c in 0..p.columns.len() {
                blocks += self.store.reader(p.id, c)?.num_blocks();
            }
        }
        Ok(blocks)
    }
}

/// The running service: admission gate, TCP frontend, and a `Database`
/// over the same store whose planner prices like the service's.
pub struct Service {
    pub server: Arc<Server>,
    pub net: NetServer,
    pub db: Database,
}

impl Service {
    /// Boot over `store` with `workers` executor threads per statement.
    pub fn boot(store: &Store, workers: usize) -> std::io::Result<Service> {
        let server = Server::new(
            store.clone(),
            ServerConfig {
                max_concurrent: 2,
                worker_budget: workers,
            },
        );
        let net = NetServer::serve(
            "127.0.0.1:0",
            Arc::clone(&server),
            NetConfig {
                max_conns: 4,
                read_timeout: Duration::from_secs(60),
                write_timeout: Duration::from_secs(60),
                service: server.config(),
            },
        )?;
        let mut db = Database::with_store(store.clone());
        db.set_parallelism(workers);
        Ok(Service { server, net, db })
    }

    pub fn session(&self) -> Session {
        self.server.connect()
    }
}
