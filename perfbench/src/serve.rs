//! Bringing the system up the way a user does — engine, ZQL engine,
//! wire server — and timing it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zql::ZqlEngine;
use zv_server::{NetClient, NetServer, NetServerConfig};
use zv_storage::{BitmapDb, Database};

use crate::metrics::percentile;
use crate::trace::{TracedDb, Tracer};

/// Set-up is timed this many times per run and reported as the median.
pub const SETUP_REPS: usize = 5;

/// A running system.
pub struct Served {
    pub db: Arc<BitmapDb>,
    pub engine: Arc<ZqlEngine>,
    pub server: Option<NetServer>,
}

/// Set-up timings of the kept instance's run.
pub struct SetupTimes {
    /// Median of [`SETUP_REPS`] bring-ups: engine build (or recovery) to
    /// the first accepted connection.
    pub setup_s: f64,
    /// Median time of `make_db` alone.
    pub build_ms: f64,
}

fn bring_up(
    make_db: &dyn Fn() -> Result<BitmapDb, String>,
    tracer: &Arc<Tracer>,
    with_server: bool,
) -> Result<(Served, Duration, Duration), String> {
    let start = Instant::now();
    let db = Arc::new(make_db()?);
    let built = start.elapsed();
    let traced = Arc::new(TracedDb::new(Arc::clone(&db), Arc::clone(tracer)));
    let engine = Arc::new(ZqlEngine::new(traced));
    let mut served = Served {
        db,
        engine,
        server: None,
    };
    let first = if with_server {
        let server = NetServer::start(
            Arc::clone(&served.engine),
            "127.0.0.1:0",
            NetServerConfig::default(),
        )
        .map_err(|e| format!("server start: {e}"))?;
        let addr = server.local_addr();
        served.server = Some(server);
        Some(NetClient::connect(addr, "").map_err(|e| format!("first connection: {e}"))?)
    } else {
        None
    };
    let up = start.elapsed();
    if let Some(first) = first {
        first
            .bye()
            .map_err(|e| format!("first connection close: {e}"))?;
    }
    Ok((served, built, up))
}

/// Bring the system up [`SETUP_REPS`] times from scratch, keeping the
/// last instance. Without a server, set-up ends when the ZQL engine is
/// ready.
pub fn serve(
    make_db: &dyn Fn() -> Result<BitmapDb, String>,
    tracer: &Arc<Tracer>,
    with_server: bool,
) -> Result<(Served, SetupTimes), String> {
    let mut builds = Vec::new();
    let mut ups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // The previous instance shuts down before the next is timed.
        drop(kept.take());
        let (served, built, up) = bring_up(make_db, tracer, with_server)?;
        builds.push(built.as_secs_f64() * 1e3);
        ups.push(up.as_secs_f64());
        kept = Some(served);
    }
    let times = SetupTimes {
        setup_s: percentile(&ups, 50.0),
        build_ms: percentile(&builds, 50.0),
    };
    Ok((kept.expect("SETUP_REPS is positive"), times))
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Column payload bytes and bitmap-index bytes.
pub fn resident_bytes(db: &BitmapDb) -> (usize, usize) {
    let table = db.table();
    let columns = (0..table.schema().len())
        .map(|i| table.column_at(i).heap_bytes())
        .sum();
    (columns, db.index_bytes())
}
