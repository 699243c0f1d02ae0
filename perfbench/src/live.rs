//! `live`: a durable engine that recovers from a prepared snapshot plus
//! WAL tail, then one writer in a closed loop appends a batch and
//! refreshes a four-query dashboard over the wire.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::Rng;
use zql::ZqlEngine;
use zv_datagen::sales::{self, SalesConfig};
use zv_server::proto::VizTable;
use zv_storage::{
    BitmapDb, BitmapDbConfig, Database, PersistOptions, Persistence, ScanDb, ScanDbConfig, Table,
    Value,
};

use crate::caller::{reconcile, record_interaction, Caller, Tally};
use crate::check;
use crate::layers::{self, InteractionRec};
use crate::loadgen::{closed_loop, Op};
use crate::metrics::{percentile, Outcome, RunResult};
use crate::runner::{
    alternate, settle, stream_rng, write_spans, Config, Rounds, PHASE_STRIDE, ROUNDS,
};
use crate::serve::{resident_bytes, serve, SETUP_REPS};
use crate::trace::Tracer;

/// Rows per append.
const TICK_ROWS: usize = 1_000;
/// Appends in the prepared WAL tail that set-up replays.
const WAL_TAIL: usize = 8;
/// Every this many ticks, the refreshed dashboard is kept for the check.
const KEEP_EVERY: usize = 64;

/// The dashboard refreshed after every append: SUM, AVG and COUNT
/// group-bys the result cache keeps current by delta merges.
const DASHBOARD: [&str; 4] = [
    "name | x | y | z | viz\n*f1 | 'year' | 'sales' | v1 <- 'location'.* | bar.(y=agg('sum'))",
    "name | x | y | z | viz\n*f1 | 'year' | 'profit' | v1 <- 'location'.* | bar.(y=agg('avg'))",
    "name | x | y | z | viz\n*f1 | 'month' | 'sales' | v1 <- 'category'.* | bar.(y=agg('count'))",
    "name | x | y | constraints | viz\n*f1 | 'year' | 'sales' | product='stapler' | bar.(y=agg('avg'))",
];

/// Append batch `index` of `stream`: copies of base-table rows from a
/// seeded offset, so every value is valid for the schema.
fn batch(base: &Table, seed: u64, stream: u64, index: usize) -> Vec<Vec<Value>> {
    let n = base.num_rows();
    let offset = stream_rng(seed, stream, index).gen_range(0..n);
    (0..TICK_ROWS)
        .map(|r| base.row((offset + r * 13) % n))
        .collect()
}

struct Writer {
    caller: Caller,
    /// `(table at the refresh, refreshed dashboard)` for the check.
    kept: Vec<(Arc<Table>, Vec<Vec<VizTable>>)>,
}

fn tick(
    w: &mut Writer,
    db: &dyn Database,
    tracer: &Tracer,
    index: usize,
    rows: Vec<Vec<Value>>,
) -> Outcome {
    let id = if tracer.enabled() {
        let id = tracer.next_id();
        tracer.enter(id, id);
        id
    } else {
        0
    };
    let start = Instant::now();
    if db.append_rows(&rows).is_err() {
        return Outcome::Error;
    }
    let appended = Instant::now();
    let mut calls = Vec::new();
    let mut answers = Vec::new();
    let mut outcome = Outcome::Completed;
    for text in DASHBOARD {
        let (reply, rec) = w.caller.call(text, tracer, id);
        calls.extend(rec);
        if reply.outcome != Outcome::Completed {
            outcome = reply.outcome;
            break;
        }
        answers.push(reply.tables);
    }
    let end = Instant::now();
    if tracer.enabled() {
        record_interaction(tracer, id, start, end);
        w.caller.tally.recs.push(InteractionRec {
            start,
            end,
            calls,
            append: Some(appended - start),
        });
    }
    if outcome == Outcome::Completed && index.is_multiple_of(KEEP_EVERY) {
        w.kept.push((db.table(), answers));
    }
    outcome
}

/// Seed the data directory: a snapshot of the base table plus a WAL
/// tail of appends.
fn prepare(dir: &Path, base: &Arc<Table>, seed: u64) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let db = BitmapDb::open_durable(dir, BitmapDbConfig::default(), || base.clone())
        .map_err(|e| format!("preparing {}: {e}", dir.display()))?;
    for i in 0..WAL_TAIL {
        db.append_rows(&batch(base, seed, 6, i))
            .map_err(|e| format!("preparing the WAL tail: {e}"))?;
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut total = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

pub fn run(cfg: &Config) -> Result<RunResult, String> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = Config::out_dir().join(format!(
        "live-{}-{}-{}",
        cfg.seed,
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let result = run_in(cfg, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(cfg: &Config, dir: &Path) -> Result<RunResult, String> {
    let base = sales::generate(&SalesConfig {
        rows: cfg.pick(1_000_000, 20_000),
        products: cfg.pick(200, 30),
        seed: cfg.seed,
        ..Default::default()
    });
    prepare(dir, &base, cfg.seed)?;
    let mut out = RunResult {
        correct: true,
        ..RunResult::default()
    };
    if cfg.traced {
        let mut recover_ms = Vec::new();
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            Persistence::open(dir, PersistOptions::default())
                .map_err(|e| format!("recovering {}: {e}", dir.display()))?;
            recover_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        out.set("persist.recover_ms", percentile(&recover_ms, 50.0));
    }

    let tracer = Tracer::new();
    let make_db = || {
        BitmapDb::open_durable(dir, BitmapDbConfig::default(), || base.clone())
            .map_err(|e| format!("opening {}: {e}", dir.display()))
    };
    let (served, setup) = serve(&make_db, &tracer, true)?;
    let server = served.server.as_ref().expect("live serves");
    let addr = server.local_addr();
    let before = server.stats();
    let db = Arc::clone(served.engine.database());
    let rows = db.table().num_rows();
    let (columns, index) = resident_bytes(&served.db);
    out.set("setup_s", setup.setup_s);
    out.set("storage.build_ms", setup.build_ms);
    out.set(
        "resident_bytes_per_row",
        (columns + index) as f64 / rows as f64,
    );
    out.set("storage.column_bytes_per_row", columns as f64 / rows as f64);
    out.set("storage.index_bytes_per_row", index as f64 / rows as f64);

    // Untimed warm-up: the first refresh scans and fills the cache, so
    // every later refresh can merge the appended delta.
    let mut tally = Tally::default();
    let mut warm = Caller::connect(addr, false)?;
    for text in DASHBOARD {
        if warm.interact(text, &tracer, false) != Outcome::Completed {
            return Err(format!("warm-up query failed:\n{text}"));
        }
    }
    tally.merge(warm.close());

    let seed = cfg.seed;
    let op = Op {
        input: &|i| batch(&base, seed, 5, i),
        run: &|w: &mut Writer, i, rows| tick(w, &*db, &tracer, i, rows),
        after: &|w: &mut Writer| w.caller.probe(),
    };
    let writer = |traced| -> Result<Writer, String> {
        Ok(Writer {
            caller: Caller::connect(addr, traced)?,
            kept: Vec::new(),
        })
    };
    let mut kept = Vec::new();
    if cfg.traced {
        let mut plain = writer(false)?;
        let mut traced = writer(true)?;
        let blocks = alternate(
            &mut plain,
            &mut traced,
            cfg.secs(1.0),
            PHASE_STRIDE,
            &tracer,
            &served.db,
            op,
        );
        out.ledger.add(&blocks.ledger);
        out.set("trace.overhead_frac", blocks.overhead_frac);
        let traced_tally = traced.caller.close();
        let spans = tracer.take_spans();
        let ticks = traced_tally.recs.len();
        layers::report(
            &traced_tally.recs,
            &spans,
            &blocks.counters,
            ticks,
            &mut out,
        )?;
        write_spans(cfg, &tracer, &spans)?;
        let rows_now = db.table().num_rows();
        out.set(
            "persist.disk_bytes_per_row",
            dir_bytes(dir)? as f64 / rows_now as f64,
        );
        tally.merge(traced_tally);
        tally.merge(plain.caller.close());
        kept.extend(plain.kept);
        kept.extend(traced.kept);
    } else {
        let mut w = writer(false)?;
        let mut rounds = Rounds::default();
        for r in 0..ROUNDS {
            let phase = closed_loop(
                std::slice::from_mut(&mut w),
                cfg.secs(1.0 / ROUNDS as f64),
                (r + 1) * PHASE_STRIDE,
                op,
            );
            rounds.record(&phase, true, true);
        }
        rounds.report(&mut out);
        tally.merge(w.caller.close());
        kept.extend(w.kept);
    }
    if let Err(e) = reconcile(&before, &server.stats(), &tally) {
        out.fail(e);
    }
    drop(served);

    // Each kept refresh against a full recompute on an uncached engine
    // over the table version it answered.
    let mut corrupt = cfg.faults.corrupt_reference;
    for (table, answers) in &kept {
        let reference = ZqlEngine::new(Arc::new(ScanDb::with_config(
            table.clone(),
            ScanDbConfig::uncached(),
        )));
        for (text, got) in DASHBOARD.iter().zip(answers) {
            match reference.execute_text(text) {
                Ok(mut want) => {
                    if corrupt && check::corrupt(&mut want) {
                        corrupt = false;
                    }
                    if let Err(e) = check::same_answer(got, &want) {
                        out.fail(format!(
                            "wrong refresh at {} rows: {e}\nquery:\n{text}",
                            table.num_rows()
                        ));
                    }
                }
                Err(e) => out.fail(format!("reference failed: {e}")),
            }
        }
    }
    if kept.is_empty() {
        out.fail("no refresh was kept for the check".to_string());
    }
    settle(cfg, &mut out);
    Ok(out)
}
