//! `explore` and `dashboard`: ZQL over the wire against an in-process
//! `NetServer` with the default engine configuration, two connections,
//! open loop at a fixed rate, then a closed loop for throughput.

use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;
use zql::ZqlEngine;
use zv_datagen::sales::{self, SalesConfig};
use zv_storage::{BitmapDb, BitmapDbConfig, ScanDb, ScanDbConfig, Table};

use crate::caller::{reconcile, Caller, Tally};
use crate::check;
use crate::layers;
use crate::loadgen::{closed_loop, open_loop, Op};
use crate::metrics::{percentile, Outcome, RunResult};
use crate::runner::{
    alternate, settle, stream_rng, write_spans, Config, Rounds, PHASE_STRIDE, ROUNDS,
};
use crate::serve::{resident_bytes, serve};
use crate::trace::Tracer;

/// Connections, and generator threads, of the wire workloads.
pub const CONNECTIONS: usize = 2;
/// Share of the run spent in the open loop; the rest is the closed loop
/// that measures throughput.
const OPEN_SHARE: f64 = 0.7;
/// Share of a traced run spent in the open loop that measures how late
/// the generator ran; the rest alternates untraced and traced blocks.
const LATE_SHARE: f64 = 0.25;
/// Every this many interactions, the answer is kept for the check.
const KEEP_EVERY: usize = 16;
/// Untimed interactions before the measured phases.
const WARM_QUERIES: usize = 6;

/// What distinguishes `explore` from `dashboard`.
pub struct WireWorkload {
    pub rows: usize,
    pub products: usize,
    /// Open-loop rate in interactions per second, fixed per workload.
    pub rate: f64,
    /// Interaction `index` of the seeded stream.
    pub query: fn(u64, usize) -> String,
    /// Queries issued once, untimed, before anything is measured.
    pub warm: fn() -> Vec<String>,
}

/// `explore`: 1M rows, 200 products, 12 interactions/s.
pub fn explore(cfg: &Config) -> WireWorkload {
    WireWorkload {
        rows: cfg.pick(1_000_000, 20_000),
        products: cfg.pick(200, 30),
        rate: if cfg.short { 40.0 } else { 12.0 },
        query: explore_query,
        warm: Vec::new,
    }
}

/// `dashboard`: 1M rows, 120 products, 15 interactions/s.
pub fn dashboard(cfg: &Config) -> WireWorkload {
    WireWorkload {
        rows: cfg.pick(1_000_000, 20_000),
        products: cfg.pick(120, 30),
        rate: if cfg.short { 40.0 } else { 15.0 },
        query: dashboard_query,
        warm: || (0..DASHBOARDS).map(|d| dashboard_text(d, None)).collect(),
    }
}

/// Table 5.1/5.2/7.1-shaped queries whose slider thresholds differ in
/// every interaction, so nearly every one misses the result cache.
fn explore_query(seed: u64, index: usize) -> String {
    let mut rng = stream_rng(seed, 1, index);
    let a = format!("{:.4}", rng.gen_range(20.0..120.0));
    let b = format!("{:.4}", rng.gen_range(0.0..40.0));
    let header = "name | x | y | z | constraints | viz | process\n";
    let body = match index % 3 {
        0 => format!(
            "f1 | 'year' | 'sales' | v1 <- 'product'.* | location='US' and sales > {a} | bar.(y=agg('sum')) | v2 <- argmax(v1)[k=5] T(f1)\n\
             f2 | 'year' | 'sales' | v1 | location='UK' and sales > {a} | bar.(y=agg('sum')) | v3 <- argmin(v1)[k=5] T(f2)\n\
             *f3 | 'year' | 'profit' | v4 <- (v2.range | v3.range) | profit > {b} | bar.(y=agg('sum')) |"
        ),
        1 => format!(
            "f1 | 'city' | 'sales' | v1 <- 'product'.* | year=2010 and sales > {a} | bar.(y=agg('sum')) |\n\
             f2 | 'city' | 'sales' | v1 | year=2015 and sales > {a} | bar.(y=agg('sum')) | v2 <- argmax(v1)[k=5] D(f1, f2)\n\
             *f3 | 'city' | 'profit' | v2 | profit > {b} | bar.(y=agg('sum')) |"
        ),
        _ => format!(
            "f1 | 'year' | 'sales' | v1 <- 'product'.* | sales > {a} | bar.(y=agg('avg')) | v2 <- argmax(v1)[k=5] T(f1)\n\
             f2 | 'year' | 'profit' | v1 | profit > {b} | bar.(y=agg('avg')) | v3 <- argmax(v1)[k=5] T(f2)\n\
             *f3 | 'year' | y3 <- {{'sales', 'profit'}} | v4 <- (v2.range | v3.range) | sales > {a} | bar.(y=agg('avg')) |"
        ),
    };
    format!("{header}{body}")
}

/// Distinct dashboards the `dashboard` stream revisits.
const DASHBOARDS: usize = 20;
/// Share of interactions that drill into a dashboard. Kept well under
/// 5% so the p95 falls inside the cache-hit population rather than on
/// its boundary with the scanning drill-downs.
const DRILL_SHARE: f64 = 0.02;
/// Zipf exponent of dashboard popularity.
const ZIPF_S: f64 = 1.1;

/// Dashboard `d`: one visualization per product, by year. Its shape
/// depends on `d` alone, so the popular dashboards, and with them the
/// frame sizes the stream decodes, are the same for every seed.
fn dashboard_text(d: usize, drill: Option<String>) -> String {
    let y = ["sales", "profit", "weight"][d % 3];
    let agg = ["sum", "avg"][d / 3 % 2];
    let mut constraints: Vec<String> = Vec::new();
    match d % 4 {
        1 => constraints.push(format!("location='{}'", sales::location_name(d % 5))),
        3 => constraints.push(format!("category='category_{}'", d % 8)),
        _ => {}
    }
    constraints.extend(drill);
    format!(
        "name | x | y | z | constraints | viz\n\
         *f1 | 'year' | '{y}' | v1 <- 'product'.* | {} | bar.(y=agg('{agg}'))",
        constraints.join(" and ")
    )
}

/// A Zipf-skewed revisit of the dashboards with a share of drill-downs
/// mixed in: by year, which the cache derives from the dashboard's
/// answer (year is its x axis), or by month, which needs a scan the
/// first time.
fn dashboard_query(seed: u64, index: usize) -> String {
    let mut rng = stream_rng(seed, 3, index);
    let weights: Vec<f64> = (1..=DASHBOARDS)
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let mut u = rng.gen_range(0.0..weights.iter().sum::<f64>());
    let d = weights
        .iter()
        .position(|w| {
            u -= w;
            u < 0.0
        })
        .unwrap_or(DASHBOARDS - 1);
    let drill = rng.gen_bool(DRILL_SHARE).then(|| {
        if rng.gen_bool(0.5) {
            format!("year={}", rng.gen_range(2010..=2016i64))
        } else {
            format!("month={}", rng.gen_range(1..=12i64))
        }
    });
    dashboard_text(d, drill)
}

/// Run `explore` or `dashboard`.
pub fn run(cfg: &Config, w: &WireWorkload) -> Result<RunResult, String> {
    let table = sales::generate(&SalesConfig {
        rows: w.rows,
        products: w.products,
        seed: cfg.seed,
        ..Default::default()
    });
    let tracer = Tracer::new();
    let make_db = || {
        Ok(BitmapDb::with_config(
            table.clone(),
            BitmapDbConfig::default(),
        ))
    };
    let (served, setup) = serve(&make_db, &tracer, true)?;
    let server = served.server.as_ref().expect("wire workloads serve");
    let addr = server.local_addr();
    let before = server.stats();

    let mut out = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let (columns, index) = resident_bytes(&served.db);
    out.set("setup_s", setup.setup_s);
    out.set("storage.build_ms", setup.build_ms);
    out.set(
        "resident_bytes_per_row",
        (columns + index) as f64 / w.rows as f64,
    );
    out.set(
        "storage.column_bytes_per_row",
        columns as f64 / w.rows as f64,
    );
    out.set("storage.index_bytes_per_row", index as f64 / w.rows as f64);

    // Untimed warm-up: the dashboards once each, and a few stream
    // queries so lazy set-up has finished before anything is timed.
    let mut tally = Tally::default();
    let mut warm = Caller::connect(addr, false)?;
    let warm_texts = (w.warm)()
        .into_iter()
        .chain((0..WARM_QUERIES).map(|i| (w.query)(cfg.seed, i)));
    for text in warm_texts {
        if warm.interact(&text, &tracer, true) != Outcome::Completed {
            return Err(format!("warm-up query failed:\n{text}"));
        }
    }
    tally.merge(warm.close());

    let seed = cfg.seed;
    let op = Op {
        input: &|i| (w.query)(seed, i),
        run: &|c: &mut Caller, i, text: String| c.interact(&text, &tracer, i % KEEP_EVERY == 0),
        after: &Caller::probe,
    };
    if cfg.traced {
        let mut late_callers = connect_all(addr, false)?;
        let late = open_loop(
            &mut late_callers,
            w.rate,
            cfg.secs(LATE_SHARE),
            PHASE_STRIDE,
            op,
        );
        let late_ms: Vec<f64> = late.samples.iter().map(|s| s.late_ms).collect();
        out.set("loadgen.late_p95_ms", percentile(&late_ms, 95.0));
        out.ledger.add(&late.ledger);
        for c in late_callers {
            tally.merge(c.close());
        }
        let mut plain = Caller::connect(addr, false)?;
        let mut traced = Caller::connect(addr, true)?;
        let blocks = alternate(
            &mut plain,
            &mut traced,
            cfg.secs(1.0 - LATE_SHARE),
            (2 * ROUNDS + 1) * PHASE_STRIDE,
            &tracer,
            &served.db,
            op,
        );
        out.ledger.add(&blocks.ledger);
        out.set("trace.overhead_frac", blocks.overhead_frac);
        tally.merge(plain.close());
        let traced = traced.close();
        let spans = tracer.take_spans();
        layers::report(&traced.recs, &spans, &blocks.counters, 0, &mut out)?;
        write_spans(cfg, &tracer, &spans)?;
        tally.merge(traced);
    } else {
        let mut callers = connect_all(addr, false)?;
        let mut rounds = Rounds::default();
        for r in 0..ROUNDS {
            let base = (2 * r + 1) * PHASE_STRIDE;
            let share = 1.0 / ROUNDS as f64;
            let open = open_loop(&mut callers, w.rate, cfg.secs(OPEN_SHARE * share), base, op);
            rounds.record(&open, true, false);
            let closed = closed_loop(
                &mut callers,
                cfg.secs((1.0 - OPEN_SHARE) * share),
                base + PHASE_STRIDE,
                op,
            );
            rounds.record(&closed, false, true);
        }
        rounds.report(&mut out);
        for c in callers {
            tally.merge(c.close());
        }
    }
    if let Err(e) = reconcile(&before, &server.stats(), &tally) {
        out.fail(e);
    }
    drop(served);
    check_answers(cfg, &table, &tally, &mut out);
    settle(cfg, &mut out);
    Ok(out)
}

fn connect_all(addr: std::net::SocketAddr, traced: bool) -> Result<Vec<Caller>, String> {
    (0..CONNECTIONS)
        .map(|_| Caller::connect(addr, traced))
        .collect()
}

/// Every kept answer against the same ZQL on an uncached `ScanDb` over
/// the same table.
fn check_answers(cfg: &Config, table: &Arc<Table>, tally: &Tally, out: &mut RunResult) {
    let reference = ZqlEngine::new(Arc::new(ScanDb::with_config(
        table.clone(),
        ScanDbConfig::uncached(),
    )));
    let mut answers = HashMap::new();
    let mut corrupt = cfg.faults.corrupt_reference;
    for (text, got) in &tally.kept {
        if !answers.contains_key(text) {
            match reference.execute_text(text) {
                Ok(mut want) => {
                    if corrupt && check::corrupt(&mut want) {
                        corrupt = false;
                    }
                    answers.insert(text.clone(), want);
                }
                Err(e) => {
                    out.fail(format!("reference failed on\n{text}\n{e}"));
                    continue;
                }
            }
        }
        if let Err(e) = check::same_answer(got, &answers[text]) {
            out.fail(format!("wrong answer: {e}\nquery:\n{text}"));
        }
    }
    if tally.kept.is_empty() {
        out.fail("no answer was kept for the check".to_string());
    }
}
