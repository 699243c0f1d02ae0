//! `bench_ivm` — incremental-view-maintenance append-tick latency.
//!
//! Models a live dashboard: a warm result cache, a stream of small
//! appends, and the same group-by re-issued after every tick. The warm
//! engine answers each tick by delta-merging the appended row range into
//! its cached result ([`zv_storage::cache`] IVM); the cold engine
//! recomputes from scratch. Measures:
//!
//! * `warm_tick_p50_ms` / `warm_tick_p99_ms` — append-to-answer latency
//!   through the IVM path;
//! * `cold_tick_p50_ms` / `cold_tick_p99_ms` — the same tick recomputed
//!   in full (table-size bound);
//! * `ivm_speedup` — cold p50 / warm p50;
//! * `ivm_rows_per_tick` — rows the warm tick actually scanned, which
//!   must equal the appended batch exactly or the run exits nonzero.
//! * `dim_stat_rows_per_tick` — rows decoded to refresh full-column
//!   dimension stats after an append. Sealed chunks answer min/max from
//!   stats gathered at seal time, so only the unsealed tail is decoded;
//!   a value at or past one chunk means append cost regressed to O(n)
//!   and the run exits nonzero.
//! * `append_p50_ms` — the warm engine's `append_rows` of one tick's
//!   batch, timed around the call (the IVM timers above start after it
//!   returns). `append_4m_p50_ms` times the same batches into a twin
//!   engine over a table 4x larger, and `append_growth_4x` is their
//!   ratio: an O(delta) append stays near 1x, an O(table) one near 4x.
//!   `bitmap_append_p50_ms`, `bitmap_append_4m_p50_ms` and
//!   `bitmap_append_growth_4x` are the same for `BitmapDb`, whose
//!   append also refreshes the bitmap indexes.
//!
//! ```text
//! bench_ivm [--rows N] [--ticks T] [--tick-rows R] [--json PATH]
//! ```
//!
//! Writes a flat JSON summary that `bench_check --ivm-baseline /
//! --ivm-fresh` gates against the committed `BENCH_ivm.json`.
//! Correctness is asserted, not sampled: every warm tick's answer must
//! match the cold recompute (to float tolerance — the synthetic measures
//! are not dyadic, and a delta merge legitimately reassociates the sum).

use std::process::ExitCode;
use std::time::Instant;

use zv_datagen::sales::{self, SalesConfig};
use zv_storage::{
    Agg, BitmapDb, BitmapDbConfig, CacheConfig, Database, FaultSpec, ResultTable, ScanDb,
    ScanDbConfig, SelectQuery, Table, Value, XSpec, YSpec,
};

struct Args {
    rows: usize,
    ticks: usize,
    tick_rows: usize,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        rows: 1_000_000,
        ticks: 20,
        tick_rows: 1_000,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("bench_ivm: {name} needs a value");
                std::process::exit(2);
            })
        };
        let parse = |name: &str, v: String| -> usize {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bench_ivm: {name} {v:?} is not a number");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--rows" => args.rows = parse("--rows", value("--rows")),
            "--ticks" => args.ticks = parse("--ticks", value("--ticks")),
            "--tick-rows" => args.tick_rows = parse("--tick-rows", value("--tick-rows")),
            "--json" => args.json = Some(value("--json")),
            other => {
                eprintln!("bench_ivm: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Nearest-rank percentile over a sorted sample.
fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1] as f64 / 1e3
}

/// Same shape, same groups, every cell within relative tolerance. The
/// delta merge reassociates floating-point sums, so last-ulp drift on
/// non-dyadic data is expected; anything past 1e-9 relative is a bug.
fn agree(a: &ResultTable, b: &ResultTable) -> bool {
    if a.groups.len() != b.groups.len() {
        return false;
    }
    a.groups.iter().zip(&b.groups).all(|(ga, gb)| {
        ga.key == gb.key
            && ga.xs == gb.xs
            && ga.ys.len() == gb.ys.len()
            && ga.ys.iter().zip(&gb.ys).all(|(ya, yb)| {
                ya.iter()
                    .zip(yb)
                    .all(|(x, y)| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0))
            })
    })
}

/// The `t`-th tick's batch: copies of existing rows of `table`, spread
/// over the table and rotated per tick so some ticks bring fresh
/// combinations. Every dictionary value is already known.
fn tick_batch(table: &Table, t: usize, tick_rows: usize) -> Vec<Vec<Value>> {
    (0..tick_rows)
        .map(|r| table.row((t * 7919 + r * 13) % table.num_rows()))
        .collect()
}

/// p50 of `append_rows` into `db`, one tick's batch per sample; each
/// batch is built before its clock starts.
fn append_p50_ms(db: &dyn Database, table: &Table, args: &Args) -> f64 {
    let mut us: Vec<u64> = (0..args.ticks)
        .map(|t| {
            let batch = tick_batch(table, t, args.tick_rows);
            let start = Instant::now();
            db.append_rows(&batch).unwrap();
            start.elapsed().as_micros() as u64
        })
        .collect();
    us.sort_unstable();
    percentile_ms(&us, 50.0)
}

fn main() -> ExitCode {
    let args = parse_args();
    let sales_table = |rows: usize| {
        sales::generate(&SalesConfig {
            rows,
            products: 50,
            ..Default::default()
        })
    };
    let table = sales_table(args.rows);

    // Fault injection explicitly disabled: the `ivm-live` CI leg arms
    // `ZV_FAULT_*` process-wide for the chaos suites, and a faulted
    // merge would silently turn warm ticks into full scans.
    let mut warm_cfg = ScanDbConfig {
        cache: CacheConfig::admit_all(),
        ..Default::default()
    };
    warm_cfg.parallel.fault = FaultSpec::disabled();
    let warm_db = ScanDb::with_config(table.clone(), warm_cfg);
    let mut cold_cfg = ScanDbConfig::uncached();
    cold_cfg.parallel.fault = FaultSpec::disabled();
    let cold_db = ScanDb::with_config(table.clone(), cold_cfg);

    let query = SelectQuery::new(
        XSpec::raw("year"),
        vec![
            YSpec::sum("sales"),
            YSpec::avg("sales"),
            YSpec::new("*", Agg::Count),
        ],
    )
    .with_z("product");

    // Cold pass: warms the cache (and the AVG companion state), so every
    // subsequent tick takes the IVM path.
    warm_db
        .run_request(std::slice::from_ref(&query))
        .unwrap_or_else(|e| {
            eprintln!("bench_ivm: warm-up failed: {e}");
            std::process::exit(2);
        });

    let mut failures: Vec<String> = Vec::new();
    let mut append_us: Vec<u64> = Vec::with_capacity(args.ticks);
    let mut warm_us: Vec<u64> = Vec::with_capacity(args.ticks);
    let mut cold_us: Vec<u64> = Vec::with_capacity(args.ticks);
    let mut ivm_rows_per_tick = 0u64;
    let mut dim_stat_rows_per_tick = 0u64;
    let mut ivm_hits = 0u64;

    for t in 0..args.ticks {
        let batch = tick_batch(&table, t, args.tick_rows);
        let start = Instant::now();
        warm_db.append_rows(&batch).unwrap();
        append_us.push(start.elapsed().as_micros() as u64);
        let before = warm_db.stats().snapshot();
        let start = Instant::now();
        let warm = warm_db
            .run_request(std::slice::from_ref(&query))
            .unwrap()
            .pop()
            .unwrap();
        warm_us.push(start.elapsed().as_micros() as u64);
        let delta = warm_db.stats().snapshot().since(&before);
        ivm_hits += delta.ivm_hits;
        ivm_rows_per_tick = ivm_rows_per_tick.max(delta.ivm_rows_scanned);
        if delta.ivm_hits != 1 {
            failures.push(format!(
                "tick {t}: expected 1 IVM hit, got {} (the delta path declined)",
                delta.ivm_hits
            ));
        }
        if delta.ivm_rows_scanned > args.tick_rows as u64 {
            failures.push(format!(
                "tick {t}: IVM scanned {} rows for a {}-row append",
                delta.ivm_rows_scanned, args.tick_rows
            ));
        }
        // O(delta) append cost: re-deriving full-column dim stats after
        // the append must fold sealed-chunk stats and decode at most the
        // unsealed tail — never rescan the whole (growing) column.
        let stat_rows = match warm_db.table().column("year").unwrap() {
            zv_storage::Column::Int(v) => v.stat_scan_rows(0, v.len()),
            _ => unreachable!("sales.year is an int column"),
        };
        dim_stat_rows_per_tick = dim_stat_rows_per_tick.max(stat_rows as u64);
        if stat_rows >= zv_storage::column::ENC_CHUNK_ROWS {
            failures.push(format!(
                "tick {t}: dim-stat recompute decoded {stat_rows} rows \
                 (tail must stay under one {}-row chunk)",
                zv_storage::column::ENC_CHUNK_ROWS
            ));
        }

        cold_db.append_rows(&batch).unwrap();
        let start = Instant::now();
        let cold = cold_db.execute(&query).unwrap();
        cold_us.push(start.elapsed().as_micros() as u64);
        if !agree(&warm, &cold) {
            failures.push(format!(
                "tick {t}: delta-merged answer disagrees with full recompute"
            ));
        }
    }

    // Append cost at 1x and 4x the table: the same batch shapes into
    // twin engines (cache off — an append's cost does not depend on
    // it), the 4x table built only after the 1x engines are done.
    let mut no_fault = ScanDbConfig::uncached();
    no_fault.parallel.fault = FaultSpec::disabled();
    let mut bitmap_cfg = BitmapDbConfig::uncached();
    bitmap_cfg.parallel.fault = FaultSpec::disabled();
    let bitmap_append_ms = {
        let db = BitmapDb::with_config(table.clone(), bitmap_cfg.clone());
        append_p50_ms(&db, &table, &args)
    };
    drop((warm_db, cold_db));
    let big = sales_table(4 * args.rows);
    let (append_4m_ms, bitmap_append_4m_ms) = {
        let scan = ScanDb::with_config(big.clone(), no_fault);
        let scan_ms = append_p50_ms(&scan, &big, &args);
        drop(scan);
        let bitmap = BitmapDb::with_config(big.clone(), bitmap_cfg);
        (scan_ms, append_p50_ms(&bitmap, &big, &args))
    };

    append_us.sort_unstable();
    warm_us.sort_unstable();
    cold_us.sort_unstable();
    let append_ms = percentile_ms(&append_us, 50.0);
    let append_growth = append_4m_ms / append_ms.max(1e-6);
    let bitmap_append_growth = bitmap_append_4m_ms / bitmap_append_ms.max(1e-6);
    let warm_p50 = percentile_ms(&warm_us, 50.0);
    let warm_p99 = percentile_ms(&warm_us, 99.0);
    let cold_p50 = percentile_ms(&cold_us, 50.0);
    let cold_p99 = percentile_ms(&cold_us, 99.0);
    let speedup = cold_p50 / warm_p50.max(1e-6);

    println!(
        " warm tick  p50 {warm_p50:8.3} ms   p99 {warm_p99:8.3} ms   \
         ({} ticks x {} rows, IVM delta merge)",
        args.ticks, args.tick_rows
    );
    println!(
        " cold tick  p50 {cold_p50:8.3} ms   p99 {cold_p99:8.3} ms   \
         (full recompute over {} rows)",
        args.rows
    );
    println!(
        " speedup    {speedup:8.1}x   ivm hits {ivm_hits}/{}",
        args.ticks
    );
    println!(
        " append     p50 {append_ms:8.3} ms   4x rows {append_4m_ms:8.3} ms   \
         growth {append_growth:5.2}x   (ScanDb)"
    );
    println!(
        " append     p50 {bitmap_append_ms:8.3} ms   4x rows {bitmap_append_4m_ms:8.3} ms   \
         growth {bitmap_append_growth:5.2}x   (BitmapDb, index refresh included)"
    );

    if let Some(path) = &args.json {
        let json = format!(
            "{{\n  \"rows\": {},\n  \"ticks\": {},\n  \"tick_rows\": {},\n  \
             \"warm_tick_p50_ms\": {warm_p50:.4},\n  \"warm_tick_p99_ms\": {warm_p99:.4},\n  \
             \"cold_tick_p50_ms\": {cold_p50:.4},\n  \"cold_tick_p99_ms\": {cold_p99:.4},\n  \
             \"ivm_speedup\": {speedup:.2},\n  \"ivm_rows_per_tick\": {ivm_rows_per_tick},\n  \
             \"dim_stat_rows_per_tick\": {dim_stat_rows_per_tick},\n  \
             \"ivm_hits\": {ivm_hits},\n  \
             \"append_p50_ms\": {append_ms:.4},\n  \
             \"append_4m_p50_ms\": {append_4m_ms:.4},\n  \
             \"append_growth_4x\": {append_growth:.3},\n  \
             \"bitmap_append_p50_ms\": {bitmap_append_ms:.4},\n  \
             \"bitmap_append_4m_p50_ms\": {bitmap_append_4m_ms:.4},\n  \
             \"bitmap_append_growth_4x\": {bitmap_append_growth:.3}\n}}\n",
            args.rows, args.ticks, args.tick_rows,
        );
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("bench_ivm: cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench_ivm FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}
