//! Per-layer metrics of a traced run, computed from the spans and the
//! counters the benchmark read around each layer.

use std::time::{Duration, Instant};

use zql::ExecReport;
use zv_storage::{BitmapDb, CacheStats, Database, StatsSnapshot};

use crate::client::WireSplit;
use crate::metrics::{frac, mean, ms, percentile, RunResult};
use crate::trace::{union_duration, Span};

/// One call into the system inside an interaction: a wire round trip or
/// a task call.
#[derive(Clone, Debug)]
pub struct CallRec {
    /// The span storage spans of this call hang under.
    pub span: u64,
    pub start: Instant,
    pub end: Instant,
    pub report: Option<ExecReport>,
    pub wire: Option<WireSplit>,
    /// `zql::parse_query` of the same text, timed on its own after the
    /// interaction.
    pub parse: Option<Duration>,
    /// Which `zql::tasks` function, for a task call.
    pub task: Option<&'static str>,
    /// What a wire call's probes need, until they have run.
    pub probe: Option<Probe>,
}

/// The query text and answer frame of a traced wire call.
#[derive(Clone, Debug)]
pub struct Probe {
    pub text: String,
    pub frame: Vec<u8>,
}

/// One traced interaction: a query, a task call, or an append plus the
/// dashboard refresh after it.
#[derive(Clone, Debug)]
pub struct InteractionRec {
    pub start: Instant,
    pub end: Instant,
    pub calls: Vec<CallRec>,
    pub append: Option<Duration>,
}

/// Engine counters read between traced phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub stats: StatsSnapshot,
    pub cache: CacheStats,
    pub wal_bytes: u64,
    pub rows: usize,
}

impl Counters {
    pub fn read(db: &BitmapDb) -> Counters {
        Counters {
            stats: db.stats().snapshot(),
            cache: db.cache_stats().unwrap_or_default(),
            wal_bytes: db.persistence().map_or(0, |p| p.stats().wal_bytes_appended),
            rows: db.table().num_rows(),
        }
    }

    /// Accumulate `after - before` into `self`.
    pub fn add_delta(&mut self, before: &Counters, after: &Counters) {
        let d = after.stats.since(&before.stats);
        let s = &mut self.stats;
        s.rows_scanned += d.rows_scanned;
        s.ivm_rows_scanned += d.ivm_rows_scanned;
        let (c, a, b) = (&mut self.cache, &after.cache, &before.cache);
        c.hits += a.hits - b.hits;
        c.misses += a.misses - b.misses;
        c.derived_hits += a.derived_hits - b.derived_hits;
        c.ivm_hits += a.ivm_hits - b.ivm_hits;
        c.evictions += a.evictions - b.evictions;
        self.wal_bytes += after.wal_bytes - before.wal_bytes;
        self.rows += after.rows - before.rows;
    }
}

fn p50_ms(v: impl Iterator<Item = Duration>) -> f64 {
    percentile(&v.map(ms).collect::<Vec<_>>(), 50.0)
}

/// Fill the per-layer metrics that the interaction records, the spans
/// and the counter deltas give. Fails when a storage span does not nest
/// in time inside the call it names as parent: with one caller each
/// must.
pub fn report(
    interactions: &[InteractionRec],
    spans: &[Span],
    counters: &Counters,
    ticks: usize,
    out: &mut RunResult,
) -> Result<(), String> {
    let calls: Vec<&CallRec> = interactions.iter().flat_map(|i| &i.calls).collect();
    let storage: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "storage.request")
        .collect();
    let storage_of = |c: &CallRec| -> Vec<&Span> {
        storage
            .iter()
            .copied()
            .filter(|s| s.parent == c.span)
            .collect()
    };
    let mut nested = 0;
    for c in &calls {
        for s in storage_of(c) {
            if s.start < c.start || s.end > c.end {
                return Err(format!(
                    "storage span {} lies outside its call {}",
                    s.id, c.span
                ));
            }
            nested += 1;
        }
    }
    if nested != storage.len() {
        return Err(format!(
            "{} of {} storage spans belong to no traced call",
            storage.len() - nested,
            storage.len()
        ));
    }

    let wire: Vec<(&CallRec, WireSplit, ExecReport)> = calls
        .iter()
        .filter_map(|c| Some((*c, c.wire?, c.report?)))
        .collect();
    let decode = |w: &WireSplit| w.decode_end - w.decode_start;
    out.set(
        "wire.decode_p50_ms",
        p50_ms(wire.iter().map(|(_, w, _)| decode(w))),
    );
    out.set(
        "wire.encode_p50_ms",
        p50_ms(wire.iter().map(|(_, w, _)| w.encode)),
    );
    out.set(
        "wire.frame_bytes_mean",
        mean(
            &wire
                .iter()
                .map(|(_, w, _)| w.frame_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let waits: Vec<f64> = wire
        .iter()
        .map(|(c, w, r)| ms(c.end - c.start) - ms(r.total_time) - ms(w.encode) - ms(decode(w)))
        .collect();
    out.set("server.wait_p50_ms", percentile(&waits, 50.0));
    out.set("server.wait_p95_ms", percentile(&waits, 95.0));

    let reported: Vec<(&CallRec, ExecReport)> =
        calls.iter().filter_map(|c| Some((*c, c.report?))).collect();
    out.set(
        "server.exec_p50_ms",
        p50_ms(wire.iter().map(|(_, _, r)| r.total_time)),
    );
    out.set(
        "zql.parse_p50_ms",
        p50_ms(calls.iter().filter_map(|c| c.parse)),
    );
    out.set(
        "zql.compute_p50_ms",
        p50_ms(reported.iter().map(|(_, r)| r.compute_time)),
    );
    let other: Vec<f64> = reported
        .iter()
        .map(|(c, r)| ms(r.total_time) - ms(union_duration(&storage_of(c))) - ms(r.compute_time))
        .collect();
    out.set("zql.other_p50_ms", percentile(&other, 50.0));
    out.set(
        "zql.requests_per_query",
        mean(
            &reported
                .iter()
                .map(|(_, r)| r.requests as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "zql.sql_queries_per_query",
        mean(
            &reported
                .iter()
                .map(|(_, r)| r.sql_queries as f64)
                .collect::<Vec<_>>(),
        ),
    );
    for (task, name) in [
        ("similarity", "tasks.similarity_p50_ms"),
        ("representative", "tasks.representative_p50_ms"),
        ("outlier", "tasks.outlier_p50_ms"),
    ] {
        let took = calls
            .iter()
            .filter(|c| c.task == Some(task))
            .map(|c| c.end - c.start);
        out.set(name, p50_ms(took));
    }

    // Storage wall time of each call: its `run_request_ctx` spans,
    // overlaps counted once.
    let per_call: Vec<Duration> = calls
        .iter()
        .map(|c| union_duration(&storage_of(c)))
        .collect();
    out.set("storage.request_p50_ms", p50_ms(per_call.iter().copied()));
    let storage_total: Duration = per_call.iter().sum();
    let scanned = counters.stats.rows_scanned as f64;
    out.set(
        "storage.rows_scanned_per_query",
        frac(scanned, reported.len() as f64),
    );
    out.set(
        "storage.scan_mrows_per_s",
        frac(scanned / 1e6, storage_total.as_secs_f64()),
    );
    let c = &counters.cache;
    let lookups = (c.hits + c.misses) as f64;
    out.set("cache.hit_frac", frac(c.hits as f64, lookups));
    out.set("cache.derived_frac", frac(c.derived_hits as f64, lookups));
    out.set("cache.ivm_frac", frac(c.ivm_hits as f64, lookups));
    out.set(
        "cache.miss_frac",
        frac((c.misses - c.derived_hits - c.ivm_hits) as f64, lookups),
    );
    out.set("cache.evictions", c.evictions as f64);

    out.set(
        "storage.append_p50_ms",
        p50_ms(interactions.iter().filter_map(|i| i.append)),
    );
    out.set(
        "storage.ivm_rows_per_tick",
        frac(counters.stats.ivm_rows_scanned as f64, ticks as f64),
    );
    out.set(
        "persist.wal_bytes_per_row",
        frac(counters.wal_bytes as f64, counters.rows as f64),
    );

    // The interaction minus every layer the benchmark timed inside it.
    let unattributed: Vec<f64> = interactions
        .iter()
        .map(|i| {
            let inside: f64 = i
                .calls
                .iter()
                .map(|c| {
                    ms(union_duration(&storage_of(c)))
                        + c.report.map_or(0.0, |r| ms(r.compute_time))
                        + c.wire.map_or(0.0, |w| ms(w.encode) + ms(decode(&w)))
                })
                .sum();
            ms(i.end - i.start) - inside - i.append.map_or(0.0, ms)
        })
        .collect();
    out.set("trace.unattributed_p50_ms", percentile(&unattributed, 50.0));
    Ok(())
}
