//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! [`TracedDb`] is a benchmark-owned [`Database`] that delegates every
//! trait method to the engine and, while tracing is on, records one
//! `storage.request` span per [`Database::run_request_ctx`] call and one
//! `storage.append` span per append. The load generator records the
//! interaction spans around them. Spans are kept in memory and written
//! out as JSON lines when the run ends. Tracing that is off costs one
//! relaxed atomic load per call.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use zv_storage::{
    BitmapDb, CacheStats, Database, EngineSnapshot, ExecStats, QueryCtx, ResultCache, ResultTable,
    SelectQuery, StorageError, Table, Value,
};

/// One timed interval. `parent` is the id of the enclosing span (0 for a
/// root) and `request` the id of the interaction it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// The in-memory span store.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    /// The interaction in flight and its innermost open span. With one
    /// caller there is exactly one; storage spans recorded on server
    /// threads take their ids from here.
    request: AtomicU64,
    parent: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            request: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Make `span` the open span of interaction `request`.
    pub fn enter(&self, request: u64, span: u64) {
        self.request.store(request, Ordering::SeqCst);
        self.parent.store(span, Ordering::SeqCst);
    }

    pub fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(span);
    }

    /// Record a span under the open interaction.
    fn record_child(&self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            id: self.next_id(),
            parent: self.parent.load(Ordering::SeqCst),
            request: self.request.load(Ordering::SeqCst),
            name,
            start,
            end,
        };
        self.record(span);
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span store poisoned by a panicking recorder"),
        )
    }

    /// Write spans as JSON lines, times in microseconds since the
    /// tracer was made.
    pub fn write_out(&self, spans: &[Span], path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
        for s in spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id,
                s.parent,
                s.request,
                s.name,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

/// The engine as the benchmark hands it to [`zql::ZqlEngine`]: every
/// call goes straight to the [`BitmapDb`], timed when tracing is on.
pub struct TracedDb {
    inner: Arc<BitmapDb>,
    tracer: Arc<Tracer>,
}

impl TracedDb {
    pub fn new(inner: Arc<BitmapDb>, tracer: Arc<Tracer>) -> TracedDb {
        TracedDb { inner, tracer }
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.tracer.enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.tracer.record_child(name, start, Instant::now());
        out
    }
}

impl Database for TracedDb {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pin(&self) -> Arc<dyn EngineSnapshot> {
        self.inner.pin()
    }

    fn table(&self) -> Arc<Table> {
        self.inner.table()
    }

    fn execute(&self, query: &SelectQuery) -> Result<ResultTable, StorageError> {
        self.inner.execute(query)
    }

    fn execute_ctx(
        &self,
        query: &SelectQuery,
        ctx: &QueryCtx,
    ) -> Result<ResultTable, StorageError> {
        self.inner.execute_ctx(query, ctx)
    }

    fn stats(&self) -> &ExecStats {
        self.inner.stats()
    }

    fn result_cache(&self) -> Option<&ResultCache> {
        self.inner.result_cache()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn append_rows(&self, rows: &[Vec<Value>]) -> Result<usize, StorageError> {
        self.timed("storage.append", || self.inner.append_rows(rows))
    }

    fn append_table(&self, other: &Table) -> Result<usize, StorageError> {
        self.timed("storage.append", || self.inner.append_table(other))
    }

    fn request_overhead(&self) -> Duration {
        self.inner.request_overhead()
    }

    fn run_request(&self, queries: &[SelectQuery]) -> Result<Vec<Arc<ResultTable>>, StorageError> {
        self.run_request_ctx(queries, &QueryCtx::new())
    }

    fn run_request_ctx(
        &self,
        queries: &[SelectQuery],
        ctx: &QueryCtx,
    ) -> Result<Vec<Arc<ResultTable>>, StorageError> {
        self.timed("storage.request", || {
            self.inner.run_request_ctx(queries, ctx)
        })
    }
}

/// Total length of the union of `spans`' intervals: storage requests of
/// one interaction may overlap when the executor batches in parallel.
pub fn union_duration(spans: &[&Span]) -> Duration {
    let mut iv: Vec<(Instant, Instant)> = spans.iter().map(|s| (s.start, s.end)).collect();
    iv.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Instant, Instant)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let t = Instant::now();
        let ms = |m: u64| t + Duration::from_millis(m);
        let span = |s, e| Span {
            id: 0,
            parent: 0,
            request: 0,
            name: "x",
            start: ms(s),
            end: ms(e),
        };
        let spans = [span(0, 10), span(5, 12), span(20, 25)];
        let refs: Vec<&Span> = spans.iter().collect();
        assert_eq!(union_duration(&refs), Duration::from_millis(17));
    }
}
