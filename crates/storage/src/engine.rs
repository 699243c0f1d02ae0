//! The one engine shell both backends share. [`ScanDb`](crate::ScanDb)
//! (the PostgreSQL stand-in) and [`BitmapDb`](crate::BitmapDb) (the
//! roaring-bitmap database of thesis §6.2) differ only in how they find
//! the rows a predicate selects — exactly what Figure 7.5 compares — so
//! everything else is written once here, as [`Engine<A>`], and the
//! [`AccessPath`] `A` supplies only its name, the state it keeps over a
//! table, that state's post-append refresh, and the row source for a
//! predicate.
//!
//! The state lives behind an `RwLock<Arc<A>>`: queries clone the `Arc`
//! (a pointer bump) and scan lock-free, so a long scan never blocks an
//! append and vice versa. Appends serialize on `append_lock`, build the
//! next state *outside* the reader-visible lock — copy-on-write of the
//! table with a fresh version, which retires every cached result of the
//! old one (see [`crate::cache`]) — and swap it in with a momentary
//! write lock. Readers mid-scan keep their old state.

use crate::cache::{CacheConfig, ResultCache};
use crate::db::{Database, EngineSnapshot};
use crate::exec::{self, compile_pred, ParallelConfig, RowSource};
use crate::lifecycle::QueryCtx;
use crate::persist::{PersistOptions, Persistence};
use crate::predicate::Predicate;
use crate::query::{ResultTable, SelectQuery};
use crate::stats::ExecStats;
use crate::table::{StorageError, Table};
use crate::value::Value;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// How an engine finds qualifying rows: the only part of an engine that
/// differs between backends. The implementing type is the immutable
/// per-snapshot state — the table plus whatever the path derives from
/// it (nothing for a scan, bitmap indexes for the bitmap database).
pub trait AccessPath: Send + Sync + 'static {
    /// [`Database::name`]: the engine half of every result-cache key.
    const NAME: &'static str;
    /// The engine's tuning knobs.
    type Config: EngineConfig;

    /// The state over a newly built or recovered table.
    fn build(table: Arc<Table>) -> Self;

    /// The table this state describes.
    fn table(&self) -> &Arc<Table>;

    /// The state after an append: `table` is [`AccessPath::table`] plus
    /// the rows from `old_rows` on.
    fn refresh(&self, table: Arc<Table>, old_rows: usize) -> Self;

    /// The rows of [`AccessPath::table`] that may satisfy `pred`, with
    /// whatever part of `pred` the path cannot resolve left as a
    /// per-row filter.
    fn row_source(&self, pred: &Predicate) -> Result<RowSource<'_>, StorageError>;
}

/// The settings every engine config carries, read the same way for both
/// access paths. Implemented by [`ScanDbConfig`](crate::ScanDbConfig) and
/// [`BitmapDbConfig`](crate::BitmapDbConfig), which differ only in their
/// default `dense_group_limit`.
pub trait EngineConfig: Clone + Default + Send + Sync + 'static {
    fn dense_group_limit(&self) -> u128;
    fn request_overhead(&self) -> Duration;
    fn parallel(&self) -> &ParallelConfig;
    fn cache(&self) -> &CacheConfig;
}

/// Defines an engine config struct with the four [`EngineConfig`]
/// fields and the given default `dense_group_limit`.
macro_rules! engine_config {
    ($(#[$doc:meta])* $name:ident, dense_group_limit: $dense:expr) => {
        $(#[$doc])*
        #[derive(Clone, Debug)]
        pub struct $name {
            /// Group-key spaces up to this size use dense accumulation;
            /// beyond it the engine pays a hash lookup per row — the
            /// behaviour the paper observed "as the number of groups
            /// increases" (Figure 7.5a).
            pub dense_group_limit: u128,
            /// Simulated client↔server round-trip latency added per
            /// request (substitution for the paper's networked
            /// PostgreSQL; see DESIGN.md).
            pub request_overhead: std::time::Duration,
            /// Parallel-scan tuning (thread count, serial threshold,
            /// morsel size). The default consults the `ZV_SCHED_*`
            /// environment overrides
            /// ([`ParallelConfig::from_env`](crate::exec::ParallelConfig::from_env))
            /// so CI can force a scheduling configuration across whole
            /// test suites.
            pub parallel: crate::exec::ParallelConfig,
            /// Engine-level result cache bounds
            /// ([`CacheConfig::disabled`](crate::cache::CacheConfig::disabled)
            /// turns the cache off, e.g. for raw-engine benchmarks).
            pub cache: crate::cache::CacheConfig,
        }

        impl Default for $name {
            fn default() -> Self {
                $name {
                    dense_group_limit: $dense,
                    request_overhead: std::time::Duration::ZERO,
                    parallel: crate::exec::ParallelConfig::from_env(),
                    cache: crate::cache::CacheConfig::default(),
                }
            }
        }

        impl $name {
            /// Default config with the result cache off — for benchmarks
            /// and tests that measure (or compare against) raw engine
            /// behaviour.
            pub fn uncached() -> Self {
                $name {
                    cache: crate::cache::CacheConfig::disabled(),
                    ..Default::default()
                }
            }
        }

        impl crate::engine::EngineConfig for $name {
            fn dense_group_limit(&self) -> u128 {
                self.dense_group_limit
            }
            fn request_overhead(&self) -> std::time::Duration {
                self.request_overhead
            }
            fn parallel(&self) -> &crate::exec::ParallelConfig {
                &self.parallel
            }
            fn cache(&self) -> &crate::cache::CacheConfig {
                &self.cache
            }
        }
    };
}
pub(crate) use engine_config;

/// An in-memory database over one relation, finding rows through the
/// access path `A`. Used as [`ScanDb`](crate::ScanDb) and
/// [`BitmapDb`](crate::BitmapDb).
pub struct Engine<A: AccessPath> {
    state: RwLock<Arc<A>>,
    /// Serializes mutations so two appends cannot base their snapshots
    /// on the same predecessor (readers never touch this).
    append_lock: Mutex<()>,
    config: A::Config,
    /// Shared with pinned snapshots, so scan telemetry recorded during
    /// snapshot execution lands on the engine's counters.
    stats: Arc<ExecStats>,
    cache: Option<Arc<ResultCache>>,
    /// Durable-storage handle ([`Engine::open_durable`]); `None` for
    /// memory-only engines.
    persist: Option<Arc<Persistence>>,
}

impl<A: AccessPath> Engine<A> {
    pub fn new(table: Arc<Table>) -> Self {
        Self::with_config(table, A::Config::default())
    }

    pub fn with_config(table: Arc<Table>, config: A::Config) -> Self {
        let cache = config.cache().is_enabled().then(|| {
            Arc::new(ResultCache::with_fault(
                config.cache(),
                config.parallel().fault,
            ))
        });
        Self::build(table, config, cache)
    }

    /// Construct with an explicitly shared cache (versioned keys keep
    /// entries from different engines / snapshots apart).
    pub fn with_shared_cache(
        table: Arc<Table>,
        config: A::Config,
        cache: Arc<ResultCache>,
    ) -> Self {
        Self::build(table, config, Some(cache))
    }

    fn build(table: Arc<Table>, config: A::Config, cache: Option<Arc<ResultCache>>) -> Self {
        Engine {
            state: RwLock::new(Arc::new(A::build(table))),
            append_lock: Mutex::new(()),
            config,
            stats: Arc::new(ExecStats::new()),
            cache,
            persist: None,
        }
    }

    /// Open a durable engine on `dir`: recover the newest valid
    /// snapshot plus the WAL tail (crash-exact — see [`crate::persist`]),
    /// or seed a fresh directory with `init()` and checkpoint it. Every
    /// committed append is WAL-logged and fsynced *before* it becomes
    /// visible to queries, so the in-memory table version is always a
    /// durable version. Access-path state (bitmap indexes) is rebuilt
    /// from the recovered table — it is derived and never hits the disk.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        config: A::Config,
        init: impl FnOnce() -> Arc<Table>,
    ) -> Result<Self, StorageError> {
        let (persistence, recovered) = Persistence::open(
            dir,
            PersistOptions {
                fault: config.parallel().fault,
            },
        )?;
        let table = match recovered {
            Some(t) => Arc::new(t),
            None => {
                let t = init();
                persistence.checkpoint(&t)?;
                t
            }
        };
        let mut db = Self::with_config(table, config);
        db.persist = Some(Arc::new(persistence));
        Ok(db)
    }

    /// The durable-storage handle, when this engine was opened with
    /// [`Engine::open_durable`].
    pub fn persistence(&self) -> Option<&Persistence> {
        self.persist.as_deref()
    }

    /// Write a full snapshot of the current table and reset the WAL.
    /// Serialized against appends, so no committed batch can be lost
    /// between the snapshot and the WAL reset.
    pub fn checkpoint(&self) -> Result<PathBuf, StorageError> {
        let persist = self
            .persist
            .as_ref()
            .ok_or_else(|| StorageError::Io("engine has no data directory".into()))?;
        let _appending = crate::fault::lock_recover(&self.append_lock);
        let table = self.state().table().clone();
        persist.checkpoint(&table)
    }

    pub fn config(&self) -> &A::Config {
        &self.config
    }

    pub(crate) fn state(&self) -> Arc<A> {
        // Recover-or-proceed: the lock only ever guards an `Arc` swap,
        // so a poisoned lock still holds an intact state (either the old
        // or the new one) — unwrapping would wedge the engine after any
        // contained panic.
        crate::fault::read_recover(&self.state).clone()
    }

    /// Poison the state lock by panicking while holding its write
    /// guard — the chaos suite's hook for proving the engine recovers
    /// (the guarded value is a plain `Arc`, so recovery is safe).
    #[doc(hidden)]
    pub fn poison_table_lock_for_chaos(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.state.write().unwrap_or_else(|p| p.into_inner());
            panic!(
                "{} deliberate state-lock poisoning",
                crate::fault::PANIC_MARKER
            );
        }));
    }

    /// Swap in a mutated table built by `mutate`, with the access-path
    /// state refreshed over it; returns the row delta.
    ///
    /// Cost is O(delta + chunks), plus whatever the refresh costs
    /// (O(delta + containers) for bitmap indexes): cloning the table
    /// copies each column's sealed-chunk pointers and open tail, never a
    /// sealed payload (see [`crate::column`]). The copy and refresh run
    /// outside the reader-visible lock — concurrent queries keep their
    /// old state, which shares every sealed chunk with the new one. On a
    /// durable engine `log` WAL-logs and fsyncs the batch first
    /// (straight from the caller's borrowed rows/columns — no extra
    /// copy); a disk failure aborts the whole mutation, so nothing ever
    /// becomes visible that isn't durable.
    fn mutate_table(
        &self,
        mutate: impl FnOnce(&mut Table) -> Result<usize, StorageError>,
        log: impl FnOnce(&Persistence, &Table) -> Result<(), StorageError>,
    ) -> Result<usize, StorageError> {
        let _appending = crate::fault::lock_recover(&self.append_lock);
        let current = self.state();
        let mut table = (**current.table()).clone();
        let old_version = table.version();
        let old_rows = table.num_rows();
        let n = mutate(&mut table)?;
        if n == 0 && table.version() == old_version {
            return Ok(0);
        }
        if let Some(persist) = &self.persist {
            log(persist, &table)?;
        }
        let next = current.refresh(Arc::new(table), old_rows);
        *crate::fault::write_recover(&self.state) = Arc::new(next);
        // The old version's cache entries are deliberately *kept*: they
        // are unreachable for exact lookups (versioned keys) but serve
        // as IVM merge ancestors for post-append queries; the LRU
        // reclaims them once the workload moves on.
        Ok(n)
    }
}

/// A pinned engine view: one immutable access-path state (the table
/// plus whatever the path built over exactly that table) and the
/// execution tuning frozen at pin time.
struct Pinned<A> {
    state: Arc<A>,
    dense_group_limit: u128,
    parallel: ParallelConfig,
    stats: Arc<ExecStats>,
}

impl<A: AccessPath> Pinned<A> {
    /// Pick the group strategy and thread count for one query over
    /// `source` and run its scan. `rows` restricts the dimension
    /// statistics to a sub-range scan's rows.
    fn run(
        &self,
        query: &SelectQuery,
        ctx: &QueryCtx,
        source: &RowSource<'_>,
        rows: Option<(usize, usize)>,
    ) -> Result<(ResultTable, u64), StorageError> {
        let table = self.state.table();
        let groups = exec::group_space_over(table, query, rows)?;
        let strategy = exec::choose_strategy(groups, self.dense_group_limit);
        // A degraded query (`QueryCtx::force_serial`, set by the retry
        // ladder or the breaker) is pinned to the injection-free serial
        // path no matter what the config would choose.
        let threads = if ctx.serial_only() {
            1
        } else {
            self.parallel.threads_for(source.estimated_rows())
        };
        exec::run_scheduled(
            table,
            query,
            source,
            strategy,
            threads,
            &self.parallel,
            &self.stats,
            ctx,
        )
    }
}

impl<A: AccessPath> EngineSnapshot for Pinned<A> {
    fn table(&self) -> &Arc<Table> {
        self.state.table()
    }

    fn execute(
        &self,
        query: &SelectQuery,
        ctx: &QueryCtx,
    ) -> Result<(ResultTable, u64), StorageError> {
        let source = self.state.row_source(&query.predicate)?;
        self.run(query, ctx, &source, None)
    }

    fn execute_range(
        &self,
        query: &SelectQuery,
        ctx: &QueryCtx,
        start: usize,
        end: usize,
    ) -> Result<(ResultTable, u64), StorageError> {
        // A bounded delta range doesn't profit from bitmap algebra (an
        // index covers the whole table, not the tail), so every access
        // path applies the predicate as a residual filter.
        let table = self.state.table();
        debug_assert!(start <= end && end <= table.num_rows());
        let pred = if query.predicate.is_true() {
            None
        } else {
            Some(compile_pred(table, &query.predicate)?)
        };
        let source = RowSource::Range { start, end, pred };
        self.run(query, ctx, &source, Some((start, end)))
    }
}

impl<A: AccessPath> Database for Engine<A> {
    fn name(&self) -> &'static str {
        A::NAME
    }

    fn pin(&self) -> Arc<dyn EngineSnapshot> {
        Arc::new(Pinned {
            state: self.state(),
            dense_group_limit: self.config.dense_group_limit(),
            parallel: *self.config.parallel(),
            stats: Arc::clone(&self.stats),
        })
    }

    fn table(&self) -> Arc<Table> {
        self.state().table().clone()
    }

    fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn result_cache(&self) -> Option<&ResultCache> {
        self.cache.as_deref()
    }

    fn append_rows(&self, rows: &[Vec<Value>]) -> Result<usize, StorageError> {
        self.mutate_table(
            |t| t.append_rows(rows),
            |p, t| p.log_append(t.version(), t.schema(), rows),
        )
    }

    fn append_table(&self, other: &Table) -> Result<usize, StorageError> {
        self.mutate_table(
            |t| t.append_table(other),
            |p, t| p.log_append_table(t.version(), other),
        )
    }

    fn request_overhead(&self) -> Duration {
        self.config.request_overhead()
    }
}

#[cfg(test)]
mod tests {
    //! The shell's behaviour, checked once per access path.

    use super::*;
    use crate::bitmap_db::Bitmap;
    use crate::query::{XSpec, YSpec};
    use crate::scan_db::Scan;
    use crate::table::{Field, Schema, TableBuilder};
    use crate::value::DataType;
    use crate::{BitmapDb, ScanDb};

    fn table() -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("year", DataType::Int),
            Field::new("product", DataType::Cat),
            Field::new("sales", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for (y, p, s) in [
            (2014, "chair", 10.0),
            (2015, "chair", 20.0),
            (2014, "desk", 7.0),
            (2015, "desk", 9.0),
        ] {
            b.push_row(vec![Value::Int(y), Value::str(p), Value::Float(s)])
                .unwrap();
        }
        b.finish_shared()
    }

    /// The fixture is 4 rows: admit every result so the cache-behaviour
    /// checks still exercise warm hits.
    fn engine<A: AccessPath>() -> Engine<A> {
        let cache = Arc::new(ResultCache::new(&CacheConfig::admit_all()));
        Engine::with_shared_cache(table(), A::Config::default(), cache)
    }

    fn by_year() -> SelectQuery {
        SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
    }

    fn warm_request_skips_the_scan_on<A: AccessPath>() {
        let db = engine::<A>();
        let q = by_year().with_z("product");
        let cold = db.run_request(std::slice::from_ref(&q)).unwrap();
        let before = db.stats().snapshot();
        let warm = db.run_request(std::slice::from_ref(&q)).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(cold, warm, "{}", A::NAME);
        assert_eq!(
            delta.rows_scanned,
            0,
            "{}: warm repeat must not scan",
            A::NAME
        );
        assert_eq!(delta.queries, 0, "{}", A::NAME);
        assert_eq!(delta.cache_hits, 1, "{}", A::NAME);
    }

    fn append_refreshes_results_and_version_on<A: AccessPath>() {
        let db = engine::<A>();
        let v0 = db.table().version();
        let q = by_year();
        let before = db.run_request(std::slice::from_ref(&q)).unwrap();
        assert_eq!(before[0].groups[0].ys[0], vec![17.0, 29.0], "{}", A::NAME);
        db.append_rows(&[
            vec![Value::Int(2014), Value::str("lamp"), Value::Float(3.0)],
            vec![Value::Int(2015), Value::str("desk"), Value::Float(1.0)],
        ])
        .unwrap();
        assert!(db.table().version() > v0, "{}", A::NAME);
        assert_eq!(db.table().num_rows(), 6, "{}", A::NAME);
        let after = db.run_request(std::slice::from_ref(&q)).unwrap();
        assert_eq!(
            after[0].groups[0].ys[0],
            vec![20.0, 30.0],
            "{}: post-append request must see the new rows, not the cached result",
            A::NAME
        );
        // Selections see the appended rows through the refreshed access
        // path, for a new dictionary value and for an existing one.
        for (product, expect) in [("lamp", vec![3.0]), ("desk", vec![7.0, 10.0])] {
            let q = by_year().with_predicate(Predicate::cat_eq("product", product));
            assert_eq!(
                db.execute(&q).unwrap().groups[0].ys[0],
                expect,
                "{}: {product}",
                A::NAME
            );
        }
    }

    fn empty_append_is_a_version_preserving_noop_on<A: AccessPath>() {
        let db = engine::<A>();
        let v0 = db.table().version();
        let q = by_year();
        let _ = db.run_request(std::slice::from_ref(&q)).unwrap();
        assert_eq!(db.append_rows(&[]).unwrap(), 0, "{}", A::NAME);
        assert_eq!(db.table().version(), v0, "{}", A::NAME);
        let before = db.stats().snapshot();
        let _ = db.run_request(std::slice::from_ref(&q)).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(
            delta.cache_hits,
            1,
            "{}: cache must survive a no-op append",
            A::NAME
        );
    }

    fn checkpoint_needs_a_data_directory_on<A: AccessPath>() {
        let db = engine::<A>();
        assert!(db.persistence().is_none(), "{}", A::NAME);
        assert!(
            matches!(db.checkpoint(), Err(StorageError::Io(_))),
            "{}: a memory-only engine cannot checkpoint",
            A::NAME
        );
    }

    #[test]
    fn warm_request_skips_the_scan() {
        warm_request_skips_the_scan_on::<Scan>();
        warm_request_skips_the_scan_on::<Bitmap>();
    }

    #[test]
    fn append_refreshes_results_and_version() {
        append_refreshes_results_and_version_on::<Scan>();
        append_refreshes_results_and_version_on::<Bitmap>();
    }

    #[test]
    fn empty_append_is_a_version_preserving_noop() {
        empty_append_is_a_version_preserving_noop_on::<Scan>();
        empty_append_is_a_version_preserving_noop_on::<Bitmap>();
    }

    #[test]
    fn checkpoint_needs_a_data_directory() {
        checkpoint_needs_a_data_directory_on::<Scan>();
        checkpoint_needs_a_data_directory_on::<Bitmap>();
    }

    #[test]
    fn names_are_the_cache_key_engine_halves() {
        assert_eq!(ScanDb::new(table()).name(), "scan-db");
        assert_eq!(BitmapDb::new(table()).name(), "roaring-bitmap-db");
    }
}
