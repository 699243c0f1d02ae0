//! Morsel ≡ serial equivalence under *skewed* predicates — the workload
//! morsel claiming exists for: a selective filter whose matching rows
//! cluster in one region of the table, so a fixed contiguous split would
//! strand all the accumulation work on one worker.
//!
//! Measure values are exact dyadic rationals (multiples of 0.25 well
//! below 2⁵³), so float sums are associative on this data and bit-for-bit
//! equality against the serial scan is the correct assertion. A separate
//! suite asserts thread-count-independent determinism on *inexact* data,
//! which only the morsel merge guarantees (its reduction order is fixed
//! by morsel index, not by claim timing).

use proptest::prelude::*;
use zv_storage::exec::{
    aggregate, aggregate_morsel, aggregate_morsel_sized, compile_pred, GroupStrategy, RowSource,
};
use zv_storage::{
    Agg, Atom, BitmapDb, BitmapDbConfig, CmpOp, DataType, Database, Field, ParallelConfig,
    Predicate, RoaringBitmap, ScanDb, ScanDbConfig, Schema, SelectQuery, Table, TableBuilder,
    Value, XSpec, YSpec,
};

/// `rows` rows whose `region` column marks position in the table (8
/// equal stripes), so `region == k` predicates cluster their matches —
/// the skew shape. Measures are exactly representable.
fn clustered_table(rows: usize, products: u8) -> Table {
    let schema = Schema::new(vec![
        Field::new("region", DataType::Int),
        Field::new("year", DataType::Int),
        Field::new("product", DataType::Cat),
        Field::new("sales", DataType::Float),
        Field::new("units", DataType::Int),
    ]);
    let stripe = rows.div_ceil(8).max(1);
    let mut b = TableBuilder::new(schema);
    for i in 0..rows {
        let s = ((i * 37) % 801) as i64 - 400;
        b.push_row(vec![
            Value::Int((i / stripe) as i64),
            Value::Int(2010 + (i % 7) as i64),
            Value::str(format!("p{}", (i % products.max(1) as usize))),
            Value::Float(s as f64 * 0.25),
            Value::Int(s),
        ])
        .unwrap();
    }
    b.finish()
}

fn all_agg_query() -> SelectQuery {
    SelectQuery::new(
        XSpec::raw("year"),
        vec![
            YSpec::sum("sales"),
            YSpec::avg("sales"),
            YSpec::new("sales", Agg::Min),
            YSpec::new("sales", Agg::Max),
            YSpec::new("units", Agg::Sum),
            YSpec::new("*", Agg::Count),
        ],
    )
}

/// Serial and morsel×t (tiny morsels, so even proptest-sized tables fan
/// out across many claims) must agree bit-for-bit.
fn assert_scheduling_equivalent<'t>(
    table: &'t Table,
    query: &SelectQuery,
    make_source: impl Fn() -> RowSource<'t>,
) {
    for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
        let (serial, serial_scanned) =
            aggregate(table, query, &make_source(), strategy).expect("serial");
        for threads in [2usize, 3, 8] {
            for morsel_rows in [64usize, 257] {
                let (mor, mor_scanned, _) = aggregate_morsel_sized(
                    table,
                    query,
                    &make_source(),
                    strategy,
                    threads,
                    morsel_rows,
                )
                .expect("morsel");
                assert_eq!(
                    mor, serial,
                    "morsel({threads}, {morsel_rows}) differs under {strategy:?}"
                );
                assert_eq!(mor_scanned, serial_scanned);
            }
        }
    }
}

fn arb_query() -> impl Strategy<Value = SelectQuery> {
    (0u8..2, any::<bool>()).prop_map(|(z, binned)| {
        let x = if binned {
            XSpec::binned("year", 3.0)
        } else {
            XSpec::raw("year")
        };
        let mut q = SelectQuery {
            x,
            ..all_agg_query()
        };
        if z == 1 {
            q = q.with_z("product");
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Skewed filtered scans: all matches cluster in one of 8 stripes.
    #[test]
    fn skewed_filtered_sources(
        rows in 1usize..1200,
        products in 1u8..6,
        stripe in 0i64..8,
        query in arb_query(),
    ) {
        let table = clustered_table(rows, products);
        let pred = Predicate::num_eq("region", stripe as f64);
        let make = || RowSource::Filtered {
            n_rows: table.num_rows(),
            pred: compile_pred(&table, &pred).unwrap(),
        };
        assert_scheduling_equivalent(&table, &query, make);
    }

    /// Skew composed with a residual numeric filter.
    #[test]
    fn skewed_residual_sources(
        rows in 1usize..1200,
        stripe in 0i64..8,
        t in -50i32..50,
        query in arb_query(),
    ) {
        let table = clustered_table(rows, 4);
        let pred = Predicate::num_eq("region", stripe as f64).and(Predicate::atom(Atom::NumCmp {
            col: "sales".into(),
            op: CmpOp::Gt,
            value: t as f64 * 0.25,
        }));
        let make = || RowSource::Filtered {
            n_rows: table.num_rows(),
            pred: compile_pred(&table, &pred).unwrap(),
        };
        assert_scheduling_equivalent(&table, &query, make);
    }

    /// Uniform (unfiltered and bitmap) sources stay equivalent too.
    #[test]
    fn uniform_sources(rows in 1usize..1200, stride in 1u32..5, query in arb_query()) {
        let table = clustered_table(rows, 4);
        assert_scheduling_equivalent(&table, &query, || RowSource::All(table.num_rows()));
        let bm: RoaringBitmap =
            (0..table.num_rows() as u32).filter(|r| r % stride == 0).collect();
        assert_scheduling_equivalent(&table, &query, || RowSource::Bitmap(bm.clone()));
    }

    /// Morsel float sums must be bit-for-bit identical across thread
    /// counts and repeated runs even on *inexact* measures (0.1 steps):
    /// the reduction order is a function of morsel indices only.
    #[test]
    fn morsel_runs_are_reproducible_on_inexact_floats(
        rows in 64usize..900,
        threads_a in 2usize..8,
        threads_b in 2usize..8,
    ) {
        let schema = Schema::new(vec![
            Field::new("key", DataType::Int),
            Field::new("val", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(vec![
                Value::Int((i % 13) as i64),
                Value::Float(0.1 + (i % 89) as f64 * 0.3),
            ])
            .unwrap();
        }
        let table = b.finish();
        let q = SelectQuery::new(XSpec::raw("key"), vec![YSpec::sum("val"), YSpec::avg("val")]);
        let src = RowSource::All(table.num_rows());
        for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
            let (a, _, _) =
                aggregate_morsel_sized(&table, &q, &src, strategy, threads_a, 64).unwrap();
            let (b, _, _) =
                aggregate_morsel_sized(&table, &q, &src, strategy, threads_b, 64).unwrap();
            prop_assert_eq!(a.groups.len(), b.groups.len());
            for (ga, gb) in a.groups.iter().zip(&b.groups) {
                prop_assert_eq!(&ga.key, &gb.key);
                prop_assert_eq!(&ga.xs, &gb.xs);
                prop_assert_eq!(ga.ys.len(), gb.ys.len());
                for (ya, yb) in ga.ys.iter().zip(&gb.ys) {
                    prop_assert_eq!(ya.len(), yb.len());
                    for (va, vb) in ya.iter().zip(yb) {
                        prop_assert_eq!(
                            va.to_bits(),
                            vb.to_bits(),
                            "drift between {} and {} threads under {:?}",
                            threads_a,
                            threads_b,
                            strategy
                        );
                    }
                }
            }
        }
    }
}

/// Engine-level: both engines forced into serial / morsel routing must
/// agree query-for-query on a table large enough for real
/// production-size morsels, with the matches clustered in one stripe.
#[test]
fn engines_agree_across_scheduling_modes_under_skew() {
    let table = std::sync::Arc::new(clustered_table(40_000, 5));
    let serial = ParallelConfig {
        threads: 1,
        min_parallel_rows: usize::MAX,
        ..Default::default()
    };
    let morsel = ParallelConfig {
        threads: 4,
        min_parallel_rows: 0,
        ..Default::default()
    };

    let queries: Vec<SelectQuery> = (0..8)
        .map(|stripe| {
            all_agg_query()
                .with_z("product")
                .with_predicate(Predicate::num_eq("region", stripe as f64))
        })
        .chain([all_agg_query(), all_agg_query().with_z("product")])
        .collect();

    let bitmap = |parallel| {
        BitmapDb::with_config(
            table.clone(),
            BitmapDbConfig {
                parallel,
                ..BitmapDbConfig::uncached()
            },
        )
    };
    let scan = |parallel| {
        ScanDb::with_config(
            table.clone(),
            ScanDbConfig {
                parallel,
                ..ScanDbConfig::uncached()
            },
        )
    };

    let reference = bitmap(serial);
    let engines: Vec<(&str, Box<dyn Database>)> = vec![
        ("bitmap/morsel", Box::new(bitmap(morsel))),
        ("scan/serial", Box::new(scan(serial))),
        ("scan/morsel", Box::new(scan(morsel))),
    ];
    for q in &queries {
        let expect = reference.execute(q).unwrap();
        for (label, db) in &engines {
            assert_eq!(db.execute(q).unwrap(), expect, "{label} diverged");
        }
    }

    // The morsel engines must actually have gone through the claiming
    // path, and every dispatched morsel must be accounted for.
    for (label, db) in &engines {
        let snap = db.stats().snapshot();
        if label.ends_with("morsel") {
            assert!(snap.morsel_scans > 0, "{label} never claimed morsels");
            assert!(snap.morsels_dispatched >= snap.morsel_scans);
        } else {
            assert_eq!(snap.morsel_scans, 0, "{label} must not report morsels");
        }
    }
}

/// The `ZV_SCHED_*` overrides the CI scheduling matrix uses must produce
/// the configs the matrix names (spec-level: the env-reading wrapper is
/// a two-line `std::env::var` shim over this).
#[test]
fn scheduling_matrix_env_specs() {
    let serial = ParallelConfig::from_env_spec(Some("serial"), None, None, None, None);
    assert_eq!(serial.threads_for(usize::MAX - 1), 1);
    // The matrix combines the morsel scheduler with ZV_SCHED_MIN_ROWS=0
    // (tiny scans go parallel) and ZV_SCHED_MORSEL_ROWS=256 (tiny tables
    // still split into many claimable morsels).
    let cfg =
        ParallelConfig::from_env_spec(Some("morsel"), Some("2"), Some("0"), Some("256"), None);
    assert_eq!(cfg.threads, 2);
    assert_eq!(cfg.morsel_rows, 256);
    assert_eq!(
        cfg.threads_for(1),
        2,
        "the forced mode must fan out tiny scans"
    );
}

/// Full-size morsels on a multi-morsel table (no size hook): the
/// production path end to end.
#[test]
fn production_morsel_size_multi_morsel_scan() {
    let table = clustered_table(40_000, 5);
    let q = all_agg_query().with_z("product");
    let src = RowSource::All(table.num_rows());
    for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
        let (serial, scanned) = aggregate(&table, &q, &src, strategy).unwrap();
        let (mor, mor_scanned, metrics) = aggregate_morsel(&table, &q, &src, strategy, 3).unwrap();
        assert_eq!(mor, serial);
        assert_eq!(mor_scanned, scanned);
        let m = metrics.expect("40k rows spans 3 production morsels");
        assert_eq!(m.morsels, 3);
        assert_eq!(m.per_worker.iter().sum::<u64>(), 3);
    }
}

/// Batched claiming (`claim_batch > 1`) must be invisible to results:
/// partials stay tagged per morsel, so every batch size × thread count
/// reproduces the unbatched morsel run bit-for-bit — inexact floats
/// included — while claim telemetry still accounts for every morsel.
#[test]
fn claim_batching_preserves_ordered_merge_determinism() {
    use zv_storage::exec::aggregate_morsel_ctx;
    use zv_storage::QueryCtx;

    let table = clustered_table(9_000, 5);
    let q = all_agg_query().with_z("product");
    let src = RowSource::All(table.num_rows());
    for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
        let (reference, scanned, _) =
            aggregate_morsel_sized(&table, &q, &src, strategy, 2, 256).unwrap();
        for batch in [2usize, 5, 1024] {
            for threads in [2usize, 3, 7] {
                let ctx = QueryCtx::new();
                let (rt, b_scanned, metrics) =
                    aggregate_morsel_ctx(&table, &q, &src, strategy, threads, 256, batch, &ctx)
                        .unwrap();
                assert_eq!(
                    rt, reference,
                    "batch {batch} × {threads} threads diverged under {strategy:?}"
                );
                assert_eq!(b_scanned, scanned);
                let m = metrics.expect("multi-morsel scan reports telemetry");
                assert_eq!(m.morsels, 9_000u64.div_ceil(256));
                assert_eq!(m.per_worker.iter().sum::<u64>(), m.morsels);
                assert_eq!(ctx.stats().morsels_claimed, m.morsels);
            }
        }
    }
}
