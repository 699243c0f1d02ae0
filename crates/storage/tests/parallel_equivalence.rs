//! Parallel ≡ serial equivalence: the morsel scheduler
//! (`aggregate_morsel_sized`, with morsels small enough that proptest
//! tables split into many claims) must produce the *identical*
//! `ResultTable` (same groups, same ordering, same values) and the same
//! scanned count as the serial `aggregate`, across Dense/Hash
//! strategies, every row-source shape, every `Agg` variant (including
//! Min/Max), and assorted thread counts.
//!
//! Measure values are generated as exact dyadic rationals (multiples of
//! 0.25 well below 2⁵³), so float sums are associative on this data and
//! bit-for-bit equality is the correct assertion — morsel boundaries
//! must not change any result.

use proptest::prelude::*;
use zv_storage::exec::{aggregate, aggregate_morsel_sized, compile_pred, GroupStrategy, RowSource};
use zv_storage::{
    Agg, Atom, BitmapDb, BitmapDbConfig, CmpOp, DataType, Database, Field, ParallelConfig,
    Predicate, RoaringBitmap, Schema, SelectQuery, Table, TableBuilder, Value, XSpec, YSpec,
};

fn build_table(rows: &[(i64, u8, u8, i16)]) -> Table {
    let schema = Schema::new(vec![
        Field::new("year", DataType::Int),
        Field::new("product", DataType::Cat),
        Field::new("location", DataType::Cat),
        Field::new("sales", DataType::Float),
        Field::new("units", DataType::Int),
    ]);
    let mut b = TableBuilder::new(schema);
    for &(y, p, l, s) in rows {
        b.push_row(vec![
            Value::Int(y),
            Value::str(format!("p{p}")),
            Value::str(format!("loc{l}")),
            Value::Float(s as f64 * 0.25), // exactly representable
            Value::Int(s as i64),
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

/// Morsel sizes for the proptests: tables of up to 300 rows split into
/// many claims, with boundaries that do not line up with anything.
const MORSEL_ROWS: [usize; 2] = [16, 61];

/// Assert serial and parallel agree for one (query, source-builder) pair
/// across strategies, thread counts and morsel sizes. The source is
/// rebuilt per run because `RowSource` borrows the table.
fn assert_equivalent<'t>(
    table: &'t Table,
    query: &SelectQuery,
    make_source: impl Fn() -> RowSource<'t>,
) {
    for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
        let (serial, serial_scanned) =
            aggregate(table, query, &make_source(), strategy).expect("serial");
        for threads in [2usize, 3, 8] {
            for morsel_rows in MORSEL_ROWS {
                let (par, par_scanned, _) = aggregate_morsel_sized(
                    table,
                    query,
                    &make_source(),
                    strategy,
                    threads,
                    morsel_rows,
                )
                .expect("parallel");
                assert_eq!(
                    par, serial,
                    "parallel({threads}, {morsel_rows}-row morsels) differs from serial \
                     under {strategy:?}"
                );
                assert_eq!(
                    par_scanned, serial_scanned,
                    "scanned counts differ under {strategy:?} × {threads} threads"
                );
            }
        }
        // Dense and Hash must also agree with each other.
        let (other, _) = aggregate(
            table,
            query,
            &make_source(),
            match strategy {
                GroupStrategy::Dense => GroupStrategy::Hash,
                GroupStrategy::Hash => GroupStrategy::Dense,
            },
        )
        .expect("other strategy");
        assert_eq!(serial, other, "strategies disagree");
    }
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, u8, u8, i16)>> {
    prop::collection::vec((2010i64..2020, 0u8..6, 0u8..3, -400i16..400), 1..300)
}

fn arb_query() -> impl Strategy<Value = SelectQuery> {
    (0u8..4, any::<bool>()).prop_map(|(zs, binned)| {
        let x = if binned {
            XSpec::binned("year", 3.0)
        } else {
            XSpec::raw("year")
        };
        let mut q = SelectQuery {
            x,
            ..all_agg_query()
        };
        if zs & 1 != 0 {
            q = q.with_z("product");
        }
        if zs & 2 != 0 {
            q = q.with_z("location");
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn full_scan_sources(rows in arb_rows(), query in arb_query()) {
        let table = build_table(&rows);
        assert_equivalent(&table, &query, || RowSource::All(table.num_rows()));
    }

    #[test]
    fn filtered_sources(rows in arb_rows(), query in arb_query(), p in 0u8..8, t in -50i32..50) {
        let table = build_table(&rows);
        let pred = Predicate::cat_eq("product", format!("p{p}")).and(Predicate::atom(
            Atom::NumCmp { col: "sales".into(), op: CmpOp::Gt, value: t as f64 },
        ));
        let compiled = || {
            RowSource::Filtered {
                n_rows: table.num_rows(),
                pred: compile_pred(&table, &pred).unwrap(),
            }
        };
        assert_equivalent(&table, &query, compiled);
    }

    #[test]
    fn bitmap_sources(rows in arb_rows(), query in arb_query(), stride in 1u32..5) {
        let table = build_table(&rows);
        // Every stride-th row, so shard boundaries rarely align with
        // bitmap container boundaries.
        let bm: RoaringBitmap =
            (0..table.num_rows() as u32).filter(|r| r % stride == 0).collect();
        assert_equivalent(&table, &query, || RowSource::Bitmap(bm.clone()));
    }

    #[test]
    fn bitmap_filtered_sources(rows in arb_rows(), query in arb_query(), t in -50i32..50) {
        let table = build_table(&rows);
        let bm: RoaringBitmap = (0..table.num_rows() as u32).filter(|r| r % 2 == 0).collect();
        let residual = Predicate::atom(Atom::NumCmp {
            col: "sales".into(),
            op: CmpOp::Ge,
            value: t as f64 * 0.25,
        });
        let make = || RowSource::BitmapFiltered {
            rows: bm.clone(),
            pred: compile_pred(&table, &residual).unwrap(),
        };
        assert_equivalent(&table, &query, make);
    }

    /// End-to-end: an engine configured to always shard must match an
    /// engine that never does, query for query.
    #[test]
    fn engine_level_equivalence(rows in arb_rows(), query in arb_query(), p in 0u8..8) {
        let table = std::sync::Arc::new(build_table(&rows));
        let serial = BitmapDb::with_config(
            table.clone(),
            BitmapDbConfig {
                parallel: ParallelConfig { threads: 1, min_parallel_rows: usize::MAX, ..Default::default() },
                ..Default::default()
            },
        );
        let sharded = BitmapDb::with_config(
            table.clone(),
            BitmapDbConfig {
                // Tiny morsels: proptest tables are far below the default
                // morsel size, which would silently serialize this engine.
                parallel: ParallelConfig {
                    threads: 4,
                    min_parallel_rows: 0,
                    morsel_rows: 64,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let q = query.with_predicate(Predicate::cat_eq("product", format!("p{p}")));
        prop_assert_eq!(serial.execute(&q).unwrap(), sharded.execute(&q).unwrap());
        let open = all_agg_query();
        prop_assert_eq!(serial.execute(&open).unwrap(), sharded.execute(&open).unwrap());
    }
}

/// 1,500-row morsels over 10k rows exercise morsels that straddle chunk
/// boundaries (chunk size is 4096) with every thread count from 1 to 9.
#[test]
fn many_rows_many_threads() {
    let rows: Vec<(i64, u8, u8, i16)> = (0..10_000)
        .map(|i| {
            (
                2010 + (i % 7) as i64,
                (i % 5) as u8,
                (i % 3) as u8,
                ((i * 37 % 801) as i16) - 400,
            )
        })
        .collect();
    let table = build_table(&rows);
    let query = all_agg_query().with_z("product").with_z("location");
    for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
        let (serial, scanned) =
            aggregate(&table, &query, &RowSource::All(table.num_rows()), strategy).unwrap();
        assert_eq!(scanned, 10_000);
        for threads in 1..=9 {
            let (par, par_scanned, _) = aggregate_morsel_sized(
                &table,
                &query,
                &RowSource::All(table.num_rows()),
                strategy,
                threads,
                1_500,
            )
            .unwrap();
            assert_eq!(par, serial, "{strategy:?} × {threads}");
            assert_eq!(par_scanned, 10_000);
        }
    }
}
