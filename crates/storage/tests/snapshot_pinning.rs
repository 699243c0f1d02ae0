//! Batch snapshot pinning: `Database::run_request` pins one
//! [`EngineSnapshot`] per batch, so every query of a batch is answered
//! against the same table version even while appends race the request —
//! closing the mixed-adjacent-snapshots caveat the cache PR documented.

use std::sync::Arc;
use zv_storage::{
    Agg, BitmapDb, BitmapDbConfig, Column, DataType, Database, DynDatabase, Field, QueryCtx,
    ScanDb, Schema, SelectQuery, Table, TableBuilder, Value, XSpec, YSpec,
};

fn build_table(n: usize) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("year", DataType::Int),
        Field::new("product", DataType::Cat),
        Field::new("sales", DataType::Float),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..n {
        b.push_row(row(2010 + (i % 5) as i64, (i % 4) as u8))
            .unwrap();
    }
    b.finish_shared()
}

fn row(year: i64, product: u8) -> Vec<Value> {
    vec![
        Value::Int(year),
        Value::str(format!("p{product}")),
        Value::Float(0.25),
    ]
}

/// A pinned snapshot is immutable: appends landing after the pin are
/// invisible to it, and its table version never moves.
#[test]
fn pinned_snapshot_is_immutable_under_appends() {
    let table = build_table(1_000);
    let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::new("*", Agg::Count)]);
    for db in [
        Arc::new(BitmapDb::new(table.clone())) as DynDatabase,
        Arc::new(ScanDb::new(table.clone())) as DynDatabase,
    ] {
        let snap = db.pin();
        let v0 = snap.table().version();
        let (before, _) = snap.execute(&q, &QueryCtx::new()).unwrap();
        db.append_rows(&[row(2010, 0), row(2011, 1)]).unwrap();
        assert!(
            db.table().version() > v0,
            "{}: the engine must move on",
            db.name()
        );
        assert_eq!(
            snap.table().version(),
            v0,
            "{}: the pin must not",
            db.name()
        );
        let (after, _) = snap.execute(&q, &QueryCtx::new()).unwrap();
        assert_eq!(
            before,
            after,
            "{}: a pinned snapshot must keep answering over the pinned data",
            db.name()
        );
        // A fresh request sees the append.
        let fresh = db.run_request(std::slice::from_ref(&q)).unwrap();
        assert_ne!(*fresh[0], before, "{}", db.name());
    }
}

/// The regression the caveat described: a batch racing a concurrent
/// append must never mix adjacent snapshots across its queries. The two
/// batch queries count the same rows two ways (ungrouped vs grouped by
/// product); pinned execution makes their totals agree *always* —
/// without pinning, an append landing between the two executes tears
/// the batch. Runs on an uncached engine so both queries truly execute.
#[test]
fn concurrent_append_never_tears_a_batch() {
    let table = build_table(2_000);
    let db = Arc::new(BitmapDb::with_config(table, BitmapDbConfig::uncached()));
    let count_by_year = SelectQuery::new(XSpec::raw("year"), vec![YSpec::new("*", Agg::Count)]);
    let count_by_year_product = count_by_year.clone().with_z("product");
    let batch = [count_by_year, count_by_year_product];

    std::thread::scope(|s| {
        for _ in 0..4 {
            let db = Arc::clone(&db);
            let batch = &batch;
            s.spawn(move || {
                for _ in 0..40 {
                    let results = db.run_request(batch).unwrap();
                    let flat = &results[0].groups[0];
                    // Sum the grouped counts per year and compare.
                    for (xi, x) in flat.xs.iter().enumerate() {
                        let grouped: f64 = results[1]
                            .groups
                            .iter()
                            .map(|g| {
                                g.xs.iter()
                                    .position(|gx| gx == x)
                                    .map(|i| g.ys[0][i])
                                    .unwrap_or(0.0)
                            })
                            .sum();
                        assert_eq!(
                            grouped, flat.ys[0][xi],
                            "batch mixed two table versions at year {x}"
                        );
                    }
                }
            });
        }
        let db = Arc::clone(&db);
        s.spawn(move || {
            for i in 0..200 {
                db.append_rows(&[row(2010 + (i % 5), (i % 4) as u8)])
                    .unwrap();
            }
        });
    });
    assert_eq!(db.table().num_rows(), 2_200);
}

/// `(sealed chunks shared by pointer, sealed chunks of the old column)`.
fn shared_chunks(old: &Column, new: &Column) -> (usize, usize) {
    match (old, new) {
        (Column::Int(a), Column::Int(b)) => (b.shared_sealed_prefix(a), a.sealed_chunks()),
        (Column::Float(a), Column::Float(b)) => (b.shared_sealed_prefix(a), a.sealed_chunks()),
        (Column::Cat(a), Column::Cat(b)) => (
            b.codes().shared_sealed_prefix(a.codes()),
            a.codes().sealed_chunks(),
        ),
        _ => panic!("column changed type"),
    }
}

/// O(delta) appends, asserted structurally: after an append that seals
/// a new chunk, every sealed chunk of the old snapshot is the *same
/// allocation* in the new one, the dictionary is shared (no new values),
/// and every bitmap container below the old tail's container key is
/// shared too. The pinned pre-append snapshot keeps answering exactly
/// its own version.
#[test]
fn appends_share_sealed_chunks_and_index_containers() {
    // Two full 65,536-row container keys below the tail; the open chunk
    // holds 150,000 % 4096 = 2,544 rows, so a 2,000-row append seals.
    let n = 150_000;
    let tail_key = (n >> 16) as u16;
    let table = build_table(n);
    let batch: Vec<Vec<Value>> = (0..2_000)
        .map(|i| row(2010 + (i % 5) as i64, (i % 4) as u8))
        .collect();
    let queries = [
        SelectQuery::new(XSpec::raw("year"), vec![YSpec::new("*", Agg::Count)]),
        SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product"),
    ];

    let bitmap = Arc::new(BitmapDb::with_config(
        table.clone(),
        BitmapDbConfig::uncached(),
    ));
    let indexed = ["year", "product"];
    let old_ix: Vec<_> = indexed
        .iter()
        .map(|c| bitmap.index_bitmaps(c).expect("indexed").1)
        .collect();
    for db in [
        Arc::clone(&bitmap) as DynDatabase,
        Arc::new(ScanDb::new(table)) as DynDatabase,
    ] {
        let snap = db.pin();
        let before: Vec<_> = queries
            .iter()
            .map(|q| snap.execute(q, &QueryCtx::new()).unwrap().0)
            .collect();
        let old = db.table();
        db.append_rows(&batch).unwrap();
        let new = db.table();
        assert_eq!(new.num_rows(), n + batch.len());

        let mut sealed_more = false;
        for i in 0..old.schema().len() {
            let (shared, sealed) = shared_chunks(old.column_at(i), new.column_at(i));
            assert!(sealed > 30, "{}: the fixture has sealed chunks", db.name());
            assert_eq!(
                shared,
                sealed,
                "{}: column {i} must share every chunk sealed before the append",
                db.name()
            );
            let (_, now_sealed) = shared_chunks(new.column_at(i), new.column_at(i));
            sealed_more |= now_sealed > sealed;
        }
        assert!(sealed_more, "{}: the append must seal a chunk", db.name());
        let (old_dict, new_dict) = (
            old.column("product").unwrap().as_cat().unwrap().dict(),
            new.column("product").unwrap().as_cat().unwrap().dict(),
        );
        assert!(
            std::ptr::eq(old_dict, new_dict),
            "{}: an append of known values shares the dictionary",
            db.name()
        );

        for (q, want) in queries.iter().zip(&before) {
            let (got, _) = snap.execute(q, &QueryCtx::new()).unwrap();
            assert_eq!(&got, want, "{}: the pin answers its own version", db.name());
        }
        assert_eq!(snap.table().num_rows(), n);
    }

    // The bitmap engine's indexes share every container below the old
    // tail's key: the refresh wrote (and copied) only the tail.
    for (col, old_bitmaps) in indexed.iter().zip(&old_ix) {
        let (_, new_bitmaps) = bitmap.index_bitmaps(col).unwrap();
        for (code, (old_bm, new_bm)) in old_bitmaps.iter().zip(&new_bitmaps).enumerate() {
            let below = old_bm.containers_below(tail_key);
            assert_eq!(
                below, tail_key as usize,
                "{col} code {code}: fixture spans the keys"
            );
            assert!(
                new_bm.shared_prefix(old_bm) >= below,
                "{col} code {code}: containers below key {tail_key} must stay shared"
            );
            assert!(new_bm.len() > old_bm.len(), "{col} code {code} grew");
        }
    }
}
