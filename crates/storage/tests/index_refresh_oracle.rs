//! Index-refresh oracle: after every append, a `BitmapDb`'s incrementally
//! refreshed bitmap indexes must equal, container for container and kind
//! for kind (Array / Bitmap / Run), the indexes a fresh engine builds
//! over the same table.
//!
//! The refresh writes only containers at or past the old row count's
//! container key and re-optimizes only those; the fresh build
//! run-optimizes every container. Equality here is what proves the
//! tail-only re-optimize exact. Seeded append sequences cross several
//! 65,536-row container boundaries, intern new dictionary values, widen
//! an integer index past its code range (forcing a rebuild) and finally
//! past the cardinality budget (dropping it), under both the default
//! encoding policy and forced encodings.

use std::sync::Arc;
use zv_storage::{
    BitmapDb, BitmapDbConfig, CacheConfig, ContainerCounts, DataType, Database, EncodePolicy,
    Field, Schema, Table, TableBuilder, Value,
};

/// splitmix64: a tiny seeded generator, so every run replays exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const INDEXED: [&str; 4] = ["year", "product", "region", "flag"];

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("year", DataType::Int),
        Field::new("product", DataType::Cat),
        // Long runs of one value: run-optimizes into Run containers.
        Field::new("region", DataType::Cat),
        // Two values at random: > 4096 rows per container, Bitmap kind.
        Field::new("flag", DataType::Cat),
        Field::new("sales", DataType::Float),
    ])
}

/// Row `i` of the sequence. `products` bounds the product dictionary
/// (growing it interns new values); `year_hi` bounds the year range.
fn row(rng: &mut Rng, i: u64, products: u64, year_hi: i64) -> Vec<Value> {
    vec![
        Value::Int(2000 + rng.below((year_hi - 2000 + 1) as u64) as i64),
        // Sparse product codes: Array containers.
        Value::str(format!("p{}", rng.below(products))),
        Value::str(format!("r{}", (i / 5_000) % 3)),
        Value::str(if rng.below(2) == 0 { "yes" } else { "no" }),
        Value::Float(rng.below(10_000) as f64 * 0.25),
    ]
}

fn fresh_config() -> BitmapDbConfig {
    BitmapDbConfig {
        cache: CacheConfig::disabled(),
        ..Default::default()
    }
}

/// Compare every index of `db` with a fresh build over its table, and
/// return the container census of the refreshed indexes.
fn assert_matches_fresh_build(db: &BitmapDb, what: &str) -> ContainerCounts {
    let table: Arc<Table> = db.table();
    let fresh = BitmapDb::with_config(table, fresh_config());
    let mut counts = ContainerCounts::default();
    for col in INDEXED {
        let got = db.index_bitmaps(col);
        let want = fresh.index_bitmaps(col);
        assert_eq!(
            got.is_some(),
            want.is_some(),
            "{what}: index presence of {col}"
        );
        let (Some((got_min, got)), Some((want_min, want))) = (got, want) else {
            continue;
        };
        assert_eq!(got_min, want_min, "{what}: {col} code-0 value");
        assert_eq!(got.len(), want.len(), "{what}: {col} bitmap count");
        for (code, (g, w)) in got.iter().zip(&want).enumerate() {
            // RoaringBitmap equality is structural: same keys, same
            // container kinds, same contents.
            assert_eq!(g, w, "{what}: {col} code {code}");
            counts.merge(&g.container_counts());
        }
    }
    counts
}

fn run_sequence(policy: EncodePolicy, seed: u64) {
    let what = format!("{policy:?} seed {seed}");
    let mut rng = Rng(seed);
    let base_rows = 60_000u64;
    let mut b = TableBuilder::with_encoding(schema(), policy);
    for i in 0..base_rows {
        b.push_row(row(&mut rng, i, 20, 2009)).unwrap();
    }
    let db = BitmapDb::with_config(b.finish_shared(), fresh_config());
    assert!(db.is_indexed("year"));

    let mut counts = assert_matches_fresh_build(&db, &format!("{what}: build"));
    let mut next = base_rows;
    let mut products = 20;
    let mut year_hi = 2009;
    let mut step = 0;
    // Cross two container boundaries (65,536 and 131,072).
    while next < 140_000 {
        step += 1;
        // Every fourth batch brings new products; batch 8 widens the
        // year range (rebuild, still inside the budget); batch 20 blows
        // the budget (the index is dropped on both sides).
        if step % 4 == 0 {
            products += 1 + rng.below(5);
        }
        if step == 8 {
            year_hi = 2030;
        }
        let batch_len = 1 + rng.below(5_000);
        let mut batch: Vec<Vec<Value>> = (0..batch_len)
            .map(|k| row(&mut rng, next + k, products, year_hi))
            .collect();
        if step == 20 {
            batch[0][0] = Value::Int(1_000_000);
        }
        db.append_rows(&batch).unwrap();
        next += batch_len;
        let c = assert_matches_fresh_build(&db, &format!("{what}: append {step}"));
        counts.merge(&c);
        if step == 8 {
            assert!(db.is_indexed("year"), "{what}: widened year still fits");
        }
        if step == 20 {
            assert!(!db.is_indexed("year"), "{what}: year outgrew the budget");
        }
    }
    assert!(
        step > 20,
        "{what}: the sequence ended before the budget step"
    );
    assert!(
        counts.array > 0 && counts.bitmap > 0 && counts.run > 0,
        "{what}: the refreshed indexes must exercise every container kind, got {counts:?}"
    );
}

#[test]
fn refreshed_indexes_equal_a_fresh_build() {
    run_sequence(EncodePolicy::auto(), 1);
}

#[test]
fn refreshed_indexes_equal_a_fresh_build_over_forced_encodings() {
    run_sequence(EncodePolicy::force(), 3);
}
