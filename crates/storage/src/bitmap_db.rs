//! The Roaring Bitmap Database (thesis §6.2): a column store that keeps
//! one roaring bitmap per distinct value of every indexed column, answers
//! selection predicates with bitmap algebra, and aggregates by iterating
//! only qualifying rows.
//!
//! Per the paper's default policy, every categorical column is indexed
//! and measure columns are left unindexed; we additionally index
//! low-cardinality integer columns (year, month, ...) because they appear
//! as equality predicates in the canonical query.
//!
//! Table and indexes live together in one immutable [`Bitmap`] state —
//! the access path of the shared [`Engine`] shell — so they always
//! describe the same data and queries scan lock-free. Appends
//! copy-on-write the next state (bumping the table version, which
//! retires every cached result — see [`crate::cache`]) and refresh the
//! indexes *incrementally*: appended
//! row ids are strictly ascending, so each new row is an O(1)
//! `push_ascending` into its value bitmap; only an integer column whose
//! value range grew out of its existing code space pays a full
//! per-column rebuild.
//!
//! The copy is structural: the next snapshot shares every sealed column
//! chunk ([`crate::column`]) and every bitmap container
//! ([`crate::roaring`]) the append does not write. An append of `d`
//! rows therefore costs O(d + chunks + containers), not O(table): it
//! copies pointers, the open column tails, and the last container of
//! each bitmap it writes to.

use crate::column::{Chunked, Coded, Column};
use crate::engine::{engine_config, AccessPath, Engine};
use crate::exec::{compile_pred, RowSource};
use crate::predicate::{Atom, CmpOp, Predicate};
use crate::roaring::RoaringBitmap;
use crate::table::{StorageError, Table};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

engine_config!(
    /// Tuning knobs for [`BitmapDb`].
    BitmapDbConfig,
    dense_group_limit: 1 << 10
);

/// Integer columns with at most this many distinct values also get
/// bitmap indexes.
const INT_INDEX_MAX_CARD: u128 = 4096;

/// One indexed column: a bitmap of row ids per distinct-value code.
#[derive(Clone)]
struct ColumnIndex {
    /// `bitmaps[code]` = rows where the column equals the value with that
    /// code. For int columns the code is `value - min`.
    bitmaps: Vec<RoaringBitmap>,
    /// For integer indexes: the value of code 0.
    int_min: i64,
    is_int: bool,
}

impl ColumnIndex {
    fn lookup_cat(&self, code: u32) -> Option<&RoaringBitmap> {
        self.bitmaps.get(code as usize)
    }

    fn lookup_int(&self, value: i64) -> Option<&RoaringBitmap> {
        if !self.is_int {
            return None;
        }
        let off = value.checked_sub(self.int_min)?;
        if off < 0 {
            return None;
        }
        self.bitmaps.get(off as usize)
    }
}

/// The bitmap access path: one consistent snapshot of the table plus the
/// indexes built over it. Selections resolve through bitmap algebra;
/// atoms no index answers stay a per-row residual filter.
pub struct Bitmap {
    table: Arc<Table>,
    indexes: HashMap<String, ColumnIndex>,
    /// Int columns whose value range already exceeded the cardinality
    /// budget. A column's range only ever grows, so once a build fails it
    /// can never succeed again — remembering that spares every later
    /// append the O(n) min/max rescan of the column.
    unindexable: HashSet<String>,
}

/// One bitmap of row ids per code (`code_of` maps a value to its code),
/// built one 2^16-row container window at a time: the window's row ids
/// are bucketed per code, and each nonempty bucket becomes one container.
/// Every bitmap is then run-optimized (RLE where runs are smaller).
fn build_bitmaps<T: Coded>(
    col: &Chunked<T>,
    codes: usize,
    code_of: impl Fn(T) -> usize,
) -> Vec<RoaringBitmap> {
    let mut bitmaps = vec![RoaringBitmap::new(); codes];
    let mut buckets: Vec<Vec<u16>> = vec![Vec::new(); codes];
    for start in (0..col.len()).step_by(1 << 16) {
        let end = col.len().min(start + (1 << 16));
        col.for_each_range(start, end, |row, v| buckets[code_of(v)].push(row as u16));
        for (bm, bucket) in bitmaps.iter_mut().zip(&mut buckets) {
            bm.push_container((start >> 16) as u16, bucket);
            bucket.clear();
        }
    }
    for bm in &mut bitmaps {
        bm.run_optimize();
    }
    bitmaps
}

fn build_cat_index(c: &crate::column::CatColumn) -> ColumnIndex {
    ColumnIndex {
        bitmaps: build_bitmaps(c.codes(), c.cardinality(), |code| code as usize),
        int_min: 0,
        is_int: false,
    }
}

fn build_int_index(v: &crate::column::IntColumn) -> Option<ColumnIndex> {
    // Chunk-stat fold: O(chunks + tail), not a full O(n) value scan.
    let (lo, hi) = v.minmax(0, v.len())?;
    // i128 arithmetic: the value range can exceed i64 (e.g. a sentinel
    // near i64::MAX next to negative values).
    let card = (hi as i128 - lo as i128 + 1) as u128;
    if card > INT_INDEX_MAX_CARD {
        return None;
    }
    Some(ColumnIndex {
        bitmaps: build_bitmaps(v, card as usize, |val| (val - lo) as usize),
        int_min: lo,
        is_int: true,
    })
}

/// Appends devolve run containers: re-compress each bitmap one batch
/// touched, once, from the old tail's container key on.
fn reoptimize(bitmaps: &mut [RoaringBitmap], touched: &[bool], tail_key: u16) {
    for (bm, _) in bitmaps.iter_mut().zip(touched).filter(|(_, &t)| t) {
        bm.run_optimize_from(tail_key);
    }
}

impl Bitmap {
    /// Bring the indexes up to date after rows `old_rows..` were appended
    /// to `self.table`. Appended row ids are ascending and larger than
    /// anything indexed, so the common case is an O(1) tail append per
    /// row; an integer index whose value range grew falls back to a full
    /// per-column rebuild (or is dropped if it outgrew the cardinality
    /// budget — residual predicate scans stay correct without it).
    ///
    /// Appends write only containers with key ≥ `old_rows >> 16`, and
    /// every container below that key was already run-optimized when it
    /// was last written, so re-optimizing from that key on gives exactly
    /// the containers a whole-bitmap pass would — while leaving the
    /// containers shared with the previous snapshot untouched.
    fn refresh_indexes(&mut self, old_rows: usize) {
        let tail_key = (old_rows >> 16) as u16;
        let table = &self.table;
        let indexes = &mut self.indexes;
        let unindexable = &mut self.unindexable;
        for field in table.schema().fields() {
            match table.column(&field.name).unwrap() {
                Column::Cat(c) => {
                    let ix = indexes
                        .get_mut(&field.name)
                        .expect("categorical columns are always indexed");
                    // New dictionary codes get fresh (empty) bitmaps.
                    while ix.bitmaps.len() < c.cardinality() {
                        ix.bitmaps.push(RoaringBitmap::new());
                    }
                    let mut touched = vec![false; ix.bitmaps.len()];
                    c.codes().for_each_range(old_rows, c.len(), |row, code| {
                        ix.bitmaps[code as usize].push_ascending(row as u32);
                        touched[code as usize] = true;
                    });
                    reoptimize(&mut ix.bitmaps, &touched, tail_key);
                }
                Column::Int(v) => {
                    if unindexable.contains(&field.name) {
                        // A previously failed build can never succeed —
                        // the range only grows. Skip the O(n) rescan.
                        continue;
                    }
                    if let Some(ix) = indexes.get_mut(&field.name) {
                        let len = ix.bitmaps.len() as i64;
                        let int_min = ix.int_min;
                        // checked_sub: the offset can overflow i64 for
                        // extreme appended values; overflow means
                        // out-of-range, never a panic.
                        let mut in_range = true;
                        v.for_each_range(old_rows, v.len(), |_, x| {
                            in_range &= matches!(
                                x.checked_sub(int_min), Some(o) if (0..len).contains(&o)
                            );
                        });
                        if in_range {
                            let mut touched = vec![false; ix.bitmaps.len()];
                            v.for_each_range(old_rows, v.len(), |row, val| {
                                let code = (val - int_min) as usize;
                                ix.bitmaps[code].push_ascending(row as u32);
                                touched[code] = true;
                            });
                            reoptimize(&mut ix.bitmaps, &touched, tail_key);
                            continue;
                        }
                        indexes.remove(&field.name);
                    }
                    // Out-of-range append, or the column only now became
                    // indexable (e.g. it was empty at build time).
                    match build_int_index(v) {
                        Some(ix) => {
                            indexes.insert(field.name.clone(), ix);
                        }
                        None if !v.is_empty() => {
                            unindexable.insert(field.name.clone());
                        }
                        None => {}
                    }
                }
                Column::Float(_) => {}
            }
        }
    }

    /// Resolve one atom via the indexes, if possible.
    fn atom_bitmap(&self, atom: &Atom) -> Option<RoaringBitmap> {
        let ix = self.indexes.get(atom.column())?;
        match atom {
            Atom::CatEq { col, value } => {
                let c = self.table.column(col).ok()?.as_cat()?;
                match c.code_of(value) {
                    Some(code) => ix.lookup_cat(code).cloned(),
                    None => Some(RoaringBitmap::new()),
                }
            }
            Atom::CatNeq { col, value } => {
                let c = self.table.column(col).ok()?.as_cat()?;
                let all = self.all_rows();
                match c.code_of(value) {
                    Some(code) => Some(all.and_not(ix.lookup_cat(code)?)),
                    None => Some(all),
                }
            }
            Atom::CatIn { col, values } => {
                let c = self.table.column(col).ok()?.as_cat()?;
                let mut acc = RoaringBitmap::new();
                for v in values {
                    if let Some(code) = c.code_of(v) {
                        acc = acc.or(ix.lookup_cat(code)?);
                    }
                }
                Some(acc)
            }
            Atom::NumCmp {
                op: CmpOp::Eq,
                value,
                ..
            } if ix.is_int => {
                if value.fract() != 0.0 {
                    return Some(RoaringBitmap::new());
                }
                Some(ix.lookup_int(*value as i64).cloned().unwrap_or_default())
            }
            Atom::NumBetween { lo, hi, .. } if ix.is_int => {
                let lo_i = lo.ceil() as i64;
                let hi_i = hi.floor() as i64;
                let mut acc = RoaringBitmap::new();
                for v in lo_i..=hi_i {
                    if let Some(bm) = ix.lookup_int(v) {
                        acc = acc.or(bm);
                    }
                }
                Some(acc)
            }
            Atom::StrPrefix { col, prefix } => {
                let c = self.table.column(col).ok()?.as_cat()?;
                let mut acc = RoaringBitmap::new();
                for (code, s) in c.dict().iter().enumerate() {
                    if s.starts_with(prefix.as_str()) {
                        acc = acc.or(ix.lookup_cat(code as u32)?);
                    }
                }
                Some(acc)
            }
            _ => None,
        }
    }

    fn all_rows(&self) -> RoaringBitmap {
        RoaringBitmap::from_sorted_iter(0..self.table.num_rows() as u32)
    }
}

impl AccessPath for Bitmap {
    const NAME: &'static str = "roaring-bitmap-db";
    type Config = BitmapDbConfig;

    fn build(table: Arc<Table>) -> Self {
        let mut indexes = HashMap::new();
        let mut unindexable = HashSet::new();
        for field in table.schema().fields() {
            match table.column(&field.name).unwrap() {
                Column::Cat(c) => {
                    indexes.insert(field.name.clone(), build_cat_index(c));
                }
                Column::Int(v) => match build_int_index(v) {
                    Some(ix) => {
                        indexes.insert(field.name.clone(), ix);
                    }
                    // Empty columns may become indexable after an append;
                    // budget-exceeding ones never can (the range only grows).
                    None if !v.is_empty() => {
                        unindexable.insert(field.name.clone());
                    }
                    None => {}
                },
                Column::Float(_) => {}
            }
        }
        Bitmap {
            table,
            indexes,
            unindexable,
        }
    }

    fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// Cost is O(delta + containers): the index clone copies container
    /// pointers, and the refresh writes (and copies) only the last
    /// container of each bitmap the batch touches. The old state keeps
    /// every container it had.
    fn refresh(&self, table: Arc<Table>, old_rows: usize) -> Self {
        let mut next = Bitmap {
            table,
            indexes: self.indexes.clone(),
            unindexable: self.unindexable.clone(),
        };
        next.refresh_indexes(old_rows);
        next
    }

    /// Build the row source: bitmap-resolved atoms ANDed, residual atoms
    /// left as a per-row filter.
    fn row_source(&self, pred: &Predicate) -> Result<RowSource<'_>, StorageError> {
        let n = self.table.num_rows();
        match pred {
            Predicate::True => Ok(RowSource::All(n)),
            Predicate::And(atoms) => {
                let mut bitmaps: Vec<RoaringBitmap> = Vec::new();
                let mut residual: Vec<Atom> = Vec::new();
                for a in atoms {
                    match self.atom_bitmap(a) {
                        Some(bm) => bitmaps.push(bm),
                        None => residual.push(a.clone()),
                    }
                }
                if bitmaps.is_empty() {
                    let pred = compile_pred(&self.table, &Predicate::And(residual.clone()))?;
                    return Ok(RowSource::Filtered { n_rows: n, pred });
                }
                // AND cheapest-first.
                bitmaps.sort_by_key(|b| b.len());
                let mut acc = bitmaps[0].clone();
                for bm in &bitmaps[1..] {
                    acc = acc.and(bm);
                    if acc.is_empty() {
                        break;
                    }
                }
                if residual.is_empty() {
                    Ok(RowSource::Bitmap(acc))
                } else {
                    let pred = compile_pred(&self.table, &Predicate::And(residual))?;
                    Ok(RowSource::BitmapFiltered { rows: acc, pred })
                }
            }
            Predicate::Or(disj) => {
                // Fully-indexable disjunctions resolve via bitmap algebra;
                // otherwise fall back to a filtered scan.
                let mut acc = RoaringBitmap::new();
                for conj in disj {
                    let mut conj_bm: Option<RoaringBitmap> = None;
                    for a in conj {
                        match self.atom_bitmap(a) {
                            Some(bm) => {
                                conj_bm = Some(match conj_bm {
                                    Some(prev) => prev.and(&bm),
                                    None => bm,
                                })
                            }
                            None => {
                                let pred = compile_pred(&self.table, pred)?;
                                return Ok(RowSource::Filtered { n_rows: n, pred });
                            }
                        }
                    }
                    acc = acc.or(&conj_bm.unwrap_or_else(|| self.all_rows()));
                }
                Ok(RowSource::Bitmap(acc))
            }
        }
    }
}

/// In-memory database with roaring-bitmap secondary indexes.
pub type BitmapDb = Engine<Bitmap>;

impl Engine<Bitmap> {
    /// Total bytes held by bitmap indexes (compression reporting).
    pub fn index_bytes(&self) -> usize {
        self.state()
            .indexes
            .values()
            .flat_map(|ix| ix.bitmaps.iter())
            .map(RoaringBitmap::size_bytes)
            .sum()
    }

    pub fn is_indexed(&self, col: &str) -> bool {
        self.state().indexes.contains_key(col)
    }

    /// The current index of `col`: the value of code 0 (0 for
    /// categorical columns, whose codes are dictionary codes) and one
    /// bitmap of row ids per code. The bitmaps are clones, which share
    /// their containers with the engine's snapshot — so two calls around
    /// an append can be compared for structural sharing as well as for
    /// content.
    pub fn index_bitmaps(&self, col: &str) -> Option<(i64, Vec<RoaringBitmap>)> {
        let state = self.state();
        let ix = state.indexes.get(col)?;
        Some((ix.int_min, ix.bitmaps.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::db::Database;
    use crate::query::{SelectQuery, XSpec, YSpec};
    use crate::table::{Field, Schema, TableBuilder};
    use crate::value::{DataType, Value};

    fn db() -> BitmapDb {
        let schema = Schema::new(vec![
            Field::new("year", DataType::Int),
            Field::new("product", DataType::Cat),
            Field::new("location", DataType::Cat),
            Field::new("sales", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        let rows = [
            (2014, "chair", "US", 10.0),
            (2014, "chair", "US", 5.0),
            (2015, "chair", "US", 20.0),
            (2014, "desk", "US", 7.0),
            (2015, "desk", "UK", 9.0),
            (2015, "chair", "UK", 11.0),
        ];
        for (y, p, l, s) in rows {
            b.push_row(vec![
                Value::Int(y),
                Value::str(p),
                Value::str(l),
                Value::Float(s),
            ])
            .unwrap();
        }
        // The fixture is 6 rows: disable cost-based admission so the
        // cache-behaviour tests below still exercise warm hits.
        BitmapDb::with_config(
            b.finish_shared(),
            BitmapDbConfig {
                cache: CacheConfig::admit_all(),
                ..Default::default()
            },
        )
    }

    #[test]
    fn builds_indexes_for_cat_and_small_int() {
        let db = db();
        assert!(db.is_indexed("product"));
        assert!(db.is_indexed("location"));
        assert!(db.is_indexed("year")); // card 2 ≤ 4096
        assert!(!db.is_indexed("sales")); // measure column unindexed
        assert!(db.index_bytes() > 0);
    }

    #[test]
    fn bitmap_selection_scans_only_matching_rows() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("location", "UK"));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(
            delta.rows_scanned, 2,
            "only the two UK rows should be visited"
        );
        assert_eq!(rt.groups[0].ys[0], vec![20.0]);
    }

    #[test]
    fn conjunction_of_indexed_atoms() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_predicate(
            Predicate::cat_eq("product", "chair").and(Predicate::cat_eq("location", "US")),
        );
        let rt = db.execute(&q).unwrap();
        let g = &rt.groups[0];
        assert_eq!(g.xs, vec![Value::Int(2014), Value::Int(2015)]);
        assert_eq!(g.ys[0], vec![15.0, 20.0]);
    }

    #[test]
    fn int_equality_uses_index() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::num_eq("year", 2015.0));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 3);
        assert_eq!(rt.groups[0].ys[0], vec![40.0]);
    }

    #[test]
    fn residual_predicate_on_measure_column() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_predicate(
            Predicate::cat_eq("product", "chair").and(Predicate::atom(Atom::NumCmp {
                col: "sales".into(),
                op: CmpOp::Gt,
                value: 9.0,
            })),
        );
        let rt = db.execute(&q).unwrap();
        let g = &rt.groups[0];
        // chair rows with sales > 9: (2014,10), (2015,20), (2015,11)
        assert_eq!(g.xs, vec![Value::Int(2014), Value::Int(2015)]);
        assert_eq!(g.ys[0], vec![10.0, 31.0]);
    }

    #[test]
    fn indexed_disjunction() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_predicate(
            Predicate::Or(vec![
                vec![Atom::CatEq {
                    col: "product".into(),
                    value: "desk".into(),
                }],
                vec![Atom::CatEq {
                    col: "location".into(),
                    value: "UK".into(),
                }],
            ]),
        );
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 3); // rows 3,4,5
        let g = &rt.groups[0];
        assert_eq!(g.ys[0], vec![7.0, 20.0]);
    }

    #[test]
    fn missing_dictionary_value_yields_empty() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("product", "sofa"));
        assert!(db.execute(&q).unwrap().is_empty());
    }

    #[test]
    fn request_counting() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        db.run_request(&[q.clone(), q.clone(), q]).unwrap();
        let snap = db.stats().snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.queries, 3);
    }

    #[test]
    fn append_extends_indexes_incrementally() {
        let db = db();
        // New product ("sofa") and a new location code appear only in the
        // appended rows; the year range stays inside the existing index.
        db.append_rows(&[
            vec![
                Value::Int(2015),
                Value::str("sofa"),
                Value::str("FR"),
                Value::Float(4.0),
            ],
            vec![
                Value::Int(2014),
                Value::str("chair"),
                Value::str("UK"),
                Value::Float(6.0),
            ],
        ])
        .unwrap();
        assert!(db.is_indexed("product"));
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("product", "sofa"));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 1, "new code must be index-resolved");
        assert_eq!(rt.groups[0].ys[0], vec![4.0]);
        // Existing codes see the appended rows too.
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("location", "UK"));
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![6.0, 20.0]);
    }

    #[test]
    fn append_outside_int_range_rebuilds_that_index() {
        let db = db();
        assert!(db.is_indexed("year"));
        db.append_rows(&[vec![
            Value::Int(2020),
            Value::str("chair"),
            Value::str("US"),
            Value::Float(1.0),
        ]])
        .unwrap();
        assert!(db.is_indexed("year"), "widened range still fits the budget");
        let q = SelectQuery::new(XSpec::raw("product"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::num_eq("year", 2020.0));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 1);
        assert_eq!(rt.groups[0].ys[0], vec![1.0]);

        // Blow past the cardinality budget: the index must be dropped and
        // the query answered by a residual scan, still correctly.
        db.append_rows(&[vec![
            Value::Int(2014 + 1_000_000),
            Value::str("desk"),
            Value::str("US"),
            Value::Float(2.0),
        ]])
        .unwrap();
        assert!(!db.is_indexed("year"));
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![1.0]);
    }

    #[test]
    fn extreme_int_append_does_not_overflow_the_range_check() {
        // Regression: `value - int_min` used to overflow i64 when an
        // appended sentinel sat near i64::MAX with a negative int_min,
        // panicking inside the mutation path. It must instead be treated
        // as out-of-range (index dropped, residual scan stays correct).
        let db = db();
        // Widen the year index to a *negative* int_min first…
        db.append_rows(&[vec![
            Value::Int(-10),
            Value::str("chair"),
            Value::str("US"),
            Value::Float(0.25),
        ]])
        .unwrap();
        assert!(db.is_indexed("year"), "negative-min range still fits");
        // …then append the overflow-triggering sentinel.
        db.append_rows(&[vec![
            Value::Int(i64::MAX),
            Value::str("chair"),
            Value::str("US"),
            Value::Float(1.5),
        ]])
        .unwrap();
        assert!(!db.is_indexed("year"));
        let q = SelectQuery::new(XSpec::raw("product"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::num_eq("year", 2015.0));
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![31.0, 9.0]);
        // A follow-up append still works (engine not poisoned).
        db.append_rows(&[vec![
            Value::Int(2015),
            Value::str("desk"),
            Value::str("US"),
            Value::Float(2.0),
        ]])
        .unwrap();
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![31.0, 11.0]);
    }
}
