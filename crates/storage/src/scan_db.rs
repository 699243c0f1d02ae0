//! The conventional comparator engine: full scans with compiled per-row
//! predicates and dense-array aggregation. This stands in for the paper's
//! PostgreSQL backend (see DESIGN.md, substitution 1): it has no bitmap
//! indexes, so it must visit every row, but its aggregation path is
//! cardinality-aware (dense group arrays up to a large limit), which is
//! what lets it overtake the bitmap engine at 100% selectivity with many
//! groups (Figure 7.5a).
//!
//! Everything but the access path — locks, cache, persistence, appends —
//! is the shared [`Engine`] shell; the scan path keeps nothing beside
//! the table, so an append only swaps in the new table snapshot.

use crate::engine::{engine_config, AccessPath, Engine};
use crate::exec::{compile_pred, RowSource};
use crate::predicate::Predicate;
use crate::table::{StorageError, Table};
use std::sync::Arc;

engine_config!(
    /// Tuning knobs for [`ScanDb`].
    ScanDbConfig,
    dense_group_limit: 1 << 24
);

/// The scan access path: the table alone. Every query visits every row,
/// filtering through the compiled predicate.
pub struct Scan {
    table: Arc<Table>,
}

impl AccessPath for Scan {
    const NAME: &'static str = "scan-db";
    type Config = ScanDbConfig;

    fn build(table: Arc<Table>) -> Self {
        Scan { table }
    }

    fn table(&self) -> &Arc<Table> {
        &self.table
    }

    fn refresh(&self, table: Arc<Table>, _old_rows: usize) -> Self {
        Scan { table }
    }

    fn row_source(&self, pred: &Predicate) -> Result<RowSource<'_>, StorageError> {
        let n_rows = self.table.num_rows();
        if pred.is_true() {
            Ok(RowSource::All(n_rows))
        } else {
            let pred = compile_pred(&self.table, pred)?;
            Ok(RowSource::Filtered { n_rows, pred })
        }
    }
}

/// Scan-based reference engine.
pub type ScanDb = Engine<Scan>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::query::{SelectQuery, XSpec, YSpec};
    use crate::table::{Field, Schema, TableBuilder};
    use crate::value::{DataType, Value};

    fn db() -> ScanDb {
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
        ScanDb::new(b.finish_shared())
    }

    #[test]
    fn always_scans_all_rows() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("product", "desk"));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 4, "scan engine visits every row");
        assert_eq!(rt.groups[0].ys[0], vec![7.0, 9.0]);
    }

    #[test]
    fn grouped_output_matches_expectation() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups.len(), 2);
        let chair = rt.group(&[Value::str("chair")]).unwrap();
        assert_eq!(chair.ys[0], vec![10.0, 20.0]);
    }
}
