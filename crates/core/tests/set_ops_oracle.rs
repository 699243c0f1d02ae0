//! Oracle for the executor's set operations. The executor evaluates
//! value sets (`|`, `\`, `&`, `* \ {…}`, `v.range`), pair-set unions,
//! name expressions (`-`, `^`, `.range`) and `.order` with hash sets and
//! hash buckets. The linear-scan `Vec::contains` implementations it
//! used before are kept here as the executable spec: over random lists
//! with duplicates, overlaps and values absent from the table, every
//! operation must give the spec's items in the spec's order.
//!
//! Every query also runs at each `OptLevel` over a cached engine, and
//! each answer must equal an uncached `NoOpt` run: same labels, same
//! order, same series. Scans are serial and the measures dyadic, so
//! every batching shape sums the same floats in the same order.

use proptest::prelude::*;
use std::sync::Arc;
use zql::*;
use zv_analytics::Series;
use zv_storage::{
    BitmapDb, BitmapDbConfig, DataType, Field, ParallelConfig, Schema, Table, TableBuilder, Value,
};

// ---------------------------------------------------------------------
// The spec
// ---------------------------------------------------------------------

fn spec_union<T: PartialEq + Clone>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = a.to_vec();
    for item in b {
        if !out.contains(item) {
            out.push(item.clone());
        }
    }
    out
}

fn spec_diff<T: PartialEq + Clone>(a: &[T], b: &[T]) -> Vec<T> {
    a.iter().filter(|i| !b.contains(i)).cloned().collect()
}

fn spec_intersect<T: PartialEq + Clone>(a: &[T], b: &[T]) -> Vec<T> {
    a.iter().filter(|i| b.contains(i)).cloned().collect()
}

/// `v.range` and `f.range`: first occurrences, in order.
fn spec_dedup<T: PartialEq + Clone>(a: &[T]) -> Vec<T> {
    spec_union(&[], a)
}

/// `.order`: for each value of the order variable, the first cell that
/// matches it.
fn spec_order<'a, K>(
    cells: &'a [OutputViz],
    order: &[K],
    matches: impl Fn(&OutputViz, &K) -> bool,
) -> Vec<&'a OutputViz> {
    order
        .iter()
        .filter_map(|k| cells.iter().find(|c| matches(c, k)))
        .collect()
}

// ---------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------

const PRODUCTS: [&str; 6] = ["chair", "desk", "lamp", "sofa", "stool", "shelf"];
const LOCATIONS: [&str; 3] = ["US", "UK", "DE"];

fn table() -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("year", DataType::Int),
        Field::new("month", DataType::Int),
        Field::new("product", DataType::Cat),
        Field::new("location", DataType::Cat),
        Field::new("sales", DataType::Float),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..480usize {
        b.push_row(vec![
            Value::Int(2010 + (i * 7 % 6) as i64),
            Value::Int((i % 12) as i64 + 1),
            Value::str(PRODUCTS[i % PRODUCTS.len()]),
            Value::str(LOCATIONS[i / 7 % LOCATIONS.len()]),
            Value::Float((i * 37 % 64) as f64 / 4.0),
        ])
        .unwrap();
    }
    b.finish_shared()
}

/// Z values drawn per attribute: present ones, absent ones, and (for
/// the int column) equal values of both numeric types.
fn pool(attr: &str) -> Vec<Value> {
    match attr {
        "product" => PRODUCTS
            .iter()
            .chain(&["ghost", "phantom"])
            .map(|p| Value::str(*p))
            .collect(),
        "location" => LOCATIONS
            .iter()
            .chain(&["FR"])
            .map(|l| Value::str(*l))
            .collect(),
        _ => vec![
            Value::Int(2010),
            Value::Float(2010.0),
            Value::Int(2012),
            Value::Float(2012.5),
            Value::Int(2015),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(2099),
        ],
    }
}

fn pick(attr: &str, idxs: &[usize]) -> Vec<Value> {
    let pool = pool(attr);
    idxs.iter().map(|&i| pool[i % pool.len()].clone()).collect()
}

fn idxs(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..64, len)
}

fn label(attr: &str, v: &Value) -> String {
    format!("{attr}={v}")
}

fn row(name: NameCol, x: AxisEntry, z: ZEntry) -> ZqlRow {
    ZqlRow {
        x: Some(x),
        y: Some(AxisEntry::fixed("sales")),
        zs: vec![z],
        ..ZqlRow::named(name)
    }
}

/// A fresh row over `month` slicing by `set`.
fn slice_row(name: NameCol, var: &str, set: ZSet) -> ZqlRow {
    row(
        name,
        AxisEntry::fixed("month"),
        ZEntry::DeclareValues {
            var: var.into(),
            set,
        },
    )
}

fn attr_values(attr: &str, values: ValueSet) -> ZSet {
    ZSet::AttrValues {
        attr: Some(attr.into()),
        values,
    }
}

fn derived(name: &str, expr: NameExpr, order_by: &[&str]) -> ZqlRow {
    ZqlRow {
        zs: order_by
            .iter()
            .map(|v| ZEntry::OrderBy(v.to_string()))
            .collect(),
        ..ZqlRow::named(NameCol::derived_output(name, expr))
    }
}

fn name(n: &str) -> Box<NameExpr> {
    Box::new(NameExpr::Ref(n.into()))
}

const OPT_LEVELS: [OptLevel; 4] = [
    OptLevel::NoOpt,
    OptLevel::IntraLine,
    OptLevel::IntraTask,
    OptLevel::InterTask,
];

fn serial() -> ParallelConfig {
    ParallelConfig {
        threads: 1,
        min_parallel_rows: usize::MAX,
        ..Default::default()
    }
}

/// Runs `query` at every `OptLevel` over one cached engine and checks
/// each answer against an uncached `NoOpt` run, which it returns.
/// Queries the reference rejects must be rejected at every level.
fn run_everywhere(table: &Arc<Table>, query: &ZqlQuery) -> Result<Vec<OutputViz>, String> {
    let reference = ZqlEngine::with_opt_level(
        Arc::new(BitmapDb::with_config(
            table.clone(),
            BitmapDbConfig {
                parallel: serial(),
                ..BitmapDbConfig::uncached()
            },
        )),
        OptLevel::NoOpt,
    )
    .execute(query)
    .map(|out| out.visualizations)
    .map_err(|e| e.to_string());
    let cached = Arc::new(BitmapDb::with_config(
        table.clone(),
        BitmapDbConfig {
            parallel: serial(),
            ..Default::default()
        },
    ));
    for opt in OPT_LEVELS {
        let got = ZqlEngine::with_opt_level(cached.clone(), opt)
            .execute(query)
            .map(|out| out.visualizations)
            .map_err(|e| e.to_string());
        match (&got, &reference) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.len(), want.len(), "{opt:?}");
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(
                        (&g.component, &g.x, &g.label),
                        (&w.component, &w.x, &w.label),
                        "{opt:?}"
                    );
                    assert_eq!(g.series, w.series, "{opt:?} {}", g.label);
                }
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{opt:?}"),
            _ => panic!("{opt:?}: {got:?} vs reference {reference:?}"),
        }
    }
    reference
}

fn of<'a>(out: &'a [OutputViz], component: &str) -> Vec<&'a OutputViz> {
    out.iter().filter(|v| v.component == component).collect()
}

fn labels(out: &[&OutputViz]) -> Vec<String> {
    out.iter().map(|v| v.label.clone()).collect()
}

/// Asserts a one-component query answers exactly the spec's slices (an
/// empty spec means the query must be rejected: an empty Z set).
fn assert_slices(table: &Arc<Table>, query: ZqlQuery, want: Vec<String>, what: &str) {
    match run_everywhere(table, &query) {
        Ok(out) => assert_eq!(labels(&of(&out, "f1")), want, "{what}"),
        Err(e) => assert!(want.is_empty(), "{what}: {e}, spec {want:?}"),
    }
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn value_set_operations_match_the_spec(
        a in idxs(0..8),
        b in idxs(0..8),
        numeric in any::<bool>(),
    ) {
        let table = table();
        let attr = if numeric { "year" } else { "product" };
        let (a, b) = (pick(attr, &a), pick(attr, &b));
        let list = |v: &[Value]| Box::new(ValueSet::List(v.to_vec()));
        let single = |values: ValueSet| {
            ZqlQuery::new(vec![slice_row(NameCol::output("f1"), "v1", attr_values(attr, values))])
        };
        let labelled = |vals: Vec<Value>| vals.iter().map(|v| label(attr, v)).collect::<Vec<_>>();

        let union = ValueSet::Union(list(&a), list(&b));
        assert_slices(&table, single(union.clone()), labelled(spec_union(&a, &b)), "union");
        let diff = ValueSet::Diff(list(&a), list(&b));
        assert_slices(&table, single(diff), labelled(spec_diff(&a, &b)), "diff");
        let both = ValueSet::Intersect(list(&a), list(&b));
        assert_slices(&table, single(both.clone()), labelled(spec_intersect(&a, &b)), "intersect");
        let xor = ValueSet::Diff(Box::new(union), Box::new(both));
        let want = spec_diff(&spec_union(&a, &b), &spec_intersect(&a, &b));
        assert_slices(&table, single(xor), labelled(want), "symmetric difference");

        let all = table.column(attr).unwrap().distinct_values();
        let except = single(ValueSet::AllExcept(a.clone()));
        assert_slices(&table, except, labelled(spec_diff(&all, &a)), "all-except");

        // `v1.range` over a domain that lists values twice.
        let ranged = ZqlQuery::new(vec![
            slice_row(NameCol::fresh("f0"), "v0", attr_values(attr, ValueSet::List(a.clone()))),
            slice_row(NameCol::output("f1"), "v1", attr_values(attr, ValueSet::RangeOf("v0".into()))),
        ]);
        assert_slices(&table, ranged, labelled(spec_dedup(&a)), "range");
    }

    #[test]
    fn pair_set_union_matches_the_spec(
        a in idxs(0..8),
        b in idxs(0..8),
        mixed in any::<bool>(),
    ) {
        let table = table();
        let other = if mixed { "location" } else { "product" };
        let pairs = |attr: &str, idxs: &[usize]| -> Vec<(String, Value)> {
            pick(attr, idxs).into_iter().map(|v| (attr.to_string(), v)).collect()
        };
        let (pa, pb) = (pairs("product", &a), pairs(other, &b));
        let query = ZqlQuery::new(vec![slice_row(
            NameCol::output("f1"),
            "v1",
            ZSet::Union(
                Box::new(attr_values("product", ValueSet::List(pick("product", &a)))),
                Box::new(attr_values(other, ValueSet::List(pick(other, &b)))),
            ),
        )]);
        let want = spec_union(&pa, &pb).iter().map(|(at, v)| label(at, v)).collect();
        assert_slices(&table, query, want, "pair-set union");
    }

    #[test]
    fn name_expressions_match_the_spec(a in idxs(1..8), b in idxs(1..8)) {
        let table = table();
        let products = |i: &[usize]| attr_values("product", ValueSet::List(pick("product", i)));
        let query = ZqlQuery::new(vec![
            slice_row(NameCol::output("f1"), "v1", products(&a)),
            slice_row(NameCol::output("f2"), "v2", products(&b)),
            derived("f3", NameExpr::Sub(name("f1"), name("f2")), &[]),
            derived("f4", NameExpr::Intersect(name("f1"), name("f2")), &[]),
            derived("f5", NameExpr::Range(name("f1")), &[]),
            derived(
                "f6",
                NameExpr::Range(Box::new(NameExpr::Add(name("f2"), name("f1")))),
                &[],
            ),
        ]);
        let out = run_everywhere(&table, &query).unwrap();
        // The cells differ only in their slice, so a label stands for
        // its cell and the pair compares like the cell.
        let cells = |c: &str| -> Vec<(String, Series)> {
            of(&out, c).iter().map(|v| (v.label.clone(), v.series.clone())).collect()
        };
        let (f1, f2) = (cells("f1"), cells("f2"));
        prop_assert_eq!(cells("f3"), spec_diff(&f1, &f2));
        prop_assert_eq!(cells("f4"), spec_intersect(&f1, &f2));
        prop_assert_eq!(cells("f5"), spec_dedup(&f1));
        let f2_f1: Vec<_> = f2.iter().chain(&f1).cloned().collect();
        prop_assert_eq!(cells("f6"), spec_dedup(&f2_f1));
    }

    #[test]
    fn order_matches_the_spec(
        a in idxs(1..6),
        q in idxs(1..8),
        xs in prop::collection::vec(0usize..2, 1..4),
        xq in prop::collection::vec(0usize..3, 1..5),
    ) {
        let table = table();
        const AXES: [&str; 3] = ["year", "month", "sales"];
        let attrs = |i: &[usize]| {
            AttrSet::List(i.iter().map(|&k| AttrExpr::attr(AXES[k])).collect())
        };
        let declare = |var: &str, i: &[usize]| ZEntry::DeclareValues {
            var: var.into(),
            set: attr_values("product", ValueSet::List(pick("product", i))),
        };
        let query = ZqlQuery::new(vec![
            row(
                NameCol::output("f1"),
                AxisEntry::Declare { var: "x1".into(), set: attrs(&xs) },
                declare("v1", &a),
            ),
            // The attribute order variable ranges over measures too, so
            // it is declared on f0's Y axis.
            ZqlRow {
                x: Some(AxisEntry::fixed("month")),
                y: Some(AxisEntry::Declare { var: "x2".into(), set: attrs(&xq) }),
                zs: vec![declare("u1", &q)],
                ..ZqlRow::named(NameCol::fresh("f0"))
            },
            derived("f2", NameExpr::Order(name("f1")), &["u1"]),
            derived("f3", NameExpr::Order(name("f1")), &["x2"]),
        ]);
        let out = run_everywhere(&table, &query).unwrap();
        let f1: Vec<OutputViz> = of(&out, "f1").into_iter().cloned().collect();

        // Ordered by a value variable: the first cell slicing that value.
        let by_value = spec_order(&f1, &pick("product", &q), |c, v| c.label == label("product", v));
        prop_assert_eq!(labels(&of(&out, "f2")), labels(&by_value));
        // Ordered by an attribute variable: the first cell whose x or y
        // is that attribute.
        let names: Vec<&str> = xq.iter().map(|&k| AXES[k]).collect();
        let by_attr = spec_order(&f1, &names, |c, n| c.x == *n || c.y == *n);
        let got: Vec<(String, String)> = of(&out, "f3").iter().map(|v| (v.x.clone(), v.label.clone())).collect();
        let want: Vec<(String, String)> = by_attr.iter().map(|v| (v.x.clone(), v.label.clone())).collect();
        prop_assert_eq!(got, want);
    }
}
