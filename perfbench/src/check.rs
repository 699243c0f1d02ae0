//! Answer checks against an independent reference, run outside the
//! timed region.

use zql::ZqlOutput;
use zv_analytics::Series;
use zv_server::proto::VizTable;
use zv_storage::{GroupSeries, ResultTable, Value};

/// Relative tolerance on measures. Engines may sum in another order
/// (bitmap source versus plain scan, delta merge versus recompute), so
/// last-ulp drift is expected; anything past this is a wrong answer.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Does the wire answer carry the reference's visualizations, in order,
/// with the same labels, x values and (to tolerance) measures?
pub fn same_answer(got: &[VizTable], want: &ZqlOutput) -> Result<(), String> {
    if got.len() != want.visualizations.len() {
        return Err(format!(
            "{} visualizations, reference has {}",
            got.len(),
            want.visualizations.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(&want.visualizations).enumerate() {
        if (&g.component, &g.x, &g.y, &g.label) != (&w.component, &w.x, &w.y, &w.label) {
            return Err(format!(
                "visualization {i} is {}/{}/{}/{}, reference {}/{}/{}/{}",
                g.component, g.x, g.y, g.label, w.component, w.x, w.y, w.label
            ));
        }
        let points = w.series.points();
        let [group] = g.table.groups.as_slice() else {
            return Err(format!("visualization {i} is not one series"));
        };
        let ys = group.ys.first().map(Vec::as_slice).unwrap_or(&[]);
        if group.xs.len() != points.len() || ys.len() != points.len() {
            return Err(format!(
                "visualization {i} ({}) has {} points, reference {}",
                g.label,
                group.xs.len(),
                points.len()
            ));
        }
        for ((x, &y), &(wx, wy)) in group.xs.iter().zip(ys).zip(points) {
            if *x != Value::Float(wx) || !close(y, wy) {
                return Err(format!(
                    "visualization {i} ({}) point ({x:?}, {y}) differs from reference ({wx}, {wy})",
                    g.label
                ));
            }
        }
    }
    Ok(())
}

/// An in-process answer in the shape the server puts on the wire.
pub fn as_wire(out: &ZqlOutput) -> Vec<VizTable> {
    out.visualizations
        .iter()
        .map(|viz| {
            let (xs, ys) = viz
                .series
                .points()
                .iter()
                .map(|&(x, y)| (Value::Float(x), y))
                .unzip();
            VizTable {
                component: viz.component.clone(),
                x: viz.x.clone(),
                y: viz.y.clone(),
                label: viz.label.clone(),
                table: ResultTable {
                    z_cols: Vec::new(),
                    groups: vec![GroupSeries {
                        key: Vec::new(),
                        xs,
                        ys: vec![ys],
                    }],
                },
            }
        })
        .collect()
}

/// Perturb the first measure of a reference answer, so a self-test can
/// prove that a wrong answer fails the run. Returns whether the answer
/// had a measure to perturb.
pub fn corrupt(out: &mut ZqlOutput) -> bool {
    let Some(viz) = out
        .visualizations
        .iter_mut()
        .find(|v| !v.series.points().is_empty())
    else {
        return false;
    };
    let points = viz
        .series
        .points()
        .iter()
        .map(|&(x, y)| (x, y * 1.5 + 1.0))
        .collect();
    viz.series = Series::new(points);
    true
}
