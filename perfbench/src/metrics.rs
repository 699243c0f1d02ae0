//! The metric catalogue, the outcome ledger, percentiles and the result
//! line every run ends with.

use std::collections::BTreeMap;
use std::time::Duration;

/// Every interaction carries this deadline. The server cancels a query
/// that runs past it (reported as timed out), and a failed or refused
/// interaction enters the latency sample at this value, so it misses
/// every latency limit an interactive user could set.
pub const DEADLINE: Duration = Duration::from_secs(5);

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
/// Each applies to every workload; `live` reports its append-to-answer
/// freshness as its interaction latency.
pub const END_TO_END: &[(&str, &str)] = &[
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("setup_s", "s"),
    ("resident_bytes_per_row", "B/row"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
/// A metric of a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.decode_p50_ms", "ms"),
    ("wire.encode_p50_ms", "ms"),
    ("wire.frame_bytes_mean", "B"),
    ("server.exec_p50_ms", "ms"),
    ("server.wait_p50_ms", "ms"),
    ("server.wait_p95_ms", "ms"),
    ("zql.parse_p50_ms", "ms"),
    ("zql.compute_p50_ms", "ms"),
    ("zql.other_p50_ms", "ms"),
    ("zql.requests_per_query", "count"),
    ("zql.sql_queries_per_query", "count"),
    ("tasks.similarity_p50_ms", "ms"),
    ("tasks.representative_p50_ms", "ms"),
    ("tasks.outlier_p50_ms", "ms"),
    ("storage.request_p50_ms", "ms"),
    ("storage.rows_scanned_per_query", "count"),
    ("storage.scan_mrows_per_s", "Mrows/s"),
    ("cache.hit_frac", "frac"),
    ("cache.derived_frac", "frac"),
    ("cache.ivm_frac", "frac"),
    ("cache.miss_frac", "frac"),
    ("cache.evictions", "count"),
    ("storage.append_p50_ms", "ms"),
    ("storage.ivm_rows_per_tick", "count"),
    ("persist.wal_bytes_per_row", "B/row"),
    ("persist.disk_bytes_per_row", "B/row"),
    ("storage.build_ms", "ms"),
    ("persist.recover_ms", "ms"),
    ("storage.index_bytes_per_row", "B/row"),
    ("storage.column_bytes_per_row", "B/row"),
    ("loadgen.late_p95_ms", "ms"),
    ("loadgen.failed_frac", "frac"),
    ("trace.unattributed_p50_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// How one interaction ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Completed,
    Busy,
    Error,
    Cancelled,
    TimedOut,
}

/// Exact outcome bookkeeping. `attempted` is counted when an interaction
/// is issued and the outcome when it ends, so a lost interaction shows
/// as a ledger that does not add up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    pub attempted: u64,
    pub completed: u64,
    pub busy: u64,
    pub error: u64,
    pub cancelled: u64,
    pub timed_out: u64,
}

impl Ledger {
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Completed => self.completed += 1,
            Outcome::Busy => self.busy += 1,
            Outcome::Error => self.error += 1,
            Outcome::Cancelled => self.cancelled += 1,
            Outcome::TimedOut => self.timed_out += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.busy + self.error + self.cancelled + self.timed_out
    }

    pub fn add(&mut self, other: &Ledger) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.busy += other.busy;
        self.error += other.error;
        self.cancelled += other.cancelled;
        self.timed_out += other.timed_out;
    }

    /// `attempted = completed + busy + error + cancelled + timed_out`.
    pub fn check(&self) -> Result<(), String> {
        if self.attempted == self.completed + self.failed() {
            Ok(())
        } else {
            Err(format!("ledger does not add up: {self:?}"))
        }
    }
}

/// Latency of one interaction in ms; a failed one counts as the deadline.
pub fn latency_ms(outcome: Outcome, took: Duration) -> f64 {
    if outcome == Outcome::Completed {
        ms(took)
    } else {
        ms(DEADLINE.max(took))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one run reports: the correctness verdict, the ledger and the
/// metric values by name.
#[derive(Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub ledger: Ledger,
    pub values: BTreeMap<&'static str, f64>,
    /// Why the run is not correct, one line per problem.
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn fail(&mut self, problem: String) {
        self.correct = false;
        self.problems.push(problem);
    }

    /// The contract's last stdout line: the catalogue for the run's mode,
    /// with a layer the workload never called reading 0.
    pub fn json_line(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.ledger.attempted.max(1),
            self.ledger.failed(),
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal; non-finite values become null so a
/// broken measurement can never pass for a number.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_adds_up_only_when_every_attempt_has_an_outcome() {
        let mut l = Ledger::default();
        for o in [Outcome::Completed, Outcome::Busy, Outcome::TimedOut] {
            l.attempted += 1;
            l.record(o);
        }
        assert!(l.check().is_ok());
        assert_eq!(l.failed(), 2);
        l.attempted += 1;
        assert!(l.check().is_err(), "an attempt without an outcome");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn failed_interactions_count_as_the_deadline() {
        assert_eq!(latency_ms(Outcome::Busy, Duration::from_millis(1)), 5000.0);
        assert_eq!(
            latency_ms(Outcome::Completed, Duration::from_millis(2)),
            2.0
        );
    }
}
