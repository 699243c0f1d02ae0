//! What every workload shares: the run configuration, the seeded
//! streams, and the traced run's alternation of untraced and traced
//! blocks.

use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zv_storage::BitmapDb;

use crate::layers::Counters;
use crate::loadgen::{closed_loop, Op, Phase};
use crate::metrics::{percentile, Ledger, RunResult};
use crate::trace::{Span, Tracer};

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Small tables and the same code paths: the self-test's scale.
    pub short: bool,
    pub faults: Faults,
}

/// Deliberate defects the self-test injects to prove the run's checks
/// can fail.
#[derive(Clone, Copy, Debug, Default)]
pub struct Faults {
    /// Perturb one reference answer.
    pub corrupt_reference: bool,
    /// For `tasks`: perturb an answer of this `zql::tasks` function only.
    pub corrupt_task: Option<&'static str>,
    /// Drop one interaction's outcome from the ledger.
    pub lose_outcome: bool,
}

impl Config {
    pub fn pick(&self, full: usize, short: usize) -> usize {
        if self.short {
            short
        } else {
            full
        }
    }

    /// `share` of the run's measuring time.
    pub fn secs(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Where a run writes its spans and data directories: inside the
    /// benchmark's own directory of the checkout it was built from.
    pub fn out_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// A deterministic generator for interaction `index` of stream
/// `stream`: the same seed gives the same interactions in any order.
pub fn stream_rng(seed: u64, stream: u64, index: usize) -> StdRng {
    let mix = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    StdRng::seed_from_u64(mix)
}

/// Index ranges of the phases of one run, far enough apart that no two
/// phases issue the same interaction.
pub const PHASE_STRIDE: usize = 1 << 20;

/// An untraced run measures in this many rounds and reports the median
/// round, so a burst of host noise moves one round's figures, not the
/// run's.
pub const ROUNDS: usize = 7;

/// The end-to-end figures of an untraced run, gathered over rounds.
#[derive(Default)]
pub struct Rounds {
    p50s: Vec<f64>,
    p95s: Vec<f64>,
    throughputs: Vec<f64>,
    ledger: Ledger,
}

impl Rounds {
    /// Record a phase: its interactions give one round's latency
    /// percentiles when `latency` is set, and its completion rate one
    /// round's throughput when `throughput` is set.
    pub fn record(&mut self, phase: &Phase, latency: bool, throughput: bool) {
        if latency {
            let latencies = phase.latencies();
            self.p50s.push(percentile(&latencies, 50.0));
            self.p95s.push(percentile(&latencies, 95.0));
        }
        if throughput {
            self.throughputs.push(phase.completed_per_s());
        }
        self.ledger.add(&phase.ledger);
    }

    /// The median round's p50, p95 and throughput, and the ledger of
    /// every phase.
    pub fn report(&self, out: &mut RunResult) {
        out.set("query_p50_ms", percentile(&self.p50s, 50.0));
        out.set("query_p95_ms", percentile(&self.p95s, 50.0));
        out.set("throughput_qps", percentile(&self.throughputs, 50.0));
        out.ledger.add(&self.ledger);
    }
}

/// Untraced/traced block pairs in a traced run.
const BLOCKS: usize = 4;

/// What the alternating blocks of a traced run measured.
pub struct Blocks {
    pub ledger: Ledger,
    pub counters: Counters,
    pub overhead_frac: f64,
}

/// Alternate [`BLOCKS`] untraced and traced single-caller closed-loop
/// blocks over `total`, starting at stream index `first`. Counter deltas
/// are taken over the traced blocks only; the tracing overhead compares
/// the median interaction of the traced blocks with the untraced ones.
pub fn alternate<S: Send, I>(
    plain: &mut S,
    traced: &mut S,
    total: Duration,
    first: usize,
    tracer: &Tracer,
    db: &BitmapDb,
    op: Op<S, I>,
) -> Blocks {
    let block = total / (2 * BLOCKS as u32);
    let mut ledger = Ledger::default();
    let mut counters = Counters::default();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    for b in 0..BLOCKS {
        let base = first + 2 * b * PHASE_STRIDE;
        let p = closed_loop(std::slice::from_mut(plain), block, base, op);
        tracer.set_enabled(true);
        let before = Counters::read(db);
        let t = closed_loop(std::slice::from_mut(traced), block, base + PHASE_STRIDE, op);
        let after = Counters::read(db);
        tracer.set_enabled(false);
        counters.add_delta(&before, &after);
        ledger.add(&p.ledger);
        ledger.add(&t.ledger);
        untraced_ms.extend(p.latencies());
        traced_ms.extend(t.latencies());
    }
    let overhead_frac = percentile(&traced_ms, 50.0) / percentile(&untraced_ms, 50.0) - 1.0;
    Blocks {
        ledger,
        counters,
        overhead_frac,
    }
}

/// Write a traced run's spans next to the other outputs.
pub fn write_spans(cfg: &Config, tracer: &Tracer, spans: &[Span]) -> Result<(), String> {
    let path = Config::out_dir().join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
    tracer
        .write_out(spans, &path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The run's verdict from its ledger, after the workload filled in
/// metrics and checks.
pub fn settle(cfg: &Config, out: &mut RunResult) {
    if cfg.faults.lose_outcome {
        out.ledger.completed = out.ledger.completed.saturating_sub(1);
    }
    if let Err(e) = out.ledger.check() {
        out.fail(e);
    }
    if out.ledger.attempted == 0 {
        out.fail("no interaction was attempted".to_string());
    }
    out.set(
        "loadgen.failed_frac",
        out.ledger.failed() as f64 / out.ledger.attempted.max(1) as f64,
    );
}
