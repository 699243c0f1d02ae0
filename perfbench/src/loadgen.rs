//! Load generation: an open loop at a fixed rate and a closed loop, each
//! with one generator thread per caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::metrics::{latency_ms, ms, Ledger, Outcome};

/// One interaction as the generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Open loop: from when the interaction was due; closed loop: from
    /// when it was sent.
    pub latency_ms: f64,
    /// How long after its due time the interaction was sent.
    pub late_ms: f64,
}

/// What a phase produced.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub ledger: Ledger,
    pub elapsed: Duration,
}

impl Phase {
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    pub fn completed_per_s(&self) -> f64 {
        self.ledger.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// The operation a phase drives, in three steps so that a sample times
/// the system's work and nothing of the benchmark's own.
pub struct Op<'a, S, I> {
    /// Builds interaction `index`'s input (query text, task, batch)
    /// before its clock starts.
    pub input: &'a (dyn Fn(usize) -> I + Sync),
    /// Runs interaction `index` on a caller: the timed step.
    pub run: &'a (dyn Fn(&mut S, usize, I) -> Outcome + Sync),
    /// Benchmark work after the clock stopped, such as a traced call's
    /// probes.
    pub after: &'a (dyn Fn(&mut S) + Sync),
}

impl<S, I> Clone for Op<'_, S, I> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S, I> Copy for Op<'_, S, I> {}

/// Run interactions `first, first + 1, …` from one thread per caller.
/// `pace` is the open-loop rate (interaction `first + i` is due `i /
/// rate` seconds after the start) or `None` for a closed loop (send as
/// soon as the caller is free). Each interaction's input is built before
/// its clock starts, and `after` runs once its sample is taken. Stops
/// issuing once `duration` has passed since the start.
fn drive<S: Send, I>(
    callers: &mut [S],
    duration: Duration,
    pace: Option<f64>,
    first: usize,
    op: Op<S, I>,
) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let stop = start + duration;
    let per_caller: Vec<(Vec<Sample>, Ledger)> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                let next = &next;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut ledger = Ledger::default();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let input = (op.input)(first + index);
                        let due = match pace {
                            Some(rate) => start + Duration::from_secs_f64(index as f64 / rate),
                            None => Instant::now(),
                        };
                        if due >= stop {
                            break;
                        }
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        ledger.attempted += 1;
                        let outcome = (op.run)(caller, first + index, input);
                        let took = due.elapsed();
                        ledger.record(outcome);
                        samples.push(Sample {
                            latency_ms: latency_ms(outcome, took),
                            late_ms: ms(sent - due),
                        });
                        (op.after)(caller);
                        // A broken connection cannot carry more load.
                        if outcome == Outcome::Error {
                            break;
                        }
                    }
                    (samples, ledger)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut phase = Phase {
        samples: Vec::new(),
        ledger: Ledger::default(),
        elapsed,
    };
    for (samples, ledger) in per_caller {
        phase.samples.extend(samples);
        phase.ledger.add(&ledger);
    }
    phase
}

/// Interaction `i` is due `i / rate` seconds after the start, whatever
/// happened to earlier ones; at most one in flight per caller.
pub fn open_loop<S: Send, I>(
    callers: &mut [S],
    rate: f64,
    duration: Duration,
    first: usize,
    op: Op<S, I>,
) -> Phase {
    drive(callers, duration, Some(rate), first, op)
}

/// Each caller sends its next interaction when the previous one ends.
pub fn closed_loop<S: Send, I>(
    callers: &mut [S],
    duration: Duration,
    first: usize,
    op: Op<S, I>,
) -> Phase {
    drive(callers, duration, None, first, op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_issues_at_the_rate_and_times_from_due() {
        let mut callers = vec![(), ()];
        let phase = open_loop(
            &mut callers,
            200.0,
            Duration::from_millis(200),
            0,
            Op {
                input: &|_| (),
                run: &|_, _, ()| {
                    std::thread::sleep(Duration::from_millis(1));
                    Outcome::Completed
                },
                after: &|_| (),
            },
        );
        assert_eq!(phase.ledger.attempted, 40);
        assert!(phase.ledger.check().is_ok());
        assert!(phase.samples.iter().all(|s| s.latency_ms >= 1.0));
    }

    #[test]
    fn closed_loop_counts_every_outcome() {
        let mut callers = vec![0u32; 2];
        let run = |c: &mut u32, i: usize, ()| {
            *c += 1;
            std::thread::sleep(Duration::from_millis(2));
            if i.is_multiple_of(5) {
                Outcome::Busy
            } else {
                Outcome::Completed
            }
        };
        let op = Op {
            input: &|_| (),
            run: &run,
            after: &|_| (),
        };
        let phase = closed_loop(&mut callers, Duration::from_millis(50), 0, op);
        assert_eq!(phase.ledger.attempted, u64::from(callers[0] + callers[1]));
        assert!(phase.ledger.check().is_ok());
        assert!(phase.ledger.busy > 0);
    }
}
