//! `tasks`: the `zql::tasks` client-library functions, called in-process
//! by two closed-loop callers over a table with a few thousand products.

use std::sync::Arc;
use std::time::Instant;

use rand::Rng;
use zql::{
    outlier_search, representative_search, similarity_search, TaskSpec, ZqlEngine, ZqlError,
    ZqlOutput,
};
use zv_analytics::Series;
use zv_datagen::sales::{self, SalesConfig};
use zv_server::proto::VizTable;
use zv_storage::{Agg, BitmapDb, BitmapDbConfig, StorageError};

use crate::caller::record_interaction;
use crate::check;
use crate::layers::{self, CallRec, InteractionRec};
use crate::loadgen::{closed_loop, Op};
use crate::metrics::{Outcome, RunResult, DEADLINE};
use crate::runner::{
    alternate, settle, stream_rng, write_spans, Config, Rounds, PHASE_STRIDE, ROUNDS,
};
use crate::serve::{resident_bytes, serve};
use crate::trace::Tracer;

/// In-process callers.
pub const CALLERS: usize = 2;
/// Every this many calls, the answer is kept for the check, and so is
/// each caller's first call of each task function. Not a multiple of 3,
/// so the periodic calls cover all three functions too.
const KEEP_EVERY: usize = 50;
/// The task functions, by [`Task::name`].
const TASK_NAMES: [&str; 3] = ["similarity", "representative", "outlier"];

/// One task call of the seeded stream.
#[derive(Clone, Debug)]
enum Task {
    Similarity {
        spec: usize,
        sketch: Vec<f64>,
        k: usize,
    },
    Representative {
        spec: usize,
        k: usize,
    },
    Outlier {
        spec: usize,
        reps: usize,
        k: usize,
    },
}

fn specs() -> [TaskSpec; 2] {
    [
        TaskSpec::new("year", "sales", "product"),
        TaskSpec::new("year", "profit", "product").with_agg(Agg::Avg),
    ]
}

impl Task {
    fn of(seed: u64, index: usize) -> Task {
        let mut rng = stream_rng(seed, 4, index);
        let spec = rng.gen_range(0..2usize);
        match index % 3 {
            0 => {
                let mut level = rng.gen_range(50.0..150.0);
                let sketch = (0..7)
                    .map(|_| {
                        level += rng.gen_range(-10.0..10.0);
                        level
                    })
                    .collect();
                Task::Similarity {
                    spec,
                    sketch,
                    k: rng.gen_range(1..=10usize),
                }
            }
            1 => Task::Representative {
                spec,
                k: rng.gen_range(3..=8usize),
            },
            _ => Task::Outlier {
                spec,
                reps: rng.gen_range(3..=6usize),
                k: rng.gen_range(1..=5usize),
            },
        }
    }

    /// The position of the task's function in [`TASK_NAMES`].
    fn kind(&self) -> usize {
        match self {
            Task::Similarity { .. } => 0,
            Task::Representative { .. } => 1,
            Task::Outlier { .. } => 2,
        }
    }

    fn name(&self) -> &'static str {
        TASK_NAMES[self.kind()]
    }

    fn run(&self, engine: &ZqlEngine) -> Result<ZqlOutput, ZqlError> {
        let specs = specs();
        match self {
            Task::Similarity { spec, sketch, k } => {
                similarity_search(engine, &specs[*spec], &Series::from_ys(sketch), *k)
            }
            Task::Representative { spec, k } => representative_search(engine, &specs[*spec], *k),
            Task::Outlier { spec, reps, k } => outlier_search(engine, &specs[*spec], *reps, *k),
        }
    }
}

#[derive(Default)]
struct TaskCaller {
    kept: Vec<(usize, Vec<VizTable>)>,
    /// Which task functions this caller has kept an answer of.
    kept_kinds: [bool; 3],
    recs: Vec<InteractionRec>,
}

fn call(
    engine: &ZqlEngine,
    tracer: &Tracer,
    c: &mut TaskCaller,
    index: usize,
    task: Task,
) -> Outcome {
    let traced = tracer.enabled();
    let id = if traced { tracer.next_id() } else { 0 };
    if traced {
        tracer.enter(id, id);
    }
    let start = Instant::now();
    let result = task.run(engine);
    let end = Instant::now();
    let outcome = match &result {
        Ok(_) if end - start > DEADLINE => Outcome::TimedOut,
        Ok(_) => Outcome::Completed,
        Err(ZqlError::Storage(StorageError::Cancelled)) => Outcome::Cancelled,
        Err(_) => Outcome::Error,
    };
    if let Ok(out) = &result {
        if traced {
            record_interaction(tracer, id, start, end);
            c.recs.push(InteractionRec {
                start,
                end,
                calls: vec![CallRec {
                    span: id,
                    start,
                    end,
                    report: Some(out.report),
                    wire: None,
                    parse: None,
                    task: Some(task.name()),
                    probe: None,
                }],
                append: None,
            });
        }
        let kind = task.kind();
        if index.is_multiple_of(KEEP_EVERY) || !c.kept_kinds[kind] {
            c.kept_kinds[kind] = true;
            c.kept.push((index, check::as_wire(out)));
        }
    }
    outcome
}

pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let rows = cfg.pick(1_000_000, 20_000);
    let table = sales::generate(&SalesConfig {
        rows,
        products: cfg.pick(2_000, 100),
        seed: cfg.seed,
        ..Default::default()
    });
    let tracer = Tracer::new();
    let make_db = || {
        Ok(BitmapDb::with_config(
            table.clone(),
            BitmapDbConfig::default(),
        ))
    };
    let (served, setup) = serve(&make_db, &tracer, false)?;
    let engine = Arc::clone(&served.engine);

    let mut out = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let (columns, index) = resident_bytes(&served.db);
    out.set("setup_s", setup.setup_s);
    out.set("storage.build_ms", setup.build_ms);
    out.set(
        "resident_bytes_per_row",
        (columns + index) as f64 / rows as f64,
    );
    out.set("storage.column_bytes_per_row", columns as f64 / rows as f64);
    out.set("storage.index_bytes_per_row", index as f64 / rows as f64);

    // Untimed warm-up: one call of each task on each spec, so the first
    // scans have filled the cache before anything is timed.
    for task in [
        Task::Similarity {
            spec: 0,
            sketch: vec![1.0; 7],
            k: 1,
        },
        Task::Similarity {
            spec: 1,
            sketch: vec![1.0; 7],
            k: 1,
        },
        Task::Representative { spec: 0, k: 3 },
        Task::Outlier {
            spec: 1,
            reps: 3,
            k: 1,
        },
    ] {
        task.run(&engine)
            .map_err(|e| format!("warm-up {} failed: {e}", task.name()))?;
    }

    let seed = cfg.seed;
    let op = Op {
        input: &|i| Task::of(seed, i),
        run: &|c: &mut TaskCaller, i, task| call(&engine, &tracer, c, i, task),
        after: &|_| (),
    };
    let mut callers: Vec<TaskCaller> = (0..CALLERS).map(|_| TaskCaller::default()).collect();
    if cfg.traced {
        let (plain, traced) = callers.split_at_mut(1);
        let blocks = alternate(
            &mut plain[0],
            &mut traced[0],
            cfg.secs(1.0),
            PHASE_STRIDE,
            &tracer,
            &served.db,
            op,
        );
        out.ledger.add(&blocks.ledger);
        out.set("trace.overhead_frac", blocks.overhead_frac);
        let spans = tracer.take_spans();
        layers::report(&traced[0].recs, &spans, &blocks.counters, 0, &mut out)?;
        write_spans(cfg, &tracer, &spans)?;
    } else {
        let mut rounds = Rounds::default();
        for r in 0..ROUNDS {
            let phase = closed_loop(
                &mut callers,
                cfg.secs(1.0 / ROUNDS as f64),
                (r + 1) * PHASE_STRIDE,
                op,
            );
            rounds.record(&phase, true, true);
        }
        rounds.report(&mut out);
    }
    drop(served);

    // Every kept answer against the same call on an uncached engine.
    let reference = ZqlEngine::new(Arc::new(BitmapDb::with_config(
        table,
        BitmapDbConfig::uncached(),
    )));
    let kept: Vec<&(usize, Vec<VizTable>)> = callers.iter().flat_map(|c| &c.kept).collect();
    let mut corrupt = cfg.faults.corrupt_reference;
    for (index, got) in &kept {
        let task = Task::of(seed, *index);
        match task.run(&reference) {
            Ok(mut want) => {
                let target = cfg.faults.corrupt_task.is_none_or(|t| t == task.name());
                if corrupt && target && check::corrupt(&mut want) {
                    corrupt = false;
                }
                if let Err(e) = check::same_answer(got, &want) {
                    out.fail(format!("wrong {} answer: {e} ({task:?})", task.name()));
                }
            }
            Err(e) => out.fail(format!("reference {} failed: {e}", task.name())),
        }
    }
    for name in TASK_NAMES {
        if !kept.iter().any(|(i, _)| Task::of(seed, *i).name() == name) {
            out.fail(format!("no {name} answer was kept for the check"));
        }
    }
    settle(cfg, &mut out);
    Ok(out)
}
