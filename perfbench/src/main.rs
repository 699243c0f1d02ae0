//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload explore|dashboard|tasks|live --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the workload's inputs from the seed, brings the system up the
//! way a user does, drives it for `S` seconds, checks the answers
//! against an independent reference, and prints one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run repeats the
//! workload with one caller and spans on and reports the per-layer
//! split. A wrong answer or a ledger that does not add up prints the
//! line with `"correct": false` and exits 1. See `README.md`.

mod caller;
mod check;
mod client;
mod layers;
mod live;
mod loadgen;
mod metrics;
mod runner;
mod serve;
mod tasks;
mod trace;
mod wire_workloads;

#[cfg(test)]
mod selftest;

use std::process::ExitCode;

use metrics::RunResult;
use runner::{Config, Faults};

pub const WORKLOADS: [&str; 4] = ["explore", "dashboard", "tasks", "live"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        traced: false,
        short: false,
        faults: Faults::default(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                cfg.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    if cfg.seconds == 0.0 {
        return Err("--seconds is required".to_string());
    }
    Ok(cfg)
}

/// Run one workload as configured.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    match cfg.workload.as_str() {
        "explore" => wire_workloads::run(cfg, &wire_workloads::explore(cfg)),
        "dashboard" => wire_workloads::run(cfg, &wire_workloads::dashboard(cfg)),
        "tasks" => tasks::run(cfg),
        "live" => live::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage(&msg),
    };
    match run(&cfg) {
        Ok(result) => {
            for p in &result.problems {
                eprintln!("perfbench: {p}");
            }
            println!("{}", result.json_line(cfg.traced));
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {} failed: {msg}", cfg.workload);
            ExitCode::FAILURE
        }
    }
}
