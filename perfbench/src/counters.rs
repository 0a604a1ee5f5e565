//! Exact comparison of deterministic work counters across runs.
//!
//! Each run records the counters that depend on its seed alone (eval-cache
//! hits and misses, delta outcomes, env steps, PPO updates, the daemon's
//! search count, the bits of the quality geomeans) under the target
//! directory, keyed by workload, seed and the benchmark binary. A later run
//! with the same key must reproduce every one of them exactly, whether it
//! is traced or not; any difference makes that run incorrect.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::UNIX_EPOCH;

use crate::report::Outcome;
use crate::Args;

/// Identifies the build: a rebuilt binary may legitimately count
/// differently, so its records start afresh.
fn binary_fingerprint() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|meta| {
            let modified = meta
                .modified()
                .ok()
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{:x}-{modified:x}", meta.len())
        })
        .unwrap_or_else(|_| "unknown".to_string())
}

fn record_path(args: &Args) -> PathBuf {
    crate::work_root().join("perfbench-counters").join(format!(
        "{}-seed{}-{}.txt",
        args.workload,
        args.seed,
        binary_fingerprint()
    ))
}

fn parse(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn render(counters: &BTreeMap<String, u64>) -> String {
    counters
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect()
}

/// Compares the run's counters with the record of an earlier run with the
/// same seed (writing the record when there is none yet).
pub fn compare_with_record(args: &Args, mut outcome: Outcome) -> Outcome {
    let path = record_path(args);
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let recorded = parse(&text);
            let names: BTreeSet<String> = recorded
                .keys()
                .chain(outcome.counters.keys())
                .cloned()
                .collect();
            for name in names {
                let (was, now) = (recorded.get(&name), outcome.counters.get(&name).copied());
                if was.copied() != now {
                    outcome.problem(format!(
                        "counter {name} is {now:?} but was {was:?} in an earlier run with seed {}",
                        args.seed
                    ));
                }
            }
        }
        Err(_) => {
            let write = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| {
                    let temp = path.with_extension("tmp");
                    std::fs::write(&temp, render(&outcome.counters))?;
                    std::fs::rename(&temp, &path)
                });
            if let Err(err) = write {
                outcome.problem(format!(
                    "cannot record counters at {}: {err}",
                    path.display()
                ));
            }
        }
    }
    outcome
}
