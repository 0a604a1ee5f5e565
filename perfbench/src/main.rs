//! End-to-end and per-layer benchmark of the CuAsmRL reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-ppo --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload is a stream of optimization requests: a cold round of
//! distinct requests (each a miss, answered by a fresh hierarchical search)
//! followed by whole warm rounds that repeat them (each a hit, answered from
//! the deploy cache or the daemon's schedule store) until `--seconds` have
//! passed. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! same workload untraced once more, then measures it layer by layer and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object; details go to standard error. See `perfbench/README.md`.
//!
//! With `--setup-only 1` the binary performs one workload's set-up, prints
//! [`READY`] and exits: the benchmark starts itself that way to time
//! `setup_s` from process start.

mod check;
mod counters;
mod report;
mod serve;
mod stats;
mod suite;
mod trace;

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use report::Outcome;

const USAGE: &str = "usage: perfbench --workload suite-ppo|serve-repeat \
--seed N --seconds S --trace 0|1 [--setup-only 1]";

/// The line a `--setup-only` child prints once its first request can be
/// issued.
pub const READY: &str = "ready";

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Whether to perform only the workload's set-up (see [`probe_setups`]).
    pub setup_only: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| "--seconds must be an integer")?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be within 1..=60".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            "--setup-only" => setup_only = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

/// Where the benchmark keeps its scratch files and its per-seed counter
/// records: the Cargo target directory of the checkout it runs in.
pub fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
}

/// A fresh directory under [`work_root`], removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let path = work_root()
            .join("perfbench-tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|err| format!("cannot create {}: {err}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `callers` closed-loop callers, one thread each, take the items `0..n`
/// in order; caller `c` answers item `i` with `f(c, i)` and takes the next
/// item only once that returns. The answers come back in item order.
pub fn closed_loop<T: Send>(
    callers: usize,
    n: usize,
    f: impl Fn(usize, usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for caller in 0..callers {
            let (next, slots, f) = (&next, &slots, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let answer = f(caller, i);
                slots.lock().expect("no caller panics holding the slots")[i] = Some(answer);
            });
        }
    });
    slots
        .into_inner()
        .expect("callers joined")
        .into_iter()
        .map(|slot| slot.expect("every item answered"))
        .collect()
}

/// Times `n` set-ups of the run's workload, each in a fresh child process
/// started from this benchmark's binary with `--setup-only 1`: from
/// spawning the child until it reports that its first request can be
/// issued. Waits for every child to exit.
pub fn probe_setups(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|err| format!("no current executable: {err}"))?;
    let seconds = args.seconds.as_secs().to_string();
    let seed = args.seed.to_string();
    (0..n)
        .map(|_| {
            let start = Instant::now();
            let mut child = Command::new(&exe)
                .args(["--workload", &args.workload, "--seed", &seed])
                .args(["--seconds", &seconds, "--trace", "0", "--setup-only", "1"])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|err| format!("cannot start a set-up probe: {err}"))?;
            let mut line = String::new();
            let stdout = child.stdout.take().expect("stdout is piped");
            let read = BufReader::new(stdout).read_line(&mut line);
            let took = start.elapsed();
            let status = child
                .wait()
                .map_err(|err| format!("set-up probe lost: {err}"))?;
            if read.is_err() || line.trim_end() != READY || !status.success() {
                return Err(format!("set-up probe failed ({status}): {line:?}"));
            }
            Ok(took.as_secs_f64())
        })
        .collect()
}

/// Tells the parent of a `--setup-only` child that the set-up is done.
pub fn ready() {
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{READY}");
    let _ = stdout.flush();
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let done = match args.workload.as_str() {
            "suite-ppo" => suite::setup_only(&args),
            "serve-repeat" => serve::setup_only(&args),
            other => Err(format!("unknown workload {other}\n{USAGE}")),
        };
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("perfbench: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome: Result<Outcome, String> = match args.workload.as_str() {
        "suite-ppo" => suite::run(&args),
        "serve-repeat" => serve::run(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match outcome {
        Ok(outcome) => {
            let outcome = counters::compare_with_record(&args, outcome);
            eprint!("{}", outcome.details());
            println!("{}", outcome.json(args.trace));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
