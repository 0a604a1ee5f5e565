//! The `suite-ppo` workload: the `table2` suite on ampere at scale 8,
//! searched through `SuiteOptimizer` with the paper's PPO over the
//! adjacent-swap space (one request per kernel, each a miss answered by a
//! fresh hierarchical search), then repeated by one closed-loop caller
//! whose requests the deploy cache answers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cuasmrl::{
    ActionSpace, AssemblyGame, GameConfig, KernelTelemetry, OptimizationReport, SearchSession,
    StallTable, Strategy, SuiteOptimizer,
};
use gpusim::{GpuConfig, MeasureOptions};
use kernels::{baseline_runtime_us, find_suite, BaselineSystem, KernelSpec};
use rl::{CancelToken, PpoConfig};
use sass::Program;

use crate::check::{compile_spec, report_bytes, Reference};
use crate::report::{Outcome, Samples};
use crate::stats::{median, ms, peak_rss_mb, shuffle, splitmix};
use crate::trace::{self, timed, Layers, TimedEnv};
use crate::{closed_loop, probe_setups, Args, ScratchDir};

/// Problem scale divisor of the suite.
const SCALE: usize = 8;
/// PPO environment steps per kernel.
const TOTAL_STEPS: usize = 1024;
/// Closed-loop callers issuing the cold round (the suite's workers).
const JOBS: usize = 1;
/// Segments per run, each a cold round on a fresh set-up with its own
/// search seed, followed by warm rounds; `cold_s` is the median of the
/// cold rounds.
const SEGMENTS: usize = 4;
/// Set-ups timed before each segment; `setup_s` is the median of the run.
const SETUP_PROBES: usize = 5;
/// Each run makes at least this many hits, in whole rounds.
const MIN_HITS: usize = 100;

/// The zero-noise measurement protocol of the figure harnesses, used both
/// to autotune and as the game's reward measurement.
fn measure() -> MeasureOptions {
    MeasureOptions {
        warmup: 0,
        repeats: 3,
        noise_std: 0.0,
        seed: 0,
    }
}

fn game_config() -> GameConfig {
    GameConfig {
        episode_length: 32,
        measure: measure(),
        action_space: ActionSpace::AdjacentSwap,
    }
}

/// Everything the first request needs: the generated request stream, a
/// fresh deploy-cache directory and the suite optimizer over it.
struct Setup {
    gpu: GpuConfig,
    requests: Vec<KernelSpec>,
    suite: SuiteOptimizer,
    _cache: ScratchDir,
}

impl Setup {
    /// The set-up of one segment: the run's request order and the
    /// segment's own search seed, both drawn from the workload seed.
    fn new(args: &Args, segment: usize) -> Result<Setup, String> {
        let gpu = GpuConfig::by_name("ampere").ok_or("no ampere profile")?;
        let mut requests = find_suite("table2").ok_or("no table2 suite")?.specs(SCALE);
        let mut state = args.seed;
        shuffle(&mut requests, splitmix(&mut state));
        let mut search_seed = splitmix(&mut state);
        for _ in 0..segment {
            search_seed = splitmix(&mut state);
        }
        let cache = ScratchDir::new(&format!("suite-cache{segment}"))?;
        let strategy = Strategy::Rl(PpoConfig {
            total_steps: TOTAL_STEPS,
            ..PpoConfig::default()
        });
        let suite = SuiteOptimizer::new(gpu.clone(), strategy)
            .with_seed(search_seed)
            .with_jobs(JOBS)
            .with_tune_options(measure())
            .with_game_config(game_config())
            .with_cache_dir(cache.path());
        Ok(Setup {
            gpu,
            requests,
            suite,
            _cache: cache,
        })
    }

    /// One request through the suite optimizer's per-kernel entry point.
    fn ask(&self, spec: &KernelSpec) -> (OptimizationReport, KernelTelemetry, bool, Duration) {
        let ((report, telemetry, preempted), took) = timed(|| {
            self.suite
                .optimize_spec_preemptible(spec, &CancelToken::new())
        });
        (report, telemetry, preempted, took)
    }
}

/// The set-up of a `--setup-only` child: the first segment's, up to the
/// point where its first request can be issued.
pub fn setup_only(args: &Args) -> Result<(), String> {
    let setup = Setup::new(args, 0)?;
    crate::ready();
    drop(setup);
    Ok(())
}

/// The answers of the cold round, in request order.
struct Cold {
    reports: Vec<OptimizationReport>,
    telemetry: Vec<KernelTelemetry>,
    latencies_ms: Vec<f64>,
    wall: Duration,
}

/// The cold round: `JOBS` closed-loop callers take the distinct requests
/// in order, each waiting for its answer before taking the next.
fn cold_round(setup: &Setup, out: &mut Outcome) -> Cold {
    let start = Instant::now();
    let answers = closed_loop(JOBS, setup.requests.len(), |_, i| {
        setup.ask(&setup.requests[i])
    });
    let mut cold = Cold {
        reports: Vec::new(),
        telemetry: Vec::new(),
        latencies_ms: Vec::new(),
        wall: start.elapsed(),
    };
    for (spec, (report, telemetry, preempted, took)) in setup.requests.iter().zip(answers) {
        if preempted || telemetry.from_deploy_cache {
            out.problem(format!(
                "{}: a cold request was not a fresh search (preempted {preempted}, from cache {})",
                spec.kind.name(),
                telemetry.from_deploy_cache
            ));
        }
        cold.reports.push(report);
        cold.telemetry.push(telemetry);
        cold.latencies_ms.push(ms(took));
    }
    out.attempted += setup.requests.len() as u64;
    cold
}

/// Warm rounds by one closed-loop caller: whole rounds until `deadline`,
/// and at least `min_rounds`. Every hit must be a deploy-cache answer
/// byte-identical to the miss that answered the same request. Records each
/// hit's latency and keeps its telemetry (the program's own timing of the
/// autotune and compile that run before the cache lookup).
fn warm_rounds(
    setup: &Setup,
    expected: &[String],
    deadline: Instant,
    min_rounds: usize,
    samples: &mut Samples,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || Instant::now() < deadline {
        for (i, spec) in setup.requests.iter().enumerate() {
            let (report, telemetry, preempted, took) = setup.ask(spec);
            samples.hit_ms.push(ms(took));
            out.attempted += 1;
            if preempted || !telemetry.from_deploy_cache {
                out.problem(format!(
                    "{}: a repeat was not a deploy-cache hit",
                    spec.kind.name()
                ));
            } else if report_bytes(&report) != expected[i] {
                out.problem(format!("{}: a hit differs from its miss", spec.kind.name()));
            }
            layers.telemetry(&telemetry);
        }
        rounds += 1;
    }
    samples.warm += start.elapsed();
}

/// Checks every distinct answer against a full re-simulation, records its
/// speedup and its speedup over the hand-tuned reference schedule, and
/// returns the checked answers with their references.
fn check_answers(
    setup: &Setup,
    cold: &Cold,
    samples: &mut Samples,
    out: &mut Outcome,
) -> Vec<(Reference, Program)> {
    let mut checked = Vec::new();
    for (spec, report) in setup.requests.iter().zip(&cold.reports) {
        let space = setup.suite.config_space_for(spec);
        let (tuned, compiled) = compile_spec(&setup.gpu, spec, &space, setup.suite.tune_options());
        let o3 = match compiled.cubin.kernel_program(&compiled.name) {
            Ok(program) => program,
            Err(err) => {
                out.problem(format!("{}: no -O3 program: {err}", spec.kind.name()));
                continue;
            }
        };
        let reference = Reference::new(
            &setup.gpu,
            o3,
            compiled.launch,
            measure(),
            ActionSpace::AdjacentSwap,
        );
        match reference.check(report) {
            Ok(answer) => checked.push((reference, answer)),
            Err(err) => out.problem(format!("{}: {err}", spec.kind.name())),
        }
        let ref_us = baseline_runtime_us(
            &setup.gpu,
            spec,
            &tuned,
            BaselineSystem::Reference,
            &measure(),
        )
        .unwrap_or(f64::NAN);
        samples.speedups.push(report.speedup);
        samples.vs_ref.push(ref_us / report.optimized_us);
    }
    checked
}

/// Work counters of a cold round, summed over kernels.
fn work_counters(cold: &Cold, counters: &mut BTreeMap<String, u64>) {
    let mut c = |name: &str, value: u64| {
        *counters.entry(name.to_string()).or_default() += value;
    };
    for t in &cold.telemetry {
        c("eval_cache.hits", t.cache.hits);
        c("eval_cache.misses", t.cache.misses);
        c("eval_cache.delta_hits", t.cache.delta_hits);
        c("eval_cache.delta_fallbacks", t.cache.delta_fallbacks);
        if let Some(training) = &t.training {
            c("rl.env_steps", training.steps as u64);
            c("rl.updates", training.approx_kl.len() as u64);
        }
    }
    c("misses", cold.reports.len() as u64);
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let mut layers = Layers::default();
    // The run is cut into segments so that every metric samples the whole
    // run and several search seeds: each segment times set-ups in child
    // processes, starts from a fresh set-up (an empty deploy cache and its
    // own search seed), answers the distinct requests once (misses), then
    // repeats them (hits) until the segment's share of `--seconds` is used.
    let mut segments = Vec::new();
    let start = Instant::now();
    for segment in 0..SEGMENTS {
        samples.setup_s.extend(probe_setups(args, SETUP_PROBES)?);
        let setup = Setup::new(args, segment)?;
        let cold = cold_round(&setup, &mut out);
        samples.cold_s.push(cold.wall.as_secs_f64());
        samples.miss_ms.extend_from_slice(&cold.latencies_ms);
        let expected: Vec<String> = cold.reports.iter().map(report_bytes).collect();
        let segment_end = start + args.seconds.mul_f64((segment + 1) as f64 / SEGMENTS as f64);
        let min_rounds = MIN_HITS.div_ceil(SEGMENTS * setup.requests.len());
        warm_rounds(
            &setup,
            &expected,
            segment_end,
            min_rounds,
            &mut samples,
            &mut layers,
            &mut out,
        );
        segments.push((setup, cold));
    }
    samples.peak_rss_mb = peak_rss_mb()?;

    // Every segment's answers are checked; the last segment's are kept for
    // the traced replay.
    let mut checked = Vec::new();
    for (setup, cold) in &segments {
        checked = check_answers(setup, cold, &mut samples, &mut out);
        work_counters(cold, &mut out.counters);
        for t in &cold.telemetry {
            layers.telemetry(t);
        }
    }
    samples.report(&mut out);

    if args.trace {
        let (setup, cold) = segments.last().expect("at least one segment");
        traced(setup, cold, median(&samples.cold_s), &mut layers, &mut out)?;
        for (reference, answer) in &checked {
            trace::replay(&mut layers, reference, answer);
        }
        layers.report(&mut out);
    }
    Ok(out)
}

/// The traced run: each distinct request of the last segment searched
/// again with `PpoTrainer` training one update at a time on a
/// [`TimedEnv`], finished by the program's own `SearchSession` resumed from
/// the trained checkpoint. The answers and training series must equal the
/// untraced segment's exactly.
fn traced(
    setup: &Setup,
    cold: &Cold,
    cold_s: f64,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let checkpoints = ScratchDir::new("suite-checkpoints")?;
    let start = Instant::now();
    for (i, spec) in setup.requests.iter().enumerate() {
        let optimizer = setup.suite.optimizer_for(spec);
        let config = optimizer
            .rl_config()
            .cloned()
            .ok_or("the suite optimizer has no PPO config")?;
        let space = setup.suite.config_space_for(spec);
        let tune = setup.suite.tune_options();
        let (_, compiled) = compile_spec(&setup.gpu, spec, &space, tune);
        let program = compiled
            .cubin
            .kernel_program(&compiled.name)
            .map_err(|err| format!("no kernel program: {err}"))?;
        let game = AssemblyGame::new(
            setup.gpu.clone(),
            program,
            compiled.launch,
            StallTable::for_arch(&setup.gpu.arch),
            game_config(),
        );
        let checkpoint = checkpoints.path().join(format!("{i}.ckpt"));
        let (training, trained) = trace::train(TimedEnv::new(game), config, &checkpoint)?;
        layers.merge(trained);
        let session = SearchSession::new(optimizer, spec, &space, tune, &checkpoint)
            .map_err(|err| format!("cannot resume the traced search: {err}"))?;
        if !session.resumed() {
            out.problem(format!(
                "{}: the traced search did not resume",
                spec.kind.name()
            ));
        }
        let (report, _, _) = session.finish();
        if report_bytes(&report) != report_bytes(&cold.reports[i]) {
            out.problem(format!(
                "{}: the traced search answered differently",
                spec.kind.name()
            ));
        }
        if cold.telemetry[i].training.as_ref() != Some(&training) {
            out.problem(format!(
                "{}: the traced training differs from the untraced one",
                spec.kind.name()
            ));
        }
    }
    layers.overhead = start.elapsed().as_secs_f64() / cold_s;
    Ok(())
}
