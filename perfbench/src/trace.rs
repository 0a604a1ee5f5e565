//! The traced run's instruments: timers around each layer's public calls,
//! an `rl::Env` wrapper that times the assembly game while `PpoTrainer`
//! trains on it one update at a time, and a replay of each answered
//! schedule through the simulator's and the action layer's public
//! functions. Nothing here reaches inside the program or repeats its search
//! loops: every number is taken around a public call or read from the
//! program's own telemetry.

use std::cell::Cell;
use std::path::Path;
use std::time::{Duration, Instant};

use cuasmrl::{action_mask, analyze, embed_program, schedule_edits, ActionSpace, AssemblyGame};
use cuasmrl::{KernelTelemetry, StallTable, TrainingTelemetry};
use gpusim::{CompiledProgram, DeltaEngine, DeltaOutcome};
use nn::Matrix;
use rl::{Env, PpoConfig, PpoTrainer, Step};
use sass::Program;

use crate::check::Reference;
use crate::report::Outcome;
use crate::stats::{mean, median, ms, us};

/// Per-layer samples and counts collected by one traced run.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub full_sim_us: Vec<f64>,
    pub sim_instructions: u64,
    pub sim_seconds: f64,
    pub delta_eval_us: Vec<f64>,
    pub record_baseline_us: Vec<f64>,
    pub delta_spliced: u64,
    pub delta_resumed: u64,
    pub delta_fallbacks: u64,
    pub eval_cache_hits: u64,
    pub eval_cache_misses: u64,
    pub mask_us: Vec<f64>,
    pub embed_us: Vec<f64>,
    pub step_us: Vec<f64>,
    pub verify_ms: Vec<f64>,
    pub autotune_ms: Vec<f64>,
    pub compile_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub act_us: Vec<f64>,
    pub status_rtt_ms: Vec<f64>,
    pub codec_us: Vec<f64>,
    pub store_get_us: Vec<f64>,
    pub store_put_ms: Vec<f64>,
    pub manifest_bytes: u64,
    pub manifest_persist_ms: Vec<f64>,
    /// Traced over untraced `cold_s`; 0 where no traced search runs.
    pub overhead: f64,
}

impl Layers {
    /// Folds another search's samples into these.
    pub fn merge(&mut self, other: Layers) {
        macro_rules! extend {
            ($($field:ident),*) => { $(self.$field.extend(other.$field);)* };
        }
        extend!(step_us, update_ms, act_us);
    }

    /// Takes the phase timings and eval-cache counters the program itself
    /// recorded for one answer.
    pub fn telemetry(&mut self, t: &KernelTelemetry) {
        self.autotune_ms.push(t.phases.autotune_ms);
        self.compile_ms.push(t.phases.compile_ms);
        if !t.from_deploy_cache {
            self.verify_ms.push(t.phases.verify_ms);
            self.eval_cache_hits += t.cache.hits;
            self.eval_cache_misses += t.cache.misses;
        }
    }

    /// Reports every per-layer metric; a layer a workload bypasses reads 0.
    /// Per-call times are means, so a cost concentrated in a few slow calls
    /// still shows; the round trip is a median, as it is a latency.
    pub fn report(&self, out: &mut Outcome) {
        let per_s = if self.sim_seconds > 0.0 {
            self.sim_instructions as f64 / self.sim_seconds
        } else {
            0.0
        };
        let count = |n: u64| n as f64;
        let metrics: [(&'static str, f64, &'static str); 26] = [
            ("gpusim.full_sim_us", mean(&self.full_sim_us), "us/call"),
            ("gpusim.delta_eval_us", mean(&self.delta_eval_us), "us/call"),
            (
                "gpusim.record_baseline_us",
                mean(&self.record_baseline_us),
                "us/call",
            ),
            ("gpusim.sim_insts_per_s", per_s, "inst/s"),
            ("gpusim.delta_spliced", count(self.delta_spliced), "count"),
            ("gpusim.delta_resumed", count(self.delta_resumed), "count"),
            (
                "gpusim.delta_fallbacks",
                count(self.delta_fallbacks),
                "count",
            ),
            ("core.eval_cache.hits", count(self.eval_cache_hits), "count"),
            (
                "core.eval_cache.misses",
                count(self.eval_cache_misses),
                "count",
            ),
            ("core.action.mask_us", mean(&self.mask_us), "us/call"),
            ("core.embed.embed_us", mean(&self.embed_us), "us/call"),
            ("core.game.step_us", mean(&self.step_us), "us/call"),
            ("core.game.steps", self.step_us.len() as f64, "count"),
            ("core.verify_ms", mean(&self.verify_ms), "ms/kernel"),
            ("kernels.autotune_ms", mean(&self.autotune_ms), "ms/call"),
            ("kernels.compile_ms", mean(&self.compile_ms), "ms/call"),
            ("rl.update_ms", mean(&self.update_ms), "ms/update"),
            ("rl.act_us", mean(&self.act_us), "us/call"),
            ("rl.updates", self.update_ms.len() as f64, "count"),
            ("serve.status_rtt_ms", median(&self.status_rtt_ms), "ms"),
            ("serve.codec_us", mean(&self.codec_us), "us/exchange"),
            ("serve.store_get_us", mean(&self.store_get_us), "us/call"),
            ("serve.store_put_ms", mean(&self.store_put_ms), "ms/call"),
            ("serve.manifest_bytes", count(self.manifest_bytes), "bytes"),
            (
                "serve.manifest_persist_ms",
                mean(&self.manifest_persist_ms),
                "ms/call",
            ),
            ("trace.overhead", self.overhead, "x"),
        ];
        for (name, value, unit) in metrics {
            out.layer(name, value, unit);
        }
    }
}

/// Times `f`, returning its result and the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// The assembly game behind an `rl::Env` that times `reset`, `step` and
/// `action_mask`. Snapshots pass through untimed, so a trainer's
/// checkpoint of this env resumes on the bare game.
pub struct TimedEnv {
    game: AssemblyGame,
    layers: Layers,
    /// Wall clock spent inside the game, so the trainer's own time can be
    /// told apart from the environment's.
    env_time: Cell<Duration>,
}

impl TimedEnv {
    pub fn new(game: AssemblyGame) -> TimedEnv {
        TimedEnv {
            game,
            layers: Layers::default(),
            env_time: Cell::new(Duration::ZERO),
        }
    }

    fn charge(&self, took: Duration) {
        self.env_time.set(self.env_time.get() + took);
    }
}

impl Env for TimedEnv {
    fn reset(&mut self) -> Matrix {
        let (obs, took) = timed(|| self.game.reset());
        self.charge(took);
        obs
    }

    fn step(&mut self, action: usize) -> Step {
        let (step, took) = timed(|| self.game.step(action));
        self.charge(took);
        self.layers.step_us.push(us(took));
        step
    }

    fn action_count(&self) -> usize {
        self.game.action_count()
    }

    fn action_mask(&self) -> Vec<bool> {
        let (mask, took) = timed(|| self.game.action_mask());
        self.charge(took);
        mask
    }

    fn observation_features(&self) -> usize {
        self.game.observation_features()
    }

    fn state_bytes(&self) -> Option<Vec<u8>> {
        self.game.state_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> bool {
        self.game.restore_state(state)
    }
}

/// Trains `PpoTrainer` on `env` one update at a time to the end of its
/// schedule, recording each update's own time (its wall clock minus the
/// time spent in the game), then checkpoints the finished trainer to
/// `checkpoint`, so the program's `SearchSession` can resume from it and
/// finish the search. Finally times the trained policy's greedy forward on
/// the initial schedule. Returns the training series and the samples.
pub fn train(
    mut env: TimedEnv,
    config: PpoConfig,
    checkpoint: &Path,
) -> Result<(TrainingTelemetry, Layers), String> {
    let mut trainer = PpoTrainer::new(config, env.observation_features(), env.action_count());
    while !trainer.is_finished() {
        let env_before = env.env_time.get();
        let (_, took) = timed(|| trainer.train_updates(&mut env, 1));
        let in_env = env.env_time.get() - env_before;
        env.layers.update_ms.push(ms(took.saturating_sub(in_env)));
    }
    trainer
        .save_checkpoint(&env, checkpoint)
        .map_err(|err| format!("cannot checkpoint the traced trainer: {err}"))?;
    let observation = env.reset();
    let mask = env.action_mask();
    for _ in 0..32 {
        let (_, took) = timed(|| trainer.policy().act_greedy(&observation, &mask));
        env.layers.act_us.push(us(took));
    }
    Ok((TrainingTelemetry::from_stats(trainer.stats()), env.layers))
}

/// Replays one answered schedule through the simulator's and the action
/// layer's public functions: one full simulation, the legality mask, the
/// embedding, a recorded delta baseline, and a delta evaluation of every
/// legal edit of the schedule.
pub fn replay(layers: &mut Layers, reference: &Reference, schedule: &Program) {
    let (gpu, launch, space) = (reference.gpu(), reference.launch(), reference.space());
    let stalls = StallTable::for_arch(&gpu.arch);
    let (run, took) = timed(|| gpusim::simulate_launch(gpu, schedule, launch));
    layers.full_sim_us.push(us(took));
    layers.sim_instructions += run.sm.instructions_issued;
    layers.sim_seconds += took.as_secs_f64();

    let analysis = analyze(schedule, &stalls);
    let movable = analysis.movable_memory_indices();
    let took = match space {
        ActionSpace::AdjacentSwap => {
            timed(|| action_mask(schedule, &movable, &analysis, &stalls)).1
        }
        ActionSpace::Rich => {
            timed(|| schedule_edits(schedule, &movable, &analysis, &stalls, space)).1
        }
    };
    layers.mask_us.push(us(took));
    let (_, took) = timed(|| embed_program(schedule, &analysis, &gpu.arch));
    layers.embed_us.push(us(took));

    let compiled = CompiledProgram::compile(schedule, gpu);
    let mut engine = DeltaEngine::for_launch(gpu.clone(), launch);
    let (baseline, took) = timed(|| engine.record_baseline(&compiled));
    layers.record_baseline_us.push(us(took));
    let edits = schedule_edits(schedule, &movable, &analysis, &stalls, space);
    for edit in edits.into_iter().flatten() {
        let mut program = schedule.clone();
        if !edit.apply(&mut program) {
            continue;
        }
        let mut mutated = compiled.clone();
        edit.apply_to_compiled(&mut mutated, &program, gpu);
        let touched = edit.touched_indices();
        let ((_, outcome), took) = timed(|| engine.simulate_delta(&baseline, &mutated, &touched));
        layers.delta_eval_us.push(us(took));
        match outcome {
            DeltaOutcome::Unchanged | DeltaOutcome::Spliced { .. } => layers.delta_spliced += 1,
            DeltaOutcome::Resimulated { resumed_cycle } if resumed_cycle > 0 => {
                layers.delta_resumed += 1;
            }
            DeltaOutcome::Resimulated { .. } => layers.delta_fallbacks += 1,
        }
    }
}
