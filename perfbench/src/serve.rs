//! The `serve-repeat` workload: an in-process `cuasmrld` daemon with the
//! daemon binary's `--fast` settings and its default greedy strategy. A
//! cold round of distinct requests (all six kernels × several seeds, spread
//! over ampere and hopper) fills the schedule store; whole warm rounds then
//! repeat them from two closed-loop clients, each holding one persistent v2
//! `Connection` with one request in flight.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use cuasmrl::{load_run_manifest, persist_run_manifest, telemetry_path, GameConfig};
use cuasmrld::{
    read_frame, write_frame, ClientBuilder, Connection, ErrorCode, OptimizeRequest,
    OptimizeResponse, OptimizeResult, RequestBody, RequestKey, ScheduleStore, Server, ServerConfig,
    StatusResult, TaggedRequest, TaggedResponse, SERVICE_SUITE_LABEL,
};
use gpusim::MeasureOptions;
use kernels::{baseline_runtime_us, BaselineSystem, KernelKind};
use sass::Program;

use crate::check::{compile_spec, report_bytes, Reference};
use crate::report::{Outcome, Samples};
use crate::stats::{ms, peak_rss_mb, shuffle, splitmix, us};
use crate::trace::{self, timed, Layers};
use crate::{closed_loop, probe_setups, Args, ScratchDir};

/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Request seeds per kernel; seed `j` goes to `ARCHES[j % 2]`.
const SEEDS_PER_KERNEL: usize = 2;
const ARCHES: [&str; 2] = ["ampere", "hopper"];
/// Segments per run, each on a freshly started daemon; `cold_s` is the
/// median of their cold rounds.
const SEGMENTS: usize = 8;
/// Set-ups timed before each segment; `setup_s` is the median of the run.
const SETUP_PROBES: usize = 3;
/// Each run makes at least this many hits, in whole rounds.
const MIN_HITS: usize = 100;
/// Pause before re-sending a request the daemon refused as `Busy`.
const BUSY_BACKOFF: Duration = Duration::from_millis(20);

/// The daemon binary's `--fast` settings over the default configuration.
fn server_config(store: &Path) -> ServerConfig {
    let fast = MeasureOptions {
        warmup: 0,
        repeats: 2,
        noise_std: 0.0,
        seed: 0,
    };
    let mut config = ServerConfig::new(store);
    config.scale = 16;
    config.tune_options = fast.clone();
    config.game_config = GameConfig {
        episode_length: 8,
        measure: fast,
        ..GameConfig::default()
    };
    config
}

/// The distinct requests of one run, in the order the cold round sends
/// them.
fn requests(seed: u64) -> Vec<OptimizeRequest> {
    let mut state = seed;
    let mut requests = Vec::new();
    for kind in KernelKind::all() {
        for j in 0..SEEDS_PER_KERNEL {
            let mut request = OptimizeRequest::table2(kind.name(), ARCHES[j % ARCHES.len()]);
            request.seed = Some(splitmix(&mut state) >> 16);
            requests.push(request);
        }
    }
    shuffle(&mut requests, splitmix(&mut state));
    requests
}

/// A running daemon with its clients connected: the point where the first
/// request can be issued.
struct Daemon {
    server: Server,
    clients: Vec<Connection>,
    config: ServerConfig,
    store: ScratchDir,
}

impl Daemon {
    fn start(attempt: usize) -> Result<Daemon, String> {
        let store = ScratchDir::new(&format!("serve-store{attempt}"))?;
        let config = server_config(store.path());
        let server =
            Server::start(config.clone()).map_err(|err| format!("daemon did not start: {err}"))?;
        let clients = (0..CLIENTS)
            .map(|_| ClientBuilder::new(server.local_addr()).connect())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|err| format!("cannot connect: {err}"))?;
        Ok(Daemon {
            server,
            clients,
            config,
            store,
        })
    }

    fn stop(self) -> ScratchDir {
        drop(self.clients);
        self.server.shutdown();
        self.store
    }
}

/// The set-up of a `--setup-only` child: the run's requests built and a
/// daemon started over an empty store with its clients connected.
pub fn setup_only(args: &Args) -> Result<(), String> {
    let requests = requests(args.seed);
    let daemon = Daemon::start(0)?;
    crate::ready();
    drop(requests);
    daemon.stop();
    Ok(())
}

/// Tallies shared by the client threads.
#[derive(Default)]
struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    busy: AtomicU64,
    problems: Mutex<Vec<String>>,
}

impl Tally {
    fn problem(&self, problem: String) {
        self.problems
            .lock()
            .expect("no client panics holding the tally")
            .push(problem);
    }
}

/// Sends one request until it is answered, re-sending after each `Busy`
/// refusal (each refusal is an attempted and failed operation). The
/// latency runs from the first send to the answer.
fn ask(
    conn: &Connection,
    request: &OptimizeRequest,
    tally: &Tally,
) -> Option<(OptimizeResult, Duration)> {
    let start = Instant::now();
    loop {
        tally.attempted.fetch_add(1, Ordering::Relaxed);
        match conn.request(request) {
            Ok(OptimizeResponse::Ok(result)) => return Some((result, start.elapsed())),
            Ok(OptimizeResponse::Err(error)) if error.code == ErrorCode::Busy => {
                tally.failed.fetch_add(1, Ordering::Relaxed);
                tally.busy.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(BUSY_BACKOFF);
            }
            other => {
                tally.failed.fetch_add(1, Ordering::Relaxed);
                tally.problem(format!("{} on {}: {other:?}", request.kernel, request.arch));
                return None;
            }
        }
    }
}

/// The cold round: the clients take the distinct requests in order, each
/// waiting for its answer before taking the next.
fn cold_round(
    daemon: &Daemon,
    requests: &[OptimizeRequest],
    tally: &Tally,
) -> (Vec<Option<OptimizeResult>>, Vec<f64>, Duration) {
    let start = Instant::now();
    let answers = closed_loop(daemon.clients.len(), requests.len(), |c, i| {
        ask(&daemon.clients[c], &requests[i], tally)
    });
    let wall = start.elapsed();
    let mut results = Vec::new();
    let mut latencies = Vec::new();
    for (request, answer) in requests.iter().zip(answers) {
        match answer {
            Some((result, took)) => {
                if result.from_store || result.degraded {
                    tally.problem(format!(
                        "{} on {}: a cold request was not a fresh search",
                        request.kernel, request.arch
                    ));
                }
                latencies.push(ms(took));
                results.push(Some(result));
            }
            None => results.push(None),
        }
    }
    (results, latencies, wall)
}

/// Whole warm rounds until `deadline`, and at least `min_rounds`: client
/// `c` sends requests `c, c + CLIENTS, …` of each round, and the clients
/// meet at a barrier between rounds. Every hit must come from the store,
/// byte-identical to the miss that answered it.
fn warm_rounds(
    daemon: &Daemon,
    requests: &[OptimizeRequest],
    expected: &[Option<String>],
    deadline: Instant,
    min_rounds: usize,
    tally: &Tally,
) -> (Vec<f64>, Duration) {
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let latencies = Mutex::new(Vec::new());
    let rounds = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (c, conn) in daemon.clients.iter().enumerate() {
            let (barrier, stop, latencies, rounds) = (&barrier, &stop, &latencies, &rounds);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    for (i, request) in requests.iter().enumerate().skip(c).step_by(CLIENTS) {
                        let Some((result, took)) = ask(conn, request, tally) else {
                            continue;
                        };
                        mine.push(ms(took));
                        if !result.from_store || result.degraded {
                            tally.problem(format!(
                                "{}: a repeat was not a store hit",
                                request.kernel
                            ));
                        } else if Some(report_bytes(&result.report)) != expected[i] {
                            tally.problem(format!(
                                "{}: a hit differs from its miss",
                                request.kernel
                            ));
                        }
                    }
                    if barrier.wait().is_leader() {
                        let done = rounds.fetch_add(1, Ordering::SeqCst) + 1;
                        stop.store(
                            done >= min_rounds && Instant::now() >= deadline,
                            Ordering::SeqCst,
                        );
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                latencies
                    .lock()
                    .expect("no client panics holding the latencies")
                    .extend(mine);
            });
        }
    });
    let wall = start.elapsed();
    (latencies.into_inner().expect("clients joined"), wall)
}

fn status(daemon: &Daemon) -> Result<StatusResult, String> {
    daemon.clients[0]
        .status()
        .map_err(|err| format!("status probe failed: {err}"))
}

fn answer_bytes(answers: &[Option<OptimizeResult>]) -> Vec<Option<String>> {
    answers
        .iter()
        .map(|a| a.as_ref().map(|a| report_bytes(&a.report)))
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let requests = requests(args.seed);
    let tally = Tally::default();
    let mut samples = Samples::default();
    let mut counters: Vec<BTreeMap<String, u64>> = Vec::new();
    let mut first: Option<Vec<Option<OptimizeResult>>> = None;
    let mut layers = Layers::default();
    let mut last: Option<(ServerConfig, ScratchDir)> = None;
    // The run is cut into segments so that every metric samples the whole
    // run: each segment times set-ups in child processes, starts a daemon
    // over an empty store, answers the distinct requests once (misses,
    // which must repeat the first segment's answers and work exactly),
    // repeats them (hits) until the segment's share of `--seconds` is
    // used, and stops the daemon.
    let start = Instant::now();
    for segment in 0..SEGMENTS {
        drop(last.take());
        samples.setup_s.extend(probe_setups(args, SETUP_PROBES)?);
        let daemon = Daemon::start(segment)?;
        let (cold, latencies, wall) = cold_round(&daemon, &requests, &tally);
        samples.cold_s.push(wall.as_secs_f64());
        samples.miss_ms.extend(latencies);
        let expected = answer_bytes(first.get_or_insert(cold.clone()));
        if answer_bytes(&cold) != expected {
            out.problem(format!(
                "segment {segment} answered differently from segment 0"
            ));
        }
        let segment_end = start + args.seconds.mul_f64((segment + 1) as f64 / SEGMENTS as f64);
        let min_rounds = MIN_HITS.div_ceil(SEGMENTS * requests.len());
        let (mut latencies, took) = warm_rounds(
            &daemon,
            &requests,
            &expected,
            segment_end,
            min_rounds,
            &tally,
        );
        let segment_hits = latencies.len() as u64;
        samples.hit_ms.append(&mut latencies);
        samples.warm += took;
        if args.trace && segment + 1 == SEGMENTS {
            for _ in 0..50 {
                let (probe, took) = timed(|| status(&daemon));
                probe?;
                layers.status_rtt_ms.push(ms(took));
            }
        }
        let config = daemon.config.clone();
        let (store, work) = stop_and_count(daemon, &requests, segment_hits, &mut out)?;
        counters.push(work);
        last = Some((config, store));
    }
    samples.peak_rss_mb = peak_rss_mb()?;
    let ((config, store), cold) = (last.expect("a segment"), first.expect("a cold round"));
    for (segment, work) in counters.iter().enumerate().skip(1) {
        out.require_eq(
            &format!("segment {segment} work counters"),
            work,
            &counters[0],
        );
    }

    out.attempted = tally.attempted.load(Ordering::Relaxed);
    out.failed = tally.failed.load(Ordering::Relaxed);
    out.problems
        .extend(tally.problems.into_inner().expect("clients joined"));
    out.run_counters
        .insert("busy_retries".into(), tally.busy.load(Ordering::Relaxed));

    let checked = check_answers(&config, &requests, &cold, &mut samples, &mut out);
    out.counters = counters.swap_remove(0);
    samples.report(&mut out);

    if args.trace {
        for (reference, answer) in &checked {
            trace::replay(&mut layers, reference, answer);
        }
        traced(
            &config,
            &requests,
            &cold,
            store.path(),
            &mut layers,
            &mut out,
        )?;
        layers.report(&mut out);
    }
    Ok(out)
}

/// Stops a daemon after checking its final `Status` (every distinct
/// request searched exactly once, `hits` store hits, no `Busy` answers,
/// no panics, no checksum failures) and
/// reads the work counters of its searches from its telemetry manifests,
/// which the drain has flushed.
fn stop_and_count(
    daemon: Daemon,
    requests: &[OptimizeRequest],
    hits: u64,
    out: &mut Outcome,
) -> Result<(ScratchDir, BTreeMap<String, u64>), String> {
    let stats = status(&daemon)?.stats;
    out.require_eq("daemon searches", stats.computed, requests.len() as u64);
    out.require_eq("daemon store hits", stats.store_hits, hits);
    out.require_eq("daemon busy answers", stats.busy, 0);
    out.require_eq("daemon worker panics", stats.worker_panics, 0);
    out.require_eq("daemon checksum failures", stats.checksum_failures, 0);
    let config = daemon.config.clone();
    let store = daemon.stop();
    let mut counters = BTreeMap::new();
    for gpu in gpu_names(&config, requests) {
        let Some(manifest) = load_run_manifest(store.path(), &gpu, SERVICE_SUITE_LABEL) else {
            out.problem(format!("no telemetry manifest for {gpu}"));
            continue;
        };
        for k in manifest.kernels.iter().filter(|k| !k.from_deploy_cache) {
            for (name, value) in [
                ("eval_cache.hits", k.cache.hits),
                ("eval_cache.misses", k.cache.misses),
                ("eval_cache.delta_hits", k.cache.delta_hits),
                ("eval_cache.delta_fallbacks", k.cache.delta_fallbacks),
            ] {
                *counters.entry(name.to_string()).or_default() += value;
            }
        }
    }
    counters.insert("daemon.computed".into(), stats.computed);
    counters.insert("requests.distinct".into(), requests.len() as u64);
    Ok((store, counters))
}

/// Checks every distinct answer against a full re-simulation, records its
/// speedup and its speedup over the hand-tuned reference schedule, and
/// returns the checked answers with their references.
fn check_answers(
    config: &ServerConfig,
    requests: &[OptimizeRequest],
    cold: &[Option<OptimizeResult>],
    samples: &mut Samples,
    out: &mut Outcome,
) -> Vec<(Reference, Program)> {
    let measure = &config.game_config.measure;
    let mut checked = Vec::new();
    for (request, result) in requests.iter().zip(cold) {
        let Some(result) = result else { continue };
        let canonical = match request.canonicalize(&config.defaults()) {
            Ok(canonical) => canonical,
            Err(err) => {
                out.problem(format!("{}: {err}", request.kernel));
                continue;
            }
        };
        let (gpu, spec) = (&canonical.gpu, &canonical.spec);
        let space = config
            .suite_optimizer(gpu.clone(), canonical.seed)
            .config_space_for(spec);
        let (tuned, compiled) = compile_spec(gpu, spec, &space, &config.tune_options);
        let Ok(o3) = compiled.cubin.kernel_program(&compiled.name) else {
            out.problem(format!("{}: no -O3 program", request.kernel));
            continue;
        };
        let reference = Reference::new(
            gpu,
            o3,
            compiled.launch,
            measure.clone(),
            config.game_config.action_space,
        );
        match reference.check(&result.report) {
            Ok(answer) => checked.push((reference, answer)),
            Err(err) => out.problem(format!("{} on {}: {err}", request.kernel, request.arch)),
        }
        let ref_us = baseline_runtime_us(gpu, spec, &tuned, BaselineSystem::Reference, measure)
            .unwrap_or(f64::NAN);
        samples.speedups.push(result.report.speedup);
        samples.vs_ref.push(ref_us / result.report.optimized_us);
    }
    checked
}

/// The canonical device names the run's requests resolve to.
fn gpu_names(config: &ServerConfig, requests: &[OptimizeRequest]) -> Vec<String> {
    let mut names: Vec<String> = requests
        .iter()
        .filter_map(|r| r.canonicalize(&config.defaults()).ok())
        .map(|c| c.gpu.name)
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Copies the files of a store directory (entries, journal, manifests).
fn copy_files(from: &Path, to: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(from).map_err(|err| format!("cannot list the store: {err}"))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(entry.file_name()))
                .map_err(|err| format!("cannot copy {}: {err}", path.display()))?;
        }
    }
    Ok(())
}

/// The traced run's serving layers, timed on the run's own artifacts:
/// the phase timings and eval-cache counters the daemon recorded for its
/// searches, the frame codec on the run's payloads, store reads and writes
/// on a copy of its store, and a re-persist of its final telemetry
/// manifests.
fn traced(
    config: &ServerConfig,
    requests: &[OptimizeRequest],
    cold: &[Option<OptimizeResult>],
    store: &Path,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    // Frame codec: each exchange of the run (request and answer frames)
    // written to and read back from memory.
    for (i, (request, result)) in requests.iter().zip(cold).enumerate() {
        let Some(result) = result else { continue };
        let tagged = TaggedRequest {
            request_id: i as u64 + 1,
            body: RequestBody::Optimize(request.clone()),
        };
        let answer = TaggedResponse {
            request_id: i as u64 + 1,
            response: OptimizeResponse::Ok(result.clone()),
        };
        let (req, resp) = (
            serde_json::to_string(&tagged).map_err(|e| e.to_string())?,
            serde_json::to_string(&answer).map_err(|e| e.to_string())?,
        );
        let (ok, took) = timed(|| -> std::io::Result<bool> {
            let mut wire = Vec::new();
            write_frame(&mut wire, req.as_bytes())?;
            write_frame(&mut wire, resp.as_bytes())?;
            let mut reader = Cursor::new(wire);
            Ok(read_frame(&mut reader)? == req.as_bytes()
                && read_frame(&mut reader)? == resp.as_bytes())
        });
        if !matches!(ok, Ok(true)) {
            out.problem(format!("{}: frames did not round-trip", request.kernel));
        }
        layers.codec_us.push(us(took));
    }

    // Store reads and writes, on a copy of the run's store.
    let copy = ScratchDir::new("serve-store-copy")?;
    copy_files(store, copy.path())?;
    let reopened = ScheduleStore::open(copy.path(), config.store_capacity)
        .map_err(|err| format!("cannot reopen the store copy: {err}"))?;
    for request in requests {
        let canonical = request
            .canonicalize(&config.defaults())
            .map_err(|err| err.to_string())?;
        let key = RequestKey::of(&canonical);
        let (entry, took) = timed(|| reopened.get(&key));
        layers.store_get_us.push(us(took));
        match entry {
            Ok(Some(entry)) => {
                let (put, took) = timed(|| reopened.put(&key, entry));
                layers.store_put_ms.push(ms(took));
                if let Err(err) = put {
                    out.problem(format!("store put failed: {err}"));
                }
            }
            other => out.problem(format!(
                "{}: store copy lookup gave {other:?}",
                request.kernel
            )),
        }
    }

    // The final telemetry manifests: the daemon's own timings of its
    // searches, their size, and the time to persist them once more.
    for gpu in gpu_names(config, requests) {
        let path = telemetry_path(store, &gpu, SERVICE_SUITE_LABEL);
        layers.manifest_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        let Some(manifest) = load_run_manifest(store, &gpu, SERVICE_SUITE_LABEL) else {
            continue;
        };
        for k in manifest.kernels.iter().filter(|k| !k.from_deploy_cache) {
            layers.telemetry(k);
        }
        for _ in 0..3 {
            let (persisted, took) = timed(|| persist_run_manifest(copy.path(), &manifest));
            persisted.map_err(|err| format!("manifest persist failed: {err}"))?;
            layers.manifest_persist_ms.push(ms(took));
        }
    }
    Ok(())
}
