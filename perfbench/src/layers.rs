//! The per-layer suite of the traced run: each measurement calls one
//! layer's public functions on inputs derived from the workload files, and
//! names the module it times.

use std::hint::black_box;
use std::io::{Cursor, Write};
use std::time::Instant;

use rbb_core::engine::Engine;
use rbb_core::metrics::ObserverStack;
use rbb_core::process::LoadProcess;
use rbb_core::rng::Xoshiro256pp;
use rbb_core::sharded::ShardedLoadProcess;
use rbb_core::snapshot::{restore, SnapshotState};
use rbb_serve::serve_lines;
use rbb_sim::spec::DEFAULT_SHARDS;
use rbb_sim::{build_engine, run_trials_seeded, EnsembleSpec, MetricKind, ScenarioSpec, SeedTree};

use crate::reference::{self, read};
use crate::trace::Tracer;

/// Timed repetitions behind every median below.
const REPS: usize = 7;
/// Ball moves per timed batch in the engine sweep.
const SWEEP_MOVES: usize = 1 << 22;

/// Named metric values with units, in insertion order.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.items.push((name.into(), value, unit));
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .items
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            body.join(",")
        )
    }
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Median over `REPS` of the mean nanoseconds per call of `f`.
fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let samples = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            elapsed_ns(t) / calls as f64
        })
        .collect();
    median(samples)
}

/// Paths of the generated workload inputs inside `dir`.
pub struct Inputs {
    pub sim_large: String,
    pub ensemble_small: String,
    pub sparse_weighted: String,
    pub serve_spec: String,
    pub serve_log: String,
}

impl Inputs {
    pub fn in_dir(dir: &str) -> Self {
        Self {
            sim_large: format!("{dir}/sim-large.json"),
            ensemble_small: format!("{dir}/ensemble-small.json"),
            sparse_weighted: format!("{dir}/sim-sparse-weighted.json"),
            serve_spec: format!("{dir}/serve-session.json"),
            serve_log: format!("{dir}/serve-session.log"),
        }
    }
}

pub fn run(inputs: &Inputs, seed: u64, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
    rng(seed, m);
    engines(seed, m);
    sparse(inputs, m)?;
    observers(seed, m);
    spec_and_scenario(inputs, m)?;
    ensemble(inputs, tracer, m)?;
    session(inputs, m)?;
    snapshots(seed, m)?;
    Ok(())
}

/// `core::rng`: one bounded draw, at the ensemble and the large-sim `n`.
fn rng(seed: u64, m: &mut Metrics) {
    for exp in [10u32, 24] {
        let bound = 1u64 << exp;
        let mut rng = Xoshiro256pp::seed_from(seed ^ u64::from(exp));
        let ns = ns_per_call(1 << 20, || {
            black_box(rng.next_below(bound));
        });
        m.put(format!("rng.next_below.ns.n2e{exp}"), ns, "ns");
    }
}

/// Nanoseconds per moved ball over batches of `step_batched`, and the mean
/// number of balls moved per round.
fn step_rate(engine: &mut dyn Engine) -> (f64, f64) {
    engine.step_batched();
    let rounds = (SWEEP_MOVES / engine.n()).max(1);
    let (mut moves_total, mut rounds_total) = (0usize, 0usize);
    let samples = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let mut moves = 0usize;
            for _ in 0..rounds {
                moves += engine.step_batched();
            }
            let ns = elapsed_ns(t);
            moves_total += moves;
            rounds_total += rounds;
            ns / moves.max(1) as f64
        })
        .collect();
    (median(samples), moves_total as f64 / rounds_total as f64)
}

/// Computed (not measured) bytes one moved ball costs the dense kernel: the
/// departure scan reads and writes every 4-byte load (`8n` per round), and
/// each mover writes and reads its 4-byte destination and read-modify-writes
/// one load (16 bytes). The sharded kernel also writes and reads each mover
/// once more through its outbox (24 bytes).
fn computed_bytes_per_move(n: usize, moves_per_round: f64, per_mover: f64) -> f64 {
    8.0 * n as f64 / moves_per_round + per_mover
}

/// `core::process` and `core::sharded`: the n sweep (printed as a
/// roofline-style table) and the interleaved sharded-vs-dense pairs.
fn engines(seed: u64, m: &mut Metrics) {
    println!("n-sweep (bytes/move and GB/s are computed from array sizes, not measured):");
    println!(
        "{:>8} {:>9} {:>12} {:>13} {:>16} {:>14}",
        "engine", "n", "ns/move", "moves/round", "bytes/move(c)", "GB/s(c)"
    );
    let mut largest: Vec<Box<dyn Engine>> = Vec::new();
    for (kind, per_mover) in [("dense", 16.0), ("sharded", 24.0)] {
        for exp in (10..=24).step_by(2) {
            let n = 1usize << exp;
            let mut engine: Box<dyn Engine> = match kind {
                "dense" => Box::new(LoadProcess::legitimate_start(n, seed)),
                _ => Box::new(ShardedLoadProcess::legitimate_start(
                    n,
                    seed,
                    DEFAULT_SHARDS,
                )),
            };
            let (ns, moves_per_round) = step_rate(engine.as_mut());
            let bytes = computed_bytes_per_move(n, moves_per_round, per_mover);
            println!(
                "{kind:>8} {:>9} {ns:>12.3} {moves_per_round:>13.1} {bytes:>16.2} {:>14.2}",
                format!("2^{exp}"),
                bytes / ns
            );
            if kind == "dense" || exp >= 20 {
                m.put(format!("{kind}.step.ns_per_move.n2e{exp}"), ns, "ns");
            }
            if kind == "dense" && exp == 10 {
                m.put("dense.moves_per_round", moves_per_round, "count");
            }
            if kind == "dense" && exp == 24 {
                m.put("dense.step.bytes_per_move.computed", bytes, "B");
            }
            if exp == 24 {
                largest.push(engine);
            }
        }
    }
    // Interleaved pairs at n = 2^24, alternating which engine goes first:
    // each ratio compares two rounds run back to back.
    let ratios = (0..REPS)
        .map(|rep| {
            let mut ns = [0.0f64; 2];
            let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
            for i in order {
                let t = Instant::now();
                let moves = largest[i].step_batched();
                ns[i] = elapsed_ns(t) / moves.max(1) as f64;
            }
            ns[0] / ns[1]
        })
        .collect();
    m.put(
        "sharded.vs_dense.paired_ratio.n2e24",
        median(ratios),
        "ratio",
    );
}

/// The sparse-weighted spec with its weights and capacities removed: the
/// same start, stream and trajectory without the overlay.
fn unit_twin(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut unit = spec.clone();
    unit.weights = None;
    unit.capacities = None;
    unit
}

/// `core::sparse` and `core::weights`: the sparse kernel, the overlay as a
/// paired weighted-minus-unit difference on the same trajectory, and the
/// weighted accessors.
fn sparse(inputs: &Inputs, m: &mut Metrics) -> Result<(), String> {
    let spec = reference::parse_scenario(&read(&inputs.sparse_weighted)?)?;
    let unit = unit_twin(&spec);
    let build = |s: &ScenarioSpec| build_engine(s).map_err(|e| e.to_string());
    const ROUNDS: usize = 50;

    let mut alone = build(&unit)?;
    let samples = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let mut moves = 0usize;
            for _ in 0..ROUNDS {
                moves += alone.step_batched();
            }
            elapsed_ns(t) / moves.max(1) as f64
        })
        .collect();
    m.put("sparse.step.ns_per_move", median(samples), "ns");

    let mut weighted = build(&spec)?;
    let mut plain = build(&unit)?;
    let mut diffs = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let mut ns = [0.0f64; 2];
        let mut moves = [0usize; 2];
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for i in order {
            let engine = if i == 0 { &mut weighted } else { &mut plain };
            let t = Instant::now();
            for _ in 0..ROUNDS {
                moves[i] += engine.step_batched();
            }
            ns[i] = elapsed_ns(t);
        }
        m.check(
            moves[0] == moves[1] && weighted.max_load() == plain.max_load(),
            "weighted and unit sparse engines left the same trajectory",
        );
        diffs.push((ns[0] - ns[1]) / moves[0].max(1) as f64);
    }
    m.put("overlay.ns_per_move", median(diffs), "ns");

    let ns = ns_per_call(50, || {
        black_box(weighted.weighted_max_load());
    });
    m.put("engine.weighted_max_load.ns", ns, "ns");
    let ns = ns_per_call(50, || {
        black_box(weighted.capacity_violations());
    });
    m.put("engine.capacity_violations.ns", ns, "ns");
    Ok(())
}

/// `core::metrics` and the cheap accessors on a dense n = 1024 engine, the
/// ensemble workload's size, with the observer stack `rbb sim` builds.
fn observers(seed: u64, m: &mut Metrics) {
    let mut engine = LoadProcess::legitimate_start(1024, seed);
    for _ in 0..1000 {
        engine.step_batched();
    }
    let mut stack = reference::sim_stack(&ScenarioSpec::builder(1024).build());
    const ROUNDS: usize = 2000;
    let samples = (0..REPS)
        .map(|_| {
            let mut ns = 0.0;
            for _ in 0..ROUNDS {
                Engine::step_batched(&mut engine);
                let t = Instant::now();
                stack.observe_engine(Engine::round(&engine), &engine);
                ns += elapsed_ns(t);
            }
            ns / ROUNDS as f64
        })
        .collect();
    m.put(
        "observers.observe_engine.ns_per_round",
        median(samples),
        "ns",
    );
    let ns = ns_per_call(10_000, || {
        black_box(Engine::max_load(black_box(&engine)));
    });
    m.put("engine.max_load.ns", ns, "ns");
    let ns = ns_per_call(10_000, || {
        black_box(Engine::empty_bins(black_box(&engine)));
    });
    m.put("engine.empty_bins.ns", ns, "ns");
}

/// The observer stack `EnsembleSpec::run` attaches for `spec`'s metrics.
fn ensemble_stack(spec: &EnsembleSpec) -> ObserverStack {
    let has = |kinds: &[MetricKind]| spec.metrics.iter().any(|m| kinds.contains(&m.kind));
    let mut stack = ObserverStack::new();
    if has(&[MetricKind::WindowMaxLoad, MetricKind::MeanRoundMax]) {
        stack = stack.with_max_load();
    }
    if has(&[MetricKind::MinEmptyBins, MetricKind::QuarterViolationRate]) {
        stack = stack.with_empty_bins();
    }
    if has(&[MetricKind::FirstLegitimateRound]) {
        stack = stack.with_legitimacy(Default::default());
    }
    if has(&[MetricKind::WeightedWindowMaxLoad]) {
        stack = stack.with_weighted_load();
    }
    if has(&[MetricKind::CapacityViolationRate]) {
        stack = stack.with_capacity();
    }
    stack
}

/// `sim::spec` and `sim::scenario`: parse and build the large spec, and the
/// scenario driver's own cost per round, as `Scenario::run_observed` minus
/// a bare step-and-observe loop over an identical engine.
fn spec_and_scenario(inputs: &Inputs, m: &mut Metrics) -> Result<(), String> {
    let text = read(&inputs.sim_large)?;
    let spec = reference::parse_scenario(&text)?;
    let parse = (0..101)
        .map(|_| {
            let t = Instant::now();
            black_box(reference::parse_scenario(black_box(&text)).is_ok());
            elapsed_ns(t) / 1e6
        })
        .collect();
    m.put("spec.parse.ms", median(parse), "ms");
    let mut build = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let scenario = spec.scenario().map_err(|e| e.to_string())?;
        build.push(elapsed_ns(t) / 1e6);
        drop(black_box(scenario));
    }
    m.put("scenario.build.ms", median(build), "ms");

    let ens = reference::parse_ensemble(&read(&inputs.ensemble_small)?)?;
    let trial = ens
        .scenario
        .with_seed(SeedTree::new(ens.master_seed).trial(0));
    let mut selfs = Vec::new();
    for rep in 0..2 * REPS + 1 {
        let mut per_round = [0.0f64; 2];
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for i in order {
            let mut stack = ensemble_stack(&ens);
            if i == 0 {
                let mut scenario = trial.scenario().map_err(|e| e.to_string())?;
                let t = Instant::now();
                let outcome = scenario.run_observed(&mut stack);
                per_round[0] = elapsed_ns(t) / outcome.rounds.max(1) as f64;
            } else {
                let mut engine = build_engine(&trial).map_err(|e| e.to_string())?;
                let horizon = trial.horizon.resolve(engine.n());
                let t = Instant::now();
                for _ in 0..horizon {
                    engine.step_batched();
                    stack.observe_engine(engine.round(), engine.as_ref());
                }
                per_round[1] = elapsed_ns(t) / horizon.max(1) as f64;
            }
        }
        selfs.push(per_round[0] - per_round[1]);
    }
    m.put("scenario.driver.self_ns_per_round", median(selfs), "ns");
    Ok(())
}

/// `sim::ensemble`: the trial fan-out with a span per trial, and the report
/// rendering.
fn ensemble(inputs: &Inputs, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
    let mut spec = reference::parse_ensemble(&read(&inputs.ensemble_small)?)?;
    spec.replications = spec.replications.min(64);
    let threads = rayon::current_num_threads();
    let fanout = Instant::now();
    let trials: Vec<Result<f64, String>> = tracer.span("ensemble.fanout", None, 0, |root| {
        run_trials_seeded(
            SeedTree::new(spec.master_seed),
            spec.replications,
            |i, seed| {
                tracer.span("ensemble.trial", root, i as u64, |trial| {
                    let t = Instant::now();
                    let mut scenario = tracer
                        .span("scenario.build", trial, i as u64, |_| {
                            spec.scenario.scenario_seeded(seed)
                        })
                        .map_err(|e| e.to_string())?;
                    let mut stack = ensemble_stack(&spec);
                    tracer.span("scenario.run_observed", trial, i as u64, |_| {
                        scenario.run_observed(&mut stack)
                    });
                    Ok(elapsed_ns(t) / 1e6)
                })
            },
        )
    });
    let fanout_ms = elapsed_ns(fanout) / 1e6;
    let trials = trials.into_iter().collect::<Result<Vec<f64>, String>>()?;
    let busy: f64 = trials.iter().sum();
    m.put("ensemble.trial.ms", median(trials), "ms");
    m.put(
        "ensemble.fanout_efficiency",
        busy / (threads as f64 * fanout_ms),
        "ratio",
    );
    let report = spec.run().map_err(|e| e.to_string())?;
    let render = (0..51)
        .map(|_| {
            let t = Instant::now();
            black_box(report.to_json());
            elapsed_ns(t) / 1e6
        })
        .collect();
    m.put("ensemble.report.to_json.ms", median(render), "ms");
    Ok(())
}

/// A writer that keeps what it is given and counts flushes.
#[derive(Default)]
pub struct CountingWriter {
    pub buf: Vec<u8>,
    pub flushes: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
}

/// One request of each shape the serve log sends.
const SESSION_OPS: [(&str, &str); 9] = [
    ("place", r#"{"op":"place"}"#),
    ("place_general", r#"{"op": "place"}"#),
    ("place_batch4", r#"{"op":"place","count":4}"#),
    ("depart", ""),
    ("query", r#"{"op":"query"}"#),
    ("step", r#"{"op":"step"}"#),
    ("snapshot", r#"{"op":"snapshot"}"#),
    ("restore", RESTORE_LINE),
    ("bad_line", r#"{"op":"place""#),
];
/// The log's restore request; its state file is one of the generated inputs.
const RESTORE_LINE: &str = r#"{"op":"restore","path":"serve-session.restore.json"}"#;

/// `serve::session`: `Session::handle_line` per request shape, the JSON
/// layer alone, and `serve_lines` over in-memory buffers. Each shape is
/// timed call by call in blocks, and each block starts from the same
/// restored state (untimed).
fn session(inputs: &Inputs, m: &mut Metrics) -> Result<(), String> {
    let mut session = reference::session(&inputs.serve_spec)?;
    let n = session.engine().n();
    const BLOCKS: usize = 5;
    let departs: Vec<String> = (0..200)
        .map(|i| format!(r#"{{"op":"depart","bin":{}}}"#, (i * 7919) % n))
        .collect();
    for (name, line) in SESSION_OPS {
        let calls = if matches!(name, "snapshot" | "restore") {
            20
        } else {
            departs.len()
        };
        let mut samples = Vec::with_capacity(BLOCKS * calls);
        for block in 0..BLOCKS {
            let restored = session.handle_line(RESTORE_LINE);
            if block == 0 {
                m.check(restored.starts_with(r#"{"ok":true"#), &restored);
            }
            for depart in departs.iter().take(calls) {
                let line = if name == "depart" {
                    depart.as_str()
                } else {
                    line
                };
                let t = Instant::now();
                let response = session.handle_line(line);
                samples.push(elapsed_ns(t));
                if block == 0 && samples.len() == 1 {
                    let ok = response.starts_with(r#"{"ok":true"#);
                    m.check(
                        ok == (name != "bad_line"),
                        &format!("session {name}: {response}"),
                    );
                }
            }
        }
        m.put(format!("session.{name}.ns"), median(samples), "ns");
    }

    let log = read(&inputs.serve_log)?;
    let lines: Vec<&str> = log.lines().filter(|l| !l.trim().is_empty()).collect();
    let sample: Vec<&str> = lines.iter().copied().take(50_000).collect();
    let ns = ns_per_call(1, || {
        for line in &sample {
            black_box(serde_json::parse_value_str(line).is_ok());
        }
    });
    m.put("json.parse.ns", ns / sample.len() as f64, "ns");
    let query = serde_json::parse_value_str(&session.handle_line(r#"{"op":"query"}"#))
        .map_err(|e| e.to_string())?;
    let ns = ns_per_call(20_000, || {
        black_box(serde_json::to_string(black_box(&query)).is_ok());
    });
    m.put("json.render.ns", ns, "ns");

    let mut per_req = Vec::new();
    let mut flushes_per_req = 0.0;
    for _ in 0..3 {
        let mut fresh = reference::session(&inputs.serve_spec)?;
        let mut out = CountingWriter::default();
        let t = Instant::now();
        serve_lines(&mut fresh, Cursor::new(log.as_bytes()), &mut out)
            .map_err(|e| e.to_string())?;
        per_req.push(elapsed_ns(t) / lines.len() as f64);
        flushes_per_req = out.flushes as f64 / lines.len() as f64;
        let answered = out.buf.iter().filter(|&&b| b == b'\n').count();
        m.check(
            answered == lines.len(),
            "serve_lines answered every request",
        );
    }
    m.put("session.serve_lines.ns_per_req", median(per_req), "ns");
    m.put("serve.io.flushes_per_req", flushes_per_req, "count");
    Ok(())
}

/// `core::snapshot`: encode (engine state to JSON text) and restore (text
/// back to a running engine) for dense engines at two sizes.
fn snapshots(seed: u64, m: &mut Metrics) -> Result<(), String> {
    for (label, n) in [("n4096", 4096usize), ("n2e20", 1 << 20)] {
        let mut engine = LoadProcess::legitimate_start(n, seed);
        for _ in 0..5 {
            engine.step_batched();
        }
        let mut text = String::new();
        let encode = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                let state = Engine::snapshot(&engine).expect("dense engines snapshot");
                text = serde_json::to_string(&state).expect("snapshot state serializes");
                elapsed_ns(t) / 1e6
            })
            .collect();
        m.put(format!("snapshot.encode.ms.{label}"), median(encode), "ms");
        let mut restored = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            let state: SnapshotState = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            let back = restore(&state).map_err(|e| e.0)?;
            restored.push(elapsed_ns(t) / 1e6);
            m.check(
                back.balls() == engine.balls() && back.round() == engine.round(),
                "restored snapshot matches the engine",
            );
        }
        m.put(
            format!("snapshot.restore.ms.{label}"),
            median(restored),
            "ms",
        );
    }
    Ok(())
}
