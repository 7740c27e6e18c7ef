//! In-process references for the output oracle: what `rbb sim`,
//! `rbb ensemble` and `rbb-serve` must print for a given input, computed by
//! calling the library directly.

use std::io::Write;

use rbb_core::config::LegitimacyThreshold;
use rbb_core::engine::Engine;
use rbb_core::metrics::ObserverStack;
use rbb_serve::{MockClock, Session};
use rbb_sim::{build_engine, fmt_f64, EnsembleSpec, ScenarioSpec, StopSpec};

pub fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, String> {
    serde_json::from_str(text).map_err(|e| format!("scenario spec: {e}"))
}

/// The benchmark drives plain horizon runs only; the renderer below does not
/// reproduce the stop-rule and adversary lines of `rbb sim`.
pub fn check_plain(spec: &ScenarioSpec) -> Result<(), String> {
    if spec.stop != StopSpec::Horizon || spec.adversary.is_some() {
        return Err("benchmark specs must use stop=horizon and no adversary".into());
    }
    Ok(())
}

/// The observer stack `rbb sim` attaches.
pub fn sim_stack(spec: &ScenarioSpec) -> ObserverStack {
    let mut stack = ObserverStack::new()
        .with_max_load()
        .with_empty_bins()
        .with_legitimacy(LegitimacyThreshold::default());
    if spec.is_weighted() {
        stack = stack.with_weighted_load().with_capacity();
    }
    stack
}

/// What `rbb sim` prints for a horizon run, from the engine before
/// (`initial_balls`) and after the run.
pub fn render_sim(
    spec: &ScenarioSpec,
    label: &str,
    initial_balls: u64,
    horizon: u64,
    rounds: u64,
    engine: &dyn Engine,
    stack: &ObserverStack,
) -> String {
    let threshold = LegitimacyThreshold::default();
    let n = engine.n();
    let mut out = format!(
        "scenario '{}': n = {n}, {initial_balls} balls, horizon {horizon} rounds, seed = {}\n",
        spec.name.as_deref().unwrap_or(label),
        spec.seed,
    );
    out += &format!("  rounds run           : {rounds}\n");
    if let Some(max_t) = &stack.max_load {
        out += &format!(
            "  max load over window : {} (bound 4 ln n = {})\n",
            max_t.window_max(),
            threshold.bound(n)
        );
        out += &format!(
            "  mean per-round max   : {}\n",
            fmt_f64(max_t.mean_round_max(), 2)
        );
    }
    if let Some(empty_t) = &stack.empty_bins {
        out += &format!(
            "  min empty bins       : {} ({}%; paper: ≥ 25%)\n",
            empty_t.min_empty(),
            100 * empty_t.min_empty() / n
        );
    }
    if let Some(legit_t) = &stack.legitimacy {
        match legit_t.first_legitimate_round() {
            Some(r) => {
                out += &format!(
                    "  legitimate from round {r}; violations after: {}\n",
                    legit_t.violations_after_first()
                )
            }
            None => out += "  never legitimate within the window (!)\n",
        }
    }
    if let Some(wl) = &stack.weighted_load {
        out += &format!(
            "  weighted max (window): {} (scaled bound = {})\n",
            wl.window_max(),
            threshold.weighted_bound(n, engine.total_weight(), engine.balls()),
        );
        out += &format!(
            "  mean weighted max    : {}\n",
            fmt_f64(wl.mean_round_max(), 2)
        );
    }
    if let Some(cap) = &stack.capacity {
        out += &format!(
            "  capacity violations  : {} rounds in violation, worst {} bins over\n",
            cap.rounds_in_violation(),
            cap.max_violations(),
        );
    }
    if let Some(p) = engine.min_progress() {
        out += &format!("  min token progress   : {p}\n");
    }
    out
}

/// Expected stdout of `rbb sim --spec <path>`, through the same
/// `Scenario::run_observed` driver the binary uses. Fails if the run does
/// not reach its horizon or loses or gains balls.
pub fn sim(path: &str) -> Result<String, String> {
    let spec = parse_scenario(&read(path)?)?;
    check_plain(&spec)?;
    let mut scenario = spec.scenario().map_err(|e| e.to_string())?;
    let initial_balls = scenario.engine().balls();
    let mut stack = sim_stack(&spec);
    let outcome = scenario.run_observed(&mut stack);
    check_run(
        scenario.horizon(),
        outcome.rounds,
        initial_balls,
        scenario.engine(),
    )?;
    Ok(render_sim(
        &spec,
        path,
        initial_balls,
        scenario.horizon(),
        outcome.rounds,
        scenario.engine(),
        &stack,
    ))
}

/// The run reached its horizon and conserved the ball count.
pub fn check_run(
    horizon: u64,
    rounds: u64,
    initial_balls: u64,
    engine: &dyn Engine,
) -> Result<(), String> {
    if rounds != horizon || engine.round() != horizon {
        return Err(format!("ran {rounds} rounds, horizon is {horizon}"));
    }
    if engine.balls() != initial_balls {
        return Err(format!(
            "ball count {} after the run, {initial_balls} before",
            engine.balls()
        ));
    }
    Ok(())
}

pub fn parse_ensemble(text: &str) -> Result<EnsembleSpec, String> {
    serde_json::from_str(text).map_err(|e| format!("ensemble spec: {e}"))
}

/// Expected stdout of `rbb ensemble --spec <path>`.
pub fn ensemble(path: &str) -> Result<String, String> {
    let spec = parse_ensemble(&read(path)?)?;
    let report = spec.run().map_err(|e| e.to_string())?;
    Ok(report.to_json() + "\n")
}

/// A session built the way `rbb-serve --spec <path>` builds it; the mock
/// clock only feeds `stats`, which the benchmark's logs never send.
pub fn session(spec_path: &str) -> Result<Session, String> {
    let spec = parse_scenario(&read(spec_path)?)?;
    let engine = build_engine(&spec).map_err(|e| e.to_string())?;
    Ok(Session::new(engine, Box::new(MockClock::new(1000))))
}

/// Expected responses of `rbb-serve --spec <spec_path>` to the log, one
/// line each. Snapshot and restore paths in the log resolve against the
/// current directory, as they do for the daemon.
pub fn serve(spec_path: &str, log_path: &str, out_path: &str) -> Result<usize, String> {
    let mut session = session(spec_path)?;
    let log = read(log_path)?;
    let file = std::fs::File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    let mut answered = 0usize;
    for line in log.lines().filter(|l| !l.trim().is_empty()) {
        let response = session.handle_line(line);
        writeln!(out, "{response}").map_err(|e| e.to_string())?;
        answered += 1;
        if session.is_shutdown() {
            break;
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    Ok(answered)
}
