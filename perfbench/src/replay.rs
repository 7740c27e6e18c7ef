//! In-process replays of the four workloads with a span around each call
//! into a layer. Each replay returns the output the matching binary prints,
//! so the oracle checks the replay as it checks the binaries.

use std::io::Write;

use rbb_sim::build_engine;

use crate::layers::CountingWriter;
use crate::reference::{self, read};
use crate::trace::Tracer;

/// Replays `workload` on the inputs in `dir` and returns its output.
pub fn run(workload: &str, dir: &str, tracer: &Tracer) -> Result<String, String> {
    let spec_path = format!("{dir}/{workload}.json");
    tracer.span("workload", None, 0, |root| match workload {
        "sim-large" | "sim-sparse-weighted" => sim(&spec_path, tracer, root),
        "ensemble-small" => ensemble(&spec_path, tracer, root),
        "serve-session" => serve(&spec_path, &format!("{dir}/{workload}.log"), tracer, root),
        other => Err(format!("unknown workload '{other}'")),
    })
}

/// `rbb sim`, with the scenario driver's loop written out so each round's
/// step and observation get their own spans.
fn sim(path: &str, tracer: &Tracer, root: Option<usize>) -> Result<String, String> {
    let text = tracer.span("io.read_spec", root, 0, |_| read(path))?;
    let spec = tracer.span("spec.parse", root, 0, |_| reference::parse_scenario(&text))?;
    reference::check_plain(&spec)?;
    let mut engine = tracer
        .span("scenario.build", root, 0, |_| build_engine(&spec))
        .map_err(|e| e.to_string())?;
    let horizon = spec.horizon.resolve(engine.n());
    let initial_balls = engine.balls();
    let mut stack = reference::sim_stack(&spec);
    tracer.span("scenario.drive", root, 0, |drive| {
        for r in 0..horizon {
            tracer.span("scenario.round", drive, r, |round| {
                tracer.span("engine.step_batched", round, r, |_| engine.step_batched());
                tracer.span("observers.observe_engine", round, r, |_| {
                    stack.observe_engine(engine.round(), engine.as_ref())
                });
            });
        }
    });
    reference::check_run(horizon, engine.round(), initial_balls, engine.as_ref())?;
    Ok(tracer.span("cli.render", root, 0, |_| {
        reference::render_sim(
            &spec,
            path,
            initial_balls,
            horizon,
            engine.round(),
            engine.as_ref(),
            &stack,
        )
    }))
}

/// `rbb ensemble`: the trial fan-out and fold run inside `EnsembleSpec::run`,
/// so this replay spans the call as a whole; the layer suite spans trials.
fn ensemble(path: &str, tracer: &Tracer, root: Option<usize>) -> Result<String, String> {
    let text = tracer.span("io.read_spec", root, 0, |_| read(path))?;
    let spec = tracer.span("spec.parse", root, 0, |_| reference::parse_ensemble(&text))?;
    let report = tracer
        .span("ensemble.run", root, 0, |_| spec.run())
        .map_err(|e| e.to_string())?;
    Ok(tracer.span("report.to_json", root, 0, |_| report.to_json()) + "\n")
}

/// `rbb-serve --stdio`: the `serve_lines` loop written out over an
/// in-memory log, one span per request with the session call and the
/// response write as its children.
fn serve(
    spec_path: &str,
    log_path: &str,
    tracer: &Tracer,
    root: Option<usize>,
) -> Result<String, String> {
    let log = tracer.span("io.read_log", root, 0, |_| read(log_path))?;
    let mut session = tracer.span("session.build", root, 0, |_| reference::session(spec_path))?;
    let mut out = CountingWriter::default();
    for (i, line) in log.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let i = i as u64;
        tracer
            .span("serve.request", root, i, |req| {
                let response =
                    tracer.span("session.handle_line", req, i, |_| session.handle_line(line));
                tracer.span("io.write", req, i, |_| {
                    out.write_all(response.as_bytes())
                        .and_then(|()| out.write_all(b"\n"))
                        .and_then(|()| out.flush())
                })
            })
            .map_err(|e| e.to_string())?;
        if session.is_shutdown() {
            break;
        }
    }
    String::from_utf8(out.buf).map_err(|e| e.to_string())
}
