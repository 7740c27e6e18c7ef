//! `perfbench` — the in-process half of the benchmark. `run.py` drives it:
//!
//! ```text
//! perfbench reference-sim SPEC OUT           expected stdout of `rbb sim --spec SPEC`
//! perfbench reference-ensemble SPEC OUT      expected stdout of `rbb ensemble --spec SPEC`
//! perfbench reference-serve SPEC LOG OUT     expected responses of `rbb-serve --spec SPEC`
//! perfbench rtt SOCKET LOG RESP SAMPLES     lockstep client over a Unix socket;
//!     sends the next N log lines for each count N read from stdin
//! perfbench calibrate                      machine-speed probe: `mem_ns alu_ns`
//! perfbench trace WORKLOAD DIR SEED OUTDIR SECONDS
//!     traced replay of WORKLOAD (spans on and off) plus the per-layer suite;
//!     prints the n-sweep table, then one JSON line of per-layer metrics
//! ```

mod calibrate;
mod layers;
mod reference;
mod replay;
mod rtt;
mod trace;

use std::time::{Duration, Instant};

use layers::{Inputs, Metrics};
use trace::Tracer;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match argv.as_slice() {
        ["reference-sim", spec, out] => reference::sim(spec).and_then(|s| write(out, &s)),
        ["reference-ensemble", spec, out] => reference::ensemble(spec).and_then(|s| write(out, &s)),
        ["reference-serve", spec, log, out] => reference::serve(spec, log, out).map(|_| ()),
        ["calibrate"] => calibrate::run(),
        ["rtt", socket, log, responses, samples] => rtt::run(socket, log, responses, samples),
        ["trace", workload, dir, seed, outdir, seconds] => match (seed.parse(), seconds.parse()) {
            (Ok(seed), Ok(seconds)) => traced(workload, dir, seed, outdir, seconds),
            _ => Err("trace: SEED and SECONDS must be whole numbers".into()),
        },
        _ => Err("usage: see the header of perfbench/src/main.rs".into()),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// The traced run: replays `workload` alternately with spans off and on
/// for about `seconds` (at least one pair), then runs the layer suite.
fn traced(workload: &str, dir: &str, seed: u64, outdir: &str, seconds: u64) -> Result<(), String> {
    let mut m = Metrics::default();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut off_ns, mut on_ns) = (0u128, 0u128);
    let mut first_output: Option<String> = None;
    let mut last_on = Tracer::new(true);
    while first_output.is_none() || start.elapsed() < budget {
        for enabled in [false, true] {
            let tracer = Tracer::new(enabled);
            let t = Instant::now();
            let output = replay::run(workload, dir, &tracer)?;
            let ns = t.elapsed().as_nanos();
            if enabled {
                on_ns += ns;
                last_on = tracer;
            } else {
                off_ns += ns;
            }
            match &first_output {
                None => first_output = Some(output),
                Some(first) => m.check(*first == output, "replays print the same output"),
            }
        }
    }
    let output = first_output.expect("the loop replays at least once");
    write(&format!("{outdir}/replay.out"), &output)?;
    last_on
        .write_tsv(&format!("{outdir}/spans-replay.tsv"))
        .map_err(|e| e.to_string())?;
    m.put(
        "trace.overhead_ratio",
        on_ns as f64 / off_ns as f64,
        "ratio",
    );

    let suite_tracer = Tracer::new(true);
    layers::run(&Inputs::in_dir(dir), seed, &suite_tracer, &mut m)?;
    suite_tracer
        .write_tsv(&format!("{outdir}/spans-layers.tsv"))
        .map_err(|e| e.to_string())?;
    println!("{}", m.to_json());
    Ok(())
}
