#!/usr/bin/env python3
"""The repository's benchmark: drives the built `rbb` and `rbb-serve`
binaries on one seeded workload and prints its metrics.

    python3 perfbench/run.py --workload sim-large --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds the binaries and the
`perfbench` helper with cargo (into $CARGO_TARGET_DIR, by default
`.bench_build`), writes the workload's inputs from the seed under
`.bench_out/`, checks every output against an in-process reference, and
prints human-readable lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
is the separate traced run: the helper replays the workload in-process
with spans on and off, then runs the per-layer suite. See README.md.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

# Set-up probes after each whole run or replay; setup_s is their median.
SETUP_PROBES = {"sim": 2, "ensemble": 20, "serve": 10}
# Lockstep requests in the serve closed loop, sent in chunks.
RTT_REQUESTS = 60_000
RTT_CHUNK = 5_000
# Longest any one child may run before it is killed.
CHILD_TIMEOUT_S = 150
# The machine-speed probe (`rbb-perfbench calibrate`) runs at the start, at
# the end, and after any measured item that ends this many seconds or more
# after the last probe.
CALIBRATE_EVERY_S = 1.0
# Nominal probe times in ns (mem, alu): a speed index of 1 means the probe
# ran this fast. Fixed, so every run scales to the same reference speed.
CALIBRATE_NOMINAL_NS = (120e6, 55e6)

UNITS = {
    "ball_rounds_per_s": "ball-rounds/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
    "rtt_p50_us": "us",
    "rtt_p99_us": "us",
    "fail_ratio": "ratio",
}
# What the JSON line carries with --trace 0; rtt_p99_us and fail_ratio are
# printed on the lines above it (see README.md for why).
GATED = ("ball_rounds_per_s", "setup_s", "peak_rss_mb", "req_per_s", "rtt_p50_us")


def say(line=""):
    print(line, flush=True)


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, result, what):
        attempted, failed, problem = result
        self.attempted += attempted
        self.failed += failed
        if problem:
            print("check failed (%s): %s" % (what, problem), file=sys.stderr)


# --- processes ---------------------------------------------------------------


def wait_rusage(proc):
    """Waits for `proc` and returns (exit code, peak RSS in MB), killing it
    after CHILD_TIMEOUT_S."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_timed(cmd, cwd, env, stdin_path=None, stdout_path=os.devnull):
    """Runs `cmd` to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(stdin_path or os.devnull, "rb") as stdin, open(stdout_path, "wb") as stdout:
        with open(os.path.join(cwd, "stderr.txt"), "ab") as stderr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=stdin, stdout=stdout, stderr=stderr)
            code, rss = wait_rusage(proc)
            wall = time.perf_counter() - t0
    return code, wall, rss


def helper(paths, args, cwd, env):
    cmd = [paths["helper"]] + [str(a) for a in args]
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail("helper %s failed with exit code %d" % (args[0], proc.returncode), 1)
    return proc.stdout.decode()


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "rbb-cli", "-p", "rbb-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr.fileno()).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)
    release = os.path.join(target, "release")
    return {
        "rbb": os.path.join(release, "rbb"),
        "serve": os.path.join(release, "rbb-serve"),
        "helper": os.path.join(release, "rbb-perfbench"),
    }


# --- machine speed -----------------------------------------------------------


class Speed:
    """The machine's speed over a run, from the calibration probe.

    On a shared host the same binary on the same input runs up to a third
    faster or slower from one minute to the next, and the probe's fixed
    kernels move with it. The run's speed index is the median over its
    probes; every measured time is divided by it, so it reads as it would
    at the nominal probe speed.
    """

    def __init__(self, paths, cwd, env):
        self.cmd = [paths["helper"], "calibrate"]
        self.cwd, self.env = cwd, env
        self.probes = []
        self.probe()

    def probe(self):
        out = subprocess.run(self.cmd, cwd=self.cwd, env=self.env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            fail("the calibration probe failed with exit code %d" % out.returncode, 1)
        mem_ns, alu_ns = (int(x) for x in out.stdout.split())
        self.probes.append((mem_ns, alu_ns))
        self.last = time.perf_counter()

    def tick(self):
        """Probes again once CALIBRATE_EVERY_S have passed since the last probe."""
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.probe()

    @property
    def index(self):
        """Median over the probes of sqrt(mem / nominal × alu / nominal):
        1 at the nominal speed, above 1 on a slower machine."""
        mem0, alu0 = CALIBRATE_NOMINAL_NS
        return statistics.median(math.sqrt(m / mem0 * a / alu0) for m, a in self.probes)

    def scaled(self, seconds):
        """Times as they would read at the nominal speed."""
        index = self.index
        return [s / index for s in seconds]

    def note(self):
        return "speed index %.4f, median of %d probes (1 = nominal)" % (self.index, len(self.probes))


# --- machine and build facts -------------------------------------------------


def source_digest(root):
    """SHA-256 over the sources the binaries and helper are built from."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, root).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def cache_bytes(level):
    """Per-core size of a cache level, from `getconf`, or None."""
    if not shutil.which("getconf"):
        return None
    got = subprocess.run(["getconf", "LEVEL%d_CACHE_SIZE" % level], stdout=subprocess.PIPE, text=True)
    value = got.stdout.strip()
    return int(value) if value.isdigit() and int(value) > 0 else None


def facts(root, workload, pins, threads):
    cpus = sorted(os.sched_getaffinity(0))
    l2, l3 = cache_bytes(2), cache_bytes(3)
    spec_n = {"sim-large": 1 << 24, "ensemble-small": 1024, "serve-session": gen.SERVE_N}
    vector = 4 * spec_n[workload] if workload in spec_n else None
    rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True).stdout.strip()
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE, text=True)
        commit = got.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": cpus,
        "l2_bytes_per_core": l2,
        "l3_bytes": l3,
        "load_vector_bytes": vector,
        "load_vector_over_l2": vector / l2 if vector and l2 else None,
        "load_vector_over_l3": vector / l3 if vector and l3 else None,
        "pinning": (
            "run.py, the measured processes and the speed probe on cpu %d, the closed-loop client on cpu %d" % tuple(pins)
            if pins
            else "unpinned"
        ),
        "rayon_threads": threads,
        "rustc": rustc,
        "commit": commit,
        "source_digest": source_digest(root),
    }


# --- workloads ---------------------------------------------------------------


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def read_text(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def batch_workload(workload, paths, work, seconds, env, checks):
    """`rbb sim` or `rbb ensemble`: whole runs of the spec for `seconds`,
    each followed by set-up probes on the 1-round copy."""
    kind = "ensemble" if workload == "ensemble-small" else "sim"
    spec = read_json(os.path.join(work, workload + ".json"))
    scenario = spec["scenario"] if kind == "ensemble" else spec
    horizon = scenario["horizon"]["rounds"]
    balls = scenario["balls"] or scenario["n"]
    trials = spec["replications"] if kind == "ensemble" else 1
    helper(paths, ["reference-" + kind, workload + ".json", "ref.out"], work, env)
    expected = read_text(os.path.join(work, "ref.out"))
    out = os.path.join(work, "stdout.txt")

    def check(code, wanted_rounds, reference):
        text = read_text(out)
        if kind == "sim":
            return oracle.check_sim(reference, text, code, wanted_rounds, balls)
        return oracle.check_ensemble(reference, text, code, wanted_rounds, trials)

    # Set-up probes run between the whole runs, so both sample the whole
    # window, and the speed probe runs between them every few seconds.
    speed = Speed(paths, work, env)
    walls, rss, setup = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        code, wall, peak = run_timed([paths["rbb"], kind, "--spec", workload + ".json"], work, env, stdout_path=out)
        checks.add(check(code, horizon, expected), "rbb " + kind)
        walls.append(wall)
        rss.append(peak)
        speed.tick()
        for _ in range(SETUP_PROBES[kind]):
            code, wall, _ = run_timed([paths["rbb"], kind, "--spec", workload + ".setup.json"], work, env, stdout_path=out)
            setup.append(wall)
            # A probe's output is checked for its exit code and horizon only.
            checks.add(check(code, 1, None), "setup probe")
            speed.tick()
    speed.probe()
    scaled = speed.scaled(walls)
    work_units = balls * horizon * trials
    save_samples(work, walls=walls, setup=setup, speed_probes=speed.probes)
    say("  raw: %.6g ball-rounds/s, set-up %.6g s (medians before speed scaling); %s" % (
        statistics.median([work_units / w for w in walls]), statistics.median(setup), speed.note()))
    return {
        "ball_rounds_per_s": (statistics.median([work_units / w for w in scaled]), "median of %d runs, speed-scaled" % len(walls)),
        "setup_s": (
            statistics.median(speed.scaled(setup)),
            "median of %d probes on the 1-round copy, between the runs, speed-scaled" % len(setup),
        ),
        "peak_rss_mb": (statistics.median(rss), "median of %d runs" % len(walls)),
        "req_per_s": (statistics.median([1 / w for w in scaled]), "alias: 1 / run wall time, the samples of ball_rounds_per_s"),
        "rtt_p50_us": (statistics.median(scaled) * 1e6, "alias: run wall time, the samples of ball_rounds_per_s"),
        "rtt_p99_us": tail([w * 1e6 for w in scaled]),
    }


def save_samples(work, **samples):
    """Keeps every raw sample behind the medians, in the run's directory."""
    with open(os.path.join(work, "samples.json"), "w", encoding="utf-8") as f:
        json.dump(samples, f)


def tail(samples):
    """(p99, note with the sample count), or (None, why) when too few
    samples lie beyond the p99."""
    got = stats.percentile(samples, 99)
    if got is None:
        return (None, "n/a: %d samples; a p99 needs %d samples beyond it" % (len(samples), stats.MIN_BEYOND))
    value, beyond = got
    return (value, "%d samples, %d beyond the p99" % (len(samples), beyond))


def serve_reference(paths, work, env, checks):
    """(request lines, expected responses, ball-rounds advanced by `step`).
    The expected responses are themselves checked against the protocol."""
    helper(paths, ["reference-serve", "serve-session.json", "serve-session.log", "ref.out"], work, env)
    requests = [l for l in read_text(os.path.join(work, "serve-session.log")).splitlines() if l.strip()]
    expected = read_text(os.path.join(work, "ref.out")).splitlines()
    n = read_json(os.path.join(work, "serve-session.json"))["n"]
    restore_state = read_json(os.path.join(work, gen.RESTORE_PATH))
    checks.add(oracle.check_serve_protocol(requests, expected, n, n, restore_state, gen.BAD_LINES), "serve protocol")
    balls, ball_rounds = 0, 0
    for request, response in zip(requests, expected):
        if request == '{"op":"step"}':
            ball_rounds += balls
        got = re.search(r'"balls":(\d+)', response)
        if got:
            balls = int(got.group(1))
    return requests, expected, ball_rounds


def compare_file(requests, expected, path):
    with open(path, "rb") as f:
        actual = f.read().decode("utf-8", errors="replace").splitlines()
    return oracle.compare_responses(requests, expected, actual)


def serve_replay(paths, work, env, requests, expected, checks):
    """One replay of the whole log through `rbb-serve --stdio`."""
    out = os.path.join(work, "replay.txt")
    cmd = [paths["serve"], "--stdio", "--spec", "serve-session.json"]
    code, wall, rss = run_timed(cmd, work, env, stdin_path=os.path.join(work, "serve-session.log"), stdout_path=out)
    checks.add(compare_file(requests, expected, out) if code == 0 else (1, 1, "exit code %d" % code), "serve replay")
    return wall, rss


def serve_setup_probe(paths, work, env):
    """Seconds from spawning the daemon until its first `query` is answered."""
    cmd = [paths["serve"], "--stdio", "--spec", "serve-session.json"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        proc.stdin.write(b'{"op":"query"}\n')
        proc.stdin.flush()
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
    finally:
        proc.stdin.close()
        proc.wait(CHILD_TIMEOUT_S)
    ok = line.startswith(b'{"ok":true') and proc.returncode == 0
    return wall, (1, int(not ok), None if ok else "set-up probe reply %r" % line[:80])


def serve_workload(paths, work, seconds, env, pins, checks):
    requests, expected, ball_rounds = serve_reference(paths, work, env, checks)
    speed = Speed(paths, work, env)

    # The closed loop runs in chunks between the stdio replays, and set-up
    # probes follow each replay, so all three sample the whole measured
    # window. The closed loop's daemon waits idle on its socket meanwhile.
    daemon_cmd = [paths["serve"], "--socket", "serve.sock", "--spec", "serve-session.json"]
    client_cmd = [paths["helper"], "rtt", "serve.sock", "serve-session.log", "rtt.txt", "rtt-samples.txt"]
    if pins:
        client_cmd = ["taskset", "-c", str(pins[1])] + client_cmd
    with open(os.path.join(work, "stderr.txt"), "ab") as stderr:
        daemon = subprocess.Popen(daemon_cmd, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        client = subprocess.Popen(client_cmd, cwd=work, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr)
    walls, rss, setup = [], [], []
    sent = 0
    try:
        start = time.perf_counter()
        while sent < RTT_REQUESTS or time.perf_counter() - start < seconds:
            if sent < RTT_REQUESTS:
                client.stdin.write(b"%d\n" % RTT_CHUNK)
                client.stdin.flush()
                if client.stdout.readline() != b"ok\n":
                    fail("the closed-loop client stopped", 1)
                sent += RTT_CHUNK
            wall, peak = serve_replay(paths, work, env, requests, expected, checks)
            walls.append(wall)
            rss.append(peak)
            speed.tick()
            for _ in range(SETUP_PROBES["serve"]):
                wall, result = serve_setup_probe(paths, work, env)
                setup.append(wall)
                checks.add(result, "serve set-up probe")
                speed.tick()
        speed.probe()
    finally:
        # At the end of its input the client sends `shutdown`, which ends
        # the daemon; if anything failed, stop both.
        for proc in (client, daemon):
            if proc is client:
                proc.stdin.close()
            try:
                proc.wait(30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if client.returncode != 0:
        fail("the closed-loop client failed with exit code %d" % client.returncode, 1)
    count = min(sent, len(requests))
    checks.add(compare_file(requests[:count], expected[:count], os.path.join(work, "rtt.txt")), "serve closed loop")
    rtts = [int(x) / 1e3 for x in read_text(os.path.join(work, "rtt-samples.txt")).split()]
    scaled_rtts = speed.scaled(rtts)
    scaled = speed.scaled(walls)

    save_samples(work, walls=walls, setup=setup, rtt_us=rtts, speed_probes=speed.probes)
    say("  raw: %.6g req/s, rtt p50 %.6g us, set-up %.6g s (medians before speed scaling); %s" % (
        statistics.median([len(requests) / w for w in walls]), statistics.median(rtts), statistics.median(setup), speed.note()))
    return {
        "ball_rounds_per_s": (
            statistics.median([ball_rounds / w for w in scaled]),
            "alias: ball-rounds advanced by `step` / replay wall time, the samples of req_per_s",
        ),
        "setup_s": (
            statistics.median(speed.scaled(setup)),
            "median of %d spawn-to-first-query probes, between the replays, speed-scaled" % len(setup),
        ),
        "peak_rss_mb": (statistics.median(rss), "daemon, median of %d replays" % len(walls)),
        "req_per_s": (
            statistics.median([len(requests) / w for w in scaled]),
            "%d-line log on stdin, median of %d replays, speed-scaled" % (len(requests), len(walls)),
        ),
        "rtt_p50_us": (statistics.median(scaled_rtts), "closed loop over a Unix socket, %d samples, speed-scaled" % len(rtts)),
        "rtt_p99_us": tail(scaled_rtts),
    }


# --- the traced run ------------------------------------------------------------


def traced(workload, seed, paths, work, seconds, env, checks):
    """Per-layer metrics: the helper's traced replay and layer suite, plus
    the serve I/O share, which needs the end-to-end replay."""
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir)
    if workload == "serve-session":
        requests, expected, _ = serve_reference(paths, work, env, checks)
    else:
        kind = "ensemble" if workload == "ensemble-small" else "sim"
        helper(paths, ["reference-" + kind, workload + ".json", "ref.out"], work, env)
    lines = helper(paths, ["trace", workload, ".", seed, "trace", seconds], work, env).splitlines()
    for line in lines[:-1]:
        say(line)
    result = json.loads(lines[-1])
    checks.add((result["attempted"], result["failed"], None if result["failed"] == 0 else "layer suite checks"), "layer suite")
    metrics = result["metrics"]

    replay_out = os.path.join(trace_dir, "replay.out")
    if workload == "serve-session":
        checks.add(compare_file(requests, expected, replay_out), "traced replay")
    else:
        same = read_text(replay_out) == read_text(os.path.join(work, "ref.out"))
        checks.add((1, int(not same), None if same else "traced replay output differs"), "traced replay")

    # End-to-end ns per request for the serve I/O share.
    if workload != "serve-session":
        requests, expected, _ = serve_reference(paths, work, env, checks)
    walls = [serve_replay(paths, work, env, requests, expected, checks)[0] for _ in range(3)]
    e2e_ns = statistics.median(walls) * 1e9 / len(requests)
    metrics["serve.io.ns_per_req"] = {
        "value": e2e_ns - metrics["session.serve_lines.ns_per_req"]["value"],
        "unit": "ns",
    }

    say("self time of the traced replay (spans-replay.tsv):")
    say("%-28s %10s %14s %14s" % ("span", "count", "total ms", "self ms"))
    summary = spans.summary(spans.read_tsv(os.path.join(trace_dir, "spans-replay.tsv")))
    for name, (count, total, own) in sorted(summary.items(), key=lambda kv: -kv[1][2]):
        say("%-28s %10d %14.3f %14.3f" % (name, count, total / 1e6, own / 1e6))
    return metrics


# --- main ----------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description="rbb end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run this from the repository root: %s is missing" % needed)
    paths = build(root)

    # One directory per workload and mode: the previous run's, whatever its
    # seed, is removed first, so repeated runs do not pile up outputs.
    out_root = os.path.join(root, ".bench_out")
    for old in glob.glob(os.path.join(out_root, "%s-seed*-trace%d" % (args.workload, args.trace))):
        shutil.rmtree(old, ignore_errors=True)
    work = os.path.join(out_root, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    gen.write(gen.WORKLOADS if args.trace else (args.workload,), args.seed, work)

    cpus = sorted(os.sched_getaffinity(0))
    # With two CPUs, run.py pins itself to the first, so the measured
    # processes and the speed probe inherit it and share one CPU; the
    # closed-loop client gets the second to itself. The traced run is not
    # pinned: its ensemble fan-out uses both.
    pins = cpus[:2] if len(cpus) >= 2 and shutil.which("taskset") and not args.trace else None
    # End-to-end runs use one thread: on a few shared cores a parallel run
    # waits on its slowest thread, and its time swings with the host's load.
    # The traced run keeps two, so the ensemble fan-out has something to show.
    threads = min(2, len(cpus)) if args.trace else 1
    env = dict(os.environ, RAYON_NUM_THREADS=str(threads))
    checks = Checks()

    say("workload %s, seed %d, %d s, trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    say("facts " + json.dumps(facts(root, args.workload, pins, threads)))
    if pins:
        os.sched_setaffinity(0, {pins[0]})
    if args.trace:
        metrics = traced(args.workload, args.seed, paths, work, args.seconds, env, checks)
    else:
        if args.workload == "serve-session":
            measured = serve_workload(paths, work, args.seconds, env, pins, checks)
        else:
            measured = batch_workload(args.workload, paths, work, args.seconds, env, checks)
        measured["fail_ratio"] = (checks.failed / max(1, checks.attempted), "%d of %d checks failed" % (checks.failed, checks.attempted))
        for name, (value, note) in measured.items():
            shown = "n/a" if value is None else "%.6g" % value
            say("  %-18s %14s %-14s %s" % (name, shown, UNITS[name], note))
        metrics = {name: {"value": measured[name][0], "unit": UNITS[name]} for name in GATED}

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": metrics,
    }), flush=True)


if __name__ == "__main__":
    main()
