"""Output checks. Each returns (attempted, failed, first problem or None);
the run's fail_ratio is failed / attempted summed over every check."""

import json
import re


def compare_responses(requests, expected, actual):
    """Serve: response i must equal the reference's response i byte for
    byte. A `stats` reply reads the clock, so it is skipped. Every expected
    response is one attempt; a missing or extra line is a failure."""
    failed = 0
    attempted = 0
    problem = None
    for i, want in enumerate(expected):
        if i < len(requests) and '"stats"' in requests[i]:
            continue
        attempted += 1
        got = actual[i] if i < len(actual) else None
        if got != want:
            failed += 1
            if problem is None:
                problem = "response %d: expected %.120r, got %.120r" % (i + 1, want, got)
    extra = max(0, len(actual) - len(expected))
    if extra:
        failed += extra
        attempted += extra
        problem = problem or "%d responses beyond the reference" % extra
    return attempted, failed, problem


def check_sim(expected, stdout, returncode, horizon, balls):
    """`rbb sim`: exit 0, the horizon reached, the ball count as specified,
    and stdout byte-equal to the in-process reference (skipped when
    `expected` is None)."""
    problem = None
    if returncode != 0:
        problem = "exit code %d" % returncode
    elif not re.search(r"^  rounds run +: %d$" % horizon, stdout, re.M):
        problem = "rounds run is not the horizon %d" % horizon
    elif not re.search(r"^scenario .*, %d balls," % balls, stdout, re.M):
        problem = "ball count is not %d" % balls
    elif expected is not None and stdout != expected:
        problem = "stdout differs from the in-process reference"
    return 1, int(problem is not None), problem


def check_ensemble(expected, stdout, returncode, horizon, replications):
    """`rbb ensemble`: exit 0, every trial ran the horizon (the `rounds`
    metric), every replication reported, and stdout byte-equal to the
    reference. Ball conservation is checked by the reference run."""
    problem = None
    try:
        report = json.loads(stdout) if returncode == 0 else None
    except ValueError as e:
        report, problem = None, "stdout is not JSON: %s" % e
    if returncode != 0:
        problem = "exit code %d" % returncode
    elif report is not None:
        rounds = next((m for m in report["metrics"] if m["metric"] == "rounds"), None)
        if report.get("replications") != replications:
            problem = "replications %r, expected %d" % (report.get("replications"), replications)
        elif rounds is None or rounds["min"] != horizon or rounds["max"] != horizon:
            problem = "trials did not all run the horizon %d" % horizon
        elif expected is not None and stdout != expected:
            problem = "stdout differs from the in-process reference"
    return 1, int(problem is not None), problem


def check_serve_protocol(requests, responses, n, start_balls, restore_state, bad_lines):
    """Serve, checked without the library: each response must agree with
    the protocol and with a running count of balls and rounds that the
    requests themselves drive. The malformed or refused lines, and only
    they, get `ok: false`. One attempt per request."""
    balls, rounds = start_balls, 0
    failed = 0
    problem = None
    for i, (request, text) in enumerate(zip(requests, responses)):
        reply = json.loads(text)
        bad = request in bad_lines
        op = {} if bad else json.loads(request)
        kind = op.get("op")
        if kind == "place":
            balls += op.get("count", 1)
        elif kind == "depart" and reply.get("removed") is True:
            balls -= 1
        elif kind == "step":
            rounds += 1
        elif kind == "restore":
            balls, rounds = restore_state["balls"], restore_state["round"]
        why = None
        if bad != (reply.get("ok") is False):
            why = "ok is %r" % reply.get("ok")
        elif bad:
            pass
        elif kind == "place" and "count" not in op and not (0 <= reply["bin"] < n and reply["load"] >= 1):
            why = "placed into bin %r with load %r" % (reply["bin"], reply["load"])
        elif kind == "place" and "count" in op and (
            len(reply["bins"]) != op["count"] or not all(0 <= b < n for b in reply["bins"])
        ):
            why = "placed into bins %r" % reply["bins"]
        elif kind == "query" and (reply["n"] != n or reply["empty_bins"] + reply["nonempty_bins"] != n):
            why = "bin counts %r + %r of %r" % (reply["empty_bins"], reply["nonempty_bins"], reply["n"])
        elif kind == "query" and "bin" in op and reply["load"] > reply["max_load"]:
            why = "load above max_load"
        elif kind == "snapshot" and (reply["state"]["balls"], reply["state"]["round"]) != (balls, rounds):
            why = "snapshot of %r balls at round %r" % (reply["state"]["balls"], reply["state"]["round"])
        elif reply.get("balls", balls) != balls:
            why = "balls %r, expected %d" % (reply["balls"], balls)
        elif reply.get("round", rounds) != rounds:
            why = "round %r, expected %d" % (reply["round"], rounds)
        if why is not None:
            failed += 1
            problem = problem or "response %d to %.60s: %s" % (i + 1, request, why)
    missing = max(0, len(requests) - len(responses))
    return len(requests), failed + missing, problem
