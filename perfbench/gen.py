"""Workload inputs, generated from the benchmark seed.

The binaries receive only these files: one scenario or ensemble spec per
workload, a 1-round copy of it for the set-up probe, and for serve-session
the request log and the snapshot its restores read. The same seed always gives byte-identical files.

    python3 perfbench/gen.py --seed 1 --out perfbench/inputs
"""

import argparse
import json
import os

MASK = (1 << 64) - 1

WORKLOADS = ("sim-large", "ensemble-small", "sim-sparse-weighted", "serve-session")

# The serve log's request mix, in parts per 10000 lines. Snapshots and
# restores cost far more than the rest, and each `step` sets how many
# ball-rounds a replay advances, so these sit at fixed positions
# (SNAPSHOT_EVERY, RESTORE_EVERY, STEP_EVERY) instead of being drawn: every
# seed's log then carries the same number of each. Snapshots return the
# state inline and restores read a generated state file, so the daemon
# writes no file but its responses.
SERVE_LINES = 200_000
SERVE_N = 4096
SERVE_MIX = (
    ("place", 3040),  # the literal {"op":"place"} fast path
    ("place_general", 1500),  # other spellings, through the JSON parser
    ("place_batch4", 1000),
    ("depart", 3800),
    ("query", 600),
    ("bad", 10),
)
SNAPSHOT_EVERY = 2500  # 4 per 10000 lines
RESTORE_EVERY = 10_000  # 1 per 10000 lines
STEP_EVERY = 200  # 50 per 10000 lines
PLACE_GENERAL = (
    '{"op": "place"}',
    '{"op":"place","count":1}',
    '{"count":1,"op":"place"}',
    '{ "op" : "place" }',
)
# Malformed or refused requests: each gets an {"ok":false,...} reply.
BAD_LINES = (
    '{"op":"place"',
    "not json",
    '{"op":"teleport"}',
    '{"op":"depart"}',
    '{"op":"place","count":0}',
)
RESTORE_PATH = "serve-session.restore.json"


class SplitMix64:
    """The splitmix64 generator: fixed output for a seed on any Python."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def spec_seed(self):
        return 1 + self.below(1 << 31)


def scenario(name, n, rounds, seed, **extra):
    spec = {
        "name": name,
        "n": n,
        "balls": None,
        "start": {"kind": "one-per-bin"},
        "arrival": {"kind": "uniform"},
        "strategy": None,
        "engine": "auto",
        "topology": {"kind": "complete"},
        "adversary": None,
    }
    spec.update(extra)
    spec["horizon"] = {"kind": "rounds", "rounds": rounds}
    spec["stop"] = "horizon"
    spec["seed"] = seed
    return spec


def sim_large(rng, rounds=30):
    return scenario("sim-large", 1 << 24, rounds, rng.spec_seed())


def ensemble_small(rng, rounds=4000):
    return {
        "scenario": scenario("ensemble-small", 1024, rounds, 1),
        "master_seed": rng.spec_seed(),
        "replications": 256,
        "metrics": [
            {"kind": "window-max-load", "thresholds": [12.0, 23.0]},
            {"kind": "mean-round-max"},
            {"kind": "min-empty-bins"},
            {"kind": "quarter-violation-rate"},
            {"kind": "rounds"},
        ],
        "report": {"level": 0.95, "quantiles": [0.5, 0.9, 0.99]},
    }


def sim_sparse_weighted(rng, rounds=1000):
    seed = rng.spec_seed()
    salt = rng.below(1 << 31)
    return scenario(
        "sim-sparse-weighted",
        100_000_000,
        rounds,
        seed,
        balls=10_000,
        start={"kind": "random-multinomial", "salt": salt},
        weights={"kind": "zipf", "s": 1.0, "w_max": 100},
        capacities={"kind": "uniform", "c": 60},
    )


def serve_session(rng):
    spec = scenario("serve-session", SERVE_N, 2000, rng.spec_seed())
    spec["engine"] = "dense"
    return spec


def serve_log(rng, lines=SERVE_LINES, n=SERVE_N):
    """The request log: SERVE_MIX drawn line by line, plus the snapshots,
    restores and steps at their fixed positions."""
    thresholds = []
    total = 0
    for kind, parts in SERVE_MIX:
        total += parts
        thresholds.append((total, kind))
    out = []
    for i in range(lines):
        if i % SNAPSHOT_EVERY == SNAPSHOT_EVERY // 2:
            out.append('{"op":"snapshot"}')
            continue
        if i % RESTORE_EVERY == RESTORE_EVERY - 1:
            out.append('{"op":"restore","path":"%s"}' % RESTORE_PATH)
            continue
        if i % STEP_EVERY == STEP_EVERY // 2:
            out.append('{"op":"step"}')
            continue
        pick = rng.below(total)
        kind = next(k for t, k in thresholds if pick < t)
        if kind == "place":
            out.append('{"op":"place"}')
        elif kind == "place_general":
            out.append(PLACE_GENERAL[rng.below(len(PLACE_GENERAL))])
        elif kind == "place_batch4":
            out.append('{"op":"place","count":4}')
        elif kind == "depart":
            out.append('{"op":"depart","bin":%d}' % rng.below(n))
        elif kind == "query":
            if rng.below(2):
                out.append('{"op":"query","bin":%d}' % rng.below(n))
            else:
                out.append('{"op":"query"}')
        else:
            out.append(BAD_LINES[rng.below(len(BAD_LINES))])
    return "\n".join(out) + "\n"


def restore_state(rng, n=SERVE_N):
    """The dense-engine snapshot the log's restores read: 2n balls thrown
    uniformly and a fresh RNG state. Each restore pulls the session back to
    this size, so the load stays bounded over the log."""
    loads = [0] * n
    for _ in range(2 * n):
        loads[rng.below(n)] += 1
    state = {
        "version": 1,
        "engine": "dense",
        "n": n,
        "shards": 1,
        "round": 1000,
        "balls": sum(loads),
        "entries": [[b, load] for b, load in enumerate(loads) if load],
        "rng_states": [[rng.next() | 1, rng.next(), rng.next(), rng.next()]],
    }
    return json.dumps(state) + "\n"


def set_rounds(spec, rounds):
    """A copy of a scenario or ensemble spec with another horizon."""
    spec = json.loads(json.dumps(spec))
    inner = spec["scenario"] if "scenario" in spec else spec
    inner["horizon"] = {"kind": "rounds", "rounds": rounds}
    return spec


def workload_files(workload, seed):
    """{file name: text} for one workload. Each workload draws from its own
    stream, so adding a workload never changes another's inputs."""
    rng = SplitMix64(seed ^ (0x5EED * (WORKLOADS.index(workload) + 1)))
    dump = lambda spec: json.dumps(spec, indent=2) + "\n"
    if workload == "serve-session":
        spec = serve_session(rng)
        return {
            "serve-session.json": dump(spec),
            "serve-session.log": serve_log(rng),
            RESTORE_PATH: restore_state(rng),
        }
    spec = {
        "sim-large": sim_large,
        "ensemble-small": ensemble_small,
        "sim-sparse-weighted": sim_sparse_weighted,
    }[workload](rng)
    return {
        workload + ".json": dump(spec),
        workload + ".setup.json": dump(set_rounds(spec, 1)),
    }


def write(workloads, seed, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for workload in workloads:
        for name, text in workload_files(workload, seed).items():
            with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as f:
                f.write(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    write(args.workload or WORKLOADS, args.seed, args.out)


if __name__ == "__main__":
    main()
