"""Spans written by the traced run, and their self time.

A span's self time is its duration minus the part of its interval that its
child spans cover. Children running in parallel may overlap each other;
the covered part counts once.
"""


def read_tsv(path):
    """[(id, name, start_ns, end_ns, parent or None, run)] from the file
    `perfbench trace` writes."""
    spans = []
    with open(path, encoding="utf-8") as f:
        next(f)
        for line in f:
            sid, name, start, end, parent, run = line.rstrip("\n").split("\t")
            spans.append(
                (int(sid), name, int(start), int(end), None if parent == "-" else int(parent), int(run))
            )
    return spans


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    total = 0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """{span id: self ns}."""
    children = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(start, end, children.get(sid, ()))
        for sid, _, start, end, _, _ in spans
    }


def summary(spans):
    """{name: (count, total ns, self ns)}, summed over spans of that name."""
    selfs = self_times(spans)
    out = {}
    for sid, name, start, end, _, _ in spans:
        count, total, own = out.get(name, (0, 0, 0))
        out[name] = (count + 1, total + end - start, own + selfs[sid])
    return out
