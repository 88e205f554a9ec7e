#!/usr/bin/env python3
"""Perf sentinel: diff the newest BENCH_*.json against its trajectory.

Usage:

    python3 scripts/bench_check.py BENCH_pr5.json BENCH_pr7.json BENCH_ci.json

The *last* file in argument order is the run under test; the files
before it are the committed trajectory, oldest first. Each row's
baseline is the **best of the two newest committed files that contain
that row** (the one file, when only one does), so a row that a newer
file lacks — a renamed span path, a bench skipped in one PR — keeps
its own recent history instead of vanishing or falling back to one
stale observation. Best means the lower `mean_ns` for timing rows and
the higher `mean_qps` for throughput rows — one lucky runner in the
previous CI run must not ratchet the bar down for everyone after.
Quality/value rows take the *newer* of the two values ("best" is
undefined for a drift-in-either-direction metric). Every baselined row
id present in the run under test is checked against a per-prefix
tolerance band:

    prefix      metric        band    regression when
    trace/      mean_ns       ±50%    latest > previous * 1.5
    hist/       mean_ns       ±50%    latest > previous * 1.5
    (other)     mean_ns       ±30%    latest > previous * 1.3
    (any)       mean_qps      ±30%    latest < previous * 0.7
    scenario/   value         ±10%    |latest - previous| > 10%
    (other)     value         ±25%    |latest - previous| > 25%

Timing rows only regress by getting *slower*, throughput rows by
getting slower, value rows (quality metrics, observation counts) by
drifting in either direction. Trace and hist rows get the widest band:
they are single observations of one CI run, not sampled distributions.
Rows below NOISE_FLOOR_NS are skipped — a sub-microsecond phase's
relative jitter says nothing.

Exit status: 1 when any regression is found, else 0. Designed to run as
a non-blocking CI annotate step (`continue-on-error`), so a regression
paints the log red without failing the build — the committed BENCH
trajectory is the durable record.
"""

import json
import sys

NOISE_FLOOR_NS = 1_000.0

# (prefix, metric) -> allowed relative change. Checked most-specific
# first; "" matches everything.
TIME_BANDS = [("trace/", 0.50), ("hist/", 0.50), ("", 0.30)]
QPS_BAND = 0.30
VALUE_BANDS = [("scenario/", 0.10), ("", 0.25)]


def band(bands, row_id):
    for prefix, tol in bands:
        if row_id.startswith(prefix):
            return tol
    raise AssertionError("unreachable: empty prefix matches all")


def load_rows(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return {row["id"]: row for row in doc.get("rows", [])}


def better(old_row, new_row):
    """One row's baseline from an older and a newer observation: the
    faster timing, the higher throughput, else the newer value."""
    if "mean_ns" in old_row and "mean_ns" in new_row:
        return old_row if old_row["mean_ns"] < new_row["mean_ns"] else new_row
    if "mean_qps" in old_row and "mean_qps" in new_row:
        return old_row if old_row["mean_qps"] > new_row["mean_qps"] else new_row
    return new_row


def baseline(committed):
    """Per-row baseline from the committed files' rows, oldest first: the
    better of the two newest observations of each row."""
    history = {}
    for rows in committed:
        for row_id, row in rows.items():
            history.setdefault(row_id, []).append(row)
    return {
        row_id: seen[-1] if len(seen) == 1 else better(seen[-2], seen[-1])
        for row_id, seen in history.items()
    }


def fmt_ns(ns):
    if ns < 1e3:
        return f"{ns:.0f} ns"
    if ns < 1e6:
        return f"{ns / 1e3:.2f} µs"
    if ns < 1e9:
        return f"{ns / 1e6:.2f} ms"
    return f"{ns / 1e9:.2f} s"


def check(previous, latest):
    regressions = []
    compared = 0
    for row_id, row in sorted(latest.items()):
        prev = previous.get(row_id)
        if prev is None:
            print(f"  new       {row_id}")
            continue
        if "mean_ns" in row and "mean_ns" in prev:
            before, after = prev["mean_ns"], row["mean_ns"]
            if max(before, after) < NOISE_FLOOR_NS:
                continue
            tol = band(TIME_BANDS, row_id)
            compared += 1
            change = (after - before) / before if before else 0.0
            verdict = "REGRESSED" if after > before * (1 + tol) else "ok"
            print(
                f"  {verdict:<9} {row_id}: {fmt_ns(before)} -> {fmt_ns(after)} "
                f"({change:+.1%}, band +{tol:.0%})"
            )
            if verdict == "REGRESSED":
                regressions.append(row_id)
        elif "mean_qps" in row and "mean_qps" in prev:
            before, after = prev["mean_qps"], row["mean_qps"]
            compared += 1
            change = (after - before) / before if before else 0.0
            verdict = "REGRESSED" if after < before * (1 - QPS_BAND) else "ok"
            print(
                f"  {verdict:<9} {row_id}: {before:.0f} -> {after:.0f} q/s "
                f"({change:+.1%}, band -{QPS_BAND:.0%})"
            )
            if verdict == "REGRESSED":
                regressions.append(row_id)
        elif "value" in row and "value" in prev:
            before, after = prev["value"], row["value"]
            tol = band(VALUE_BANDS, row_id)
            compared += 1
            change = (after - before) / before if before else (1.0 if after else 0.0)
            verdict = "REGRESSED" if abs(change) > tol else "ok"
            print(
                f"  {verdict:<9} {row_id}: {before:g} -> {after:g} "
                f"({change:+.1%}, band ±{tol:.0%})"
            )
            if verdict == "REGRESSED":
                regressions.append(row_id)
        # Metric-shape mismatch (a row changed family): report, don't fail.
        else:
            print(f"  reshaped  {row_id}")
    for row_id in sorted(set(previous) - set(latest)):
        print(f"  dropped   {row_id}")
    return compared, regressions


def main():
    paths = sys.argv[1:]
    if len(paths) < 2:
        print("usage: bench_check.py BENCH_old.json ... BENCH_new.json", file=sys.stderr)
        print(
            "(needs at least two files; the last is checked against the "
            "files before it)",
            file=sys.stderr,
        )
        return 2
    latest_path = paths[-1]
    print(
        f"bench-check: {latest_path} vs per-row best of the two newest of "
        f"{', '.join(paths[:-1])} that have the row"
    )
    baseline_rows = baseline([load_rows(path) for path in paths[:-1]])
    compared, regressions = check(baseline_rows, load_rows(latest_path))
    print(f"bench-check: {compared} rows compared, {len(regressions)} regressed")
    if regressions:
        for row_id in regressions:
            print(f"bench-check: REGRESSION {row_id}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
