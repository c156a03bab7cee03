#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result sets: JSON-lines files written by
`run.py --out FILE`, or directories of such files. For every workload and
end-to-end metric of BENCHMARK.json it prints both medians, both
quartiles, and a verdict against the metric's bound:

  worse       the new median is worse than the base by more than the bound
  better      the new median is better by more than the base's own spread
  same        neither
  unresolved  a side's spread (interquartile range / median) is wider than
              the bound, and not every new run beats (or loses to) every
              base run

The workload-specific metrics of the report lines (batch_s, ingest_eps,
the serve_mixed latencies, ...) follow with medians and quartiles. They
have no bound of their own; one is worse (or better) when its median moved
that way by more than REPORT_MARGIN and a one-sided Mann-Whitney rank-sum
test puts the chance of so lopsided a split below REPORT_P, else overlap.
Where a set holds traced (--trace 1) and untraced runs of a workload, the
tracing overhead is printed too. Exits 1 when any metric is worse.
"""

import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# Report-line metrics without a bound where more is better; the rest are
# times, lags, sizes and failure shares.
HIGHER_IS_BETTER = {"ingest_eps"}
# A report-line metric is worse only past both: a median change larger
# than the widest bound, and a rank-sum split unlikely by chance.
REPORT_MARGIN = 0.25
REPORT_P = 0.01


def load_benchmark(path=BENCHMARK_JSON):
    with open(path) as f:
        return json.load(f)


def load_results(path):
    """Runs in a result set: one dict per report line, joined with the
    result line after it."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, n) for n in os.listdir(path)
                       if n.endswith(".jsonl"))
    runs = []
    for name in files:
        report = None
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                if "report" in obj:
                    report = obj["report"]
                elif "metrics" in obj and report is not None:
                    runs.append({
                        "workload": report["workload"],
                        "trace": report["trace"],
                        "tags": report["tags"],
                        "detail": {k: v["value"]
                                   for k, v in report["detail"].items()},
                        "correct": obj["correct"],
                        "attempted": obj["attempted"],
                        "failed": obj["failed"],
                        "metrics": {k: v["value"]
                                    for k, v in obj["metrics"].items()},
                    })
                    report = None
    return runs


def summarize(values):
    """(median, q1, q3, relative spread) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def rank_sum_p(base, new, lower):
    """One-sided Mann-Whitney U test (normal approximation, ties count
    half): the chance that `new` beats `base` in at least this many of the
    pairs if both came from one distribution. Pass lower=False to ask the
    same with "beats" meaning "is higher"."""
    m, k = len(base), len(new)
    wins = sum((n < b if lower else n > b) + 0.5 * (n == b)
               for n in new for b in base)
    sigma = math.sqrt(m * k * (m + k + 1) / 12)
    z = (wins - 0.5 - m * k / 2) / sigma
    return 0.5 * math.erfc(z / math.sqrt(2))


def verdict(base, new, better, bound):
    """Verdict of `new` against `base` for a metric where `better` is
    "lower" or "higher"; bound None means the metric has none."""
    bmed, _, _, bspread = summarize(base)
    nmed, _, _, nspread = summarize(new)
    lower = better == "lower"
    change = (nmed - bmed) / abs(bmed) if bmed else 0.0
    worse_by = change if lower else -change
    if bound is None:
        if worse_by > REPORT_MARGIN and rank_sum_p(base, new, not lower) < REPORT_P:
            return "worse"
        if -worse_by > REPORT_MARGIN and rank_sum_p(base, new, lower) < REPORT_P:
            return "better"
        return "overlap"
    if max(bspread, nspread) > bound:
        if max(new) < min(base) if lower else min(new) > max(base):
            return "better"
        if min(new) > max(base) if lower else max(new) < min(base):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bspread:
        return "better"
    return "same"


def group(runs, trace):
    out = {}
    for r in runs:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def fmt(v):
    return f"{v:.6g}"


def compare(base_runs, new_runs, bench, out=sys.stdout):
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base, new = group(base_runs, 0), group(new_runs, 0)
    any_worse = False
    header = (f"{'workload':<14} {'metric':<22} {'base median':>12} "
              f"{'[q1, q3]':>24} {'new median':>12} {'[q1, q3]':>24} "
              f"{'change':>8}  verdict")
    print(header, file=out)
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        names = list(e2e) + sorted(
            k for k in b_runs[0]["detail"] if k not in e2e
            and all(k in r["detail"] for r in b_runs + n_runs))
        for name in names:
            bv = [r["detail"][name] for r in b_runs]
            nv = [r["detail"][name] for r in n_runs]
            spec = e2e.get(name)
            better = spec["better"] if spec else (
                "higher" if name in HIGHER_IS_BETTER else "lower")
            v = verdict(bv, nv, better, spec["bound"] if spec else None)
            any_worse |= v == "worse"
            bm, bq1, bq3, _ = summarize(bv)
            nm, nq1, nq3, _ = summarize(nv)
            change = (nm - bm) / abs(bm) * 100 if bm else 0.0
            print(f"{workload:<14} {name:<22} {fmt(bm):>12} "
                  f"{'[' + fmt(bq1) + ', ' + fmt(bq3) + ']':>24} {fmt(nm):>12} "
                  f"{'[' + fmt(nq1) + ', ' + fmt(nq3) + ']':>24} "
                  f"{change:>+7.1f}%  {v}", file=out)
        failed = sum(r["failed"] for r in n_runs)
        attempted = sum(r["attempted"] for r in n_runs)
        print(f"{workload:<14} {'failed/attempted':<22} new: {failed}/{attempted}",
              file=out)
    for label, runs in (("base", base_runs), ("new", new_runs)):
        for workload, overhead in tracing_overhead(runs).items():
            print(f"tracing overhead ({label}, {workload}): events_per_s "
                  f"{overhead * 100:+.1f}% with the SUT's metrics on", file=out)
    return any_worse


def tracing_overhead(runs):
    """Traced vs untraced median events_per_s, per workload (negative =
    slower when traced)."""
    untraced, traced = group(runs, 0), group(runs, 1)
    out = {}
    for workload in sorted(set(untraced) & set(traced)):
        u = statistics.median(r["detail"]["events_per_s"] for r in untraced[workload])
        t = statistics.median(r["detail"]["events_per_s"] for r in traced[workload])
        out[workload] = t / u - 1.0
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    worse = compare(load_results(argv[1]), load_results(argv[2]),
                    load_benchmark())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
