#!/usr/bin/env python3
"""Compares two VifiBench result sets.

    python3 benchmark/compare.py A.jsonl B.jsonl [--spec BENCHMARK.json]
    python3 benchmark/compare.py --self-test

A and B hold the records `benchmark/run.py --out` appends, one JSON object
per line; A is the baseline. For every workload and end-to-end metric of the
spec, over the untraced records, it prints each side's median and quartiles
(statistics.quantiles, n=4) and a verdict on B:

  unresolved    either side's spread (IQR / median) exceeds the bound, and
                not every B run beats (or trails) every A run
  better/worse  the medians differ by more than the bound, in the metric's
                direction
  same          otherwise

It then lists every exact count that differs between records of the same
workload, seed and trace setting, within a side or across sides, and every
record whose run failed a check. Exits 1 when any verdict is worse, any
count differs or any run failed; 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summary(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, a, b):
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    (a1, am, a3), (b1, bm, b3) = summary(a), summary(b)
    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    gain = sign * (bm - am) / abs(am) if am else 0.0
    if spread > bound:
        if min(sign * x for x in b) > max(sign * x for x in a):
            return "better", gain, spread
        if max(sign * x for x in b) < min(sign * x for x in a):
            return "worse", gain, spread
        return "unresolved", gain, spread
    if gain > bound:
        return "better", gain, spread
    if gain < -bound:
        return "worse", gain, spread
    return "same", gain, spread


def count_diffs(a_records, b_records):
    """Exact counts must repeat for one (workload, seed, trace)."""
    diffs = []
    first = {}
    for side, records in (("A", a_records), ("B", b_records)):
        for r in records:
            key = (r["workload"], r["seed"], r["trace"])
            if key not in first:
                first[key] = (side, r["counts"])
                continue
            ref_side, ref = first[key]
            for name in sorted(set(ref) | set(r["counts"])):
                x, y = ref.get(name), r["counts"].get(name)
                if x != y:
                    diffs.append((key, name, ref_side, x, side, y))
    return diffs


def compare(spec, a_records, b_records):
    rows = []
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in a_records
                 if r["workload"] == w and r["trace"] == 0]
            b = [r["metrics"][m["name"]] for r in b_records
                 if r["workload"] == w and r["trace"] == 0]
            if not a or not b:
                continue
            v, gain, spread = verdict(m, a, b)
            rows.append((w, m, summary(a), summary(b), len(a), len(b), v,
                         gain, spread))
    failed = [(side, r) for side, rs in (("A", a_records), ("B", b_records))
              for r in rs if not r["correct"]]
    return rows, count_diffs(a_records, b_records), failed


def report(rows, diffs, failed, out=sys.stdout):
    print("%-18s %-12s %-34s %-34s %-17s %8s %7s" %
          ("workload", "metric", "A q1 / median / q3 (n)",
           "B q1 / median / q3 (n)", "verdict (bound)", "gain", "spread"),
          file=out)
    for w, m, sa, sb, na, nb, v, gain, spread in rows:
        print("%-18s %-12s %-34s %-34s %-17s %+7.1f%% %6.1f%%" %
              (w, m["name"], "%.4g / %.4g / %.4g (%d)" % (sa + (na,)),
               "%.4g / %.4g / %.4g (%d)" % (sb + (nb,)),
               v + " (%.0f%%)" % (100 * m["bound"]), 100 * gain,
               100 * spread), file=out)
    for (w, seed, trace), name, s1, x, s2, y in diffs:
        print("count differs: %s seed %s trace %s %s: %s=%s %s=%s" %
              (w, seed, trace, name, s1, x, s2, y), file=out)
    for side, r in failed:
        print("failed run: %s %s seed %s trace %s" %
              (side, r["workload"], r["seed"], r["trace"]), file=out)


def self_test():
    fx = HERE / "fixtures"
    spec = json.loads((fx / "spec.json").read_text())
    rows, diffs, failed = compare(spec, load(fx / "base.jsonl"),
                                  load(fx / "change.jsonl"))
    got = {(w, m["name"]): v for w, m, *_, v, _g, _s in rows}
    want = {
        ("steady", "veh_s_per_s"): "better",   # +30%, tight spread
        ("steady", "setup_s"): "same",          # +4% under a 25% bound
        ("steady", "peak_rss_mb"): "worse",     # +20% over a 10% bound
        ("noisy", "veh_s_per_s"): "unresolved",  # spread wider than bound
        ("noisy", "setup_s"): "better",         # wide, but B beats every A
        ("noisy", "peak_rss_mb"): "same",
    }
    want_diffs = {(("noisy", 2, 0), "mac.transmissions")}
    ok = got == want and {(d[0], d[1]) for d in diffs} == want_diffs and \
        [(s, r["seed"]) for s, r in failed] == [("B", 3)]
    if not ok:
        report(rows, diffs, failed, sys.stderr)
        print("compare.py self-test: FAILED (verdicts %s)" % got,
              file=sys.stderr)
        return 1
    print("compare.py self-test: OK (%d verdicts, %d count diff, %d failed "
          "run)" % (len(got), len(diffs), len(failed)))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", nargs="?", help="baseline records (JSONL)")
    ap.add_argument("b", nargs="?", help="changed records (JSONL)")
    ap.add_argument("--spec", default=str(HERE.parent / "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.a or not args.b:
        ap.error("needs two result files, or --self-test")
    spec = json.loads(Path(args.spec).read_text())
    rows, diffs, failed = compare(spec, load(args.a), load(args.b))
    report(rows, diffs, failed)
    bad = any(r[6] == "worse" for r in rows) or diffs or failed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
