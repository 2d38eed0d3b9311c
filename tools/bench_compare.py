#!/usr/bin/env python3
"""Compare a google-benchmark JSON result against a committed baseline.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]
    bench_compare.py --merge OUT.json IN1.json IN2.json [...]
    bench_compare.py --self-test

Exit status:
    0  no benchmark regressed beyond the threshold
    1  at least one regression beyond the threshold (or a benchmark
       disappeared from CURRENT)
    2  bad invocation / unreadable input

Comparison is by benchmark name. Two entry kinds are understood:

  * time entries — ordinary google-benchmark results, compared on
    `cpu_time` (normalised to ns); smaller is better.
  * value entries — unitless quality metrics (e.g. the fairness curve
    `paper fleet_contention` emits) carrying a `value` field instead of
    `cpu_time`, plus optional `bigger_is_better` (default true). The gate
    fails when the value moves beyond the threshold in the *bad*
    direction; a good-direction move is reported as IMPROVED.

Benchmarks present only in CURRENT are listed as "new" and never fail the
gate — committing a refreshed baseline is how they start being tracked.

`--merge` concatenates the `benchmarks` arrays of several result files
(context taken from the first) so quality metrics can ride in the same
BENCH.json artifact as the perf suite.

Output is a table; the `delta` column is (current - baseline) / baseline.
Lines are tagged:

    ok          within threshold
    FASTER /    moved beyond the threshold in the good direction
    IMPROVED    (consider refreshing the baseline to lock the win in)
    REGRESSION  moved beyond the threshold in the bad direction -> exit 1
    new         no baseline entry yet
    MISSING     in the baseline but not in CURRENT -> exit 1
"""

import argparse
import json
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_context(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("context", {})


def context_warning(baseline_ctx, current_ctx):
    """Absolute times only transfer between comparable hosts; flag when the
    two results clearly came from different machines."""
    diffs = []
    for key in ("num_cpus", "mhz_per_cpu", "host_name"):
        b, c = baseline_ctx.get(key), current_ctx.get(key)
        if b is not None and c is not None and b != c:
            diffs.append(f"{key}: {b} vs {c}")
    return diffs


def load_benchmarks(path):
    """Returns {name: cpu_time_ns | {"value": v, "bigger": bool}}.

    Plain floats are time entries (ns, smaller is better); dict entries are
    unitless quality metrics with an explicit good direction.
    """
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            # Keep only the mean aggregate when repetitions were used.
            if b.get("aggregate_name") != "mean":
                continue
        name = b.get("name")
        if not name:
            raise ValueError(f"{path}: benchmark entry without a name")
        if "value" in b:
            value = float(b["value"])
            # Zero is a legitimate measurement (e.g. total starvation) and
            # must reach the comparison as a regression; only a *baseline*
            # zero cannot anchor a ratio, which compare() rejects.
            if value < 0.0:
                raise ValueError(
                    f"{path}: {name} has negative value {b['value']}; "
                    "re-record the file")
            out[name.removesuffix("_mean")] = {
                "value": value,
                "bigger": bool(b.get("bigger_is_better", True)),
            }
            continue
        scale = _UNIT_NS.get(b.get("time_unit", "ns"))
        if scale is None:
            raise ValueError(f"{path}: unknown time_unit in {name}")
        if "cpu_time" not in b:
            raise ValueError(
                f"{path}: {name} has no cpu_time or value field; the file "
                "is not a google-benchmark JSON result")
        cpu_time = float(b["cpu_time"]) * scale
        if cpu_time <= 0.0:
            raise ValueError(
                f"{path}: {name} has non-positive cpu_time {b['cpu_time']}; "
                "a zero entry cannot anchor a regression ratio — re-record "
                "the file")
        out[name.removesuffix("_mean")] = cpu_time
    if not out:
        raise ValueError(f"{path}: no benchmarks found")
    return out


def fmt_ns(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:9.2f} {unit}"
    return f"{ns:9.2f} ns"


def _entry_fields(entry):
    """(numeric value, bigger_is_better, rendering) for either entry kind."""
    if isinstance(entry, dict):
        return entry["value"], entry["bigger"], f"{entry['value']:12.4f}"
    return entry, False, fmt_ns(entry)


def compare(baseline, current, threshold):
    """Returns (lines, regressions, missing) for the comparison table."""
    lines = []
    regressions = []
    missing = []
    width = max(map(len, list(baseline) + list(current)))
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            _, _, cur_s = _entry_fields(cur)
            lines.append(f"{name:<{width}}  {'':>12}  {cur_s:>12}  "
                         f"{'':>8}  new")
            continue
        if cur is None:
            _, _, base_s = _entry_fields(base)
            lines.append(f"{name:<{width}}  {base_s:>12}  {'':>12}  "
                         f"{'':>8}  MISSING")
            missing.append(name)
            continue
        if isinstance(base, dict) != isinstance(cur, dict):
            # Nanoseconds vs a unitless value is not a comparison: a
            # benchmark changing kind must be renamed, not shadowed.
            raise ValueError(
                f"{name}: entry kind mismatch (time vs value) between "
                "baseline and current")
        base_v, bigger, base_s = _entry_fields(base)
        if base_v <= 0.0:
            raise ValueError(
                f"{name}: non-positive baseline value cannot anchor a "
                "regression ratio — re-record the baseline")
        cur_v, _, cur_s = _entry_fields(cur)
        delta = (cur_v - base_v) / base_v
        # The bad direction is up for times, down for bigger-is-better
        # quality metrics.
        bad = -delta if bigger else delta
        if bad > threshold:
            tag = "REGRESSION"
            regressions.append((name, bad))
        elif bad < -threshold:
            tag = "IMPROVED" if bigger else "FASTER"
        else:
            tag = "ok"
        lines.append(f"{name:<{width}}  {base_s:>12}  {cur_s:>12}  "
                     f"{delta:+7.1%}  {tag}")
    return lines, regressions, missing


def _comparison_keys(doc, path):
    """The names \p doc contributes at comparison time: non-mean aggregates
    dropped, the `_mean` suffix stripped — mirroring load_benchmarks().
    Repeated names *within* one file (repetition iterations + aggregates)
    are normal google-benchmark output and collapse to one key."""
    keys = set()
    for b in doc.get("benchmarks", []):
        if (b.get("run_type") == "aggregate"
                and b.get("aggregate_name") != "mean"):
            continue
        name = b.get("name")
        if not name:
            raise ValueError(f"{path}: benchmark entry without a name")
        keys.add(name.removesuffix("_mean"))
    return keys


def merge(out_path, in_paths):
    """Concatenates the benchmarks arrays of \p in_paths into \p out_path,
    keeping the first input's context. Inputs contributing the same
    comparison key are an error — a metric silently shadowing a perf
    result must not pass the gate."""
    context = {}
    benchmarks = []
    seen = set()
    for i, path in enumerate(in_paths):
        with open(path) as f:
            doc = json.load(f)
        if i == 0:
            context = doc.get("context", {})
        keys = _comparison_keys(doc, path)
        overlap = seen & keys
        if overlap:
            raise ValueError(
                f"{path}: duplicate benchmark name(s) across inputs: "
                + ", ".join(sorted(overlap)))
        seen |= keys
        benchmarks.extend(doc.get("benchmarks", []))
    if not benchmarks:
        raise ValueError("merge produced no benchmarks")
    doc = {"context": context, "benchmarks": benchmarks}
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return len(benchmarks)


def _write_result(directory, filename, benchmarks):
    import os
    path = os.path.join(directory, filename)
    with open(path, "w") as f:
        json.dump({"context": {}, "benchmarks": benchmarks}, f)
    return path


def self_test():
    import tempfile

    base = {"BM_a": 100.0, "BM_b": 100.0, "BM_gone": 50.0}
    # Injected slowdown on BM_a must trip the gate; BM_gone missing must too.
    _, regressions, missing = compare(
        base, {"BM_a": 120.0, "BM_b": 101.0, "BM_new": 5.0}, 0.15)
    assert [n for n, _ in regressions] == ["BM_a"], regressions
    assert missing == ["BM_gone"], missing
    # Within threshold: clean pass.
    _, regressions, missing = compare(
        {"BM_a": 100.0}, {"BM_a": 114.0}, 0.15)
    assert not regressions and not missing
    # Improvement is never a failure.
    _, regressions, missing = compare(
        {"BM_a": 100.0}, {"BM_a": 40.0}, 0.15)
    assert not regressions and not missing

    # Value entries (bigger is better): a drop beyond the threshold is the
    # regression direction, a rise is an improvement, small moves are ok.
    val = lambda v: {"value": v, "bigger": True}  # noqa: E731
    _, regressions, missing = compare(
        {"jain": val(1.0)}, {"jain": val(0.80)}, 0.15)
    assert [n for n, _ in regressions] == ["jain"], regressions
    _, regressions, _ = compare(
        {"pkts": val(100.0)}, {"pkts": val(130.0)}, 0.15)
    assert not regressions, "bigger-is-better rise must not fail"
    _, regressions, _ = compare(
        {"jain": val(0.90)}, {"jain": val(0.85)}, 0.15)
    assert not regressions, "within-threshold drop must pass"
    # Value entries with bigger_is_better=False (fidelity distances like
    # validation_synth's): the bad direction is UP, a drop is IMPROVED.
    sval = lambda v: {"value": v, "bigger": False}  # noqa: E731
    _, regressions, _ = compare(
        {"ks": sval(0.10)}, {"ks": sval(0.20)}, 0.15)
    assert [n for n, _ in regressions] == ["ks"], \
        "smaller-is-better rise must fail"
    _, regressions, _ = compare(
        {"ks": sval(0.10)}, {"ks": sval(0.05)}, 0.15)
    assert not regressions, "smaller-is-better drop must not fail"
    _, regressions, _ = compare(
        {"ks": sval(0.10)}, {"ks": sval(0.11)}, 0.15)
    assert not regressions, "within-threshold rise must pass"
    # Mixed time + value dicts compare independently.
    _, regressions, missing = compare(
        {"BM_a": 100.0, "jain": val(1.0)},
        {"BM_a": 100.0, "jain": val(1.0)}, 0.15)
    assert not regressions and not missing
    # A name changing kind between files is malformed input, not a delta.
    try:
        compare({"BM_a": 100.0}, {"BM_a": val(1.0)}, 0.15)
        raise AssertionError("kind mismatch must raise")
    except ValueError:
        pass
    # A current value collapsing to zero is a REGRESSION, not a malformed
    # file; a zero *baseline* cannot anchor the ratio and must raise.
    _, regressions, _ = compare(
        {"pkts": val(100.0)}, {"pkts": {"value": 0.0, "bigger": True}}, 0.15)
    assert [n for n, _ in regressions] == ["pkts"], regressions
    try:
        compare({"pkts": {"value": 0.0, "bigger": True}},
                {"pkts": val(100.0)}, 0.15)
        raise AssertionError("zero baseline value must raise")
    except ValueError:
        pass

    # Malformed inputs must exit 2 with a diagnostic, not crash: a zero
    # baseline entry (previously ZeroDivisionError in the delta) and an
    # entry without cpu_time (previously an unhandled KeyError).
    with tempfile.TemporaryDirectory() as tmp:
        ok = _write_result(tmp, "ok.json", [
            {"name": "BM_a", "cpu_time": 100.0, "time_unit": "ns"}])
        zero = _write_result(tmp, "zero.json", [
            {"name": "BM_a", "cpu_time": 0.0, "time_unit": "ns"}])
        no_cpu = _write_result(tmp, "no_cpu.json", [
            {"name": "BM_a", "real_time": 100.0, "time_unit": "ns"}])
        assert main([zero, ok]) == 2, "zero baseline entry must exit 2"
        assert main([ok, zero]) == 2, "zero current entry must exit 2"
        assert main([no_cpu, ok]) == 2, "missing cpu_time must exit 2"
        assert main([ok, ok]) == 0, "well-formed fixture must pass"

        # Value entries round-trip through files, and --merge concatenates
        # results so quality metrics gate alongside the perf suite.
        import os
        fair = _write_result(tmp, "fair.json", [
            {"name": "FC/jain", "run_type": "iteration", "value": 0.9,
             "bigger_is_better": True}])
        merged = os.path.join(tmp, "merged.json")
        assert main(["--merge", merged, ok, fair]) == 0
        assert main([merged, merged]) == 0, "merged file must self-compare"
        loaded = load_benchmarks(merged)
        assert set(loaded) == {"BM_a", "FC/jain"}, loaded
        assert main(["--merge", merged, ok, ok]) == 2, \
            "duplicate names must fail the merge"
        # The guard works on *comparison* keys: an aggregate 'X_mean' and a
        # value entry 'X' collapse to the same key and must not merge.
        mean = _write_result(tmp, "mean.json", [
            {"name": "BM_a_mean", "run_type": "aggregate",
             "aggregate_name": "mean", "cpu_time": 100.0,
             "time_unit": "ns"}])
        assert main(["--merge", merged, mean, ok]) == 2, \
            "'_mean' aggregate shadowing a plain entry must fail the merge"
        bad_fair = _write_result(tmp, "bad_fair.json", [
            {"name": "FC/jain", "run_type": "iteration", "value": 0.5,
             "bigger_is_better": True}])
        assert main([fair, bad_fair]) == 1, \
            "fairness collapse must trip the gate"
        assert main([bad_fair, fair]) == 0, \
            "fairness improvement must pass"
        # Smaller-is-better entries round-trip through files too: a
        # fidelity distance growing past the threshold fails, shrinking
        # passes.
        ks_ok = _write_result(tmp, "ks_ok.json", [
            {"name": "VS/ks", "run_type": "iteration", "value": 0.10,
             "bigger_is_better": False}])
        ks_bad = _write_result(tmp, "ks_bad.json", [
            {"name": "VS/ks", "run_type": "iteration", "value": 0.20,
             "bigger_is_better": False}])
        assert main([ks_ok, ks_bad]) == 1, \
            "fidelity-distance growth must trip the gate"
        assert main([ks_bad, ks_ok]) == 0, \
            "fidelity-distance shrink must pass"
    print("bench_compare self-test: OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="BASELINE CURRENT, or with --merge: "
                             "OUT IN1 IN2 [...]")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max tolerated regression fraction "
                             "(default 0.15)")
    parser.add_argument("--merge", action="store_true",
                        help="concatenate result files instead of comparing")
    parser.add_argument("--self-test", action="store_true",
                        help="run internal fixtures and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.merge:
        if len(args.paths) < 3:
            parser.error("--merge needs OUT and at least two inputs")
        try:
            n = merge(args.paths[0], args.paths[1:])
        except (OSError, ValueError, KeyError) as e:
            print(f"bench_compare: {e}", file=sys.stderr)
            return 2
        print(f"merged {len(args.paths) - 1} files "
              f"({n} benchmarks) into {args.paths[0]}")
        return 0
    if len(args.paths) != 2:
        parser.error("BASELINE and CURRENT are required "
                     "(or --merge / --self-test)")

    try:
        baseline = load_benchmarks(args.paths[0])
        current = load_benchmarks(args.paths[1])
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    baseline_path, current_path = args.paths
    try:
        lines, regressions, missing = compare(baseline, current,
                                              args.threshold)
    except ValueError as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    print(f"benchmark comparison: {current_path} vs baseline "
          f"{baseline_path} (threshold {args.threshold:.0%})")
    ctx_diffs = context_warning(load_context(baseline_path),
                                load_context(current_path))
    if ctx_diffs:
        print("WARNING: baseline and current were recorded on different "
              "hosts (" + "; ".join(ctx_diffs) + "). Absolute-time deltas "
              "may reflect hardware, not code — refresh the baseline from "
              "this runner class's artifact if the flagged deltas look "
              "uniform across benchmarks.")
    for line in lines:
        print(line)
    if missing:
        print(f"\n{len(missing)} benchmark(s) missing from {current_path}; "
              "the suite must not silently lose coverage.")
    if regressions:
        worst = max(delta for _, delta in regressions)
        print(f"\nFAIL: {len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%} (worst {worst:+.1%}).")
        return 1
    if missing:
        return 1
    print("\nOK: no regressions beyond threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
