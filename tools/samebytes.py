#!/usr/bin/env python3
"""Same bytes as one command: every sweep leg must write byte-identical
output for any --threads, and (with --against) the same bytes as a parent
build.

Usage:
    samebytes.py BUILD [--against PARENT_BUILD]

BUILD holds the `sweep`, `tripscope` and `traceforge` binaries. Each row of
ROWS below is one `sweep` command line and the thread counts that must
agree. For every thread count the row runs in its own directory,
BUILD/samebytes/ROW/THREADS/ (the script starts by emptying
BUILD/samebytes), with relative paths only:

  * the row's prelude (the catalog row records, fits and synthesizes its
    TraceForge catalog there), then `sweep --threads T ARGS --json
    sweep.json --csv sweep.csv`;
  * on every spool a traced row writes: `tripscope export` (the
    .trace.json and .jsonl beside it), `tripscope query` (which exits
    non-zero unless its chunk scan reconciles with the recorder's
    counters) into X.query.txt, and `tripscope query --spans` into
    X.spans.txt.

Every file of every thread count's directory is then compared byte for
byte, in both directions, against the first thread count's; the first
file that differs, or exists at one thread count only, is named. The
row's content checks (columns, coordination twins, valid JSON/JSONL,
span slices) run on the first thread count's output.

--against re-runs each row's first thread count, prelude included, with
PARENT_BUILD's binaries into BUILD/samebytes/ROW/parent/ and compares it
with this build's output the same way.

A table in which two rows share a command line and thread count is
refused before anything runs: a leg that runs twice proves nothing.

Exit status: 0 every row agrees, 1 a row differs, fails a check or a
command fails, 2 bad invocation.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

POLICIES = "AllBSes,BestBS,History,RSSI,BRR,Sticky"
TRACE = ["--trace", "trace"]
# Record a real 8-bus campaign, fit a model, synthesize a fresh 8-bus
# catalog from it.
CATALOG = [
    ["traceforge", "record", "--testbed", "DieselNet-Ch1", "--vehicles", "8",
     "--trips", "2", "--trip-seconds", "45", "--seed", "7",
     "--out", "replay-src"],
    ["traceforge", "fit", "replay-src", "--out", "replay.vifimodel"],
    ["traceforge", "synth", "--model", "replay.vifimodel", "--vehicles", "8",
     "--trips", "2", "--trip-seconds", "45", "--seed", "9",
     "--out", "replay-catalog"],
]


@dataclass
class Row:
    name: str
    args: list
    threads: tuple
    # Content checks on the first thread count's output, each
    # (kind, path[, text]): "has"/"lacks" a text, "json" is one JSON
    # document, "jsonl" is one or more lines of one JSON document each.
    checks: list = field(default_factory=list)
    prelude: list = field(default_factory=list)


ROWS = [
    # The default grid: two testbeds x three replay policies x two seeds.
    Row("default", [], (1, 4)),
    # Every replay policy over three seeds: each testbed x seed campaign is
    # generated once and shared by its six policy points, with several
    # campaigns in flight at 8 threads.
    Row("policies", ["--policies", POLICIES, "--seeds", "1,2,3"], (1, 8)),
    # DieselNet-Ch1 fleets of 1 and 3 buses: the stops drive the bus lap
    # and dwell position paths, and each multi-vehicle campaign is shared
    # by its six policy points.
    Row("dieselnet_fleets",
        ["--testbeds", "DieselNet-Ch1", "--fleets", "1,3",
         "--policies", POLICIES], (1, 8)),
    # Every replay policy over fleets 1,2 on one testbed, traced: 12 points
    # on 24 threads run at once, each sharding its replay trips over two
    # workers.
    Row("replay_traced",
        ["--testbeds", "VanLAN", "--policies", POLICIES, "--fleets", "1,2",
         "--seeds", "1", "--trip-seconds", "20"] + TRACE, (1, 24)),
    # A traced live fleet point on each testbed and seed: four vehicles
    # over two trips, so many nodes' blocks fill and the part spools are
    # stitched by record copy.
    Row("live_traced",
        ["--workload", "cbr", "--policies", "ViFi", "--fleets", "4",
         "--trips", "2", "--trip-seconds", "20"] + TRACE, (1, 4)),
    # Two-vehicle fleets; at 24 threads the 12 points run at once, each
    # sharding its trips over two workers. The points carry the
    # per-vehicle fairness columns.
    Row("fleet2", ["--fleets", "2", "--trip-seconds", "30"], (1, 4, 24),
        checks=[("has", "sweep.csv", "fairness_jain_delivery"),
                ("has", "sweep.json", '"veh_delivered"')]),
    # The synthesized catalog replayed through the trace_sets axis; the
    # points carry the trace_set column.
    Row("catalog",
        ["--workload", "cbr", "--policies", "ViFi",
         "--testbeds", "DieselNet-Ch1", "--fleets", "8",
         "--trace-sets", "replay-catalog"], (1, 8),
        checks=[("has", "sweep.csv", "trace_set"),
                ("has", "sweep.json", '"trace_set"')],
        prelude=CATALOG),
    # The coordination axis doubles each live point into a pab/coord twin
    # pair; at 8 threads the two points run at once on 4 workers each (the
    # coord twin also fits its predictor history first). Both twins ran.
    Row("coord",
        ["--workload", "cbr", "--policies", "ViFi", "--testbeds", "VanLAN",
         "--fleets", "2", "--trip-seconds", "30",
         "--coordination", "pab,coord"], (1, 4, 8),
        checks=[("has", "sweep.json", '"coordination": "coord"'),
                ("has", "sweep.json", '"coordination": "pab"')]),
    # A traced two-vehicle live point: at 4 threads it runs its trips on a
    # pool of 4 and stitches their part spools in trip order. Its exports
    # are valid JSON/JSONL, and the registered metric is a result column.
    Row("tripscope",
        ["--workload", "cbr", "--policies", "ViFi",
         "--testbeds", "DieselNet-Ch1", "--fleets", "2",
         "--trip-seconds", "30", "--metrics", "mac.transmissions"] + TRACE,
        (1, 4),
        checks=[("json", "trace/point_0000.trace.json"),
                ("json", "trace/point_0000.metrics.json"),
                ("jsonl", "trace/point_0000.jsonl"),
                ("has", "sweep.json", '"obs.mac.transmissions"')]),
    # A traced History replay point: the replay path's spool and exports.
    Row("history",
        ["--testbeds", "VanLAN", "--fleets", "2", "--workload", "replay",
         "--policies", "History", "--seeds", "1", "--trips", "3",
         "--trip-seconds", "30"] + TRACE, (1, 4),
        checks=[("jsonl", "trace/point_0000.jsonl")]),
    # A streamed V=64 culled fleet with the coord tier, so phase spans
    # exist: the Chrome export is valid JSON with span slices, and neither
    # export carries a truncation warning (the spool keeps every event).
    Row("v64_culled",
        ["--workload", "cbr", "--policies", "ViFi", "--testbeds", "VanLAN",
         "--fleets", "64", "--cull", "--trips", "1", "--seeds", "1",
         "--trip-seconds", "20", "--coordination", "coord",
         "--metrics", "mac.transmissions"] + TRACE, (1, 8),
        checks=[("json", "trace/point_0000.trace.json"),
                ("has", "trace/point_0000.trace.json", '"cat":"span"'),
                ("has", "trace/point_0000.trace.json",
                 '"name":"anchor_tenure"'),
                ("has", "trace/point_0000.trace.json", '"name":"phase:'),
                ("lacks", "trace/point_0000.trace.json", "ring dropped"),
                ("lacks", "trace/point_0000.jsonl", '"warning"')]),
]


class RowFailure(Exception):
    pass


def duplicate_legs(rows):
    """Messages for rows that repeat a name, or another row's (or their
    own) command line at the same thread count."""
    problems, names, legs = [], {}, {}
    for row in rows:
        if row.name in names:
            problems.append(f"two rows are named '{row.name}'")
        names[row.name] = row
        for t in row.threads:
            key = (repr(row.prelude), tuple(row.args), t)
            if key in legs:
                command = " ".join(["sweep", "--threads", str(t)] + row.args)
                problems.append(
                    f"rows '{legs[key]}' and '{row.name}' both run {command}")
            legs[key] = row.name
    return problems


def run(cmd, cwd, what):
    """Runs `cmd` in `cwd` and returns its stdout."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        tail = (proc.stdout + proc.stderr).decode(errors="replace")[-2000:]
        raise RowFailure(f"{what} exited {proc.returncode}:\n{tail}")
    return proc.stdout


def run_leg(build, row, threads, out):
    """Runs one row at one thread count into the new directory `out`."""
    os.makedirs(out)
    for step in row.prelude:
        run([os.path.join(build, step[0])] + step[1:], out, " ".join(step))
    sweep = [os.path.join(build, "sweep"), "--threads", str(threads)]
    run(sweep + row.args + ["--json", "sweep.json", "--csv", "sweep.csv"],
        out, f"sweep --threads {threads}")
    if "--trace" not in row.args:
        return
    trace = os.path.join(out, TRACE[1])
    spools = sorted(f for f in os.listdir(trace) if f.endswith(".spool"))
    if not spools:
        raise RowFailure(f"--threads {threads} wrote no spool")
    tripscope = os.path.join(build, "tripscope")
    for spool in spools:
        stem = spool[:-len(".spool")]
        run([tripscope, "export", spool], trace, f"tripscope export {spool}")
        for suffix, extra in ((".query.txt", []), (".spans.txt", ["--spans"])):
            text = run([tripscope, "query", spool] + extra, trace,
                       f"tripscope query {spool} {' '.join(extra)}")
            with open(os.path.join(trace, stem + suffix), "wb") as f:
                f.write(text)


def files_under(root):
    out = set()
    for dirpath, _, files in os.walk(root):
        for f in files:
            out.add(os.path.relpath(os.path.join(dirpath, f), root))
    return out


def compare(base, other, base_label, other_label):
    """Raises on the first file (in path order) that differs or exists on
    one side only."""
    a, b = files_under(base), files_under(other)
    for path in sorted(a | b):
        if path not in b:
            raise RowFailure(f"{path} written at {base_label} only")
        if path not in a:
            raise RowFailure(f"{path} written at {other_label} only")
        if not filecmp.cmp(os.path.join(base, path),
                           os.path.join(other, path), shallow=False):
            raise RowFailure(
                f"{path} differs between {base_label} and {other_label}")


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def validate_json(text):
    """Parses one JSON document without keeping it: objects become None and
    numbers their length, so the 110 MB V=64 export validates in under half
    of json.loads' time and in flat memory. NaN and Infinity fail."""
    json.loads(text, object_pairs_hook=lambda pairs: None, parse_float=len,
               parse_int=len, parse_constant=reject_constant)


def check_contents(out, checks):
    """Runs a row's content checks, reading each file once."""
    data = {}
    for check in checks:
        kind, path = check[0], check[1]
        try:
            if path not in data:
                with open(os.path.join(out, path), "rb") as f:
                    data[path] = f.read()
            text = data[path]
            if kind == "json":
                validate_json(text)
            elif kind == "jsonl":
                lines = text.splitlines()
                if not lines:
                    raise ValueError("no lines")
                for line in lines:
                    validate_json(line)
            elif (check[2].encode() in text) != (kind == "has"):
                raise ValueError(f"{'has no' if kind == 'has' else 'has'} "
                                 f"{check[2]!r}")
        except (OSError, ValueError) as e:
            raise RowFailure(f"{path}: {e}") from e


def run_row(build, row, root, against):
    base = os.path.join(root, row.name, str(row.threads[0]))
    base_label = f"--threads {row.threads[0]}"
    run_leg(build, row, row.threads[0], base)
    for t in row.threads[1:]:
        out = os.path.join(root, row.name, str(t))
        run_leg(build, row, t, out)
        compare(base, out, base_label, f"--threads {t}")
    check_contents(base, row.checks)
    if against:
        out = os.path.join(root, row.name, "parent")
        run_leg(against, row, row.threads[0], out)
        compare(base, out, "this build", against)


def main(argv):
    parser = argparse.ArgumentParser(
        description="Run every sweep leg at each of its thread counts and "
                    "compare the outputs byte for byte.")
    parser.add_argument("build", help="build directory holding sweep, "
                        "tripscope and traceforge")
    parser.add_argument("--against", metavar="PARENT_BUILD",
                        help="also run each row's first thread count with "
                        "PARENT_BUILD's binaries and compare")
    args = parser.parse_args(argv)
    problems = duplicate_legs(ROWS)
    if problems:
        for p in problems:
            print(f"samebytes: {p}", file=sys.stderr)
        return 1
    build = os.path.abspath(args.build)
    against = os.path.abspath(args.against) if args.against else None
    for d in filter(None, (build, against)):
        for tool in ("sweep", "tripscope", "traceforge"):
            if not os.access(os.path.join(d, tool), os.X_OK):
                parser.error(f"{d} has no {tool} binary")
    root = os.path.join(build, "samebytes")
    shutil.rmtree(root, ignore_errors=True)
    failed = 0
    start = time.monotonic()
    for row in ROWS:
        row_start = time.monotonic()
        try:
            run_row(build, row, root, against)
            status = "ok"
        except RowFailure as e:
            failed += 1
            status = f"FAILED: {e}"
        threads = ",".join(str(t) for t in row.threads)
        print(f"{row.name:<17} --threads {threads:<8} "
              f"{time.monotonic() - row_start:6.2f} s  {status}", flush=True)
    print(f"samebytes: {len(ROWS) - failed}/{len(ROWS)} rows same bytes"
          f"{' as ' + against if against else ''} "
          f"in {time.monotonic() - start:.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
