#!/usr/bin/env python3
"""VifiBench runner: builds the harness from source and runs one workload.

    python3 benchmark/run.py --workload W [--seed N] [--seconds S]
                             [--trace 0|1] [--out RESULTS.jsonl]

Run from anywhere inside a checkout. It builds libvifi.a with the root
CMakeLists.txt (target `vifi`, Release) and compiles benchmark/vifibench.cc
against it with -O3 -DNDEBUG -std=c++20, all under the build directory
($CARGO_TARGET_DIR, default .bench_build). catalog_stream's input catalog is
generated by a separate `vifibench gen` process first. Every temporary file
lives in one directory under the build directory, removed on exit.

Prints every metric by name with its unit, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics. --trace 0
reports BENCHMARK.json's end_to_end metrics, --trace 1 its per_layer ones.
--out appends the full record (seed, exact counts, per-repetition samples)
as one JSON line, the input of benchmark/compare.py. Exits 1 when a check
failed and 2 on a usage or build error (then without a result line).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_cmd(args, timeout, env, capture=False):
    """Runs args in its own process group; on timeout or interruption the
    whole group is killed and waited for. Returns (returncode, stdout)."""
    proc = subprocess.Popen(
        [str(a) for a in args], env=env, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def build(build_dir, env):
    """Builds libvifi.a and the harness; returns the harness path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no CMakeLists.txt and src/ beside benchmark/; run "
                         "inside a full checkout of the repository")
    cmake_dir = build_dir / "cmake"
    configure = ["cmake", "-S", ROOT, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (cmake_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for args in (configure,
                 ["cmake", "--build", cmake_dir, "--target", "vifi",
                  "-j", jobs]):
        rc, _ = run_cmd(args, BUILD_TIMEOUT_S, env)
        if rc != 0:
            raise BenchError("build step failed: " + " ".join(map(str, args)))
    lib = cmake_dir / "libvifi.a"
    src = HERE / "vifibench.cc"
    exe = build_dir / "vifibench"
    if (not exe.exists() or
            exe.stat().st_mtime < max(src.stat().st_mtime,
                                      lib.stat().st_mtime)):
        tmp = build_dir / "vifibench.partial"
        compile_args = [env.get("CXX", "c++"), "-O3", "-DNDEBUG", "-std=c++20",
                        "-pthread", "-I", ROOT / "src", src, lib, "-o", tmp]
        rc, _ = run_cmd(compile_args, BUILD_TIMEOUT_S, env)
        if rc != 0:
            raise BenchError("harness compile failed")
        tmp.replace(exe)
    return exe


def check_names(result, spec, trace):
    """The harness must report exactly BENCHMARK.json's metrics and units."""
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if [m["name"] for m in want] != list(got):
        raise BenchError("harness metrics %s != BENCHMARK.json %s" %
                         (list(got), [m["name"] for m in want]))
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            raise BenchError("unit of %s: harness %s, BENCHMARK.json %s" %
                             (m["name"], got[m["name"]]["unit"], m["unit"]))


def main():
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        log("cannot read %s: %s" % (spec_path, e))
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this JSONL file")
    a = ap.parse_args()

    # Stop children and clean up on SIGTERM as on Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tmp_root = build_dir / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=str(tmp_root))
    work = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        exe = build(build_dir, env)
        run_args = [exe, "run", "--workload", a.workload, "--seed", a.seed,
                    "--seconds", a.seconds, "--trace", a.trace,
                    "--work", work / "run"]
        if a.workload == "catalog_stream":
            catalog = work / "catalog"
            rc, _ = run_cmd([exe, "gen", "--workload", a.workload,
                             "--seed", a.seed, "--out", catalog],
                            RUN_TIMEOUT_S, env)
            if rc != 0:
                raise BenchError("catalog generation failed")
            run_args += ["--catalog", catalog]
        rc, out = run_cmd(run_args, RUN_TIMEOUT_S, env, capture=True)
        if rc not in (0, 1) or not out.strip():
            raise BenchError("harness exited with status %d" % rc)
        result = json.loads(out.strip().splitlines()[-1])
        check_names(result, spec, a.trace)
    except (BenchError, subprocess.TimeoutExpired, ValueError, OSError) as e:
        log(str(e))
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    correct = rc == 0 and failed == 0 and not result["failures"]
    print("vifibench %s  seed %d  trace %d  seconds %g: %d repetitions, "
          "%d ops, %d failed" % (a.workload, a.seed, a.trace, a.seconds,
                                 result["repetitions"], attempted, failed))
    print("  %-26s %-20.10g %s" % ("fail_rate", failed / max(attempted, 1),
                                   "failed/attempted"))
    for name, m in result["metrics"].items():
        print("  %-26s %-20.10g %s" % (name, m["value"], m["unit"]))
    for f in result["failures"]:
        print("  FAILED: " + f)
    if a.out:
        record = {
            "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
            "trace": a.trace, "correct": correct, "attempted": attempted,
            "failed": failed,
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "counts": result["counts"], "samples": result["samples"],
        }
        with open(a.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
