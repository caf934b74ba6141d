#!/usr/bin/env python3
"""Benchmark entry point: builds the `perfbench` binary, runs one workload, checks every
simulated result against the serial reference and prints the metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference [W ...]

Run from the repository root. The binary is built from source into
$CARGO_TARGET_DIR (default .bench_build). The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it is the full record (provenance, failures, fidelity). Build output
and diagnostics go to standard error.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep __pycache__ out of the checkout

import metrics  # noqa: E402
import selftest  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
BINARY_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *generator,
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def records(binary, *args):
    """Runs the binary and parses its JSON-lines output."""
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE, text=True,
                          timeout=BINARY_TIMEOUT_S, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, workload + ".json")


def write_reference(binary, workloads):
    """Runs every point at --shards 1 and checks in its semantic fields."""
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for w in workloads:
        points = records(binary, "points", w)
        results = records(binary, "reference", w)
        for p, r in zip(points, results):
            if not r["boot_ok"] or r["timed_out"] != p["horizon_capped"]:
                raise SystemExit("reference %s/%s: boot_ok %s timed_out %s"
                                 % (w, p["label"], r["boot_ok"], r["timed_out"]))
        doc = {"workload": w, "shards": 1,
               "points": [metrics.semantic(r) for r in results]}
        with open(reference_path(w), "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        log("wrote", reference_path(w))


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the code
    where no git metadata is available."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def steal_seconds():
    """Seconds the hypervisor ran something else while one of this guest's
    vCPUs wanted to run, summed over vCPUs (`steal` in /proc/stat); None
    where the kernel does not report it."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def measure(binary, info, args):
    load_before = os.getloadavg()[0]
    steal_before = steal_seconds()
    points = records(binary, "points", args.workload, "--seed", str(args.seed))
    with open(reference_path(args.workload)) as f:
        reference = json.load(f)["points"]
    if len(reference) != len(points):
        raise SystemExit("reference has %d points, workload %d" % (len(reference), len(points)))
    recs = records(binary, "run", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace))

    results = [r for r in recs if r["kind"] == "result"]
    setups = [r for r in recs if r["kind"] == "setup"]
    failures = []
    failed = 0
    for r in results:
        problems = metrics.check_result(r, points[r["point"]], reference[r["point"]])
        failed += bool(problems)
        failures += ["%s: %s" % (r["label"], p) for p in problems]
    for s in setups:
        if not s["boot_ok"]:
            failed += 1
            failures.append("%s: set-up boot failed" % points[s["point"]]["label"])
    attempted = len(results) + len(setups)

    # Untimed points only feed the reference check and the fidelity report.
    untraced = [r for r in results if not r["traced"] and points[r["point"]]["timed"]]
    if args.trace:
        traced = [r for r in results if r["traced"]]
        prims = {r["name"]: r["ns"] for r in recs if r["kind"] == "primitive"}
        values = metrics.per_layer(untraced, traced, setups, prims)
    else:
        rss = next(r["peak_rss_mb"] for r in recs if r["kind"] == "rss")
        factor = metrics.host_factor([r["seconds"] for r in recs if r["kind"] == "probe"])
        values = metrics.end_to_end(points, untraced, setups, rss, factor)
        unscaled = metrics.end_to_end(points, untraced, setups, rss)

    record = {
        "kind": "record", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": {
            "commit": commit(), "source_sha256": source_digest(),
            "build_type": info["build_type"], "compiler": info["compiler"],
            "nproc": os.cpu_count(), "load1_before": load_before,
            "load1_after": os.getloadavg()[0],
            "steal_s": None if steal_before is None else steal_seconds() - steal_before,
        },
        "fail_share": failed / attempted,
        "failures": failures[:20],
        "samples": {"results": len(results),
                    "setup_rounds": len({s["rep"] for s in setups})},
    }
    if not args.trace:
        record["host_factor"] = factor
        record["unscaled"] = {k: v for k, (v, _) in unscaled.items()}
    if args.workload == "xbar-fig6":
        by_label = {r["label"]: r for r in results if not r["traced"]}
        record["fidelity"] = metrics.fig6_fidelity(by_label)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", nargs="*", metavar="WORKLOAD")
    args = ap.parse_args()
    if args.write_reference is None and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    info = records(binary, "info")[0]
    if not info["release"] or info["sanitized"]:
        raise SystemExit("refusing to record numbers from a %s%s build"
                         % (info["build_type"], " sanitizer" if info["sanitized"] else ""))
    if args.write_reference is not None:
        write_reference(binary, args.write_reference or workloads)
        return
    if not selftest.run(binary):
        raise SystemExit("benchmark self-tests failed")
    measure(binary, info, args)


if __name__ == "__main__":
    main()
