"""fiberbound benchmark: what `fiberbound analyze --json` costs, per map.

    python3 bench/run.py --workload fixtures --seed 1 --seconds 15 --trace 0

For each map-file text of the workload, a pass does what the CLI does:
parse_map_file, run_analysis(seed=<workload seed>, budget=200), to_json().
Each pass runs in a fresh single-threaded interpreter, and maps run one after
another (a closed loop with one client).  Every answer is checked against
an oracle in workloads.py; a pass's JSON must also match the first pass's
byte for byte.

With --trace 0 the passes are untraced and the end-to-end metrics are
reported.  With --trace 1 one untraced pass is followed by two traced
passes, whose per-layer metrics must agree exactly in every count.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The workloads and the reason each was chosen are listed in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (benchmark-local module next to this file)

BUDGET = 200
# Import probes taken before each pass and after the last, so that set-up
# time is sampled across the whole run, as the passes are.
SETUP_SAMPLES_PER_POINT = 3

# Mean seconds of one untraced pass at the seed commit on a shared 2-vCPU
# x86 VM.  The pass count of a run is fixed from these and --seconds, so the
# pooled per-map sample, and with it the tail percentile, has the same size
# on every commit.
NOMINAL_PASS_S = {"fixtures": 5.0, "dense": 18.0, "planted": 14.0,
                  "rational": 2.2}
MIN_PASSES = 2        # at least 11 pooled samples for the tail percentile

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import fiberbound; "
                "print(time.perf_counter() - t)")


def run_pass(maps: list, seed: int, trace: bool) -> dict:
    job = {"src": str(SRC), "maps": maps, "seed": seed, "budget": BUDGET,
           "trace": trace}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True,
                          text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def import_seconds(samples: int) -> list:
    """Times to import fiberbound, each in a fresh interpreter."""
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True,
                              cwd=ROOT, timeout=60)
        out.append(float(proc.stdout))
    return out


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten samples
    above it."""
    s = sorted(samples)
    k = len(s) - 10
    return s[k - 1], 100.0 * k / len(s)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "fiberbound" / "__init__.py").is_file():
        print(f"no fiberbound package under {SRC}", file=sys.stderr)
        return 1

    cases = workloads.build(args.workload, args.seed, ROOT)
    maps = [[name, text] for name, text, _ in cases]
    if args.trace:
        plan = [False, True, True]
    else:
        passes = max(MIN_PASSES,
                     round(args.seconds / NOMINAL_PASS_S[args.workload]))
        plan = [False] * passes

    attempted = failed = 0
    first_json: dict = {}
    per_map: dict = {name: [] for name, _ in maps}
    untraced, traced = [], []
    # The first import probe warms the bytecode and file caches.
    setup = import_seconds(1 + SETUP_SAMPLES_PER_POINT)[1:]
    for traced_pass in plan:
        out = run_pass(maps, args.seed, traced_pass)
        (traced if traced_pass else untraced).append(out)
        for (name, _, expect), res in zip(cases, out["results"]):
            attempted += 1
            if not traced_pass:
                per_map[name].append(res["seconds"])
            reason = res["error"]
            if reason is None:
                reason = workloads.check(expect, json.loads(res["json"]))
            if reason is None and first_json.setdefault(name, res["json"]) \
                    != res["json"]:
                reason = "JSON differs from the first pass"
            if reason is not None:
                failed += 1
                print(f"FAIL {name}: {reason}")
        setup += import_seconds(SETUP_SAMPLES_PER_POINT)
    correct = failed == 0

    for name, times in per_map.items():
        print(f"map {name}: median {statistics.median(times):.6f} s "
              f"over {len(times)} runs")

    if args.trace:
        layers = [t["layers"] for t in traced]
        for key, value in layers[0].items():
            if not key.endswith("_s") and value != layers[1][key]:
                correct = False
                print(f"COUNT MISMATCH {key}: {value} vs {layers[1][key]}")
        metrics = {}
        for key in layers[0]:
            if key.endswith("_s"):
                metrics[key] = metric(statistics.median(l[key] for l in layers),
                                      "s")
            else:
                unit = "ratio" if key.endswith("_ratio") else "count"
                metrics[key] = metric(layers[0][key], unit)
        traced_pass = statistics.median(t["wall_s"] for t in traced)
        metrics["trace.pass_s"] = metric(traced_pass, "s")
        metrics["trace.overhead_s"] = metric(
            traced_pass - untraced[0]["wall_s"], "s")
        metrics["failed_ratio"] = metric(failed / attempted, "ratio")
    else:
        pooled = [t for times in per_map.values() for t in times]
        tail_value, tail_pct = tail(pooled)
        print(f"map_tail_s is the p{tail_pct:.1f} per-map latency of "
              f"{len(pooled)} samples; failed_ratio {failed}/{attempted}")
        metrics = {
            "pass_s": metric(statistics.median(u["wall_s"] for u in untraced),
                             "s"),
            "pass_cpu_s": metric(statistics.median(u["cpu_s"]
                                                   for u in untraced), "s"),
            "map_p50_s": metric(statistics.median(pooled), "s"),
            "map_tail_s": metric(tail_value, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(max(u["rss_mb"] for u in untraced), "MB"),
        }
    for key, m in metrics.items():
        print(f"{key} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
