"""One pass over a workload's maps in a fresh interpreter.

Reads a job from stdin as JSON: {"src", "maps": [[name, text], ...], "seed",
"budget", "trace"}.  Analyses the maps one after another, as
`fiberbound analyze --json` does (parse, run_analysis, to_json), and writes
per-map times, the JSON texts or errors, the pass's wall and CPU time, the
peak resident memory and, when traced, the per-layer totals to stdout.

A fresh interpreter per pass means no map is analysed twice in one process,
so a cache kept across calls shows only as a user of the CLI would see it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    job = json.load(sys.stdin)
    src = Path(job["src"])
    sys.path.insert(0, str(src))
    import fiberbound
    from fiberbound import analysis, mapfile
    if Path(fiberbound.__file__).resolve().parent != (src / "fiberbound").resolve():
        raise SystemExit(f"imported fiberbound from {fiberbound.__file__}")

    tracer = None
    parse, run = mapfile.parse_map_file, analysis.run_analysis
    if job["trace"]:
        from trace_layers import Tracer
        tracer = Tracer()
        parse, run = tracer.install(fiberbound)

    seed, budget = job["seed"], job["budget"]
    results = []
    c0, t0 = time.process_time(), time.perf_counter()
    for name, text in job["maps"]:
        start = time.perf_counter()
        try:
            out = run(parse(text), seed=seed, budget=budget).to_json()
            err = None
        except Exception as exc:  # a failed analysis is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "seconds": time.perf_counter() - start,
                        "json": out, "error": err})
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"results": results, "wall_s": wall, "cpu_s": cpu,
               "rss_mb": rss_kb / 1024.0,
               "layers": tracer.totals() if tracer else None}, sys.stdout)


if __name__ == "__main__":
    main()
