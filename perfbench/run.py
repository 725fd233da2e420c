"""Time-to-verdict benchmark for grasspace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs proof jobs of one workload (see ``workloads.py``) for S seconds, checks
every verdict against expected values, and prints the metrics by name and
unit.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, from untraced jobs,
with every time scaled to a nominal host speed by a reference loop timed
next to it (see ``NOMINAL_REFERENCE_S``).  With ``--trace 1`` each job runs
untraced and then traced on the same inputs, and the metrics are the
per-layer ones of the traced jobs; the spans of the first traced job are
written to ``perfbench/out/``.

The exit code is 0 when every verdict matched, 1 when one did not, and 2
when the benchmark cannot run (no ``src/grasspace`` in the checkout, or
``python -O``, which strips the program's assert-guarded checks).
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("instances_per_s", "1/s"),
    ("instance_p50_s", "s"),
    ("peak_rss_mib", "MiB"),
)
AUT_COUNTS = ("grassmann.search_nodes", "grassmann.generators", "grassmann.base_len")
SETUP_SAMPLES = 9
# The host's speed drifts by a quarter or more within a minute, so times are
# reported at a nominal speed: each is scaled by NOMINAL_REFERENCE_S over the
# time the reference work took next to it.  NOMINAL_REFERENCE_S is about the
# reference's median on the 2-core VM where the baseline was measured.
NOMINAL_REFERENCE_S = 0.028
REFERENCE_REPEATS = 5
# A fresh interpreter's set-up: imports, then the GF(q) tables it needs.
SETUP_PROBE = """\
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import grasspace
for q in sys.argv[2:]:
    grasspace.field_make(int(q))
print(time.perf_counter() - started)
"""


def per_layer_metrics():
    """Names and units of the ``--trace 1`` metrics, in report order."""
    metrics = []
    for name in tracing.SPAN_NAMES:
        metrics += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
    metrics += [(name, "count") for name in AUT_COUNTS]
    metrics.append(("memory.retained_spaces_per_job", "count"))
    metrics.append(("trace.overhead_ratio", "ratio"))
    return metrics


def reference_work():
    """Fixed pure-Python work, independent of grasspace: dictionary updates
    keyed by small tuples, like much of the program's inner loops."""
    table = {}
    for i in range(100_000):
        key = (i % 31, i % 29)
        table[key] = table.get(key, 0) + 1
    return len(table)


def reference_s():
    """Median time of the reference work: the host's speed right now."""
    samples = []
    for _ in range(REFERENCE_REPEATS):
        started = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def measure_setup(field_orders):
    """Median set-up time of fresh interpreters at nominal speed, after one
    warm-up that leaves the bytecode caches written."""
    command = [sys.executable, "-c", SETUP_PROBE, str(SRC), *map(str, field_orders)]
    subprocess.run(command, capture_output=True, check=True, timeout=60)
    samples = []
    reference = reference_s()
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(command, capture_output=True, text=True, check=True, timeout=60)
        after = reference_s()
        samples.append(float(done.stdout) * 2 * NOMINAL_REFERENCE_S / (reference + after))
        reference = after
    return statistics.median(samples)


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_job(job, base, tracer=None):
    """One job from a collected heap; returns (wall seconds, JobResult or None)."""
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    started = time.perf_counter()
    try:
        result = job(base)
    except Exception:
        traceback.print_exc()
        result = None
    finally:
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    return wall, result


def layer_row(tracer, result):
    """Per-layer figures of one traced job."""
    total, own = tracer.layer_times()
    row = {}
    for name in tracing.SPAN_NAMES:
        row[f"{name}.calls"] = tracer.calls[name]
        row[f"{name}.total_s"] = total[name]
        row[f"{name}.self_s"] = own[name]
    reports = result.aut_reports
    row.update(zip(AUT_COUNTS, (
        sum(r.nodes_explored for r in reports),
        sum(len(r.generators) for r in reports),
        sum(len(r.base) for r in reports),
    )))
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("error: python -O strips the program's checks; run without -O", file=sys.stderr)
        return 2
    if not (SRC / "grasspace" / "__init__.py").is_file():
        print(f"error: no grasspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grasspace
    import workloads

    if Path(grasspace.__file__).resolve().parent != SRC / "grasspace":
        print(f"error: grasspace imported from {grasspace.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup(workload.field_orders)
    for q in workload.field_orders:
        grasspace.field_make(q)

    rng = random.Random(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    walls, scaled_walls, traced_walls, instance_s, job_p50s = [], [], [], [], []
    layer_rows, problems, space_refs, references = [], [], [], []
    first_spans = peak_rss_mib = None
    attempted = failed = 0
    started = time.perf_counter()
    references.append(reference_s())
    while attempted == 0 or time.perf_counter() - started < args.seconds:
        base = rng.randrange(2**32)
        wall, result = run_job(workload.job, base)
        references.append(reference_s())
        scale = 2 * NOMINAL_REFERENCE_S / (references[-2] + references[-1])
        attempted += 1
        walls.append(wall)
        scaled_walls.append(wall * scale)
        if peak_rss_mib is None:
            # Later jobs are left out: spaces of finished jobs stay reachable
            # (see memory.retained_spaces_per_job), so the peak would grow
            # with the number of jobs that fit in the run.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if result is None:
            problems.append(f"job at base seed {base} raised")
        else:
            instance_s += result.instance_s
            job_p50s.append(statistics.median(result.instance_s) * scale)
            problems += result.problems
            space_refs += result.spaces
        if tracer is not None and result is not None:
            traced_wall, traced = run_job(workload.job, base, tracer)
            attempted += 1
            traced_walls.append(traced_wall)
            if traced is None or traced.summary != result.summary:
                problems.append(f"traced verdicts differ from untraced ones at base seed {base}")
                failed += 1
                break
            space_refs += traced.spaces
            layer_rows.append(layer_row(tracer, traced))
            if first_spans is None:
                first_spans = tracer.export_spans()
        if result is None or not result.ok:
            failed += 1
            break

    grasspace.build_space.cache_clear()
    gc.collect()
    retained = sum(ref() is not None for ref in space_refs) / attempted
    for problem in problems:
        print(f"MISMATCH {problem}")
    instances = len(instance_s)
    print(f"workload {args.workload} seed {args.seed}: {attempted} jobs, {instances} instances, "
          f"{failed} failed (fail_ratio {failed / attempted:.4f})")
    print(f"spaces still reachable after the run: {retained:.6g} per job")
    print(f"unscaled verdict_s {statistics.median(walls):.6g} s; reference work "
          f"{statistics.median(references):.6g} s against {NOMINAL_REFERENCE_S} s nominal")
    if instances >= 100:
        p90 = statistics.quantiles(instance_s, n=10)[-1]
        print(f"unscaled instance_p90_s {p90:.6g} s over {instances} instances")

    if args.trace:
        metrics = {}
        for name, unit in per_layer_metrics():
            if name == "trace.overhead_ratio":
                value = (statistics.median(traced_walls) / statistics.median(walls)
                         if traced_walls else 0.0)
            elif name == "memory.retained_spaces_per_job":
                value = retained
            elif not layer_rows:
                value = 0
            elif name.endswith(".calls") or name in AUT_COUNTS:
                # The first job's inputs depend on the seed alone, so its
                # counts repeat exactly; later jobs redraw some matrices.
                value = layer_rows[0][name]
            else:
                value = statistics.median(row[name] for row in layer_rows)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "setup_s": setup_s,
            "verdict_s": statistics.median(scaled_walls),
            "instances_per_s": instances / sum(scaled_walls),
            # The median of per-job medians: pooled, the median of a job
            # with few instances of very different sizes (groups-pg32) would
            # fall between two of them and swing with the run.
            "instance_p50_s": statistics.median(job_p50s) if job_p50s else 0.0,
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": attempted,
        "instances": instances,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "provenance": provenance,
            "span_names": tracing.SPAN_NAMES,
            "span_fields": ["name index", "start us", "end us", "parent index"],
            "first_job_spans": first_spans or [],
            "jobs": layer_rows,
        }))
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
