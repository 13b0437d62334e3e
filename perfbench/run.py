"""diffspec benchmark: one workload, timed end to end, optionally traced.

    python3 perfbench/run.py --workload seq-spectrum --seed 1 --seconds 36 --trace 0

Run from a checkout of the repository; the library is imported from
../src relative to this file, without installing it.

A run starts WORKERS fresh worker processes one after another (never two
at once).  A worker times its own set-up (imports plus a warm-up pass at
tiny sizes), then runs full passes of the workload's job list back to
back (see measure) for its share of --seconds.  The passes of all
workers together stop near --seconds, so a worker that comes after the
run's time is spent only sets up.

run_s is the mean pass time of the run: its measured seconds over its
passes.  The host's speed switches between a fast and a slow level that
each last tens of seconds; a median of a few passes snaps to one level
or the other, while the mean weighs each level by the time the run spent
in it, which varies less from run to run (see README.md, Noise).  The
median, the slowest pass and the pass count are printed beside it.

--trace 0 reports the end-to-end metrics (run_s, setup_s, peak_rss_mb);
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics from the spans, plus tracing overhead and coverage.
Human-readable lines come first; the last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("seq-spectrum", "pointset-exact", "local-patterns")
WORKERS = 3

# (name, unit) of the metrics reported with --trace 1, in BENCHMARK.json order
PER_LAYER = [
    ("spectral.detect_atoms.s", "s"),
    ("spectral.detect_atoms.calls", "count"),
    ("spectral.intensity_evals", "count"),
    ("spectral.exp_terms", "count"),
    ("spectral.prefix_reuse", "ratio"),
    ("spectral.atoms", "count"),
    ("spectral.spectral_distribution.s", "s"),
    ("correlation.autocorr_symbolic.s", "s"),
    ("correlation.lag_pairs", "count"),
    ("correlation.autocorr_via_spectral_inner.s", "s"),
    ("correlation.autocorr_pointset.s", "s"),
    ("correlation.point_diffs", "count"),
    ("subshift.fixed_point_window.s", "s"),
    ("subshift.sites", "count"),
    ("subshift.build_frequency_table.s", "s"),
    ("subshift.words", "count"),
    ("factors.apply_block_map.s", "s"),
    ("factors.blocks", "count"),
    ("delone.enumerate_k_clusters.s", "s"),
    ("delone.locator_set.s", "s"),
    ("delone.cluster_frequency.s", "s"),
    ("delone.interior_points", "count"),
    ("delone.clusters", "count"),
    ("modelset.silver_mean_chain.s", "s"),
    ("modelset.intensity_at.s", "s"),
    ("modelset.exact_terms", "count"),
    ("modelset.verify_inflation_identity.s", "s"),
    ("cli.main.s", "s"),
    ("cli.bytes", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.span_cost_s", "s"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", type=int, default=None, metavar="FIRST_PASS",
                   help="run as a worker whose first pass has this index "
                        "(used internally)")
    p.add_argument("--budget", type=float, default=0.0, help=argparse.SUPPRESS)
    p.add_argument("--typical", type=float, default=0.0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure(wl, workloads, seconds: float, first_pass: int, trace: bool,
            budget: float, typical: float):
    """Full passes for about `seconds`, while the run has time left.

    `budget` is what is left of the run's --seconds after the passes of
    earlier workers, and `typical` the median of those passes (0 if none).
    A pass starts only if it should end within half a pass of both this
    worker's share and the budget, which keeps the pass count away from
    a tie and the run within --seconds plus half a pass.  The first
    pass of the run always starts.  With tracing, passes with an odd
    index in the run are traced.
    """
    from spans import Tracer

    tracer = Tracer(wl.name)
    checks = workloads.Checks()
    plain: list[float] = []
    traced: list[float] = []
    peak_mb = 0.0
    start = time.perf_counter()
    i = first_pass
    while True:
        times = plain + traced
        if times:
            typical = statistics.median(times)
        elapsed = time.perf_counter() - start
        mine_ok = not times or elapsed + typical <= seconds + typical / 2
        run_ok = not typical or elapsed + typical <= budget + typical / 2
        if not (mine_ok and run_ok):
            break
        tracer.enabled = trace and i % 2 == 1
        tracer.run_id = i
        gc.collect()
        t0 = time.perf_counter()
        wl.run_pass(tracer, checks, wl.FULL)
        (traced if tracer.enabled else plain).append(time.perf_counter() - t0)
        if i == first_pass:
            # set-up plus one pass is what one run of the job list costs;
            # later passes only add allocator fragmentation
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        i += 1
    return plain, traced, peak_mb, checks, tracer


def worker(args, t_start: float) -> dict:
    """Set up, measure, and return everything the parent aggregates."""
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        import spans
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.run_pass(spans.Tracer(args.workload), workloads.Checks(), wl.WARM)
        setup_s = time.perf_counter() - t_start
        plain, traced, peak_mb, checks, tracer = measure(
            wl, workloads, args.seconds, args.worker, bool(args.trace),
            args.budget, args.typical)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # not empty: another run still uses it
    return {
        "setup_s": setup_s,
        "plain": plain,
        "traced": traced,
        "peak_mb": peak_mb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "layers": spans.per_pass(tracer.spans),
        "env": workloads.environment(),
    }


def run_worker(args, first_pass: int, seconds: float, budget: float, typical: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(seconds),
         "--trace", str(args.trace), "--worker", str(first_pass),
         "--budget", repr(budget), "--typical", repr(typical)],
        capture_output=True, text=True, timeout=170,
    )
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise SystemExit(f"worker exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to an untraced one, on a no-op function.

    The measured traced-minus-untraced pass time is a few noisy pairs on
    long passes; this is the tracer's own cost, to multiply by spans per pass.
    """
    from spans import Tracer

    tracer = Tracer("span-cost")
    cost = []
    for enabled in (False, True):
        tracer.enabled = enabled
        t0 = time.perf_counter()
        for _ in range(calls):
            tracer.call("noop", int)
        cost.append(time.perf_counter() - t0)
    return max(cost[1] - cost[0], 0.0) / calls


def layer_metrics(layers: list[dict], plain: list[float], traced: list[float]) -> dict:
    """Medians over traced passes of every per-layer metric."""
    med = {k: statistics.median(p.get(k, 0.0) for p in layers)
           for k in set().union(*layers)}
    exp_terms = med.get("spectral.exp_terms", 0.0)
    med["spectral.prefix_reuse"] = (
        med.get("spectral.prefix_terms", 0.0) / exp_terms if exp_terms else 0.0
    )
    med["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(plain)
    med["trace.span_cost_s"] = med["trace.spans"] * span_cost()
    return {name: float(med.get(name, 0.0)) for name, _ in PER_LAYER}


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "diffspec" / "__init__.py").is_file():
        print(f"error: no diffspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.worker is not None:
        print(json.dumps(worker(args, t_start)))
        return 0

    results = []
    times: list[float] = []
    for k in range(WORKERS):
        budget = args.seconds - sum(times)
        typical = statistics.median(times) if times else 0.0
        res = run_worker(args, len(times), budget / (WORKERS - k), budget, typical)
        times += res["plain"] + res["traced"]
        results.append(res)
    plain = [t for r in results for t in r["plain"]]
    traced = [t for r in results for t in r["traced"]]
    setups = [r["setup_s"] for r in results]
    peak_mb = max(r["peak_mb"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} workers {WORKERS}")
    print(f"# env {json.dumps(results[0]['env'], sort_keys=True)}")
    # a run makes fewer than 11 passes, so no percentile has 10 samples
    # beyond it; the slowest pass stands in for the tail
    for label, key in (("run_s", "plain"), ("run_s traced", "traced")):
        ts = [t for r in results for t in r[key]]
        if ts:
            per_worker = " | ".join(", ".join(f"{t:.3f}" for t in r[key]) for r in results)
            print(f"{label:12s} {statistics.fmean(ts):.4f} s  mean of {len(ts)} "
                  f"passes, median {statistics.median(ts):.4f} s, max {max(ts):.4f} s"
                  f"  (by worker: {per_worker})")
    print(f"setup_s      {statistics.median(setups):.4f} s  median of {len(setups)} set-ups "
          f"({', '.join(f'{s:.3f}' for s in setups)})")
    peaks = ", ".join(f"{r['peak_mb']:.1f}" for r in results if r["peak_mb"])
    print(f"peak_rss_mb  {peak_mb:.1f} MB  largest over workers of the peak through "
          f"set-up and the first pass ({peaks})")
    print(f"fail_ratio   {failed / max(attempted, 1):g}  ({failed} failed of {attempted} checks)")
    for r in results:
        for line in r["failures"][:10]:
            print(f"check failed: {line}", file=sys.stderr)

    if args.trace:
        if not (plain and traced):
            raise SystemExit("a traced run needs an untraced and a traced pass; "
                             "raise --seconds")
        layer = layer_metrics([p for r in results for p in r["layers"]], plain, traced)
        for name, unit in PER_LAYER:
            print(f"{name:42s} {layer[name]:.6g} {unit}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {
            "run_s": {"value": statistics.fmean(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
