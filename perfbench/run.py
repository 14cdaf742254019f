"""Seeded benchmark of psdrec's three paper protocols.

    python3 perfbench/run.py --workload cv-100k --seed 1 --seconds 20 --trace 0

Run from the root of a psdrec checkout; psdrec is imported from ./src.
Workloads:

  cv-100k       5-fold `evaluate` on an ML-100K-shaped file (D=2, mae mode)
  topn-1m       holdout `topn` recall@20 on an ML-1M-shaped file (D=3,
                recall mode), then a model file round trip
  hierarchy-1m  `hierarchy` by the simple and sdp methods on a planted D=3
                model and ML-1M-shaped ratings and genres

Set-up (import of psdrec in a fresh interpreter, input generation from the
seed, a warm-up pass on tiny inputs) runs at least SETUP_REPEATS times, and
more while SETUP_MIN_S have not elapsed; setup_s is the median repeat. Then
whole protocol passes run until --seconds have elapsed, at least one;
times are medians over passes and every pass must reproduce the first
pass's result numbers. An untraced pass runs under a HostClock, which gives
its time at a fixed reference speed of the host (norm_wall_s) beside the raw
one. With --trace 1, traced and untraced passes alternate: the traced ones
give per-layer metrics and the pair gives the tracing overhead.

stdout carries a readable summary, then a JSON run record, then, as the last
line, {"correct", "attempted", "failed", "metrics"}. --cli-check instead
runs `psdrec evaluate|topn|hierarchy` on the same generated files and
compares what they print with the library-driven protocol.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostclock import HostClock  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
SETUP_MIN_S = 6.0
SETUP_MAX_REPEATS = 9
MODULES = ("numpy", "psdrec.data", "psdrec.metrics", "psdrec.models", "psdrec.tags", "psdrec.train")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("cv-100k", "topn-1m", "hierarchy-1m"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cli-check", action="store_true", help="compare with the psdrec CLI instead")
    return p.parse_args(argv)


def _commit():
    """HEAD of the checkout, read without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _blas_versions():
    import numpy
    import scipy

    out = {}
    for name, mod in (("numpy", numpy), ("scipy", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[name] = f"{blas['name']} {blas['version']}"
        except (KeyError, TypeError, ValueError):
            out[name] = None
    return out


def _declared_units():
    """Metric name -> unit, end-to-end and per-layer, as BENCHMARK.json
    declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


class Workload:
    """Inputs and the protocol of one workload."""

    def __init__(self, name):
        import gen
        import protocols

        self.name = name
        self.layout = "ml100k" if name == "cv-100k" else "ml1m"
        self.hierarchy = name == "hierarchy-1m"
        self.gen = gen
        self.protocols = protocols
        # The warm-up pass touches every code path on tiny inputs; the sdp
        # test sees two tags that are not contained, so it stays cheap.
        self.warm_settings = protocols.Settings(
            folds=2, sweeps=2, holdout=0.2, exclude=tuple(g for g in gen.GENRES if g not in ("Action", "Comedy"))
        )

    def generate(self, seed, out_dir):
        """Write the inputs and the warm-up inputs from a separate process;
        returns both."""
        cmd = [sys.executable, str(HERE / "gen.py"), "--seed", str(seed), "--layout", self.layout,
               "--out", str(out_dir)]
        if self.hierarchy:
            cmd.append("--hierarchy")
        subprocess.run(cmd, check=True)
        return self.gen.Inputs.load(out_dir / "inputs"), self.gen.Inputs.load(out_dir / "warm")

    def run(self, inputs, ops, work_dir, settings=None):
        settings = settings or self.protocols.FULL
        if self.name == "cv-100k":
            return self.protocols.cross_validate(inputs, ops, settings)
        if self.name == "topn-1m":
            return self.protocols.holdout_topn(inputs, ops, work_dir, settings)
        return self.protocols.hierarchy(inputs, ops, settings)


def time_import():
    """Seconds a fresh interpreter takes to import psdrec's modules."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    tic = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(MODULES)], check=True, env=env)
    return time.perf_counter() - tic


def setup(workload, seed, work_dir):
    """Set up at least SETUP_REPEATS times and until SETUP_MIN_S elapse:
    import, generate the inputs (checking they come out byte-identical) and
    warm up. Returns (inputs, median seconds, problems)."""
    problems = []
    times, digests = [], set()
    inputs = None
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or (
        time.perf_counter() - start < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS
    ):
        shutil.rmtree(work_dir, ignore_errors=True)
        tic = time.perf_counter()
        time_import()
        inputs, warm = workload.generate(seed, work_dir)
        ops = workload.protocols.Ops()
        workload.run(warm, ops, work_dir / "warm", workload.warm_settings)
        times.append(time.perf_counter() - tic)
        if ops.failed:
            problems.append(f"warm-up failed: {ops.notes}")
        digests.add(inputs.digest())
    if len(digests) != 1:
        problems.append("the same seed gave different input files")
    problems += input_problems(inputs, workload.gen.SIGMA_USER)
    return inputs, _median(times), problems


def input_problems(inputs, sigma_user):
    """Stated shape and the lognormal skew of user activity."""
    import numpy as np

    problems = []
    counts = inputs.user_counts
    if (len(counts), int(counts.sum())) != (inputs.shape[0], inputs.shape[2]):
        problems.append("user counts do not match the stated shape")
    log_sd = float(np.std(np.log(counts)))
    # The floor of 20 ratings and the per-user cap squeeze the spread a bit.
    if not 0.6 * sigma_user <= log_sd <= 1.1 * sigma_user:
        problems.append(f"user activity log-sd {log_sd:.3f} is off the stated {sigma_user}")
    if np.mean(counts) <= np.median(counts):
        problems.append("user activity is not right-skewed")
    return problems


def measure(workload, inputs, seconds, trace, work_dir):
    """Protocol passes until `seconds` elapse; with trace, traced and
    untraced passes alternate (untraced first)."""
    passes = []
    reference = None
    ops_total = workload.protocols.Ops()
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        ops = workload.protocols.Ops()
        tracer = None
        if traced:
            import spans as tracing

            tracer = tracing.Tracer()
            with tracer.installed(), tracer.span("pass"):
                tic = time.perf_counter()
                results = workload.run(inputs, ops, work_dir)
                wall = time.perf_counter() - tic
            scaled = slowdown = None
        else:
            with HostClock() as clock:
                results = workload.run(inputs, ops, work_dir)
            wall, scaled, slowdown = clock.raw_s, clock.scaled_s, clock.slowdown
        if reference is None:
            reference = results
        else:
            for key, value in results.items():
                if key != "train_s":
                    ops.check(value == reference[key], f"{key} differs from the first pass")
        ops_total.attempted += ops.attempted
        ops_total.failed += ops.failed
        ops_total.notes += ops.notes
        passes.append({"traced": traced, "wall_s": wall, "norm_wall_s": scaled, "slowdown": slowdown,
                       "results": results, "tracer": tracer})
        elapsed = time.perf_counter() - start
        typical = _median([p["wall_s"] for p in passes])
        need_pair = trace and len(passes) < 2
        if not need_pair and elapsed + typical > seconds:
            return passes, reference, ops_total


def per_layer(passes):
    import spans as tracing

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    problems = []
    rows = []
    for p in traced:
        problems += p["tracer"].check()
        rows.append(tracing.layer_metrics(p["tracer"]))
    layers = {k: _median([r[k] for r in rows]) for k in rows[0]}
    layers["trace_overhead"] = (
        _median([p["wall_s"] for p in traced]) / _median([p["wall_s"] for p in plain]) - 1.0
    )
    return layers, problems, traced[0]["tracer"]


def self_time_table(tracer):
    """Total and self seconds per span name, largest self time first."""
    own = tracer.self_times()
    table = {}
    for s in tracer.spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[id(s)]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))


def _clean(x):
    """JSON-safe number: non-finite values become null."""
    return x if isinstance(x, (int, float)) and x == x and abs(x) != float("inf") else None


def main(argv=None):
    args = _parse_args(argv)
    if not (ROOT / "src" / "psdrec" / "__init__.py").is_file():
        print("error: run from the root of a psdrec checkout (no src/psdrec here)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    import scipy

    e2e_units, layer_units = _declared_units()

    workload = Workload(args.workload)
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, setup_s, problems = setup(workload, args.seed, work_dir)
        if args.cli_check:
            import clicheck

            return clicheck.main(workload, inputs, work_dir)
        passes, results, ops = measure(workload, inputs, args.seconds, args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    untraced = [p for p in passes if not p["traced"]]
    e2e = {
        "setup_s": setup_s,
        "norm_wall_s": _median([p["norm_wall_s"] for p in untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mae": results["mae"],
        "rmse": results["rmse"],
        "recall_at_20": results["recall_at_20"],
    }
    extra = {
        "wall_s": _median([p["wall_s"] for p in untraced]),
        "slowdown": _median([p["slowdown"] for p in untraced]),
        "train_s": _median([p["results"]["train_s"] for p in untraced])
        if "train_s" in results
        else None,
        "final_objective": results.get("final_objective"),
        "failed_ops_share": ops.failed / max(ops.attempted, 1),
        "edges_simple": len(results.get("edges_simple", ())),
        "edges_sdp": len(results.get("edges_sdp", ())),
    }
    layers = table = None
    if args.trace:
        layers, trace_problems, first = per_layer(passes)
        problems += trace_problems
        layers["train.final_objective"] = results.get("final_objective") or 0.0
        layers["tags.edges_simple"] = extra["edges_simple"]
        layers["tags.edges_sdp"] = extra["edges_sdp"]
        layers["pass.wall_s"] = extra["wall_s"]
        layers["host.slowdown"] = extra["slowdown"]
        table = self_time_table(first)
    for p in problems:
        ops.check(False, p)
    for name in e2e_units:
        ops.check(_clean(e2e.get(name)) is not None, f"{name} is not finite")
    for name in layer_units if args.trace else ():
        ops.check(name in layers, f"per-layer metric {name} was not measured")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{ops.attempted} operations, {ops.failed} failed")
    for name, unit in e2e_units.items():
        print(f"  {name:<18} {e2e[name]:.6g} {unit}")
    for name, unit in (("wall_s", "s"), ("slowdown", "ratio"), ("train_s", "s"), ("final_objective", ""),
                       ("failed_ops_share", "share"),
                       ("edges_simple", "count"), ("edges_sdp", "count")):
        if extra[name] is not None:
            print(f"  {name:<18} {extra[name]:.6g} {unit}")
    for note in ops.notes:
        print(f"  FAILED: {note}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_versions(),
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "norm_wall_s": p["norm_wall_s"],
             "slowdown": p["slowdown"], "train_s": p["results"].get("train_s")}
            for p in passes
        ],
        "end_to_end": {k: _clean(v) for k, v in e2e.items()},
        "results": {k: _clean(v) for k, v in extra.items()},
        "edges_sdp": results.get("edges_sdp"),
        "per_layer": layers,
        "self_times": table,
    }
    print("record " + json.dumps(record, default=_clean))

    if args.trace:
        metrics = {k: {"value": _clean(layers.get(k)), "unit": u} for k, u in layer_units.items()}
    else:
        metrics = {k: {"value": _clean(e2e[k]), "unit": u} for k, u in e2e_units.items()}
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
