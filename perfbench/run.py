"""qledger benchmark: four workloads timed end to end and per layer.

    python3 perfbench/run.py --workload charge --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every timed pass runs in a fresh worker
interpreter (``worker.py``) with BLAS threads pinned to 1, because every
CLI invocation a user makes starts cold; passes repeat until their times
add up to ``--seconds``.  Workloads (see ``workloads.py``):

  charge       example1 flat and oscillatory, example2 cases 1 and 2,
               through the CLI with --out and --svg
  oracle       the dissipative-mode oracle of example 1 at a large R
  fuzz         ``qledger audit --count 1000`` and 1000 ledger draws
  ledger-wide  ``qledger ledger`` on processes of dimension 16, 32 and 64

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
``SETUP_PROBES`` fresh interpreters that import qledger and build the CLI
parser, run in batches between the passes),
``run_s`` (median wall seconds of one pass) and ``peak_rss_mb`` (median
peak resident memory of a worker).  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``spans.py`` from the
traced pass with the median run time, plus the tracing overhead.  It also
checks that the exact counters repeat between traced passes.

Earlier stdout lines carry the environment and run details; the last line
is the result object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed / attempted`` is the failure ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 30          # set-up probes per run: a batch before each pass, the rest at the end
SETUP_BATCH = 5
MIN_PASSES = 3
MIN_TRACED = 2
RUN_LIMIT_S = 170.0          # a run, set-up included, ends well within 180 s

SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import qledger.cli\n"
    "qledger.cli._build_parser()\n"
    "t1 = time.perf_counter()\n"
    "assert qledger.__file__.startswith(sys.argv[1]), qledger.__file__\n"
    "print(repr(t1 - t0))\n"
)


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    env.update(dict.fromkeys(BLAS_VARS, "1"))
    return env


def _environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: "1" for k in BLAS_VARS},
    }


def _setup_time(env) -> float:
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, src], env={**env, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def _one_pass(workdir: Path, inputs: Path, index: int, trace: int, env, deadline) -> tuple[dict, Path]:
    passdir = workdir / f"pass{index}"
    passdir.mkdir()
    result = passdir / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
         "--pass-dir", str(passdir), "--trace", str(trace), "--result", str(result)],
        env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter()), cwd=ROOT,
    )
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text()), passdir


def _run(workload: str, seed: int, seconds: float, trace: int, workdir: Path) -> tuple[dict, dict]:
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = _env()
    doc = workloads.prepare(workload, seed, workdir)
    inputs = workdir / "inputs.json"
    inputs.write_text(json.dumps(doc))
    detail: dict = {"workload": workload, "seed": seed, "items_per_pass": workloads.items(doc)}
    attempted = failed = 0
    failures: list = []
    passes = {0: [], 1: []}     # trace flag -> results
    traced = []                 # (run_s, per-layer metrics) of traced passes

    setup = []                  # set-up probes (untraced runs only)
    measured = 0.0              # seconds spent in passes
    index = 0
    while True:
        mode = index % 2 if trace else 0
        if not trace and len(setup) < SETUP_PROBES:
            # spread over the run, so probes and passes see the same host phases
            setup += [_setup_time(env) for _ in range(SETUP_BATCH)]
        t_pass = time.perf_counter()
        res, passdir = _one_pass(workdir, inputs, index, mode, env, deadline)
        measured += time.perf_counter() - t_pass
        index += 1
        passes[mode].append(res)
        attempted += res["attempted"]
        failed += res["failed"]
        failures += res["failures"]
        if mode:
            traced.append((res["run_s"], spans.aggregate(passdir / "spans.json")))
        shutil.rmtree(passdir)
        done = measured >= seconds
        if trace:
            done = done and len(traced) >= MIN_TRACED and passes[0]
        else:
            done = done and len(passes[0]) >= MIN_PASSES
        if done:
            break

    while not trace and len(setup) < SETUP_PROBES:
        setup.append(_setup_time(env))

    correct = failed == 0
    detail["failures"] = failures[:5]
    detail["checks"] = res["info"]
    detail["fail_ratio"] = failed / attempted

    if trace:
        untraced = statistics.median(r["run_s"] for r in passes[0])
        # repeatable counters: every traced pass on this seed must agree exactly
        exact = [spans.exact_counts(t[1]) for t in traced]
        drift = {k: [c.get(k, 0) for c in exact] for k in set().union(*exact)
                 if any(c.get(k, 0) != exact[0].get(k, 0) for c in exact)}
        if drift:
            correct = False
            detail["count_drift"] = drift
        traced.sort(key=lambda t: t[0])
        run_s, layer = traced[(len(traced) - 1) // 2]
        layer = dict(layer)
        layer["trace.run_s"] = run_s
        layer["trace.untraced_run_s"] = untraced
        layer["trace.overhead_s"] = run_s - untraced
        detail["accounting"] = {
            "traced_run_s": run_s,
            "root_span_s": layer["root.s"],
            "layer_self_sum_s": sum(layer[f"{name}.self.s"] for name in spans.LAYERS),
            "unattributed_s": layer["unattributed.s"],
            "tracing_overhead_s": run_s - untraced,
        }
        detail["passes"] = {"traced": len(traced), "untraced": len(passes[0])}
        detail["eig_calls_by_dim"] = {k: v for k, v in layer.items() if k.startswith("qcore.eig.calls.d")}
        metrics = {k: {"value": layer.get(k, 0), "unit": u} for k, u in spans.PER_LAYER.items()}
    else:
        runs = [r["run_s"] for r in passes[0]]
        detail["passes"] = len(runs)
        detail["run_s_all"] = runs
        detail["setup_s_all"] = setup
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(runs), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in passes[0]), "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "qledger" / "__init__.py").is_file():
        print(f"no qledger source under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, detail = _run(args.workload, args.seed, args.seconds, args.trace, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("# env " + json.dumps(_environment()))
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
