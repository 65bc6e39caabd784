"""One pass of one workload in a fresh interpreter.

Run by ``run.py``, never by hand:

    python3 perfbench/worker.py --inputs DOC.json --pass-dir DIR --trace 0|1 --result OUT.json

The worker imports qledger from the checkout's ``src``, builds the pass
inputs, times the pass (traced when ``--trace 1``), reads its peak
resident memory, then checks the outputs outside the timed region and
writes one JSON result.  Traced passes also leave ``spans.json`` in DIR.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--pass-dir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    import qledger
    import qledger.cli

    if not Path(qledger.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qledger imported from {qledger.__file__}, not from this checkout", file=sys.stderr)
        return 2

    passdir = Path(args.pass_dir)
    doc = workloads.load(json.loads(Path(args.inputs).read_text()))

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(qledger)
        t0 = time.perf_counter()
        with tracer.root():
            results = workloads.run_pass(qledger, doc, passdir)
        run_s = time.perf_counter() - t0
        tracer.uninstall()
    else:
        t0 = time.perf_counter()
        results = workloads.run_pass(qledger, doc, passdir)
        run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.write(passdir / "spans.json")
    errors, info = workloads.check(qledger, doc, results, passdir)
    failures = [e for e in errors if e is not None]
    Path(args.result).write_text(json.dumps({
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(errors),
        "failed": len(failures),
        "failures": failures[:5],
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
