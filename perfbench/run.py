"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gateway-hot --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  Human-readable ``#`` lines come
first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Any wrong answer
prints the mismatches on stderr and exits 1 without a result line.

The workload runs in a child process.  This process adopts every process
the workload starts and returns only once each of them has ended: ones
still running :data:`GRACE_S` seconds after the child exits are stopped
and named on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gateway-hot", "gateway-cold", "sweep-pool")
#: Seconds the processes a workload leaves behind get to end on their own.
GRACE_S = 20.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--in-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.in_child:
        return run_workload(args)
    return supervise(sys.argv[1:] if argv is None else list(argv))


def supervise(argv) -> int:
    """Run the workload in a child process and wait for every process it starts."""
    sys.path.insert(0, HERE)
    from common import adopt_orphans, wait_for_descendants

    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__), *argv, "--in-child"])
    grace = GRACE_S
    try:
        code = child.wait()
    except BaseException:
        grace = 0.0
        raise
    finally:
        stopped = wait_for_descendants(grace)
        if stopped:
            print(f"stopped {len(stopped)} processes still running after the workload: "
                  + " ".join(map(str, stopped)), file=sys.stderr)
    return code if code >= 0 else 128 - code


def run_workload(args) -> int:
    """The workload itself; its last line on stdout is the result."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    import numpy

    import perlayer
    from common import fingerprint
    from repro.scheduling import bitset_bb

    print("# fingerprint " + json.dumps(
        fingerprint(ROOT, bitset_bb.available_engines(), numpy.__version__), sort_keys=True
    ), flush=True)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}", flush=True)

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == "sweep-pool":
            import sweep_pool as bench
        else:
            import gateway_bench as bench
        out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in out["lines"]:
        print(line)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = {name: (out["per_layer"][name], unit) for name, unit in perlayer.PER_LAYER}
    else:
        values = out["metrics"]
    metrics = {}
    for m in declared:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    for name, (value, unit) in values.items():
        print(f"# {name} = {value:.6g} {unit}{'' if name in metrics else '  (not gated)'}")
    if out["errors"]:
        for err in out["errors"][:50]:
            print(f"mismatch: {err}", file=sys.stderr)
        print(f"{len(out['errors'])} wrong answers", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
