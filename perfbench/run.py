"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_mixed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` there.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The end-to-end
metrics come with ``--trace 0``, the per-layer ones with ``--trace 1``. A
fuller record goes to ``.perfbench/result-<workload>-seed<n>-trace<t>.json``
and, when tracing, the spans to ``.perfbench/trace-<workload>-seed<n>.json``.
"""

import argparse
import json
import os
import platform
import shutil
import sys

# One BLAS thread: the ops are small, and the machine has two cores to share
# between the benchmark and everything else. Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["train_mixed", "fewshot_k8", "curate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_program():
    """Import cosmo from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "cosmo", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}/cosmo")
    sys.path[0:1] = [SRC, ROOT]  # drop perfbench/ itself from the path
    import cosmo
    if not os.path.abspath(cosmo.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported cosmo from {cosmo.__file__}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np
    from perfbench import workloads
    from perfbench.metrics import END_TO_END, PER_LAYER

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    w = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        outcome = workloads.run(w, args.seconds, bool(args.trace))
        make_up = w.make_up()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}"
    tracer = outcome.detail.pop("tracer", None)
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"trace-{tag}.json"),
                    {"workload": args.workload, "seed": args.seed})
    expected = PER_LAYER if args.trace else END_TO_END
    if set(outcome.metrics) != set(expected):
        raise RuntimeError(f"metrics {sorted(outcome.metrics)} differ from the list")
    result = {"correct": not outcome.failures, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in outcome.metrics.items()}}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "failures": outcome.failures, "make_up": make_up,
              "detail": outcome.detail,
              "environment": {"blas_threads": BLAS_THREADS,
                              "python": platform.python_version(),
                              "numpy": np.__version__,
                              "machine": platform.machine(),
                              "cpu_count": os.cpu_count()}}
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)

    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"checks: {'pass' if not outcome.failures else 'FAIL'}; "
          f"attempted {outcome.attempted}, failed {outcome.failed}")
    for msg in outcome.failures:
        print(f"  check failed: {msg}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
