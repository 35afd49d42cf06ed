"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-trace --seed 1 --seconds 30 --trace 0

The program is imported from ``src/``; nothing is installed.  Standard
output carries, in order: the host stamp, the outputs that must repeat
at a fixed seed, the work rate, every gate outcome and, as the last
line, the result object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` prints the ``end_to_end`` metrics of
``BENCHMARK.json``; ``--trace 1`` prints the ``per_layer`` ones.  The exit code is 0 only when every gate
passed or was skipped.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: workload name -> (module, class) under ``perfbench/``.
WORKLOADS = {
    "paper-trace": ("paper_trace", "PaperTrace"),
    "hier-sim": ("hier_sim", "HierSim"),
    "flat-sim": ("flat_sim", "FlatSim"),
    "wire-rules": ("wire_rules", "WireRules"),
}

#: the seed used while the benchmark was written, and one held out from
#: that work so a later claim can be confirmed on a seed it was not
#: tuned on.
DEFAULT_SEED = 20060814
HELD_OUT_SEED = 4_171_923


def make_workload(name: str, *, seed: int, work_dir: str, size: str = "full"):
    """Import the workload's module (and with it the program) and build it."""
    module_name, class_name = WORKLOADS[name]
    module = importlib.import_module(module_name)
    return getattr(module, class_name)(
        seed=seed, work_dir=work_dir, **module.SHAPES[size]
    )


def host_stamp(import_s: float) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "import_s": import_s,
    }


def _emit(label: str, payload) -> None:
    print(f"perfbench {label} {json.dumps(payload, sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from harness import best_phase_rate, load_spec, run_cycles, summarize

    spec = load_spec(ROOT)
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    workload = None
    try:
        workload = make_workload(args.workload, seed=args.seed, work_dir=work_dir)
        _emit("host", host_stamp(perf_counter() - _STARTED))
        cycles = run_cycles(workload, seconds=args.seconds, trace=bool(args.trace))
    finally:
        if workload is None or not workload.keep_work_dir:
            shutil.rmtree(work_dir, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(os.path.dirname(work_dir))
    result, gates = summarize(cycles, spec, trace=bool(args.trace))
    _emit("outputs", cycles[0].result.quality)
    plain = [c for c in cycles if not c.clock.traced]
    _emit("work_per_s", {"value": best_phase_rate(plain), "cycles": len(plain)})
    _emit("gates", gates)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
