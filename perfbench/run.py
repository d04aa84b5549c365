#!/usr/bin/env python3
"""stagesum benchmark: three workloads driven through the harness stages.

    python3 perfbench/run.py            # all workloads: end-to-end + per-layer
    python3 perfbench/run.py --workload dev_decode --seed 3 --seconds 20 --trace 0

One process and one client call the stages in sequence (a closed loop), with
BLAS pinned to one thread.  --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics of a traced run; with no --workload every workload runs
traced and both are printed.  Output checks run after every unit; any failed
check or stage makes the command exit 1.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  Metrics,
workloads and checks are described in perfbench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
NAMES = ["staged_train", "dev_decode", "layerwise_grid"]

BETTER_HIGHER = ("_per_s", "dev_rougeL", "selector_dev_f1")


def unit_of(name):
    from bench import E2E_UNITS, WORKLOAD_UNITS
    units = {**E2E_UNITS, **WORKLOAD_UNITS}
    if name in units:
        return units[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    if "share" in name or name.endswith(("_per_output_token", "_per_backward")):
        return "ratio"
    return "count"


def better(name):
    return "higher" if name.endswith(BETTER_HIGHER) else "lower"


def machine_facts(seed):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "STAGESUM_NO_NUMBA": os.environ.get("STAGESUM_NO_NUMBA"),
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def run_one(name, seed, seconds, trace):
    """Run one workload; print its metrics; return (run, e2e, per-layer)."""
    import bench
    import layers
    run = bench.Run(OUT, name, seed, seconds, trace)
    run.execute()
    e2e, extra = run.end_to_end()
    per_layer = {}
    if trace and run.traced and run.plain:
        per_layer = {**extra, **layers.layer_metrics(run)}
    facts = machine_facts(seed)
    print(f"[{name}] machine {json.dumps(facts, sort_keys=True)}")
    samples = {"setup_s": run.setup_s,
               "untraced_unit_s": [wall for wall, _, _ in run.plain],
               "traced_unit_s": [wall for wall, _, _ in run.traced]}
    print(f"[{name}] samples {json.dumps(samples)}")
    for key, value in {**e2e, **extra}.items():
        print(f"[{name}] end-to-end {key} = {value!r} {unit_of(key)} "
              f"({better(key)} is better)")
    share = len(run.failures) / max(run.attempted, 1)
    print(f"[{name}] end-to-end failed_ops_share = {share!r} "
          f"({len(run.failures)} of {run.attempted} ops; lower is better)")
    for key in sorted(per_layer):
        if key not in extra:
            print(f"[{name}] layer {key} = {per_layer[key]!r} {unit_of(key)}")
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}")
    with open(f"{stem}-trace{int(trace)}.json", "w", encoding="utf-8") as f:
        json.dump({"workload": name, "machine": facts, "samples": samples,
                   "end_to_end": e2e, "workload_figures": extra,
                   "per_layer": per_layer, "failures": run.failures}, f, indent=1)
    if run.traced:
        run.traced[-1][2].write_spans(f"{stem}.spans.jsonl")
    return run, e2e, per_layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "stagesum", "__init__.py")):
        print(f"error: no stagesum sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    single = args.workload != "all"
    metrics, attempted, failed, complete = {}, 0, 0, True
    for name in ([args.workload] if single else NAMES):
        trace = bool(args.trace) if single else True
        run, e2e, per_layer = run_one(name, args.seed, args.seconds, trace)
        attempted += run.attempted
        failed += len(run.failures)
        got = (per_layer if trace else e2e) if single else {**e2e, **per_layer}
        complete = complete and bool(e2e) and (bool(per_layer) or not trace)
        prefix = "" if single else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": unit_of(k)}
                        for k, v in got.items()})
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
