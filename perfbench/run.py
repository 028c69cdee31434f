"""platoon-lab benchmark: CLI commands and library calls on generated configs.

    python3 perfbench/run.py --workload {sweep,large_n,step,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The runner writes the workload's configs
(made from ``--seed``) under ``perfbench/_runs/``, then starts one fresh
worker process per repetition (``worker.py``) with BLAS and OpenMP pinned to
one thread, so that in-process caches start cold as in a CLI call.  It keeps
starting repetitions while the next one fits in ``--seconds``.  Every output
is checked against an oracle after its timed section (``checks.py``).

With ``--trace 0`` the last line of stdout reports the end-to-end metrics,
each the median over the run's repetitions:

- ``wall_s``: wall time of the workload's fixed list of operations,
  rescaled to the reference host speed of ``calib.py`` by the kernel timings
  sampled while they run, without the samples' own time;
- ``setup_s``: from the start of a worker process until ``platoon_lab`` is
  imported and every config is loaded through ``cli.load_config``, rescaled
  by the kernel timings in the runner before the start and in the worker
  right after set-up, over ``PROBES`` set-up-only processes and the
  repetitions;
- ``peak_rss_mb``: ``ru_maxrss`` of the worker at the end of the operations,
  in MiB;
- ``ok_ratio``: operations that passed over operations attempted.

With ``--trace 1`` the runner alternates untraced and traced repetitions and
reports the per-layer metrics of ``spans.py`` (medians over the traced ones)
and ``trace.overhead_s``, traced minus untraced median ``wall_s``.  A traced
repetition samples no kernel timings, which would fall inside its spans; its
``wall_s`` is rescaled by the kernel timings before and after the operations.

An operation fails when it raises, exits non-zero or fails its check.  The run
is correct when every failure is a known defect of ``workloads.KNOWN_DEFECTS``
and every operation wrote byte-identical output in every repetition.  The run
record, with the measured (not rescaled) times, the kernel timings, the sha256
digest of each output and the versions of the toolchain, is
``perfbench/_runs/<workload>-seed<N>-trace<T>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calib
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PROBES = 3
# A run must end within 180 s; a worker still running at this point is killed.
HARD_LIMIT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
COUNT_UNITS = ("count", "B", "flop")


class BenchError(RuntimeError):
    pass


def _spawn(run_dir: str, index: int, mode: str, t_start: float) -> dict:
    rep_dir = os.path.join(run_dir, f"rep{index:02d}-{mode}")
    os.makedirs(rep_dir)
    result = os.path.join(rep_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(run_dir, "plan.json"),
           rep_dir, result, mode]
    cal_before = calib.measure()
    remaining = HARD_LIMIT_S - (time.perf_counter() - t_start)
    with open(os.path.join(rep_dir, "worker.log"), "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env={**os.environ, **PINNED}, stdout=log, stderr=log,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {mode} passed the {HARD_LIMIT_S:g} s limit; see {rep_dir}") from None
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}; see {rep_dir}/worker.log")
    with open(result, encoding="utf-8") as fh:
        rec = json.load(fh)
    rec["setup_s"] = rec.pop("ready") - t0
    rec["setup_ref_s"] = rec["setup_s"] * calib.REF_S / ((cal_before + rec["calib_s"][0]) / 2)
    rec["elapsed_s"] = elapsed
    for name in os.listdir(rep_dir):
        if name.endswith(".out"):
            os.remove(os.path.join(rep_dir, name))
    return rec


def _repeat(run_dir: str, modes: tuple, seconds: float, t_start: float) -> list:
    """Set-up probes, then the modes in turn while the next repetition fits."""
    reps = [_spawn(run_dir, i, "probe", t_start) for i in range(PROBES)]
    longest = dict.fromkeys(modes, 0.0)
    i = 0
    while True:
        mode = modes[i % len(modes)]
        if i >= len(modes) and time.perf_counter() + longest[mode] > t_start + seconds:
            break
        rec = _spawn(run_dir, len(reps), mode, t_start)
        longest[mode] = max(longest[mode], rec["elapsed_s"])
        reps.append(rec)
        i += 1
    return reps


def _layer_metrics(runs: list, traced: list) -> tuple[dict, bool]:
    metrics = {}
    repeat = True
    for name, (_, unit) in traced[0]["layers"].items():
        values = [rep["layers"][name][0] for rep in traced]
        if unit in COUNT_UNITS:
            repeat = repeat and len(set(values)) == 1
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    overhead = statistics.median(r["wall_ref_s"] for r in traced) - statistics.median(r["wall_ref_s"] for r in runs)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, repeat


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, str]:
    """Measure one run; returns the run record and the path it was written to."""
    t_start = time.perf_counter()
    run_dir = os.path.join(HERE, "_runs", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = workloads.build(workload, seed, os.path.join(run_dir, "configs"))
    plan = {"workload": workload, "seed": seed, "configs": sorted({op["config"] for op in ops}), "ops": ops}
    with open(os.path.join(run_dir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)

    reps = _repeat(run_dir, ("run", "traced") if trace else ("run",), seconds, t_start)
    probes = [r for r in reps if r["mode"] == "probe"]
    runs = [r for r in reps if r["mode"] == "run"]
    traced = [r for r in reps if r["mode"] == "traced"]
    measured = runs + traced

    attempted = sum(len(r["ops"]) for r in measured)
    failed_ops = [(op["id"], f) for r in measured for op in r["ops"] for f in op["failures"]]
    failed = sum(1 for r in measured for op in r["ops"] if op["failures"])
    unexpected = sorted({(i, f) for i, f in failed_ops if i not in workloads.KNOWN_DEFECTS})
    digests = {}
    for r in measured:
        for op in r["ops"]:
            digests.setdefault(op["id"], set()).add(op["digest"])
    unstable = sorted(i for i, d in digests.items() if len(d) > 1)

    if trace:
        metrics, counts_repeat = _layer_metrics(runs, traced)
    else:
        counts_repeat = None
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_ref_s"] for r in runs), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_ref_s"] for r in probes + runs), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs), "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    result = {"correct": not unexpected and not unstable, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "fingerprint": measured[0]["fingerprint"],
        "result": result,
        "fail_ratio": failed / attempted,
        "known_defects_failed": sorted({i for i, _ in failed_ops if i in workloads.KNOWN_DEFECTS}),
        "unexpected_failures": unexpected,
        "outputs_differ_between_repetitions": unstable,
        "counts_repeat": counts_repeat,
        "digests": {i: sorted(d, key=str)[0] for i, d in digests.items()},
        "repetitions": [{k: v for k, v in r.items() if k not in ("fingerprint", "functions")} for r in reps],
        "functions": traced[0]["functions"] if traced else None,
    }
    path = os.path.join(run_dir, "record.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record, path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "platoon_lab", "__init__.py")):
        print("perfbench: src/platoon_lab not found; run from the root of a platoon-lab checkout",
              file=sys.stderr)
        return 2
    try:
        record, path = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for op_id, failure in record["unexpected_failures"]:
        print(f"perfbench: {op_id} failed: {failure}", file=sys.stderr)
    for op_id in record["outputs_differ_between_repetitions"]:
        print(f"perfbench: {op_id} wrote different outputs in different repetitions", file=sys.stderr)
    print(f"record: {os.path.relpath(path)}")
    print(f"fingerprint: {json.dumps(record['fingerprint'], sort_keys=True)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
