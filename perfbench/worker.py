"""One repetition of a workload in a fresh process.

    python3 perfbench/worker.py PLAN OUT_DIR RESULT MODE

MODE is ``probe`` (imports and config loading only), ``run`` or ``traced``.
The worker imports ``platoon_lab`` from ``src/``, loads every config through
``cli.load_config``, runs the plan's operations in order (the timed section),
then checks each output against its oracle and writes RESULT as JSON.  The
runner reads the set-up time from ``ready``, a ``time.perf_counter`` reading
taken on the system-wide monotonic clock.  ``calib_s`` holds the fastest
timings of the ``calib`` kernel right after ``ready`` and, in a traced run,
after the operations; ``samples_s`` the kernel timings sampled during the
operations of an untraced run.  ``wall_s`` is measured, ``wall_ref_s``
rescaled by these timings.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import platoon_lab  # noqa: E402
from platoon_lab import analysis, cli  # noqa: E402


def _run_op(op: dict, configs: dict, out: str):
    """The timed call; returns the CLI exit code or the library result."""
    if op["kind"] == "cli":
        argv = list(op["argv"])
        argv[argv.index("--out") + 1] = out
        return cli.main(argv)
    cfg, band, _ = configs[op["config"]]
    if op["kind"] == "gamma_sequence":
        return analysis.gamma_sequence(cfg, op["n_list"], band)
    if op["kind"] == "oracle":
        return analysis.direct_response(cfg, op["omega"]), analysis.product_response(cfg, op["omega"])
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def _write_result(op: dict, result, out: str) -> None:
    """Library results are written by the benchmark after the timed call."""
    if op["kind"] == "gamma_sequence":
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write("n,gamma,gamma_root_n,zeta_min_lower\n")
            for p in result:
                zeta = "nan" if p.zeta_min_lower is None else f"{p.zeta_min_lower:.17g}"
                fh.write(f"{p.n},{p.gamma:.17g},{p.gamma_root_n:.17g},{zeta}\n")
    elif op["kind"] == "oracle":
        direct, product = result
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"omega": op["omega"], "direct": [direct.real, direct.imag],
                       "product": [product.real, product.imag]}, fh)


def _digest(path: str):
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fingerprint() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(plan_path: str, out_dir: str, result_path: str, mode: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install(platoon_lab)
        tracer.op = "setup"
    configs = {path: cli.load_config(path) for path in plan["configs"]}
    ready = time.perf_counter()
    cal = [calib.measure()]
    record = {"mode": mode, "ready": ready, "calib_s": cal}
    if mode == "probe":
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        return

    # Untraced, the kernel is sampled during the operations; traced, it is
    # timed before and after them only, so that no span holds a sample.
    ops = []
    results = []
    sampler = contextlib.nullcontext() if tracer else calib.Sampler()
    start = time.perf_counter()
    with sampler:
        for op in plan["ops"]:
            out = os.path.join(out_dir, op["out"])
            if tracer:
                tracer.op = op["id"]
            t0 = time.perf_counter()
            try:
                result, error = _run_op(op, configs, out), None
            except (Exception, SystemExit) as exc:  # an operation that raises has failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            ops.append({"id": op["id"], "s": time.perf_counter() - t0, "error": error})
            results.append(result)
    record["wall_s"] = time.perf_counter() - start
    if tracer:
        cal.append(calib.measure())
        record["wall_ref_s"] = record["wall_s"] * calib.REF_S / ((cal[0] + cal[1]) / 2)
    else:
        record["wall_ref_s"] = sampler.rescale(record["wall_s"])
        record["samples_s"] = sampler.samples
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = analysis._prepared.cache_info()
    record["prepared"] = {"hits": info.hits, "misses": info.misses}
    if tracer:
        tracer.uninstall()

    import checks

    docs = {}
    for path in plan["configs"]:
        with open(path, encoding="utf-8") as fh:
            docs[path] = json.load(fh)
    for op, rec, result in zip(plan["ops"], ops, results):
        out = os.path.join(out_dir, op["out"])
        fails = []
        if rec["error"] is not None:
            fails.append(rec["error"])
        elif op["kind"] == "cli" and result != 0:
            fails.append(f"exit code {result}")
        else:
            _write_result(op, result, out)
            try:
                fails += checks.CHECKS[op["check"]](docs[op["config"]], out, **op["check_args"])
            except (OSError, ValueError, TypeError, KeyError, IndexError) as exc:
                fails.append(f"output unreadable: {type(exc).__name__}: {exc}")
        rec["failures"] = fails
        rec["digest"] = _digest(out)
        rec["bytes"] = os.path.getsize(out) if os.path.exists(out) else 0
    record["ops"] = ops

    if tracer:
        from spans import summarize

        metrics, per_function = summarize(
            tracer.spans, {r["id"]: r["bytes"] for r in ops},
            {op["id"] for op in plan["ops"] if op["kind"] == "cli"})
        metrics["analysis.prepared.hits"] = (info.hits, "count")
        metrics["analysis.prepared.misses"] = (info.misses, "count")
        record["layers"] = metrics
        record["functions"] = per_function
        with gzip.open(result_path + ".spans.json.gz", "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
    record["fingerprint"] = fingerprint()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(*sys.argv[1:5])
