"""Self-test of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a checkout; takes about two minutes for all workloads.
For each workload it makes one untraced and two traced runs of one seed and
checks that:

- every run is correct and prints exactly the metrics named in BENCHMARK.json;
- the two traced runs give identical counts;
- traced and untraced repetitions wrote byte-identical outputs, by the sha256
  digests in the run records, and both traced runs wrote the same ones.

It also checks that the benchmark exits non-zero without printing a result
in a directory that holds only BENCHMARK.json and the benchmark's files.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import COUNT_UNITS  # noqa: E402

SEED = 7
SECONDS = "1"


def _bench(workload: str, trace: int, cwd: str = ".") -> tuple[dict, dict]:
    """One run; returns its result line and its record."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record_path = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
    with open(os.path.join(cwd, record_path), encoding="utf-8") as fh:
        return json.loads(lines[-1]), json.load(fh)


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)
    print(f"ok  {what}")


def _digests(record: dict, mode: str) -> dict:
    return {op["id"]: op["digest"] for rep in record["repetitions"] if rep["mode"] == mode
            for op in rep["ops"]}


def check_workload(workload: str, spec: dict) -> None:
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    plain, plain_record = _bench(workload, 0)
    _check(plain["correct"] and sorted(plain["metrics"]) == sorted(end_to_end),
           f"{workload}: untraced run correct with every end-to-end metric")
    (first, first_record), (second, second_record) = _bench(workload, 1), _bench(workload, 1)
    for res in (first, second):
        _check(res["correct"] and sorted(res["metrics"]) == sorted(per_layer),
               f"{workload}: traced run correct with every per-layer metric")
    counts = [{k: v["value"] for k, v in res["metrics"].items() if v["unit"] in COUNT_UNITS}
              for res in (first, second)]
    _check(counts[0] == counts[1] and first_record["counts_repeat"] and second_record["counts_repeat"],
           f"{workload}: {len(counts[0])} counts repeat exactly")
    golden = _digests(plain_record, "run")
    _check(all(_digests(r, mode) == golden for r in (first_record, second_record) for mode in ("run", "traced")),
           f"{workload}: traced and untraced outputs byte-identical ({len(golden)} digests)")


def check_bare_directory(spec: dict) -> None:
    bare = os.path.join(HERE, "_runs", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path), ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", workloads.WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=180)
    shutil.rmtree(bare)
    _check(proc.returncode != 0 and not proc.stdout, "bare directory: non-zero exit, no result")


def main(argv: list) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        check_bare_directory(spec)
        for workload in argv or workloads.WORKLOADS:
            check_workload(workload, spec)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
