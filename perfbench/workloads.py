"""Workload definitions: seeded config files and the fixed list of operations.

Every workload uses the README vehicle (a double integrator) and lead-lag
controller, whose closed-loop blocks are stable for any positive gain.  The
golden configs and the known-defect configs are fixed; only the inputs named
"seeded" below depend on ``--seed``, so the set of failing operations does not.

An operation is a dict with an ``id``, a ``kind`` and what that kind needs:

- ``cli``: ``argv`` for ``platoon_lab.cli.main``; the output file is ``out``.
- ``gamma_sequence``: library ``gamma_sequence`` on the config ``config``
  over ``n_list``.
- ``oracle``: library ``direct_response`` and ``product_response`` on the
  config ``config`` at frequency ``omega``.

``check`` names the oracle check in ``checks.py`` applied after the timed
section, with the keyword arguments in ``check_args``.
"""

from __future__ import annotations

import json
import os
import random

VEHICLE = {"num": [1.0], "den": [0.0, 0.0, 1.0]}
CONTROLLER = {"num": [3.0, 43.0, 110.0], "den": [1.0, 2.9, 1.0]}
OMEGA_BAND = [1e-3, 1e3]

SWEEP_SIZES = list(range(5, 201, 5))
LARGE_SIZES = (1000, 2000, 4000)
ORACLE_SIZES = (50, 200, 400)
ORACLE_FREQS_PER_SIZE = 8

# Operations that fail at the seed commit because of defects listed in
# ROADMAP.md.  They stay in the workload so that the defects show in `failed`;
# a failure here does not make the run incorrect, a failure anywhere else does.
KNOWN_DEFECTS = {
    "spectrum-mu0.5-n1000": "fiedler 0.0429 < theorem1_lower 0.0833: the uniform bound ignores gains below 1",
    "freqresp-n4000": "12 of 400 rows non-finite: the product form overflows near n = 3900",
    "gamma-n4000": "gamma raises 'non-finite response': the product form overflows near n = 3900",
}

WORKLOADS = ("sweep", "large_n", "step", "oracle")


def _config(n: int, gains, asymmetries) -> dict:
    return {
        "n": n,
        "gains": gains,
        "asymmetries": asymmetries,
        "vehicle": VEHICLE,
        "controller": CONTROLLER,
        "ref_distance": 1.0,
        "omega_band": OMEGA_BAND,
    }


def _cli(op_id: str, command: str, config: str, check: str, flags=(), **check_args) -> dict:
    out = f"{op_id}.out"
    return {
        "id": op_id,
        "kind": "cli",
        "config": config,
        "argv": [command, "--config", config, "--out", out, *flags],
        "out": out,
        "check": check,
        "check_args": check_args,
    }


def _sweep(rng: random.Random) -> tuple[dict, list]:
    span = ["--n-min", str(SWEEP_SIZES[0]), "--n-max", str(SWEEP_SIZES[-1]),
            "--n-step", str(SWEEP_SIZES[1] - SWEEP_SIZES[0])]
    # seeded: a cyclic template of 4 followers; the trailing asymmetry is the
    # structural zero and is not part of the cycle
    gains = [rng.uniform(1.0, 2.0) for _ in range(4)]
    asym = [rng.uniform(0.2, 0.8) for _ in range(3)] + [0.0]
    configs = {
        "golden-eps0.5.json": _config(20, 1.0, 0.5),
        "golden-eps1.0.json": _config(20, 1.0, 1.0),
        "hetero-template.json": _config(5, gains, asym),
    }
    ops = [
        _cli("gamma-eps0.5", "gamma", "golden-eps0.5.json", "gamma", span, n_list=SWEEP_SIZES),
        _cli("gamma-eps1.0", "gamma", "golden-eps1.0.json", "gamma", span, n_list=SWEEP_SIZES),
        {"id": "gamma_sequence-hetero", "kind": "gamma_sequence", "config": "hetero-template.json",
         "n_list": SWEEP_SIZES, "out": "gamma_sequence-hetero.out", "check": "gamma",
         "check_args": {"n_list": SWEEP_SIZES}},
    ]
    return configs, ops


def _large_n(rng: random.Random) -> tuple[dict, list]:
    configs, ops = {}, []
    for n in LARGE_SIZES:
        name = f"golden-n{n}.json"
        configs[name] = _config(n, 1.0, 0.5)
        ops += [
            _cli(f"spectrum-n{n}", "spectrum", name, "spectrum"),
            _cli(f"harmonic-n{n}", "harmonic", name, "harmonic"),
            _cli(f"freqresp-n{n}", "freqresp", name, "freqresp", ["--points", "400"], points=400),
            _cli(f"gamma-n{n}", "gamma", name, "gamma",
                 ["--n-min", str(n), "--n-max", str(n), "--n-step", "1"], n_list=[n]),
        ]
    configs["mu0.5-n1000.json"] = _config(1000, 0.5, 0.5)
    ops.append(_cli("spectrum-mu0.5-n1000", "spectrum", "mu0.5-n1000.json", "spectrum"))
    return configs, ops


def _step(rng: random.Random) -> tuple[dict, list]:
    configs = {"golden-n20.json": _config(20, 1.0, 0.5), "golden-n100.json": _config(100, 1.0, 0.5)}
    # rtol bounds the RK4 error against the exact solution, relative to the
    # largest deviation: 2.6e-14 is observed at n = 20, dt = 0.002, and 1.6e-5
    # at n = 100, dt = 0.01, where deviations reach 2.3e5.  A wrong stage
    # weight or an off-by-one sample differs by far more.
    ops = [
        # the run of acceptance criterion 9: bound by per-step Python overhead
        _cli("step-n20", "step", "golden-n20.json", "step", ["--t-end", "150", "--dt", "0.002"],
             t_end=150.0, dt=0.002, rtol=1e-9),
        # a larger state: bound by the matrix-vector product
        _cli("step-n100", "step", "golden-n100.json", "step", ["--t-end", "100", "--dt", "0.01"],
             t_end=100.0, dt=0.01, rtol=1e-4),
    ]
    return configs, ops


def _oracle(rng: random.Random) -> tuple[dict, list]:
    configs, ops = {}, []
    for n in ORACLE_SIZES:
        name = f"golden-n{n}.json"
        configs[name] = _config(n, 1.0, 0.5)
        for k in range(ORACLE_FREQS_PER_SIZE):
            # seeded: log-uniform in [1e-2, 1e2]
            omega = 10.0 ** rng.uniform(-2.0, 2.0)
            ops.append({"id": f"oracle-n{n}-{k}", "kind": "oracle", "config": name, "omega": omega,
                        "out": f"oracle-n{n}-{k}.out", "check": "oracle", "check_args": {}})
    return configs, ops


_DEFINITIONS = {"sweep": _sweep, "large_n": _large_n, "step": _step, "oracle": _oracle}


def build(workload: str, seed: int, config_dir: str) -> list:
    """Write the workload's config files into ``config_dir``; return its operations.

    Config paths in the operations are absolute, output paths are relative to
    the directory a worker writes into.
    """
    configs, ops = _DEFINITIONS[workload](random.Random(seed))
    os.makedirs(config_dir, exist_ok=True)
    for name, doc in configs.items():
        with open(os.path.join(config_dir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for op in ops:
        path = os.path.join(config_dir, op["config"])
        op["config"] = path
        if op["kind"] == "cli":
            op["argv"][2] = path
    return ops
