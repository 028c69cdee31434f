"""Tracing from outside the program: spans around calls into each layer.

``Tracer.install`` wraps every public function of the layer modules under its
name in every module namespace that binds it (``poly_roots`` is called
through ``numerics``, ``analysis`` and ``sim``), plus ``TimeSeries.write_csv``.
Each call records one span in memory: name, start, end, parent span, the id of
the operation and, for a few functions, the amount of work from the
arguments.  ``summarize`` derives the per-layer metrics from the spans once
the run ends.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("cli", "platoon", "numerics", "analysis", "sim")


def _state_order(cfg) -> int:
    # the open loop C*G keeps every factor, so its order is the sum of the
    # denominator degrees
    return len(cfg.vehicle.den.coeffs) + len(cfg.controller.den.coeffs) - 2


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _direct_dim(args, kwargs):
    cfg, omega = _arg(args, kwargs, 0, "cfg"), _arg(args, kwargs, 1, "omega")
    # omega == 0 returns the block product without a dense solve
    return 0 if omega == 0.0 else (cfg.n - 1) * _state_order(cfg)


def _simulate_work(args, kwargs):
    sc = _arg(args, kwargs, 0, "sc")
    return (int(round(sc.t_end / sc.dt)), (sc.cfg.n - 1) * _state_order(sc.cfg))


# Amount of work per call, taken from the arguments.
AMOUNTS = {
    "analysis.product_response": lambda a, k: int(np.size(_arg(a, k, 1, "omega"))),
    "numerics.rtf_eval": lambda a, k: int(np.size(_arg(a, k, 1, "s"))),
    "platoon.build_laplacian": lambda a, k: _arg(a, k, 0, "cfg").n,
    "analysis.direct_response": _direct_dim,
    "sim.simulate": _simulate_work,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id, amount)
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        amount_of = AMOUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                amount = amount_of(args, kwargs) if amount_of else 0
                spans[idx] = (name, start, end, parent, self.op, amount)

        return traced

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for ns in (package, *modules.values()):
            for name, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, name, hit[1])
                    self._undo.append((ns, name, obj))
        series = modules["sim"].TimeSeries
        self._undo.append((series, "write_csv", series.write_csv))
        series.write_csv = self._wrap("sim.write_csv", series.write_csv)

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._undo):
            setattr(ns, name, obj)
        self._undo.clear()

    def dump(self) -> dict:
        """Spans in a compact JSON form: a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "columns": ["name", "start", "end", "parent", "op", "amount"],
                "rows": [[index[s[0]], *s[1:]] for s in self.spans]}


def summarize(spans, op_bytes: dict, cli_ops: set) -> tuple[dict, dict]:
    """Per-layer metrics ``{name: (value, unit)}`` and per-function totals.

    ``op_bytes`` maps an operation id to the bytes of its output file and
    ``cli_ops`` holds the ids of CLI operations.  A function's time is
    inclusive, counted once when it nests inside itself.  Self time is a
    span's duration minus that of its direct children; ``cli.self.s`` is the
    self time of the ``cli.cmd_*`` spans alone.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    totals = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    cmd_self = 0.0
    write_csv_ops = set()
    for i, (name, start, end, parent, op, amount) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "amount": []})
        t["calls"] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t["s"] += end - start
        if amount:
            t["amount"].append(amount)
        own = end - start - child[i]
        layer_self[name.split(".", 1)[0]] += own
        if name.startswith("cli.cmd_"):
            cmd_self += own
        if name == "sim.write_csv":
            write_csv_ops.add(op)

    def s(name):
        return totals.get(name, {}).get("s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def amounts(name):
        return totals.get(name, {}).get("amount", [])

    sim_work = amounts("sim.simulate")
    state_steps = sum(steps * dim for steps, dim in sim_work)
    product_freqs = sum(amounts("analysis.product_response"))
    metrics = {
        "cli.load_config.s": (s("cli.load_config"), "s"),
        "cli.self.s": (cmd_self, "s"),
        "cli.bytes_out": (sum(b for op, b in op_bytes.items() if op in cli_ops), "B"),
        "platoon.spectrum_report.s": (s("platoon.spectrum_report"), "s"),
        "platoon.spectrum_report.calls": (calls("platoon.spectrum_report"), "count"),
        "platoon.dominance_certificate.s": (s("platoon.dominance_certificate"), "s"),
        "platoon.laplacian_bytes": (sum(8 * n * n for n in amounts("platoon.build_laplacian")), "B"),
        "platoon.self.s": (layer_self["platoon"], "s"),
        "numerics.poly_roots.calls": (calls("numerics.poly_roots"), "count"),
        "numerics.poly_roots.s": (s("numerics.poly_roots"), "s"),
        "numerics.rtf_eval.freqs": (sum(amounts("numerics.rtf_eval")), "count"),
        "numerics.self.s": (layer_self["numerics"], "s"),
        "analysis.hinf_norm.calls": (calls("analysis.hinf_norm"), "count"),
        "analysis.hinf_norm.s": (s("analysis.hinf_norm"), "s"),
        "analysis.product_response.calls": (calls("analysis.product_response"), "count"),
        "analysis.product_response.freqs": (product_freqs, "count"),
        "analysis.product_response.s": (s("analysis.product_response"), "s"),
        "analysis.evals_per_peak": (product_freqs / calls("analysis.hinf_norm")
                                    if calls("analysis.hinf_norm") else 0.0, "count"),
        "analysis.zeta_min.s": (s("analysis.zeta_min"), "s"),
        "analysis.harmonic_test.s": (s("analysis.harmonic_test"), "s"),
        "analysis.direct_response.calls": (calls("analysis.direct_response"), "count"),
        "analysis.direct_response.s": (s("analysis.direct_response"), "s"),
        "analysis.direct_response.flops": (sum(2.0 * d ** 3 / 3.0 for d in amounts("analysis.direct_response")),
                                           "flop"),
        "analysis.self.s": (layer_self["analysis"], "s"),
        "sim.simulate.s": (s("sim.simulate"), "s"),
        "sim.rk4_steps": (sum(steps for steps, _ in sim_work), "count"),
        "sim.state_dim": (max((dim for _, dim in sim_work), default=0), "count"),
        "sim.ns_per_state_step": (1e9 * s("sim.simulate") / state_steps if state_steps else 0.0, "ns"),
        "sim.dt_limit.s": (s("sim.dt_limit"), "s"),
        "sim.write_csv.s": (s("sim.write_csv"), "s"),
        "sim.write_csv.bytes": (sum(b for op, b in op_bytes.items() if op in write_csv_ops), "B"),
        "sim.self.s": (layer_self["sim"], "s"),
    }
    per_function = {name: {"calls": t["calls"], "s": t["s"]} for name, t in sorted(totals.items())}
    return metrics, per_function
