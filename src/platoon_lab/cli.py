"""Command-line front end: JSON configs in, JSON/CSV analysis reports out.

Config schema (JSON object):

    n             vehicle count including the leader (int >= 2)
    gains         number or array of n-1 numbers (mu_2..mu_n, all > 0)
    asymmetries   number or array of n-1 numbers (eps_2..eps_n, >= 0);
                  the last entry is forced to 0 with a logged notice
    vehicle       {"num": [...], "den": [...]} ascending coefficients
    controller    {"num": [...], "den": [...]}
    omega_band    optional [lo, hi] rad/s, default [1e-3, 1e3]

Exit codes: 0 ok, 2 config validation failure, 3 unstable closed-loop blocks,
4 eigenvector identity failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from contextlib import contextmanager

from . import analysis, platoon, sim
from .numerics import RationalTF
from .platoon import ConfigError, _check_fits

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE_BLOCKS = 3
EXIT_IDENTITY = 4

IDENTITY_TOL = 1e-6


def _broadcast(value, n: int, field: str) -> tuple[float, ...]:
    scalar = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (scalar or isinstance(value, list)):
        raise ConfigError(f"{field} must be a number or an array of numbers")
    try:
        return (float(value),) * (n - 1) if scalar else tuple(float(x) for x in value)
    except OverflowError:  # an integer literal beyond the range of a double
        raise ConfigError(f"{field} entries must be within the range of a double") from None
    except (TypeError, ValueError):
        raise ConfigError(f"{field} entries must be numbers") from None


def _check_size(n: int, field: str) -> None:
    """Raise ConfigError naming ``n`` when a platoon of n vehicles cannot hold its n - 1 gains."""
    _check_fits(n - 1, f"platoon of {n} vehicles does not fit in memory; lower {field}")


def _finite_number(x) -> bool:
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer literal beyond the range of a double
        return False


def _tf_from(doc: dict, field: str) -> RationalTF:
    if field not in doc or not isinstance(doc[field], dict):
        raise ConfigError(f"{field} required")
    sub = doc[field]
    for part in ("num", "den"):
        if part not in sub:
            raise ConfigError(f"{field}.{part} required")
        if not isinstance(sub[part], list) or not sub[part]:
            raise ConfigError(f"{field}.{part} must be a nonempty array of coefficients")
    try:
        return RationalTF(num=tuple(float(x) for x in sub["num"]),
                          den=tuple(float(x) for x in sub["den"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field}: {exc}") from None


def parse_config(doc: dict) -> tuple[platoon.PlatoonConfig, tuple[float, float], dict]:
    """Validated (config, omega_band, raw document) from a parsed JSON object."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if "n" not in doc:
        raise ConfigError("n required")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ConfigError("n must be an integer >= 2")
    _check_size(n, "n")
    for field in ("gains", "asymmetries"):
        if field not in doc:
            raise ConfigError(f"{field} required")
    gains = _broadcast(doc["gains"], n, "gains")
    asym = _broadcast(doc["asymmetries"], n, "asymmetries")
    vehicle = _tf_from(doc, "vehicle")
    controller = _tf_from(doc, "controller")
    band = doc.get("omega_band", list(analysis.DEFAULT_OMEGA_BAND))
    if (not isinstance(band, list) or len(band) != 2
            or not all(_finite_number(x) for x in band)
            or not 0 < band[0] < band[1]):
        raise ConfigError("omega_band must be [lo, hi] with finite 0 < lo < hi")
    cfg = platoon.PlatoonConfig(n=n, gains=gains, asymmetries=asym, vehicle=vehicle,
                                controller=controller)
    if asym[-1] != 0.0:
        logger.info("last asymmetry %g overwritten to 0: the trailing vehicle has no follower",
                    asym[-1])
    return cfg, (float(band[0]), float(band[1])), doc


def load_config(path: str) -> tuple[platoon.PlatoonConfig, tuple[float, float], dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc)


@contextmanager
def _output(out_path):
    """stdout, or the file ``out_path``, which is deleted again if the command raises while writing it."""
    if out_path is None:
        yield sys.stdout
        return
    fh = open(out_path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(out_path)
        raise


def _write_json(doc: dict, out_path) -> None:
    # p may be infinite in the zero-asymmetry limit; dumped as Infinity
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with _output(out_path) as fh:
        fh.write(text)


def cmd_spectrum(config_path: str, out_path=None) -> int:
    cfg, _, _ = load_config(config_path)
    doc = dict(vars(platoon.spectrum_report(cfg)))  # a shallow copy: the report is cached
    doc["eigenvalues"] = doc["eigenvalues"].tolist()
    lower = doc.pop("fiedler_lower")
    if lower is None:
        logger.info("max asymmetry >= 1: no uniform lower bound on this route; "
                    "theorem1_lower and the dominance certificate are omitted")
    else:
        doc["theorem1_lower"] = lower
        doc["dominance_certificate"] = vars(platoon.dominance_certificate(cfg))
    _write_json(doc, out_path)
    return EXIT_OK


def cmd_harmonic(config_path: str, out_path=None) -> int:
    cfg, band, _ = load_config(config_path)
    v = analysis.harmonic_test(cfg, band)
    doc = dataclasses.asdict(v)
    doc["theorem1_lower"] = doc.pop("fiedler_lower")
    _write_json(doc, out_path)
    return EXIT_UNSTABLE_BLOCKS if v.verdict == analysis.UNSTABLE_BLOCKS else EXIT_OK


def cmd_freqresp(config_path: str, out_path, n_points: int) -> int:
    cfg, band, _ = load_config(config_path)
    if n_points < 2:
        raise ConfigError("points must be >= 2")
    # the response values frequency_series returns
    _check_fits(n_points, f"frequency grid of {n_points} points does not fit in memory; lower points", complex)
    series = analysis.frequency_series(cfg, n_points=n_points, omega_band=band)
    with _output(out_path) as fh:
        analysis.write_freq_csv(series, fh)
    return EXIT_OK


def cmd_gamma(config_path: str, out_path, n_min: int, n_max: int, n_step: int) -> int:
    cfg, band, raw = load_config(config_path)
    for field in ("gains", "asymmetries"):
        if isinstance(raw.get(field), list):
            raise ConfigError("sweep requires scalar template")
    if not (2 <= n_min <= n_max and n_step >= 1):
        raise ConfigError("need 2 <= n-min <= n-max and n-step >= 1")
    _check_size(n_max, "n-max")
    points = analysis.gamma_sequence(cfg, range(n_min, n_max + 1, n_step), band)
    with _output(out_path) as fh:
        fh.write("n,gamma,gamma_root_n,zeta_min_lower\n")
        for p in points:
            zeta = f"{p.zeta_min_lower:.17g}" if p.zeta_min_lower is not None else "nan"
            fh.write(f"{p.n},{p.gamma:.17g},{p.gamma_root_n:.17g},{zeta}\n")
    return EXIT_OK


def cmd_step(config_path: str, out_path, t_end: float, dt: float) -> int:
    cfg, _, _ = load_config(config_path)
    _, blocks = sim.stream(sim.SimScenario(cfg=cfg, leader_signal=sim.StepSignal(1.0),
                                           t_end=t_end, dt=dt))
    with _output(out_path) as fh:  # rows are written as the integration reaches them
        sim.write_csv(fh, blocks)
    return EXIT_OK


def cmd_identities(config_path: str) -> int:
    cfg, _, _ = load_config(config_path)
    _check_fits((cfg.n, cfg.n), f"platoon of {cfg.n} vehicles: its {cfg.n} x {cfg.n} Laplacian does not fit "
                "in memory; lower n")  # the dense Laplacian the identities work on
    try:
        power_res, inverse_res = analysis.verify_eigen_identities(cfg)
    except MemoryError:  # the n x n probe fits, the eigensolver's working set does not
        raise ConfigError(f"platoon of {cfg.n} vehicles: its eigenvector identities do not fit "
                          "in memory; lower n") from None
    except ValueError as exc:
        print(str(exc))
        return EXIT_IDENTITY
    for m, r in enumerate(power_res):
        print(f"power_sum_residual[m={m}] = {r:.6e}")
    print(f"inverse_sum_residual = {inverse_res:.6e}")
    worst = max([inverse_res, *power_res])
    print(f"max_residual = {worst:.6e} (tolerance {IDENTITY_TOL:g})")
    return EXIT_OK if worst <= IDENTITY_TOL else EXIT_IDENTITY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoon-lab",
        description="Spectral and frequency-domain analysis of asymmetric bidirectional platoons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # ``run`` looks its cmd_* function up at call time, so a wrapper put on
    # the module attribute (as a tracer does) is the one that runs
    def command(name, help, run):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="path to a JSON platoon config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(run=run)
        return p

    command("spectrum", "eigenvalues, bounds, and the dominance certificate",
            lambda a: cmd_spectrum(a.config, a.out))
    command("harmonic", "harmonic-instability test verdict",
            lambda a: cmd_harmonic(a.config, a.out))

    p = command("freqresp", "CSV frequency response of mu_2 * T(j*omega)",
                lambda a: cmd_freqresp(a.config, a.out, a.n_points))
    p.add_argument("--points", type=int, default=400, dest="n_points")

    p = command("gamma", "CSV peak-gain sweep over platoon sizes",
                lambda a: cmd_gamma(a.config, a.out, a.n_min, a.n_max, a.n_step))
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--n-step", type=int, default=5)

    p = command("step", "CSV leader unit-step response",
                lambda a: cmd_step(a.config, a.out, a.t_end, a.dt))
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--dt", type=float, default=0.01)

    p = sub.add_parser("identities", help="check the eigenvector weight identities")
    p.add_argument("--config", required=True)
    p.set_defaults(run=lambda a: cmd_identities(a.config))

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
