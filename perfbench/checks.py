"""Oracle checks on the output of each operation, run after its timed section.

Each check reads the operation's output file and the config document the
benchmark generated, and returns a list of failure messages (empty when the
output is correct).  The oracles do not share code with the path they check:
spectra are compared with the closed form, responses with the benchmark's own
polynomial evaluation, step responses with a matrix exponential of a state
space assembled here, and the product form with the dense state-space solve.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from platoon_lab.closedform import closedform_eigenvalues
from scipy.linalg import expm

# Relative agreement of the numerical spectrum with the closed form (both are
# accurate to a few ulps; 1e-14 is observed at n = 4000).
SPECTRUM_RTOL = 1e-9
# Product form against the dense state-space solve: acceptance criterion 3.
ORACLE_RTOL = 1e-6
# Rows of a step response compared with the exact solution.
STEP_SAMPLES = 16
# |mu_2 T| at the lowest band frequency: 1.0027 at n = 4000.
DC_TOL = 1e-2
# Peak gain against the benchmark's own grid search over the block product:
# the refined grid step is 1.5e-6 decades, which bounds the grid's own
# error near 1e-8 at n = 2000.
GAMMA_GRID = 4000
GAMMA_EVERY = 5
GAMMA_RTOL = 1e-6


def _poly(coeffs) -> np.ndarray:
    """Ascending coefficients to numpy's descending order."""
    return np.asarray(coeffs, dtype=float)[::-1]


def _open_loop(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Ascending numerator and denominator of M = C*G."""
    num = np.convolve(doc["controller"]["num"], doc["vehicle"]["num"])
    den = np.convolve(doc["controller"]["den"], doc["vehicle"]["den"])
    return num, den


def _read_csv(path: str) -> tuple[list, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


def _family(doc: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gains and asymmetries of the size-n member of the config's cyclic family."""
    gains, asym = (np.resize(np.asarray(doc[k], dtype=float), doc["n"] - 1) for k in ("gains", "asymmetries"))
    cycle = asym[:-1] if len(asym) > 1 else asym
    mu = np.resize(gains, n - 1)
    eps = np.resize(cycle, n - 1)
    eps[-1] = 0.0
    return mu, eps


def _eigenvalues(doc: dict, n: int, mu: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Closed form for a homogeneous family, else the dense symmetrized matrix."""
    if np.isscalar(doc["gains"]) and np.isscalar(doc["asymmetries"]) and 0.0 < doc["asymmetries"] < 1.0:
        return doc["gains"] * closedform_eigenvalues(n, doc["asymmetries"])
    off = np.sqrt(mu[1:] * mu[:-1] * eps[:-1])
    return np.linalg.eigvalsh(np.diag(mu * (1.0 + eps)) + np.diag(off, 1) + np.diag(off, -1))


def check_spectrum(doc: dict, path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    n = doc["n"]
    eigs = np.asarray(rep["eigenvalues"])
    fails = []
    if len(eigs) != n - 1:
        return [f"{len(eigs)} eigenvalues for n = {n}"]
    want = _eigenvalues(doc, n, *_family(doc, n))
    err = float(np.max(np.abs(eigs - want) / want))
    if not err <= SPECTRUM_RTOL:
        fails.append(f"eigenvalues differ from the closed form by {err:.3g} (relative)")
    if rep["fiedler"] != eigs[0]:
        fails.append("fiedler is not the smallest eigenvalue")
    for key, bound in (("theorem1_lower", rep.get("theorem1_lower")),
                       ("dominance_certificate.lower_bound",
                        rep.get("dominance_certificate", {}).get("lower_bound"))):
        if bound is None:
            fails.append(f"{key} missing for eps_max < 1")
        elif not eigs.min() >= bound * (1.0 - 1e-12):
            fails.append(f"smallest eigenvalue {eigs.min():.6g} < {key} {bound:.6g}")
    return fails


def check_harmonic(doc: dict, path: str) -> list:
    """Verdict and peak gain of the block at the uniform bound, on a dense grid."""
    with open(path, encoding="utf-8") as fh:
        v = json.load(fh)
    lam = v["lambda_min_used"]
    if lam is None:
        return [f"no uniform bound used, verdict {v['verdict']}"]
    num, den = _open_loop(doc)
    lo, hi = doc["omega_band"]
    s = 1j * np.logspace(math.log10(lo), math.log10(hi), 200_001)
    m = lam * np.polyval(_poly(num), s) / np.polyval(_poly(den), s)
    peak = float(np.max(np.abs(m / (1.0 + m))))
    fails = []
    gamma = v["hinf_gamma_min"]
    if not peak * (1.0 - 1e-9) <= gamma <= peak * (1.0 + 1e-6):
        fails.append(f"hinf_gamma_min {gamma!r} against grid peak {peak!r}")
    want = "harmonically-unstable" if peak > 1.0 else "test-inconclusive"
    if v["verdict"] != want:
        fails.append(f"verdict {v['verdict']!r}, grid peak {peak:.6g} says {want!r}")
    w0 = v["omega0"]
    ab = lam * np.polyval(_poly(num), 1j * w0) / np.polyval(_poly(den), 1j * w0)
    if abs(complex(v["alpha"], v["beta"]) - ab) > 1e-9 * abs(ab):
        fails.append("alpha + j beta is not lambda * M(j omega0)")
    if peak > 1.0 and not (v["alpha"] < -0.5 and v["zeta_min"] is not None and v["zeta_min"] > 1.0):
        fails.append("harmonically unstable without alpha < -1/2 and zeta_min > 1")
    return fails


def check_freqresp(doc: dict, path: str, points: int) -> list:
    header, rows = _read_csv(path)
    if header != ["omega_rad_s", "re", "im", "mag_db"] or len(rows) != points:
        return [f"header {header} with {len(rows)} rows, want {points}"]
    fails = []
    bad = int(np.sum(~np.all(np.isfinite(rows[:, :3]), axis=1)))
    if bad:
        fails.append(f"{bad} of {points} rows non-finite")
    # A response that underflows to exactly 0 is reported as -inf dB; any
    # other mag_db must be 20 log10 |re + j im|.
    with np.errstate(divide="ignore", invalid="ignore"):
        db = 20.0 * np.log10(np.abs(rows[:, 1] + 1j * rows[:, 2]))
    same = (rows[:, 3] == db) | np.isclose(rows[:, 3], db, rtol=1e-12, atol=1e-9)
    if not np.all(same[np.isfinite(rows[:, :3]).all(axis=1)]):
        fails.append("mag_db is not 20 log10 |re + j im|")
    lo, hi = doc["omega_band"]
    if rows[0, 0] != lo or not math.isclose(rows[-1, 0], hi, rel_tol=1e-12):
        fails.append("grid does not span the band")
    dc = abs(complex(rows[0, 1], rows[0, 2]))
    if not abs(dc - 1.0) <= DC_TOL:
        fails.append(f"|mu_2 T| = {dc:.6g} at the lowest frequency")
    return fails


def _log_peak(doc: dict, eigs: np.ndarray) -> float:
    """max over the band of sum_i log|lam_i M / (1 + lam_i M)|, on a log grid
    of GAMMA_GRID points refined by GAMMA_GRID points over the best 4 cells."""
    num, den = _open_loop(doc)

    def logmag(w):
        s = 1j * w
        m = np.polyval(_poly(num), s) / np.polyval(_poly(den), s)
        out = np.zeros(len(w))
        for lam in eigs:
            out += np.log(np.abs(lam * m / (1.0 + lam * m)))
        return out

    lo, hi = np.log10(doc["omega_band"])
    grid = np.logspace(lo, hi, GAMMA_GRID)
    vals = logmag(grid)
    k = int(np.argmax(vals))
    fine = np.logspace(np.log10(grid[max(k - 2, 0)]), np.log10(grid[min(k + 2, GAMMA_GRID - 1)]), GAMMA_GRID)
    return max(float(vals.max()), float(logmag(fine).max()))


def check_gamma(doc: dict, path: str, n_list: list) -> list:
    """Rows finite; the peak gain at least mu_2**-1 * zeta_min**(n-1); and at
    every GAMMA_EVERY-th size and the last, the peak gain equal to that of the
    block product evaluated here."""
    header, rows = _read_csv(path)
    if header != ["n", "gamma", "gamma_root_n", "zeta_min_lower"] or list(rows[:, 0]) != list(n_list):
        return [f"header {header}, sizes {list(rows[:, 0])}"]
    fails = []
    for k, (n, gamma, root, zeta) in enumerate(rows):
        if not (math.isfinite(gamma) and gamma > 0.0 and math.isfinite(root)):
            fails.append(f"n={n:g}: gamma {gamma!r}, gamma_root_n {root!r}")
            continue
        mu, eps = _family(doc, int(n))
        if not math.isclose(root, gamma ** (1.0 / n), rel_tol=1e-12):
            fails.append(f"n={n:g}: gamma_root_n is not gamma**(1/n)")
        if not math.isnan(zeta) and not math.log(gamma * mu[0]) >= (n - 1) * math.log(zeta) - 1e-9 * n:
            fails.append(f"n={n:g}: log gamma {math.log(gamma):.9g} < (n-1) log zeta_min")
        if k % GAMMA_EVERY == 0 or k == len(rows) - 1:
            want = _log_peak(doc, _eigenvalues(doc, int(n), mu, eps)) - math.log(mu[0])
            if not abs(math.log(gamma) - want) <= GAMMA_RTOL:
                fails.append(f"n={n:g}: log gamma {math.log(gamma):.12g}, block product peak {want:.12g}")
    return fails


def _state_space(doc: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced platoon driven by the leader's position, outputs vehicles 2..n."""
    n = doc["n"]
    mu, eps = _family(doc, n)
    num, den = _open_loop(doc)
    num, den = num / den[-1], den / den[-1]
    m = len(den) - 1
    am = np.diag(np.ones(m - 1), 1)
    am[-1] = -den[:-1]
    bm = np.eye(m)[-1]
    cm = np.zeros(m)
    cm[:len(num)] = num
    lap = np.diag(mu * (1.0 + eps)) - np.diag(mu[1:], -1) - np.diag((mu * eps)[:-1], 1)
    a = np.kron(np.eye(n - 1), am) - np.kron(lap, np.outer(bm, cm))
    b = np.zeros((n - 1) * m)
    b[:m] = mu[0] * bm
    return a, b, np.kron(np.eye(n - 1), cm)


def check_step(doc: dict, path: str, t_end: float, dt: float, rtol: float) -> list:
    """Sampled rows against exp(A t) applied to the unit-step input, to
    ``rtol`` of the largest sampled deviation."""
    steps = int(round(t_end / dt))
    stride = steps // STEP_SAMPLES
    wanted = set(range(0, steps + 1, stride))
    rows = {}
    with open(path, encoding="utf-8") as fh:
        header = next(fh).rstrip("\n").split(",")
        count = 0
        for k, line in enumerate(fh):
            count += 1
            if k in wanted:
                rows[k] = np.array(line.split(","), dtype=float)
    if header != ["t"] + [f"pos_{i}" for i in range(2, doc["n"] + 1)] or count != steps + 1:
        return [f"{count} rows with header of {len(header)} columns"]
    a, b, c = _state_space(doc)
    d = len(b)
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = a
    aug[:d, d] = b
    hop = expm(aug * (stride * dt))
    z = np.zeros(d + 1)
    z[d] = 1.0
    worst, scale = 0.0, 1.0
    for k in sorted(wanted):
        if abs(rows[k][0] - k * dt) > 1e-9 * max(1.0, k * dt):
            return [f"row {k} has t = {rows[k][0]!r}"]
        y = c @ z[:d]
        worst = max(worst, float(np.max(np.abs(rows[k][1:] - y))))
        scale = max(scale, float(np.max(np.abs(y))))
        z = hop @ z
    if not worst <= rtol * scale:
        return [f"deviation from the exact solution {worst:.3g}, {worst / scale:.3g} of the peak"]
    return []


def check_oracle(doc: dict, path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        r = json.load(fh)
    direct = complex(*r["direct"])
    product = complex(*r["product"])
    err = abs(product - direct) / max(abs(direct), 1e-12)
    if not (math.isfinite(abs(direct)) and err <= ORACLE_RTOL):
        return [f"product {product!r} against direct {direct!r}: relative error {err:.3g}"]
    return []


CHECKS = {
    "spectrum": check_spectrum,
    "harmonic": check_harmonic,
    "freqresp": check_freqresp,
    "gamma": check_gamma,
    "step": check_step,
    "oracle": check_oracle,
}
