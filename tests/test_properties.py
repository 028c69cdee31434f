"""Property tests over random platoons and open loops (needs ``hypothesis``)."""

import math
import re

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from platoon_lab import (  # noqa: E402
    ConfigError,
    PlatoonConfig,
    RationalTF,
    frequency_series,
    gamma_sequence,
    hinf_norm,
    instantiate_family,
    open_loop,
    poly_eval,
    product_response,
    spectrum_report,
    zeta_min,
)
from platoon_lab import numerics  # noqa: E402
from platoon_lab.analysis import _prepared  # noqa: E402
from platoon_lab.peaksearch import _scan_grid  # noqa: E402
from platoon_lab.platoon import _family_log_gains, _pivot_log_gains  # noqa: E402
from platoon_lab.sim import _pole_pass  # noqa: E402

from conftest import (  # noqa: E402
    CONTROLLER,
    VEHICLE,
    block_stable,
    closed_form_block_peak,
    continuant_log_gain,
    crossing_near_one,
    grid_block_peak,
    make_block,
    near_axis,
    poly_roots,
)

UNIT = RationalTF((1.0,), (1.0,))

coefficient = st.floats(-10.0, 10.0)
leading = st.floats(0.01, 10.0) | st.floats(-10.0, -0.01)


def coefficients(min_degree, max_degree):
    """Ascending coefficients with a leading one that is not round-off."""
    return st.builds(lambda low, top: [*low, top],
                     st.lists(coefficient, min_size=min_degree, max_size=max_degree), leading)


@st.composite
def platoons(draw):
    """Random gains and asymmetries around an open loop of one of five kinds.

    ``drop`` makes the leading coefficient of one block's denominator
    den(M) + lam*num(M) cancel exactly, ``cancel`` makes M = -1/lam so that
    one block's denominator is identically zero, ``static`` gives every
    block a constant denominator, and ``huge`` puts a 1e301 numerator over a
    small denominator, so that every denominator trims to a constant.
    """
    n = draw(st.integers(2, 8))
    gains = draw(st.just([1.0] * (n - 1)) | st.lists(st.floats(0.1, 10.0), min_size=n - 1,
                                                       max_size=n - 1))
    asym = draw(st.just([0.0] * (n - 1)) | st.lists(st.floats(0.0, 1.5), min_size=n - 1,
                                                      max_size=n - 1))
    kind = draw(st.sampled_from(["random", "drop", "cancel", "static", "huge"]))
    controller = draw(st.sampled_from([UNIT, CONTROLLER])) if kind == "random" else UNIT
    num, den = draw(coefficients(0, 3)), draw(coefficients(1, 3))
    if kind in ("drop", "cancel"):
        probe = PlatoonConfig(n=n, gains=gains, asymmetries=asym, vehicle=UNIT, controller=UNIT)
        lam = draw(st.sampled_from(spectrum_report(probe).eigenvalues))
    if kind == "cancel":  # den + lam*num = lam*p - lam*p, exactly zero
        num, den = [-c for c in den], [lam * c for c in den]
    elif kind == "drop":
        width = max(len(num), len(den), 2)
        num = num + [0.0] * (width - len(num))
        num[-1] = draw(leading)
        den = den + [0.0] * (width - len(den))
        den[-1] = -lam * num[-1]
    elif kind == "static":
        num, den = [draw(st.floats(0.01, 100.0))], [1.0]
    elif kind == "huge":
        num = [1e301 * draw(st.floats(0.5, 2.0))]
    return PlatoonConfig(n=n, gains=gains, asymmetries=asym,
                         vehicle=RationalTF(num=num, den=den), controller=controller)


def per_block_extremes(cfg):
    """(re_min, re_max, im_max, all_stable) from one block object and pole solve per eigenvalue.

    When some block cannot be formed, the first such eigenvalue in its place:
    that block's denominator, summed here coefficient by coefficient, is
    identically zero or not finite, which :class:`RationalTF` rejects.
    """
    M = open_loop(cfg)
    blocks = []
    for lam in spectrum_report(cfg).eigenvalues:
        with np.errstate(over="ignore", invalid="ignore"):
            den = P.polyadd(M.den.coeffs, lam * np.asarray(M.num.coeffs))
        try:
            blocks.append(RationalTF(num=M.num, den=den))
        except ValueError:
            return lam
    poles = [r for b in blocks if b.den.degree > 0 for r in poly_roots(b.den)]
    return (min((r.real for r in poles), default=math.inf),
            max((r.real for r in poles), default=-math.inf),
            max((abs(r.imag) for r in poles), default=0.0),
            all(block_stable(b) for b in blocks))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(platoons())
# poles 5e-10 and 2e-9 left of the axis, on either side of the -1e-9 stability threshold
@example(near_axis(5e-10))
@example(near_axis(2e-9))
@example(crossing_near_one(5e-10))
@example(crossing_near_one(2e-9))
def test_prepared_pole_extremes_equal_per_block_solves(cfg):
    expect = per_block_extremes(cfg)
    if isinstance(expect, float):
        with pytest.raises(ConfigError, match=re.escape(f"no closed-loop block at lam={expect:.17g}:")):
            _prepared(cfg)
    else:
        extremes = _pole_pass(cfg)
        assert (extremes.re_min, extremes.re_max, extremes.im_max, _prepared(cfg).all_stable) == expect


@st.composite
def golden_loop_platoons(draw):
    """The benchmark loop with n <= 40, gains in [0.1, 10] and asymmetries in [0, 1.5]."""
    n = draw(st.integers(2, 40))
    gains = draw(st.lists(st.floats(0.1, 10.0), min_size=n - 1, max_size=n - 1))
    asym = draw(st.lists(st.floats(0.0, 1.5), min_size=n - 1, max_size=n - 1))
    return PlatoonConfig(n=n, gains=gains, asymmetries=asym, vehicle=VEHICLE, controller=CONTROLLER)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(golden_loop_platoons(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_product_response_matches_mpmath_product(cfg, log_omegas):
    mpmath = pytest.importorskip("mpmath")
    M = open_loop(cfg)
    omegas = 10.0 ** np.asarray(log_omegas)
    got = product_response(cfg, omegas)
    lams = spectrum_report(cfg).eigenvalues
    with mpmath.workdps(50):  # the same float eigenvalues and coefficients, 50-digit arithmetic
        for w, val in zip(omegas, got):
            s = mpmath.mpc(0, w)
            m = mpmath.polyval(M.num.coeffs[::-1], s) / mpmath.polyval(M.den.coeffs[::-1], s)
            expect = mpmath.fprod(lam * m / (1 + lam * m) for lam in lams) / cfg.gains[0]
            assert abs(val - complex(expect)) <= 1e-12 * abs(complex(expect))


def probe_outcome(evaluate):
    """The bytes of a response value, or the ConfigError it raises."""
    try:
        with np.errstate(all="ignore"):  # Horner's overflow on a wide band is part of the value
            return np.complex128(evaluate()).tobytes()
    except ConfigError as exc:
        return str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(platoons(), st.just(-math.inf) | st.floats(-3.0, 200.0))
# a zero-order loop, an improper loop, and 1/s**2, whose block at lam = 1 has poles at s = +-j
@example(PlatoonConfig(n=5, gains=[1.0] * 4, asymmetries=[0.5] * 4, vehicle=UNIT, controller=UNIT), 0.5)
@example(PlatoonConfig(n=5, gains=[1.0] * 4, asymmetries=[0.5] * 4, vehicle=RationalTF((1.0, 1.0, 1.0), (0.0, 1.0)),
                       controller=UNIT), 150.0)
@example(PlatoonConfig(n=2, gains=[1.0], asymmetries=[0.0], vehicle=RationalTF((1.0,), (0.0, 0.0, 1.0)),
                       controller=UNIT), 0.0)
def test_single_frequency_probe_is_its_grid_row(cfg, log_omega):
    # the peak search's scalar probe must give the bits, or the error, of a one-point grid
    w = 10.0 ** log_omega
    assert probe_outcome(lambda: product_response(cfg, w)) == probe_outcome(
        lambda: product_response(cfg, np.array([w]))[0])


@st.composite
def periodic_templates(draw):
    """The benchmark loop with a gain rule of period 1 to 4 in [0.5, 2] and asymmetries in [0, 0.95]."""
    period = draw(st.integers(1, 4))
    gains = draw(st.lists(st.floats(0.5, 2.0), min_size=period, max_size=period))
    # a template's trailing asymmetry is the structural zero, outside the rule, once it has two followers
    asym = draw(st.lists(st.floats(0.0, 0.95), min_size=max(period - 1, 1), max_size=max(period - 1, 1)))
    return PlatoonConfig(n=period + 1, gains=gains, asymmetries=asym + [0.0] * (period > 1), vehicle=VEHICLE,
                         controller=CONTROLLER)


def sweep_outcome(sweep):
    """The ``(n, gamma, gamma_root_n, zeta_min_lower)`` rows a sweep gives, or the text of what it raises."""
    try:
        with np.errstate(all="ignore"):  # a pole's overflow is part of the outcome
            return list(sweep())
    except ConfigError as exc:
        return str(exc)


def per_size_sweep(template, sizes, band):
    """The sweep one size at a time: the peak search on the product's single-frequency calls, and zeta_min."""
    for n in sizes:
        cfg = instantiate_family(template, n)
        gamma = hinf_norm(lambda w: product_response(cfg, w), *band)[0]
        yield n, gamma, gamma ** (1.0 / n), zeta_min(cfg, band)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(periodic_templates(), st.lists(st.integers(2, 60), min_size=1, max_size=6))
@example(PlatoonConfig(n=5, gains=[1.3, 0.7, 1.9, 0.5], asymmetries=[0.9, 0.2, 0.6, 0.0], vehicle=VEHICLE,
                       controller=CONTROLLER), [60, 2, 17, 60, 3, 17])
# M = 1/s**2 with no asymmetry: the eigenvalues are the gains.  A gain of 1 puts a block pole at
# omega = 1 = grid[0] of the band (1, 10), which fails the scan of every size but 2; the size of 2
# has only the gain 4, whose pole at omega = 2 fails its block peak
@example(PlatoonConfig(n=3, gains=[4.0, 1.0], asymmetries=[0.0, 0.0], vehicle=VEHICLE, controller=UNIT), [2, 5, 3])
@example(PlatoonConfig(n=3, gains=[4.0, 1.0], asymmetries=[0.0, 0.0], vehicle=VEHICLE, controller=UNIT), [4, 2])
def test_sweep_is_the_per_size_peak_search_bit_for_bit(template, sizes):
    # the lockstep rounds and the stacked block peaks give each size its own bits, and the
    # error of the first size that fails, at its first failing stage
    band = (1.0, 10.0) if template.controller == UNIT else (1e-3, 1e3)
    got = sweep_outcome(lambda: [(p.n, p.gamma, p.gamma_root_n, p.zeta_min_lower)
                                 for p in gamma_sequence(template, sizes, band)])
    assert got == sweep_outcome(lambda: per_size_sweep(template, sizes, band))
    if template.controller == UNIT:
        assert got == ("non-finite response at omega=2.0" if sizes[0] == 2 else
                       "response undefined at omega=1.0: closed-loop pole on the imaginary axis")


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(golden_loop_platoons())
def test_peak_search_reaches_the_dense_maximum_of_its_bracket(cfg):
    gamma, _ = hinf_norm(lambda w: product_response(cfg, w))
    grid = _scan_grid(1e-3, 1e3)
    mags = np.abs(product_response(cfg, grid))
    i = int(np.nonzero(mags >= mags.max() * (1.0 - 1e-9))[0][0])
    dense = np.geomspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 4001)
    assert gamma >= (1.0 - 1e-13) * np.abs(product_response(cfg, dense)).max()


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(golden_loop_platoons(), st.sampled_from([1, 2, 3, 401]), st.integers(1, 1 << 20))
# a block target of 1 byte gives the most blocks: 401 at 401 points, one frequency each
@example(PlatoonConfig(n=30, gains=[1.0] * 29, asymmetries=[0.5] * 29, vehicle=VEHICLE, controller=CONTROLLER),
         401, 1)
def test_frequency_blocks_match_one_product_bit_for_bit(cfg, n_points, block_bytes):
    grid = np.logspace(-3.0, 3.0, n_points)
    expect = cfg.gains[0] * product_response(cfg, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_BLOCK_BYTES", block_bytes)
        got = frequency_series(cfg, n_points=n_points)
    assert got.omegas.tobytes() == grid.tobytes()
    assert got.values.tobytes() == expect.tobytes()


@st.composite
def cyclic_templates(draw):
    """A benchmark-loop template with a rule of 1..4 followers, and sizes up to 60.

    Gains lie in [0.1, 10] and asymmetries in [0, 1.5]; the sizes come
    unsorted, and the first one is repeated at the end.
    """
    k = draw(st.integers(1, 4))
    gains = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
    asym = draw(st.lists(st.floats(0.0, 1.5), min_size=k, max_size=k))
    template = PlatoonConfig(n=k + 1, gains=gains, asymmetries=asym, vehicle=VEHICLE, controller=CONTROLLER)
    sizes = draw(st.lists(st.integers(2, 60), min_size=1, max_size=5))
    return template, sizes + sizes[:1]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(cyclic_templates())
def test_continuant_pass_matches_product_of_every_size(case):
    template, sizes = case
    grid = np.logspace(-3.0, 3.0, 2000)
    M = open_loop(template)
    rows = _family_log_gains(template, sizes, poly_eval(M.den, 1j * grid), poly_eval(M.num, 1j * grid))
    assert set(rows) == set(sizes)
    for n in set(sizes):
        cfg = instantiate_family(template, n)
        mags = np.abs(product_response(cfg, grid))
        normal = mags > 1e-290  # below, the product's exponential is subnormal and loses digits
        # With asymmetries above 1 the Fiedler value can be exponentially small, and the
        # product inherits the relative error of each eigenvalue, whose absolute error
        # is a few ulps of ||R|| <= gershgorin_upper: sum_i u*||R||/lam_i bounds that.
        rep = spectrum_report(cfg)
        conditioning = 64 * np.finfo(float).eps * rep.gershgorin_upper * np.sum(1 / np.asarray(rep.eigenvalues))
        assert np.all(np.abs(rows[n][normal] - np.log(mags[normal])) <= 1e-10 + conditioning)


def uniform_template(k, mu, eps):
    return PlatoonConfig(n=k + 1, gains=[mu] * k, asymmetries=[eps] * k, vehicle=VEHICLE, controller=CONTROLLER)


@st.composite
def uniform_templates(draw):
    """A benchmark-loop template whose rule of 2 or 3 followers has one gain in [0.1, 10] and one
    asymmetry in [0, 2], and sizes up to 400, unsorted, the first one repeated at the end."""
    template = uniform_template(draw(st.integers(2, 3)), draw(st.floats(0.1, 10.0)), draw(st.floats(0.0, 2.0)))
    sizes = draw(st.lists(st.integers(2, 400), min_size=1, max_size=3))
    return template, sizes + sizes[:1]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(uniform_templates())
@example((uniform_template(2, 1.0, 0.0), [2, 400, 57, 2]))  # bc = 0: rho = 0
@example((uniform_template(3, 1.0, 1.0), [400, 3, 60, 400]))  # the double root rho = 1 at z = 0
@example((uniform_template(2, 0.987, 1.3), [113, 5, 300, 113]))
def test_uniform_family_closed_form(case):
    template, sizes = case
    grid = np.logspace(-3.0, 3.0, 2000)
    M = open_loop(template)
    den, num = poly_eval(M.den, 1j * grid), poly_eval(M.num, 1j * grid)
    rows = _family_log_gains(template, sizes, den, num)
    assert set(rows) == set(sizes)
    eps = template.asymmetries[0]
    passed = _pivot_log_gains(template, sizes, den, num) if eps <= 1.0 else None
    for n in set(sizes):
        cfg = instantiate_family(template, n)
        rep = spectrum_report(cfg)
        u_norm = np.finfo(float).eps * rep.gershgorin_upper
        conditioning = 64 * u_norm * np.sum(1 / np.abs(rep.eigenvalues))  # as in the continuant test above
        # the product is an oracle only where every eigenvalue keeps a leading digit, which for eps > 1
        # fails as the Fiedler value shrinks exponentially with n (ROADMAP, Known defects)
        if rep.fiedler > 64 * u_norm:
            mags = np.abs(product_response(cfg, grid))
            normal = mags > 1e-290
            assert np.all(np.abs(rows[n][normal] - np.log(mags[normal])) <= 1e-10 + conditioning)
        if passed is not None:
            # the pass rounds z into d + z at every pivot: the same conditioning bounds its own error
            assert np.all(np.abs(rows[n] - passed[n]) <= 1e-11 * (1.0 + np.abs(passed[n])) + conditioning)
        else:
            omegas = grid[::250]
            assert np.max(np.abs(rows[n][::250] - continuant_log_gain(cfg, omegas))) <= 1e-8


@st.composite
def stable_blocks(draw):
    """A gain in [0.01, 10] and a PD or lead-lag controller over 1/s**2 whose closed-loop block is stable."""
    k, a = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    if draw(st.booleans()):  # PD: k*(a + s)
        M = RationalTF(num=(k * a, k), den=(0.0, 0.0, 1.0))
    else:  # lead-lag: k*(a + s)/(b + s)
        M = RationalTF(num=(k * a, k), den=(0.0, 0.0, draw(st.floats(0.1, 10.0)), 1.0))
    lam = draw(st.floats(0.01, 10.0))
    assume(block_stable(make_block(lam, M)))
    return lam, M


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(stable_blocks())
def test_closed_form_block_peak_matches_the_grid_search(case):
    lam, M = case
    gamma, w0 = closed_form_block_peak(lam, M)
    want, _ = grid_block_peak(lam, M)
    # the closed form is exact over the band, so the grid can only fall short
    assert gamma >= want * (1.0 - 1e-12)
    assert abs(gamma - want) <= 1e-9 * want
    assert w0 == 0.0 or 1e-3 <= w0 <= 1e3
