"""Property tests over random platoons and open loops (needs ``hypothesis``)."""

import math
import re

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from platoon_lab import (  # noqa: E402
    ConfigError,
    PlatoonConfig,
    RationalTF,
    block_stable,
    open_loop,
    poly_roots,
    spectrum_report,
)
from platoon_lab.analysis import _prepared  # noqa: E402

from conftest import CONTROLLER  # noqa: E402

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
    """(re_max, im_max, all_stable) from one block object and pole solve per eigenvalue.

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
    return (max((r.real for r in poles), default=-math.inf),
            max((abs(r.imag) for r in poles), default=0.0),
            all(block_stable(b) for b in blocks))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(platoons())
def test_prepared_pole_extremes_equal_per_block_solves(cfg):
    expect = per_block_extremes(cfg)
    if isinstance(expect, float):
        with pytest.raises(ConfigError, match=re.escape(f"no closed-loop block at lam={expect:.17g}:")):
            _prepared(cfg)
    else:
        prep = _prepared(cfg)
        assert (prep.re_max, prep.im_max, prep.all_stable) == expect
