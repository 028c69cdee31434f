"""Property tests over random platoons and open loops (needs ``hypothesis``)."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from platoon_lab import (  # noqa: E402
    PlatoonConfig,
    RationalTF,
    block_stable,
    make_block,
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
    """Random gains and asymmetries around an open loop of one of four kinds.

    ``drop`` makes the leading coefficient of one block's denominator
    den(M) + lam*num(M) cancel exactly, ``static`` gives every block a
    constant denominator, and ``huge`` puts a 1e301 numerator over a small
    denominator, so that every denominator trims to a constant.
    """
    n = draw(st.integers(2, 8))
    gains = draw(st.just([1.0] * (n - 1)) | st.lists(st.floats(0.1, 10.0), min_size=n - 1,
                                                       max_size=n - 1))
    asym = draw(st.just([0.0] * (n - 1)) | st.lists(st.floats(0.0, 1.5), min_size=n - 1,
                                                      max_size=n - 1))
    kind = draw(st.sampled_from(["random", "drop", "static", "huge"]))
    controller = draw(st.sampled_from([UNIT, CONTROLLER])) if kind == "random" else UNIT
    num, den = draw(coefficients(0, 3)), draw(coefficients(1, 3))
    if kind == "drop":
        probe = PlatoonConfig(n=n, gains=gains, asymmetries=asym, vehicle=UNIT, controller=UNIT)
        lam = draw(st.sampled_from(spectrum_report(probe).eigenvalues))
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
    """(re_max, im_max, all_stable) from one block object and pole solve per eigenvalue."""
    M = open_loop(cfg)
    blocks = []
    for lam in spectrum_report(cfg).eigenvalues:
        try:
            blocks.append(make_block(lam, M))
        except ValueError as exc:  # 1 + lam*M identically zero: no block exists
            hypothesis.assume("identically zero" not in str(exc))
            raise
    poles = [r for b in blocks if b.den.degree > 0 for r in poly_roots(b.den)]
    return (max((r.real for r in poles), default=-math.inf),
            max((abs(r.imag) for r in poles), default=0.0),
            all(block_stable(b) for b in blocks))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(platoons())
def test_prepared_pole_extremes_equal_per_block_solves(cfg):
    prep = _prepared(cfg)
    assert (prep.re_max, prep.im_max, prep.all_stable) == per_block_extremes(cfg)
