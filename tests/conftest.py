import numpy as np
import pytest

from platoon_lab import PlatoonConfig, RationalTF, poly_roots
from platoon_lab.analysis import _STABLE_RE

# Benchmark models used throughout: a double-integrator vehicle with a
# lead-lag controller that keeps every closed-loop block stable for any
# positive feedback gain.
VEHICLE = RationalTF(num=(1.0,), den=(0.0, 0.0, 1.0))
CONTROLLER = RationalTF(num=(3.0, 43.0, 110.0), den=(1.0, 2.9, 1.0))
# Sign-flipped controller: positive feedback, unstable closed-loop blocks.
BAD_CONTROLLER = RationalTF(num=(-3.0, -43.0, -110.0), den=(1.0, 2.9, 1.0))


def make_cfg(n, eps=0.5, mu=1.0, vehicle=VEHICLE, controller=CONTROLLER, ref_distance=1.0):
    """Homogeneous benchmark platoon with scalar gain and asymmetry."""
    gains = (float(mu),) * (n - 1)
    asym = (float(eps),) * (n - 1)
    return PlatoonConfig(n=n, gains=gains, asymmetries=asym,
                         vehicle=vehicle, controller=controller,
                         ref_distance=ref_distance)


@pytest.fixture
def benchmark_cfg():
    return make_cfg(20, eps=0.5)


def block_stable(tf):
    """Reference stability rule: True iff every pole of ``tf`` has real part below -1e-9.

    A constant denominator has no poles, so such a block is stable.
    """
    return tf.den.degree == 0 or all(r.real < _STABLE_RE for r in poly_roots(tf.den))


def dense_reduced_eigs(cfg):
    """Independent oracle: dense general eigensolver on the reduced Laplacian."""
    from platoon_lab import build_laplacian

    R = build_laplacian(cfg)[1:, 1:]
    return np.sort(np.linalg.eigvals(R).real)
