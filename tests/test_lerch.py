"""The Lerch transcendent I(c, z) = 2F1(1, c; c + 1; z)/c of the rate rungs,
c = 1 + i x, against mpmath's hypergeometric function at 30 digits.

The fixed-seed points cover every method of udwsim.lerch: the series, its
1/z reflection, Pfaff's transformation, the log series about z = 1 and
Gauss's continued fraction, including the points near e^{+-i pi/3} where
all three series have ratio 1, |z| up to 100 (an eps-regulated rung near a
horizon-crossing instant), |c| up to 85 (Differing kappa2/kappa1 = 0.05) and
omega -> 0, where the reflection's two poles cancel.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from udwsim import lerch as lerch_module
from udwsim.lerch import lerch

EPS = np.finfo(float).eps


def reference(x, z):
    with mp.workdps(30):
        c = mp.mpc(1, x)
        return complex(mp.hyp2f1(1, c, c + 1, mp.mpc(z.real, z.imag)) / c)


def sample_points():
    rng = np.random.default_rng(20260419)
    xs = (0.0, 1e-6, -1e-6, 1e-3, -1e-3, 0.25, -0.3, 2.0, -6.0, 20.0, 85.0, -85.0)
    points = []
    for x in xs:
        # anywhere, |z| from 0.01 to 100
        for r, th in zip(10.0 ** rng.uniform(-2.0, 2.0, 12), rng.uniform(-math.pi, math.pi, 12)):
            points.append((x, r * complex(math.cos(th), math.sin(th))))
        # near e^{+-i pi/3}
        for th in (math.pi / 3, -math.pi / 3):
            for d in (0.0, 0.01, -0.02):
                points.append((x, (1.0 + d) * complex(math.cos(th + d), math.sin(th + d))))
        # near z = 1 and the cut [1, inf), on both sides, as eps-regulated rungs place them
        for d in (0.003, 0.03, 0.3):
            for side in (1.0, -1.0):
                points += [(x, complex(1.0 + d, side * 3e-3)), (x, complex(1.0 - d, side * 3e-3)),
                           (x, complex(1.0, side * d))]
        # |z| = 100 next to both halves of the real axis
        for d in (0.02, 0.9):
            points += [(x, 100.0 * complex(math.cos(math.pi - d), math.sin(math.pi - d))),
                       (x, 100.0 * complex(math.cos(d), math.sin(d)))]
    return np.array([p[0] for p in points]), np.array([p[1] for p in points])


X, Z = sample_points()


def test_every_method_meets_mpmath(monkeypatch):
    used = {}
    for name in ("_plain_series", "_pfaff_series", "_log_series", "_continued_fraction", "_q"):
        def spy(*args, _name=name, _fn=getattr(lerch_module, name)):
            used[_name] = used.get(_name, 0) + len(args[0])
            return _fn(*args)
        monkeypatch.setattr(lerch_module, name, spy)
    value, size = lerch(X, Z)
    assert set(used) == {"_plain_series", "_pfaff_series", "_log_series",
                         "_continued_fraction", "_q"}
    for x, z, v, s in zip(X, Z, value, size):
        ref = reference(x, z)
        # the rate rungs take 16 eps_mach size as the rounding bound of I
        assert abs(v - ref) <= 1e-12 * abs(ref), (x, z)
        assert abs(v - ref) <= 16.0 * EPS * s, (x, z)


@pytest.mark.parametrize("z", [0.3 + 0.1j, -0.9 + 0.2j, 0.95 + 0.05j, 4.0 - 0.01j, -30.0 + 1j])
def test_omega_zero_is_the_logarithm(z):
    # I(1, z) = -ln(1 - z)/z, and at |omega|/kappa = 1e-6 the reflection's
    # two poles at c = 1 cancel without loss
    value, _ = lerch(0.0, z)
    exact = -np.log(1.0 - z) / z
    assert abs(value - exact) <= 4.0 * EPS * abs(exact)
    near, _ = lerch(1e-6, z)
    assert abs(near - reference(1e-6, z)) <= 1e-14 * abs(exact)


def test_each_point_is_independent_of_the_others():
    # every method fixes its term count or depth per point, so a point's
    # value is bit for bit the same alone or among others
    value, _ = lerch(X, Z)
    for k in range(0, len(X), 7):
        alone, _ = lerch(X[k], Z[k])
        assert alone == value[k]
