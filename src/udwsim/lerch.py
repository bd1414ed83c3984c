"""The Lerch transcendent of a rate integral, in float64 with numpy alone.

On a rate cut a non-stationary cross pair integrates a rational function of
y = e^{-|k| s} against y^{c-1}, c = 1 + i x with x = omega/|k| real, so its
rate integral is two values of

    I(c, z) = int_0^1 y^{c-1} / (1 - z y) dy = 2F1(1, c; c + 1; z) / c
            = sum_n z^n / (n + c)       (|z| < 1),

the Lerch transcendent Phi(z, 1, c) (DLMF 25.14, 15.2), continued off the
cut [1, inf) for every other z. lerch(x, z) returns I and a rounding scale:
the sum of the moduli of the terms it added, so that eps_mach times a small
multiple of it bounds the rounding of I.

|z| > 1 is reflected to w = 1/z, where (DLMF 15.8.2 at a = 1)

    I(c, z) = -i w Q(x, ln(-w)) + w^2 I(1 - i x, w),
    Q(x, l) = pi e^{i x l} / sinh(pi x) - 1/x,

so every z is brought into the closed unit disk, and the pole of
pi/sinh(pi x) at omega = 0 cancels inside Q, which is evaluated without
that cancellation. In the disk each point takes the first of these that
converges fast there:
- the series itself, for |z| <= 1/2;
- Pfaff's transformation, I = 2F1(1, 1; c + 1; zeta) / (c (1 - z)) with
  zeta = z/(z - 1), for |zeta| <= 1/2;
- the log series about z = 1 (Abramowitz & Stegun 15.3.10), for
  |1 - z| <= min(1/2, 2/|x|): its terms grow like e^{|x| |1 - z|} before
  they fall, so the disk shrinks as |c| grows;
- Gauss's continued fraction for 2F1(1, c; c + 1; z) everywhere else, such
  as near e^{+-i pi/3}, where all three series have ratio 1. Summed
  backward from a depth that grows with |x|, since the fraction converges
  slowest near z = 1 at large |c|.

A rate table asks for an outer product: every z of its rows and rungs
against every x of its gaps. So lerch evaluates the grid of the distinct z
and the distinct x of its arguments, and picks their points from it. Each
series separates on that grid: every term is a factor of z alone (z^n,
zeta^n, (1 - z)^n, computed once per z) times a factor of c alone (1/(n + c),
n!/(c + 1)_n, (c)_n/n! and psi(n + 1) - psi(c + n), once per x and side of
the reflection), and each sum is one einsum over the term axis, with no
(z, x, term) temporary. The reflection's Q and the continued fraction are
evaluated point by point. Every sum has one fixed length per method, padded
with exact zeros, and the continued fraction fixes its depth per point, so
a value depends on its own (x, z) alone, bit for bit, not on the grid it is
evaluated in.
"""

from __future__ import annotations

import math

import numpy as np

_EULER_GAMMA = 0.57721566490153286
# terms of the plain and the Pfaff series, whose ratios are at most 1/2:
# 2^-56 < eps_mach/16
_SERIES_TERMS = 56
_SERIES_RATIO = 0.5
# terms of the log series: ceil(ln(eps_mach/16)/ln|1 - z|) + 10 for each z,
# at most 56 + 10 on its largest disk |1 - z| = 1/2. Inside the disk
# |x| |1 - z| <= 2, so the count covers the e^{|x| |1 - z|} growth at every x
_LOG_TERMS = _SERIES_TERMS + 10
# levels of the continued fraction whose coefficients are held at once
_CF_BLOCK = 64
# B_2k/(2k), k = 1..7: psi(u) ~ ln u - 1/(2u) - sum_k B_2k/(2k u^2k), used from
# |u| >= _PSI_SHIFT on, where the first term left out is below 1e-23
_PSI_ASYMPTOTIC = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_PSI_SHIFT = 20
# 1/sinh(y) - 1/y = sum_k a_k y^(2k - 1), a_k = (-1)^k 2 (2^(2k-1) - 1) |B_2k|/(2k)!,
# k = 1..14; at |y| <= pi/4, where it is used, the next term is below 1e-17
_BERNOULLI = (1 / 6, 1 / 30, 1 / 42, 1 / 30, 5 / 66, 691 / 2730, 7 / 6, 3617 / 510,
              43867 / 798, 174611 / 330, 854513 / 138, 236364091 / 2730, 8553103 / 6,
              23749461029 / 870)
_CSCH_SERIES = tuple((-1) ** k * 2.0 * (2.0 ** (2 * k - 1) - 1.0) * b / math.factorial(2 * k)
                     for k, b in enumerate(_BERNOULLI, 1))


def _powers(q, terms):
    """(len(q), terms) array of q^n, n = 0..terms - 1."""
    p = np.empty((q.size, terms), dtype=complex)
    p[:, 0] = 1.0
    p[:, 1:] = q[:, None]
    return np.cumprod(p, axis=1, out=p)


def _separable_sum(zf, cf):
    """(sum, sum of moduli) over the term axis of the products of per-z
    factors zf (Z, n) and per-c factors cf (X, n): arrays (Z, X). einsum
    adds each sum's terms in order, whatever the grid."""
    return np.einsum("zn,xn->zx", zf, cf), np.einsum("zn,xn->zx", np.abs(zf), np.abs(cf))


def _plain_series(z, c):
    """sum_n z^n / (n + c) on the grid z x c, |z| <= 1/2."""
    return _separable_sum(_powers(z, _SERIES_TERMS),
                          1.0 / (np.arange(_SERIES_TERMS) + c[:, None]))


def _pfaff_series(z, c):
    """2F1(1, 1; c + 1; zeta) / (c (1 - z)) = sum_n zeta^n n!/(c + 1)_n
    / (c (1 - z)) on the grid z x c, zeta = z/(z - 1), |zeta| <= 1/2."""
    n = np.arange(1, _SERIES_TERMS)
    ratios = np.empty((c.size, _SERIES_TERMS), dtype=complex)
    ratios[:, 0] = 1.0
    ratios[:, 1:] = n / (c[:, None] + n)
    np.cumprod(ratios, axis=1, out=ratios)
    total, size = _separable_sum(_powers(z / (z - 1.0), _SERIES_TERMS), ratios)
    # divided by each factor, not by the product (1 - z) c (see _grid)
    return total / (1.0 - z)[:, None] / c, size / (np.abs(1.0 - z)[:, None] * np.abs(c))


def _digamma(c):
    """psi(c) for Re c >= 1: the recurrence psi(c) = psi(c + m) - sum_{k<m}
    1/(c + k), m the fewest steps to |c + m| >= _PSI_SHIFT, then the
    asymptotic series. m is chosen per point and the recurrence summed over
    a fixed _PSI_SHIFT terms, so a point's value does not depend on the
    others."""
    m = np.maximum(0.0, np.ceil(_PSI_SHIFT - np.abs(c)))
    k = np.arange(_PSI_SHIFT)
    steps = np.where(k < m[:, None], 1.0 / (c[:, None] + k), 0.0)
    u = c + m
    inv2 = 1.0 / (u * u)
    tail = np.zeros_like(u)
    for b in reversed(_PSI_ASYMPTOTIC):
        tail = tail * inv2 + b
    return np.log(u) - 0.5 / u - tail * inv2 - steps.sum(axis=1)


def _log_series(z, c):
    """Abramowitz & Stegun 15.3.10 at a = 1, b = c, divided by c, on the grid
    z x c: I = sum_n (c)_n/n! r^n [psi(n + 1) - psi(c + n) - ln r],
    r = 1 - z, for |r| <= min(1/2, 2/|x|), x = Im c. The terms grow to
    about e^{|x| |r|}, then fall like |r|^n: each z sums its own count of
    them, the rest of its _LOG_TERMS being exact zeros. One separable sum over
    twice the terms: r^n against (c)_n/n! [psi(n + 1) - psi(c + n)], then
    -ln r r^n against (c)_n/n!."""
    r = 1.0 - z
    count = np.ceil(math.log(np.finfo(float).eps / 16.0) / np.log(np.abs(r))) + 10
    powers = _powers(r, _LOG_TERMS)
    powers[np.arange(_LOG_TERMS) >= count[:, None]] = 0.0
    k = np.arange(_LOG_TERMS - 1)
    ck = c[:, None] + k
    # (c)_n/n!, and psi(n + 1) - psi(c + n) by 1/(k + 1) - 1/(c + k) = (c - 1)/((k + 1)(c + k))
    pochhammer = np.empty((c.size, _LOG_TERMS), dtype=complex)
    pochhammer[:, 0] = 1.0
    pochhammer[:, 1:] = ck / (k + 1.0)
    np.cumprod(pochhammer, axis=1, out=pochhammer)
    digammas = np.empty_like(pochhammer)
    digammas[:, 0] = -_EULER_GAMMA - _digamma(c)
    digammas[:, 1:] = (c - 1.0)[:, None] / ((k + 1.0) * ck)
    np.cumsum(digammas, axis=1, out=digammas)
    return _separable_sum(np.concatenate([powers, -np.log(r)[:, None] * powers], axis=1),
                          np.concatenate([digammas * pochhammer, pochhammer], axis=1))


def _continued_fraction(c, z, x):
    """Gauss's continued fraction 2F1(1, c; c + 1; z) = 1/(1 + k_1 z/(1 +
    k_2 z/(1 + ...))), k_{2m+1} = -(c + m)^2/((c + 2m)(c + 2m + 1)) and
    k_{2m+2} = -(m + 1)^2/((c + 2m + 1)(c + 2m + 2)), divided by c, summed
    backward from each point's own depth 40 + 4 ceil|x| (deeper levels
    leave it at exactly 1), _CF_BLOCK levels of coefficients at a time. Its
    rounding scale is |I| times a tenth of the depth."""
    depth = 40 + 4 * np.ceil(np.abs(x))
    t = np.ones_like(z)
    for top in range(int(depth.max()), 0, -_CF_BLOCK):
        m = np.arange(max(0, top - _CF_BLOCK), top)
        j = m // 2
        lead = np.where(m % 2 == 0, c[:, None] + j, j + 1.0)
        kz = -(lead * lead) / ((c[:, None] + m) * (c[:, None] + m + 1.0)) * z[:, None]
        kz[m >= depth[:, None]] = 0.0
        for col in kz.T[::-1]:
            np.divide(col, t, out=t)
            t += 1.0
    value = 1.0 / (t * c)
    return value, 0.1 * depth * np.abs(value)


def _q(x, ell):
    """(Q, rounding scale) of Q(x, l) = pi e^{i x l}/sinh(pi x) - 1/x, with
    Q(0, l) = i l. For |x| <= 1/4, Q = i l (e^u - 1)/u + e^u h(pi x),
    u = i x l, h(y) = pi (1/sinh(y) - 1/y) by its Taylor series; past that,
    pi/sinh(pi x) is taken as 2 pi sign(x) e^{-pi |x|}/(1 - e^{-2 pi |x|}),
    so that e^{i x l - pi |x|} cannot overflow (|Im l| <= pi); the rounding
    of l is amplified by |x l| in that exponential."""
    out, size = np.empty(x.shape, dtype=complex), np.empty(x.shape)
    small = np.abs(x) <= 0.25
    xs, ls = x[small], ell[small]
    u = 1j * xs * ls
    zero = u == 0.0
    ratio = np.expm1(u) / np.where(zero, 1.0, u)
    ratio[zero] = 1.0
    y2 = (math.pi * xs) ** 2
    h = np.zeros_like(xs)
    for a in reversed(_CSCH_SERIES):
        h = h * y2 + a
    h *= math.pi**2 * xs
    first, second = 1j * ls * ratio, np.exp(u) * h
    out[small], size[small] = first + second, np.abs(first) + np.abs(second)
    xb, lb = x[~small], ell[~small]
    ax = np.abs(xb)
    first = (2.0 * math.pi * np.sign(xb)) * np.exp(1j * xb * lb - math.pi * ax) / -np.expm1(
        -2.0 * math.pi * ax)
    out[~small] = first - 1.0 / xb
    size[~small] = np.abs(first) * (1.0 + np.abs(xb * lb)) + 1.0 / ax
    return out, size


def _in_disk(x, z):
    """(I(1 + i x, z), rounding scale) on the grid z x x, |z| <= 1, each
    point by the first method of the module docstring that converges fast
    there: the plain and the Pfaff series take whole rows (they depend on z
    alone), the log series the points of its disk, the continued fraction
    the rest."""
    c = 1.0 + 1j * x
    value, size = np.empty((z.size, x.size), dtype=complex), np.empty((z.size, x.size))
    az, a1 = np.abs(z), np.abs(1.0 - z)
    plain = az <= _SERIES_RATIO
    pfaff = ~plain & (az <= _SERIES_RATIO * a1)
    for rows, method in ((plain, _plain_series), (pfaff, _pfaff_series)):
        if rows.any():
            value[rows], size[rows] = method(z[rows], c)
    with np.errstate(divide="ignore"):
        log_radius = np.minimum(0.5, 2.0 / np.abs(x))
    near_one = (~plain & ~pfaff)[:, None] & (a1[:, None] <= log_radius)
    rest = (~plain & ~pfaff)[:, None] & ~near_one
    if near_one.any():
        rows, cols = near_one.any(axis=1), near_one.any(axis=0)
        sub = np.ix_(rows, cols)
        v, s = _log_series(z[rows], c[cols])
        # the sub-grid's other points belong to the continued fraction
        value[sub] = np.where(near_one[sub], v, 0.0)
        size[sub] = np.where(near_one[sub], s, 0.0)
    if rest.any():
        zi, xi = np.nonzero(rest)
        value[zi, xi], size[zi, xi] = _continued_fraction(c[xi], z[zi], x[xi])
    return value, size


def _grid(x, z):
    """(I(1 + i x, z), rounding scale) on the grid z x x of distinct values,
    arrays (len(z), len(x)), with size as lerch returns it."""
    far = np.abs(z) > 1.0
    w = z.copy()
    w[far] = 1.0 / z[far]
    value, size = np.empty((z.size, x.size), dtype=complex), np.empty((z.size, x.size))
    # the reflection's inner term I(1 - i x, w) is I at -x
    for rows, side in ((~far, x), (far, -x)):
        if rows.any():
            value[rows], size[rows] = _in_disk(side, w[rows])
    if far.any():
        wf = w[far][:, None]
        q, q_size = (v.reshape(-1, x.size) for v in
                     _q(np.tile(x, wf.size), np.repeat(np.log(-w[far]), x.size)))
        value[far] = -1j * wf * q + wf * wf * value[far]
        size[far] = np.abs(wf) * (q_size + np.abs(wf) * size[far])
    # c I as I + i x I: numpy may round a product of complex arrays of
    # different ranks by another loop (with or without fused multiply-adds)
    # on a grid of one point than on a larger one, and only a factor with a
    # zero real or imaginary part rounds alike in both
    size += np.abs(1.0 / (1.0 - z)[:, None] - value - 1j * x * value)
    return value, size


def lerch(x, z):
    """(I, size) for I = I(1 + i x, z) = 2F1(1, c; c + 1; z)/c of real x and
    complex z off the cut [1, inf), arrays that broadcast to one shape. size
    is the sum of the moduli of the terms that made I, plus
    |z dI/dz| = |1/(1 - z) - c I|, the change of I under a relative change of
    z (the rounding of z), so a few eps_mach times size bounds the rounding
    of I.

    The values come from the grid of the distinct z and the distinct x
    (_grid), so an outer product, as a rate table asks for, costs what its
    points cost, and scattered points cost their whole grid."""
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=complex)
    xs, xi = np.unique(x, return_inverse=True)
    zs, zi = np.unique(z, return_inverse=True)
    xi, zi = np.broadcast_arrays(xi.reshape(x.shape), zi.reshape(z.shape))
    value, size = _grid(xs, zs)
    return value[zi, xi], size[zi, xi]
