"""Harrell-Davis quantile estimates for the latency metrics.

The HD estimate of a quantile is a weighted mean of all order statistics,
with beta-distribution weights centred on the quantile.  It estimates the
same quantile as the sample quantile with a smaller run-to-run spread when
the samples are few: around 130 operations per run here, over costs that
spread widely.  Harrell and Davis, "A new distribution-free quantile
estimator", Biometrika 69 (1982).
"""

from __future__ import annotations

import math


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's method
    on its continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-15:
            break
    return front * (f - 1.0) / a


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    total, prev = 0.0, 0.0
    for i, x in enumerate(xs, 1):
        cur = _betainc(a, b, i / n)
        total += (cur - prev) * x
        prev = cur
    return total
