"""Binomial and multinomial draws from ``random.Random``, for `aqc`'s shots
and `tae`'s trials (Devroye, *Non-Uniform Random Variate Generation*, 1986)."""

import itertools
import math
import random
from typing import Sequence


def _stirling_tail(x: int) -> float:
    """log(x!) less its Stirling form (x + 1/2) log(x + 1) - (x + 1) + log(2 pi) / 2."""
    if x < 10:
        return (math.lgamma(x + 1) - (x + 0.5) * math.log(x + 1) + x + 1
                - 0.5 * math.log(2 * math.pi))
    r = 1.0 / (x + 1)
    return r * (1 / 12 - r * r * (1 / 360 - r * r / 1260))


def binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw, with the right distribution for every n up to 2**63.

    The algorithm of CPython 3.12's random.binomialvariate: Devroye's
    geometric method, O(np), when n p < 10, else Hoermann's BTRS (1993),
    O(1). It differs where CPython's loses accuracy: log1p(-p) in place of
    log(1 - p), which is 0 below p = 1.1e-16; the centre n p and the mode as
    exact integers; and the acceptance test's log f(k)/f(m) in Hoermann's
    Stirling form with log1p, where lgamma(n) cancels (at n = 2**62 that
    cancellation made the variance twelve times too large). A geometric gap
    of n or more ends the draw before it is floored, since at subnormal p it
    is infinite, and uniforms that meet a log or a division never come out 0.
    """
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - binomial(rng, n, 1.0 - p)
    if n * p < 10.0:
        x = y = 0
        c = math.log1p(-p)
        while True:
            gap = math.log(1.0 - rng.random()) / c
            if gap >= n:
                return x
            y += math.floor(gap) + 1
            if y > n:
                return x
            x += 1
    q = 1.0 - p
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    num, den = p.as_integer_ratio()
    centre, rest = divmod(n * num, den)
    c = rest / den + 0.5
    m = (n + 1) * num // den
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:
            continue
        k = centre + math.floor((2.0 * a / us + b) * u + c)
        if not 0 <= k <= n:
            continue
        v = 1.0 - rng.random()
        if us >= 0.07 and v <= vr:
            return k
        v *= alpha / (a / (us * us) + b)
        dk = k - m
        log_ratio = ((n - m + 0.5) * math.log1p(dk / (n - k + 1))
                     - (m + 0.5) * math.log1p(dk / (m + 1))
                     + dk * math.log((n - k + 1) * p / ((k + 1) * q))
                     + _stirling_tail(m) + _stirling_tail(n - m)
                     - _stirling_tail(k) - _stirling_tail(n - k))
        if math.log(v) <= log_ratio:
            return k


def multinomial(rng: random.Random, n: int, weights: Sequence[float]) -> dict[int, int]:
    """Counts of n draws over categories with the given weights, zeros left out.

    Binomial splitting: category i takes Binomial(draws left, w_i / W_i),
    W_i = w_i + ... + w_last, and the rest go on. W_i is summed from the last
    category back, so no mass is a difference, and equal weights give ratios
    of exact point counts. The loop stops once every draw is placed, and each
    binomial draw costs O(1) on average, so the cost does not grow with n.
    """
    return _split(rng, n, weights, list(itertools.accumulate(reversed(weights)))[::-1])


def even_multinomial(rng: random.Random, n: int, m: int) -> dict[int, int]:
    """multinomial(rng, n, [1] * m) draw for draw, with no list: w_i / W_i is 1 / (m - i)."""
    return _split(rng, n, itertools.repeat(1, m), range(m, 0, -1))


def _split(rng: random.Random, n: int, weights, tails) -> dict[int, int]:
    counts: dict[int, int] = {}
    for i, (weight, tail) in enumerate(zip(weights, tails)):
        if n == 0:
            break
        drawn = binomial(rng, n, weight / tail)
        if drawn:
            counts[i] = drawn
            n -= drawn
    return counts
