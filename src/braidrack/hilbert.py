"""Integer power-series helpers for graded dimensions.

A series is a list of nonnegative ints, index = degree.  The factor
vocabulary is (n)_{t^r} = 1 + t^r + ... + t^{r(n-1)} for r in {1, 2},
including n = infinity (geometric series); a factorization is a multiset
of (n, r) pairs with n None for the infinite factor.
"""
from __future__ import annotations

import itertools
from collections import Counter

# factorizations returns at most this many candidates, and says when it cut
MAX_SOLUTIONS = 64


def poly_mul(a, b, trunc=None):
    n = len(a) + len(b) - 1
    if trunc is not None:
        n = min(n, trunc + 1)
    out = [0] * n
    for i, x in enumerate(a):
        if x == 0 or i >= n:
            continue
        for j, y in enumerate(b):
            if i + j >= n:
                break
            out[i + j] += x * y
    return out


def factor_series(n, r, trunc):
    """(n)_{t^r} truncated to degree ``trunc``; n = None means infinite."""
    out = [0] * (trunc + 1)
    k = 0
    while (n is None or k < n) and k * r <= trunc:
        out[k * r] = 1
        k += 1
    return out


def expand_product(factors, trunc):
    """Expand a multiset of (n, r) factors to a truncated series."""
    out = [1] + [0] * trunc
    for n, r in factors:
        out = poly_mul(out, factor_series(n, r, trunc), trunc)
    return out


def product_exponents(series, trunc):
    """Exponents c_k with prod_k (1 - t^k)^{c_k} = series mod t^{trunc+1}.

    The representation exists and is unique for any integer series with
    constant term 1; returns None when the constant term is not 1.  Degrees
    past the end of ``series`` count as 0.
    """
    if not series or series[0] != 1:
        return None
    r = list(series[: trunc + 1]) + [0] * max(0, trunc + 1 - len(series))
    exps = {}
    for k in range(1, trunc + 1):
        c = -r[k]
        if c:
            exps[k] = c
            r = poly_mul(_one_minus_tk_power(k, -c, trunc), r, trunc)
    return exps


def _one_minus_tk_power(k, e, trunc):
    """(1 - t^k)^e truncated, e any integer: the binomial series
    sum_m binom(e, m) (-t^k)^m, with generalized binomials when e < 0."""
    out = [0] * (trunc + 1)
    b = 1  # binom(e, m)
    for m in range(trunc // k + 1):
        out[k * m] = -b if m % 2 else b
        b = b * (e - m) // (m + 1)
    return out


def factorizations(series, trunc):
    """All multisets of factors matching the series up to degree ``trunc``.

    Factors are (n, 1) and (n, 2) with 2 <= n <= trunc, plus tail factors
    (None, 1) / (None, 2) standing for (infinity)_{t^r} or any (n)_{t^r}
    too deep for the truncation to distinguish.  Returns (solutions,
    complete): a list of sorted factor lists, at most ``MAX_SOLUTIONS`` of
    them and empty when none match, and whether it holds every match.
    """
    exps = product_exponents(series, trunc)
    if exps is None:
        return [], True
    # Factor contributions to the (1 - t^k) exponents:
    #   (n)_t,   n <= trunc: +1 at k=n, -1 at k=1
    #   (n)_t2, 2n <= trunc: +1 at k=2n, -1 at k=2
    #   tail (None, 1): -1 at k=1;  tail (None, 2): -1 at k=2
    # so c_k, k >= 3, counts (k)_t plus, for even k, (k/2)_{t^2}; the split
    # of each even c_k and the (None, 2) count fix every other count, and
    # the two tails always add up to -(sum of all c_k).  Every candidate thus
    # has exponent c_k at each k <= trunc (at k = 1 through that sum), and
    # these fix the series mod t^(trunc+1): each reproduces it unchecked.
    if any(c < 0 for k, c in exps.items() if k >= 3):
        return [], True
    evens = [k for k in sorted(exps) if k >= 4 and k % 2 == 0]
    tails = -sum(exps.values())
    choices = [range(exps[k] + 1) for k in evens] + [range(tails + 1)]
    solutions = []
    for *halves, tail2 in itertools.product(*choices):
        twos = exps.get(2, 0) + sum(halves) + tail2
        if twos < 0:
            continue
        if len(solutions) == MAX_SOLUTIONS:
            return solutions, False
        factors = [(2, 1)] * twos + [(None, 1)] * (tails - tail2) + [(None, 2)] * tail2
        half = dict(zip(evens, halves))
        for k, c in exps.items():
            if k >= 3:
                factors += [(k, 1)] * (c - half.get(k, 0))
        for k, c in half.items():
            factors += [(k // 2, 2)] * c
        factors.sort(key=_factor_key)
        solutions.append(factors)
    return solutions, True


def _factor_key(factor):
    """Sort (n)_t before (n)_{t^2}, each by n with the tail last."""
    n, r = factor
    return r, n is None, n or 0


def format_factorization(factors):
    counts = Counter(factors)
    parts = []
    for n, r in sorted(counts, key=_factor_key):
        c = counts[n, r]
        base = "(%s)_{t%s}" % ("inf" if n is None else n, "^2" if r == 2 else "")
        parts.append(base + ("^%d" % c if c > 1 else ""))
    return " ".join(parts)
