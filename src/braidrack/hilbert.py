"""Integer power-series helpers for graded dimensions.

A series is a list of nonnegative ints, index = degree.  The factor
vocabulary is (n)_{t^r} = 1 + t^r + ... + t^{r(n-1)} for r in {1, 2},
including n = infinity (geometric series); a factorization is a multiset
of (n, r) pairs with n None for the infinite factor.
"""
from __future__ import annotations

from collections import Counter

# factorizations returns at most this many candidates
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
    constant term 1; returns None when the constant term is not 1.
    """
    if not series or series[0] != 1:
        return None
    r = list(series[: trunc + 1]) + [0] * max(0, trunc + 1 - len(series))
    exps = {}
    for k in range(1, trunc + 1):
        c = -r[k]
        if c:
            exps[k] = c
            r = _mul_one_minus_tk_power(r, k, -c, trunc)
    return exps


def _mul_one_minus_tk_power(r, k, e, trunc):
    """r * (1 - t^k)^e truncated, e any integer."""
    out = list(r)
    if e >= 0:
        for _ in range(e):
            nxt = list(out)
            for i in range(k, trunc + 1):
                nxt[i] -= out[i - k]
            out = nxt
    else:
        for _ in range(-e):
            # multiply by 1/(1 - t^k) = 1 + t^k + t^{2k} + ...
            for i in range(k, trunc + 1):
                out[i] += out[i - k]
    return out


def factorizations(series, trunc):
    """All multisets of factors matching the series up to degree ``trunc``.

    Factors are (n, 1) and (n, 2) with 2 <= n <= trunc, plus tail factors
    (None, 1) / (None, 2) standing for (infinity)_{t^r} or any (n)_{t^r}
    too deep for the truncation to distinguish.  Returns a list of sorted
    factor lists; empty when none match.
    """
    exps = product_exponents(series, trunc)
    if exps is None:
        return []
    # Factor contributions to the (1 - t^k) exponents:
    #   (n)_t,   n <= trunc: +1 at k=n, -1 at k=1
    #   (n)_t2, 2n <= trunc: +1 at k=2n, -1 at k=2
    #   tail (None, 1): -1 at k=1;  tail (None, 2): -1 at k=2
    for k, c in exps.items():
        if k >= 3 and c < 0:
            return []
    solutions = []
    evens = [k for k in range(4, trunc + 1, 2) if exps.get(k, 0)]
    odd_a = {k: exps.get(k, 0) for k in range(3, trunc + 1, 2)}

    def assign(idx, a_counts, b_counts):
        if len(solutions) >= MAX_SOLUTIONS:
            return
        if idx == len(evens):
            _close_solution(a_counts, b_counts)
            return
        k = evens[idx]
        c = exps.get(k, 0)
        for bk in range(0, c + 1):
            a2 = dict(a_counts)
            b2 = dict(b_counts)
            if c - bk:
                a2[k] = c - bk
            if bk:
                b2[k // 2] = bk
            assign(idx + 1, a2, b2)

    def _close_solution(a_counts, b_counts):
        a_counts = dict(a_counts)
        for k, c in odd_a.items():
            if c:
                a_counts[k] = c
        c1 = exps.get(1, 0)
        c2 = exps.get(2, 0)
        total_b = sum(b_counts.values())
        # c2 = a_2 - total_b - tail2  and  c1 = -(sum a_n) - tail1
        max_a2 = -c1 - sum(a_counts.values())
        min_a2 = max(0, c2 + total_b)
        for a2v in range(min_a2, max_a2 + 1):
            tail2 = a2v - c2 - total_b
            tail1 = -c1 - sum(a_counts.values()) - a2v
            if tail2 < 0 or tail1 < 0:
                continue
            factors = []
            for k, c in sorted(a_counts.items()):
                factors += [(k, 1)] * c
            if a2v:
                factors += [(2, 1)] * a2v
            for k, c in sorted(b_counts.items()):
                factors += [(k, 2)] * c
            factors += [(None, 1)] * tail1
            factors += [(None, 2)] * tail2
            factors.sort(key=lambda f: (f[1], f[0] is None, f[0] or 0))
            if factors not in solutions:
                solutions.append(factors)
            if len(solutions) >= MAX_SOLUTIONS:
                return

    assign(0, {}, {})
    # keep only factorizations that really reproduce the series
    checked = []
    for f in solutions:
        if expand_product(f, trunc) == list(series[: trunc + 1]):
            checked.append(f)
    return checked


def format_factorization(factors):
    counts = Counter(factors)
    parts = []
    for (n, r), c in sorted(
        counts.items(), key=lambda kv: (kv[0][1], kv[0][0] is None, kv[0][0] or 0)
    ):
        base = "(%s)_{t%s}" % ("inf" if n is None else n, "^2" if r == 2 else "")
        parts.append(base + ("^%d" % c if c > 1 else ""))
    return " ".join(parts)
