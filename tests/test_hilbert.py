import hashlib
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from braidrack.hilbert import (
    MAX_SOLUTIONS,
    _one_minus_tk_power,
    expand_product,
    factor_series,
    factorizations,
    format_factorization,
    poly_mul,
    product_exponents,
)
from braidrack.verify import SERIES


def naive_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_poly_mul_against_naive():
    rng = random.Random(0)
    for _ in range(50):
        a = [rng.randint(0, 5) for _ in range(rng.randint(1, 6))]
        b = [rng.randint(0, 5) for _ in range(rng.randint(1, 6))]
        assert poly_mul(a, b) == naive_mul(a, b)


def test_factor_series():
    assert factor_series(3, 1, 5) == [1, 1, 1, 0, 0, 0]
    assert factor_series(2, 2, 5) == [1, 0, 1, 0, 0, 0]
    assert factor_series(None, 2, 6) == [1, 0, 1, 0, 1, 0, 1]


def test_known_products():
    # (2)^2 (3): 12-dimensional case
    assert expand_product([(2, 1), (2, 1), (3, 1)], 4) == [1, 3, 4, 3, 1]
    # (3)(4)(6)(6)_{t^2}: 432 with top degree 20
    s = expand_product([(3, 1), (4, 1), (6, 1), (6, 2)], 22)
    assert sum(s) == 432 and s[20] == 1 and s[21] == 0
    # (6)^4 (2)_{t^2}^2: 5184 with top degree 24
    s = expand_product([(6, 1)] * 4 + [(2, 2)] * 2, 26)
    assert sum(s) == 5184 and s[24] == 1 and s[25] == 0


def test_product_exponents_roundtrip():
    rng = random.Random(1)
    for _ in range(30):
        factors = []
        for _ in range(rng.randint(1, 5)):
            factors.append((rng.randint(2, 6), rng.choice((1, 2))))
        trunc = 8
        series = expand_product(factors, trunc)
        exps = product_exponents(series, trunc)
        # rebuild prod (1 - t^k)^{c_k} and compare
        out = [1] + [0] * trunc
        for k, c in sorted(exps.items()):
            step = [1] + [0] * trunc
            step[k] = -1
            for _ in range(abs(c)):
                if c > 0:
                    out = poly_mul(out, step, trunc)
                else:
                    # divide by (1 - t^k): multiply by geometric series
                    geo = [1 if i % k == 0 else 0 for i in range(trunc + 1)]
                    out = poly_mul(out, geo, trunc)
        assert out == series


def test_factorizations_find_the_truth():
    series = expand_product([(2, 1), (2, 1), (3, 1)], 4)
    sols, complete = factorizations(series, 4)
    assert complete
    assert [(2, 1), (2, 1), (3, 1)] in sols
    for sol in sols:
        assert expand_product(sol, 4) == series


def test_factorizations_reject_non_products():
    assert factorizations([1, 3, 2], 2) == ([], True)
    assert factorizations([1, 4, 3], 2) == ([], True)
    assert factorizations([1, 3, 4, 2], 3) == ([], True)
    assert factorizations([1, 2, 2, 4], 3) == ([], True)


def test_factorizations_accept_truncation_ambiguity():
    # 1 + 3t + 3t^2 is (2)_t^3 cut at degree 2
    assert [(2, 1)] * 3 in factorizations([1, 3, 3], 2)[0]
    # all-ones tails are explained by infinite factors
    sols, _ = factorizations([1, 2, 4], 2)
    assert sols and all(s.count((None, 2)) or s.count((None, 1)) for s in sols)


def test_factorizations_with_infinite_tail():
    # (inf)_t = 1/(1-t): series all ones
    series = [1, 1, 1, 1, 1]
    sols, _ = factorizations(series, 4)
    assert [(None, 1)] in sols
    # (2)_t (inf)_{t^2}: 1, 1, 1, 1, ... could also be explained differently;
    # every found solution must reproduce the series
    for sol in sols:
        assert expand_product(sol, 4) == series


def test_factorizations_are_pinned():
    # the paper's series at truncations 4, 6 and top degree + 1, one series
    # with exactly MAX_SOLUTIONS factorizations and one with 80, cut to the
    # first MAX_SOLUTIONS, which alone is reported incomplete; the digest is
    # over the ordered lists
    data, complete = [], []
    for name, factors in SERIES.items():
        top = sum((n - 1) * r for n, r in factors)
        for trunc in (4, 6, top + 1):
            sols, done = factorizations(expand_product(factors, trunc), trunc)
            data.append((name, trunc, sols))
            complete.append(done)
    for fours in (3, 4):
        series = expand_product([(4, 1)] * fours + [(6, 1)] * 3 + [(8, 1)] * 3, 8)
        sols, done = factorizations(series, 8)
        data.append(("capped", fours, sols))
        complete.append(done)
    assert complete == [True] * (len(data) - 1) + [False]
    assert [len(sols) for _, _, sols in data] == [
        1, 1, 1, 5, 7, 7, 1, 1, 1, 2, 2, 2, 12, 12, 12, 3, 3, 3, 35, 25, 25,
        MAX_SOLUTIONS, MAX_SOLUTIONS]
    digest = hashlib.sha256(repr(data).encode()).hexdigest()
    assert digest == "58aca44c8ba264845bbf251c3d3fd7c808b131ef38341a527a6407929cb677e8"


@st.composite
def _product(draw):
    trunc = draw(st.integers(2, 12))
    sizes = st.one_of(st.none(), st.integers(2, 9))
    factors = draw(st.lists(st.tuples(sizes, st.sampled_from((1, 2))), max_size=6))
    return factors, trunc


@settings(max_examples=300, deadline=None)
@given(_product())
def test_factorizations_find_every_generating_product(case):
    factors, trunc = case
    sols, complete = factorizations(expand_product(factors, trunc), trunc)
    # a factor whose first missing term lies beyond the truncation reads as
    # its tail
    want = [(None, r) if n is not None and n * r > trunc else (n, r) for n, r in factors]
    want.sort(key=lambda f: (f[1], f[0] is None, f[0] or 0))
    # only a full list may be cut
    assert complete or len(sols) == MAX_SOLUTIONS
    if complete:
        assert want in sols


def _one_minus_tk_power_by_steps(r, k, e, trunc):
    """r * (1 - t^k)^e truncated, one factor (1 - t^k)^{+-1} at a time."""
    out = list(r)
    for _ in range(abs(e)):
        if e > 0:
            out = [x - (out[i - k] if i >= k else 0) for i, x in enumerate(out)]
        else:
            for i in range(k, trunc + 1):
                out[i] += out[i - k]
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.integers(1, 13), st.integers(-8, 8), st.data())
def test_binomial_series_matches_the_stepwise_product(trunc, k, e, data):
    r = data.draw(st.lists(st.integers(-9, 9), min_size=trunc + 1, max_size=trunc + 1))
    got = poly_mul(_one_minus_tk_power(k, e, trunc), r, trunc)
    assert got == _one_minus_tk_power_by_steps(r, k, e, trunc)


def test_non_product_series_is_fast():
    # the binomial series takes trunc/k terms per factor, whatever c_k is;
    # one factor at a time this took seconds (largest |c_k| 12,195,155)
    series = [1, 5, 1, 0, 0, 0, 1, 5, 2, 0, 3, 6, 3]
    start = time.perf_counter()
    sols = factorizations(series, 12)
    exps = product_exponents(series, 12)
    assert time.perf_counter() - start < 0.1
    assert sols == ([], True)
    assert exps == {
        1: -5, 2: 14, 3: -35, 4: 126, 5: -504, 6: 2029, 7: -8280, 8: 34649,
        9: -147835, 10: 637785, 11: -2776916, 12: 12195155,
    }


@st.composite
def _series(draw):
    # products, and products with one coefficient moved
    factors, trunc = draw(_product())
    series = expand_product(factors, trunc)
    k = draw(st.integers(1, trunc))
    series[k] = max(0, series[k] + draw(st.integers(-2, 2)))
    return series, trunc


@settings(max_examples=300, deadline=None)
@given(_series())
def test_every_factorization_expands_to_the_series(case):
    series, trunc = case
    for sol in factorizations(series, trunc)[0]:
        assert expand_product(sol, trunc) == series


def test_format_factorization():
    s = format_factorization([(2, 1), (2, 1), (3, 2), (None, 1)])
    assert "(2)_{t}^2" in s and "(3)_{t^2}" in s and "inf" in s
