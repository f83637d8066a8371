from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrack import linalg
from braidrack.fields import GF, QQ, NotAField, parse_field
from braidrack.linalg import (
    Echelon,
    SparseMatrix,
    kernel_basis,
    kernel_dim,
    rank,
    row_reduce,
)


def from_dense(field, rows):
    """The SparseMatrix of dense ``rows``, zeros dropped."""
    m = SparseMatrix(len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not field.is_zero(v):
                m.rows[i][j] = v
    return m


def dense(field, rows):
    return from_dense(field, [[field.parse(str(v)) for v in row] for row in rows])


def test_rank_small_cases():
    assert rank(QQ, dense(QQ, [[1, -1], [-1, 1]])) == 1
    assert rank(QQ, dense(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    ident5 = SparseMatrix(5, 5)
    for i in range(5):
        ident5.rows[i][i] = QQ.one
    assert rank(QQ, ident5) == 5
    assert kernel_dim(QQ, SparseMatrix(4, 4)) == 4


def _warmup_block(field, q):
    one = field.one
    return from_dense(field, [[one, q], [q, one]])


def test_warmup_rank_depends_on_q_squared():
    # [[1, q], [q, 1]] has rank 1 exactly when q^2 = 1
    assert rank(QQ, _warmup_block(QQ, QQ.from_int(-1))) == 1
    assert rank(QQ, _warmup_block(QQ, QQ.from_int(1))) == 1
    assert rank(QQ, _warmup_block(QQ, QQ.from_int(2))) == 2


def _six_by_six(field, q):
    one, zero = field.one, field.zero
    q2 = field.mul(q, q)
    return from_dense(
        field,
        [
            [one, zero, q, q2, zero, zero],
            [zero, one, zero, zero, q, q2],
            [q, q2, one, zero, zero, zero],
            [zero, zero, zero, one, q2, q],
            [q2, q, zero, zero, one, zero],
            [zero, zero, q2, q, zero, one],
        ],
    )


def test_six_by_six_rank_cases():
    K = parse_field("QQ[t]/(t^2+t+1)")
    assert rank(K, _six_by_six(K, K.gen)) == 5
    assert rank(QQ, _six_by_six(QQ, QQ.from_int(-1))) == 4
    assert rank(QQ, _six_by_six(QQ, QQ.from_int(1))) == 4
    assert rank(QQ, _six_by_six(QQ, QQ.from_int(2))) == 6
    K6 = parse_field("QQ[t]/(t^2-t+1)")
    assert rank(K6, _six_by_six(K6, K6.gen)) == 5


def test_three_by_three_kernel_cases():
    # [[1+q, q^2, 0], [0, 1, q+q^2], [q^2, q, 1]]
    def mat(field, q):
        one, zero = field.one, field.zero
        q2 = field.mul(q, q)
        return from_dense(
            field,
            [
                [field.add(one, q), q2, zero],
                [zero, one, field.add(q, q2)],
                [q2, q, one],
            ],
        )

    assert kernel_dim(QQ, mat(QQ, QQ.from_int(1))) == 1
    assert kernel_dim(QQ, mat(QQ, QQ.from_int(2))) == 0


def test_kernel_vectors_really_annihilate():
    K = parse_field("QQ[t]/(t^2+t+1)")
    m = _six_by_six(K, K.gen)
    basis = kernel_basis(K, m)
    assert len(basis) == 1
    for vec in basis:
        for row in m.rows:
            acc = K.zero
            for j, c in row.items():
                if j in vec:
                    acc = K.add(acc, K.mul(c, vec[j]))
            assert K.is_zero(acc)


def test_rank_plus_kernel_is_cols():
    for spec in ("QQ", "Fp(7)", "QQ[t]/(t^2+t+1)"):
        f = parse_field(spec)
        m = dense(f, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert rank(f, m) + kernel_dim(f, m) == m.ncols


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        min_size=3,
        max_size=6,
    )
)
def test_modular_rank_never_exceeds_rational_rank(rows):
    f = QQ
    m = from_dense(f, [[Fraction(v) for v in row] for row in rows])
    fp = parse_field("Fp(7)")
    mp = from_dense(fp, [[v % 7 for v in row] for row in rows])
    assert rank(fp, mp) <= rank(f, m)


def _fraction_rank(rows):
    """Rank of a dense integer matrix by Gaussian elimination over Fraction."""
    rows = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _factor_pairs(entries):
    """(A, B) with A n x k and B k x c, so A B has rank at most k: small k
    gives rank-deficient products, which a generic random matrix is not."""
    return st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 6)).flatmap(
        lambda s: st.tuples(
            st.lists(st.lists(entries, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]),
            st.lists(st.lists(entries, min_size=s[2], max_size=s[2]), min_size=s[1], max_size=s[1]),
        )
    )


def _product(mul, add, a, b):
    return [
        [reduce(add, [mul(x, b[k][j]) for k, x in enumerate(row)]) for j in range(len(b[0]))]
        for row in a
    ]


@settings(max_examples=80, deadline=None)
@given(_factor_pairs(st.integers(-3, 3)))
def test_rational_rank_matches_dense_fraction_reference(factors):
    rows = _product(lambda x, y: x * y, lambda x, y: x + y, *factors)
    m = from_dense(QQ, [[Fraction(v) for v in row] for row in rows])
    assert rank(QQ, m) == _fraction_rank(rows)


def _zeta3_mul(x, y):
    # (a + b t)(c + d t) with t^2 = -1 - t
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c - b * d)


@settings(max_examples=60, deadline=None)
@given(_factor_pairs(st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
def test_zeta3_rank_is_half_the_rational_rank_of_its_real_form(factors):
    # a + b t acts on QQ(zeta3) = QQ + QQ t (t^2 = -1 - t) by the matrix
    # [[a, -b], [b, a - b]] in the basis 1, t; replacing every entry by its
    # multiplication matrix doubles the rank
    rows = _product(_zeta3_mul, lambda x, y: (x[0] + y[0], x[1] + y[1]), *factors)
    K = parse_field("QQ[t]/(t^2+t+1)")
    elem = lambda a, b: K.add(K.from_int(a), K.mul(K.from_int(b), K.gen))
    m = from_dense(K, [[elem(a, b) for a, b in row] for row in rows])
    real = []
    for row in rows:
        real.append([x for a, b in row for x in (a, -b)])
        real.append([x for a, b in row for x in (b, a - b)])
    assert _fraction_rank(real) == 2 * rank(K, m)


def test_rank_over_a_reducible_assumed_quotient_raises_not_a_field():
    # t^4 - 1 is reducible, but irreducibility is only assumed above degree
    # 3, so elimination meets the zero divisor t - 1
    K = parse_field("QQ[t]/(t^4-1)")
    assert K.irreducible_assumed
    m = from_dense(K, [[K.parse("t-1"), K.zero], [K.zero, K.parse("t+1")]])
    with pytest.raises(NotAField):
        rank(K, m)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=5, max_size=5),
        min_size=2,
        max_size=7,
    )
)
def test_row_reduce_is_reduced_echelon_form_of_rank_rows(rows):
    f = QQ
    m = from_dense(f, [[Fraction(v) for v in row] for row in rows])
    pivots, reduced = row_reduce(f, m.rows, m.ncols)
    assert rank(f, m) == len(pivots)
    # reduced echelon form: each row is 1 at its pivot, its least column,
    # and 0 at every other pivot column
    cols = [c for _, c in pivots]
    for i, c in pivots:
        row = reduced[i]
        assert min(row) == c and row[c] == f.one
        assert all(c2 not in row for c2 in cols if c2 != c)


def _dense_rref_mod_p(rows, ncols, p):
    """Gauss-Jordan elimination of dense integer rows mod p: the pivot
    columns and the reduced nonzero rows, each 1 at its pivot."""
    m = [[v % p for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m[: len(pivots)]


# 13 is the largest prime with packed rows, 17 the first with dict rows
_PRIMES = [2, 3, 7, 13, 17]


@st.composite
def _low_rank_mod_p(draw):
    """(p, rows): a product of a random n x k and k x c matrix mod p, wide
    and deep enough that a reduction subtracts more rows than one fold of
    a packed row allows for p = 7."""
    p = draw(st.sampled_from(_PRIMES))
    n, k, c = draw(st.integers(1, 12)), draw(st.integers(1, 9)), draw(st.integers(1, 12))
    entry = st.integers(0, p - 1)
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
    return p, [[v % p for v in row] for row in _product(lambda x, y: x * y, lambda x, y: x + y, a, b)]


@settings(max_examples=150, deadline=None)
@given(_low_rank_mod_p())
def test_prime_field_elimination_matches_dense_mod_p(case):
    p, rows = case
    f, ncols = GF(p), len(rows[0])
    m = from_dense(f, rows)
    pivots, ref = _dense_rref_mod_p(rows, ncols, p)
    assert rank(f, m) == len(pivots)
    # packed rows for p <= 13, dict rows above
    assert row_reduce(f, m.rows, ncols) == (
        list(enumerate(pivots)),
        [{j: v for j, v in enumerate(r) if v} for r in ref],
    )
    # the kernel vector of free column j is e_j - sum_r ref[r][j] e_pivot(r)
    kernel = [
        {j: 1, **{c: -r[j] % p for c, r in zip(pivots, ref) if r[j]}}
        for j in range(ncols) if j not in pivots
    ]
    assert kernel_basis(f, m) == kernel
    # the Echelon on a key universe (packed rows for p <= 13), on keys
    # spread out as a grade block's are: column j is key 5 j + 2
    ech = Echelon(f, [5 * j + 2 for j in reversed(range(ncols))])
    for row in m.rows:
        ech.add({5 * j + 2: v for j, v in row.items()})
    assert dict(ech.items()) == {
        5 * c + 2: {5 * j + 2: v for j, v in enumerate(r) if v} for c, r in zip(pivots, ref)
    }
    assert (p in linalg._MOD) == (p <= linalg.PACKED_PRIME_MAX)


@settings(max_examples=100, deadline=None)
@given(_low_rank_mod_p())
def test_express_gives_coordinates_in_the_kept_vectors(case):
    p, rows = case
    f, ncols = GF(p), len(rows[0])
    ech = Echelon(f, range(ncols))
    kept = []
    for i, row in enumerate(rows):
        vec = {j: v for j, v in enumerate(row) if v}
        coords = ech.express(vec)
        if coords is None:
            # kept exactly when it raises the rank of the rows so far
            assert len(_dense_rref_mod_p(rows[: i + 1], ncols, p)[0]) == len(kept) + 1
            kept.append(row)
        else:
            assert all(0 < c < p for c in coords.values())
            combo = [sum(coords.get(t, 0) * kv[j] for t, kv in enumerate(kept)) % p
                     for j in range(ncols)]
            assert combo == row
    assert len(ech) == len(kept)


@pytest.mark.parametrize("p", [7, 17], ids=["packed", "dict"])
def test_express_refuses_a_key_outside_the_keys(p):
    # past the keys sit the coefficients on the kept vectors
    ech = Echelon(GF(p), range(3))
    assert ech.express({0: 1, 2: 3}) is None
    with pytest.raises(KeyError):
        ech.express({1: 1, 3: 1})


def _carry_case(p):
    """Vectors whose inserts push one early row's bytes to the carry bound.

    The first vector is 1 at the pivot of every later one, and each later one
    is 1 at its pivot and p-1 on three tail keys: each insert updates the
    first row by factor p-1, adding (p-1)^2 to its tail bytes.  There are two
    more inserts than a byte holding p-1 can take, (255 - (p-1)) // (p-1)^2,
    so the bytes reach the bound, and nothing reads a row in between.  Then a
    tail unit, whose pivot is such a byte; the sum of the vectors before
    it, which reads every row; and another tail unit, which leaves rows
    unfolded for the reads that follow.
    """
    m = (255 - (p - 1)) // (p - 1) ** 2 + 2
    tail = [m + 1, m + 2, m + 3]
    first = {0: 1, **{i: 1 for i in range(1, m + 1)}, **{t: p - 1 for t in tail}}
    later = [{i: 1, **{t: p - 1 for t in tail}} for i in range(1, m + 1)]
    total = {}
    for vec in [first] + later:
        for k, c in vec.items():
            total[k] = (total.get(k, 0) + c) % p
    total = {k: c for k, c in total.items() if c}
    return range(m + 4), [first] + later + [{tail[0]: 1}, total, {tail[1]: 1}]


def _carry_run(p, fill):
    """Whether the rows are packed, what ``fill`` returned per vector, the
    rows by pivot over the keys and, if filled by add, the forms as dicts;
    each read on its own echelon, so no read folds a row for another."""
    keys, vecs = _carry_case(p)

    def filled():
        ech = Echelon(GF(p), keys)
        return ech, [getattr(ech, fill)(vec) for vec in vecs]

    ech, said = filled()
    packed = ech._slot is not None
    rows = dict(ech.items())
    forms = None
    if fill == "add":
        free, forms = filled()[0].forms(keys)
        if packed:
            forms = [(piv, {i: c for i, c in enumerate(form.to_bytes(len(free), "little")) if c})
                     for piv, form in forms]
        forms = (free, forms)
    return packed, said, rows, forms


@pytest.mark.parametrize("fill", ["add", "express"])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_packed_rows_that_reach_the_carry_bound_equal_dict_rows(p, fill):
    packed = _carry_run(p, fill)
    with mock.patch.object(linalg, "PACKED_PRIME_MAX", 0):
        plain = _carry_run(p, fill)
    assert (packed[0], plain[0]) == (True, False)
    assert packed[1:] == plain[1:]
    if fill == "express":
        # the sum is 1 times each kept vector before the first tail unit
        assert packed[1][-2] == {i: 1 for i in range(len(packed[1]) - 3)}
