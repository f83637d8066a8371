from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrack.fields import QQ, parse_field
from braidrack.linalg import (
    InexactDivision,
    SparseMatrix,
    _IntegerDomain,
    _IntegerQuotientDomain,
    kernel_basis,
    kernel_dim,
    rank,
    row_reduce,
)


def dense(field, rows):
    return SparseMatrix.from_dense(field, [[field.parse(str(v)) for v in row] for row in rows])


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
    return SparseMatrix.from_dense(field, [[one, q], [q, one]])


def test_warmup_rank_depends_on_q_squared():
    # [[1, q], [q, 1]] has rank 1 exactly when q^2 = 1
    assert rank(QQ, _warmup_block(QQ, QQ.from_int(-1))) == 1
    assert rank(QQ, _warmup_block(QQ, QQ.from_int(1))) == 1
    assert rank(QQ, _warmup_block(QQ, QQ.from_int(2))) == 2


def _six_by_six(field, q):
    one, zero = field.one, field.zero
    q2 = field.mul(q, q)
    return SparseMatrix.from_dense(
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
        return SparseMatrix.from_dense(
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
    m = SparseMatrix.from_dense(f, [[Fraction(v) for v in row] for row in rows])
    fp = parse_field("Fp(7)")
    mp = SparseMatrix.from_dense(fp, [[v % 7 for v in row] for row in rows])
    assert rank(fp, mp) <= rank(f, m)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=5, max_size=5),
        min_size=2,
        max_size=7,
    )
)
def test_bareiss_agrees_with_field_elimination(rows):
    f = QQ
    m = SparseMatrix.from_dense(f, [[Fraction(v) for v in row] for row in rows])
    pivots, reduced = row_reduce(f, m.copy_rows(), m.ncols)
    assert rank(f, m) == len(pivots)
    # reduced echelon form: each row is 1 at its pivot, its least column,
    # and 0 at every other pivot column
    cols = [c for _, c in pivots]
    for i, c in pivots:
        row = reduced[i]
        assert min(row) == c and row[c] == f.one
        assert all(c2 not in row for c2 in cols if c2 != c)


def test_bareiss_inexact_division_raises():
    # the exact-division checks are errors, not asserts, so -O keeps them
    z = _IntegerDomain()
    assert z.exact_div(12, 4) == 3
    with pytest.raises(InexactDivision):
        z.exact_div(7, 2)
    zq = _IntegerQuotientDomain(parse_field("QQ[t]/(t^2+t+1)"))
    assert zq.exact_div((2, 4), (1, 2)) == (2, 0)
    with pytest.raises(InexactDivision):
        zq.exact_div((1, 0), (2, 0))
    with pytest.raises(InexactDivision):
        zq.exact_div((1, 0), (0, 0))
