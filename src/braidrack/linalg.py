"""Exact sparse linear algebra over the fields of :mod:`braidrack.fields`.

Matrices are row-sparse: a list of dicts column -> scalar, with no explicit
zeros; the field's own ``axpy`` adds a multiple of one to another.  There
is one elimination, :class:`Echelon`: Gaussian elimination over the field
into fully reduced rows, one kind of row with no side data.  Both graded
engines, kernels and every rank use it.
"""
from __future__ import annotations


class SparseMatrix:
    """A rows x cols matrix: ``rows[i]`` maps column -> nonzero entry."""

    def __init__(self, nrows, ncols):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)]

    @classmethod
    def from_dense(cls, field, rows):
        m = cls(len(rows), len(rows[0]) if rows else 0)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not field.is_zero(v):
                    m.rows[i][j] = v
        return m


class Echelon:
    """Sparse rows in reduced echelon form over a field.

    ``rows`` maps each pivot to its row: the row is 1 at the pivot, which is
    its least key, and 0 at every other row's pivot.  Because the rows stay
    fully reduced, one pass over a vector's keys clears every pivot of it.
    A key that is never a pivot is never cleared: the row operations just
    carry it along.  ``NicholsEngine`` keeps there, at keys past every
    derivation key, how each row combines from the vectors it inserted.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}

    def reduce(self, vec):
        """Subtract rows from ``vec`` (in place) until it has no pivot key."""
        rows, neg, axpy = self.rows, self.field.neg, self.field.axpy
        for key in [k for k in vec if k in rows]:
            axpy(vec, rows[key], neg(vec[key]))

    def insert(self, vec):
        """Add a reduced nonzero ``vec`` as a row, reducing the others by it."""
        f = self.field
        axpy = f.axpy
        piv = min(vec)
        inv = f.inv(vec[piv])
        row = {k: f.mul(v, inv) for k, v in vec.items()}
        for other in self.rows.values():
            c = other.get(piv)
            if c is not None:
                axpy(other, row, f.neg(c))
        self.rows[piv] = row

    def add(self, vec):
        """Reduce ``vec`` (in place) and keep it as a row unless it vanishes.

        Returns whether it was kept.
        """
        self.reduce(vec)
        if vec:
            self.insert(vec)
        return bool(vec)


def echelon(field, rows):
    """The :class:`Echelon` spanned by sparse ``rows`` (left unchanged)."""
    ech = Echelon(field)
    for row in rows:
        ech.add(dict(row))
    return ech


def row_reduce(field, rows, ncols):
    """Reduced row echelon form of sparse rows over ``field``.

    ``rows`` is a list of sparse row dicts (left unchanged).  Returns
    ``(pivots, reduced)`` where ``pivots`` is a list of (row_index, col)
    into ``reduced``, ordered by column, and every reduced row is 1 at its
    pivot and 0 at every other pivot column.
    """
    ech = echelon(field, rows)
    cols = sorted(ech.rows)
    return list(enumerate(cols)), [ech.rows[c] for c in cols]


def rank(field, mat):
    """Exact rank: the number of rows of the echelon form."""
    return len(echelon(field, mat.rows).rows)


def kernel_basis(field, mat):
    """Basis of the right kernel: vectors v (dicts col -> scalar) with Mv = 0."""
    ech = echelon(field, mat.rows)
    basis = []
    for free in range(mat.ncols):
        if free in ech.rows:
            continue
        vec = {free: field.one}
        for c, row in ech.rows.items():
            coef = row.get(free)
            if coef is not None:
                vec[c] = field.neg(coef)
        basis.append(vec)
    return basis


def kernel_dim(field, mat):
    return mat.ncols - rank(field, mat)
