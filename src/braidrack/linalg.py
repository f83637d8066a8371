"""Exact sparse linear algebra over the fields of :mod:`braidrack.fields`.

Matrices are row-sparse: a list of dicts column -> scalar, with no explicit
zeros.  Two elimination methods are provided:

* :class:`Echelon`, Gaussian elimination over the field into fully reduced
  rows (used by both graded engines, for kernels and for every rank in
  positive characteristic);
* fraction-free Bareiss elimination over an integral model (used for ranks
  in characteristic 0, where clearing denominators keeps entries integral
  and avoids big-rational blowup); its pivots are Markowitz-style, minimising
  (row fill - 1) * (column fill - 1).
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import (
    QuadraticRationalField,
    QuotientRing,
    RationalField,
)


class SparseMatrix:
    """A rows x cols matrix, entries indexed (row, col), no stored zeros."""

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)]
        if entries:
            for (i, j), v in entries.items():
                self.set(i, j, v)

    def set(self, i, j, v, field=None):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError((i, j))
        if (field is not None and field.is_zero(v)) or (field is None and v == 0):
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = v

    def get(self, i, j, zero=0):
        return self.rows[i].get(j, zero)

    @classmethod
    def from_dense(cls, field, rows):
        m = cls(len(rows), len(rows[0]) if rows else 0)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not field.is_zero(v):
                    m.rows[i][j] = v
        return m

    def nnz(self):
        return sum(len(r) for r in self.rows)

    def copy_rows(self):
        return [dict(r) for r in self.rows]


def axpy(field, target, source, factor):
    """target += factor * source on sparse dicts, dropping zeros."""
    fadd, fmul, fzero = field.add, field.mul, field.is_zero
    if fzero(factor):
        return
    for j, v in source.items():
        cur = target.get(j)
        if cur is None:
            target[j] = fmul(factor, v)
        else:
            s = fadd(cur, fmul(factor, v))
            if fzero(s):
                del target[j]
            else:
                target[j] = s


class Echelon:
    """Sparse rows in reduced echelon form over a field.

    ``rows`` maps each pivot to its row: the row is 1 at the pivot, which is
    its least key, and 0 at every other row's pivot.  Because the rows stay
    fully reduced, one pass over a vector's keys clears every pivot of it.
    A row may carry a tag (any sparse dict) that follows it through every
    row operation, so the tags record how rows combine from their sources.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}
        self.tags = {}

    def reduce(self, vec, expr=None):
        """Subtract rows from ``vec`` (in place) until it has no pivot key.

        With ``expr``, each subtracted row's tag is subtracted from it with
        the same factor: when every row is its tag applied to some source
        vectors, ``vec`` minus ``expr`` applied to them stays fixed.
        """
        rows, neg = self.rows, self.field.neg
        for key in [k for k in vec if k in rows]:
            c = neg(vec[key])
            axpy(self.field, vec, rows[key], c)
            if expr is not None:
                axpy(self.field, expr, self.tags[key], c)

    def insert(self, vec, tag=None):
        """Add a reduced nonzero ``vec`` as a row, reducing the others by it."""
        f = self.field
        piv = min(vec)
        inv = f.inv(vec[piv])
        row = {k: f.mul(v, inv) for k, v in vec.items()}
        if tag is not None:
            tag = {k: f.mul(v, inv) for k, v in tag.items()}
        for p, other in self.rows.items():
            c = other.get(piv)
            if c is not None:
                c = f.neg(c)
                axpy(f, other, row, c)
                if tag is not None:
                    axpy(f, self.tags[p], tag, c)
        self.rows[piv] = row
        if tag is not None:
            self.tags[piv] = tag

    def add(self, vec):
        """Reduce ``vec`` (in place) and keep it as a row unless it vanishes."""
        self.reduce(vec)
        if vec:
            self.insert(vec)


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
    """Exact rank.  Fraction-free (Bareiss) over characteristic 0."""
    if field.characteristic == 0:
        return _rank_bareiss(field, mat)
    return len(echelon(field, mat.rows).rows)


def _to_integral(field, rows):
    """Clear denominators so entries live in Z or Z[t]/(m) with int coeffs."""
    if isinstance(field, RationalField):
        out = []
        for row in rows:
            if not row:
                continue
            den = lcm(*[Fraction(v).denominator for v in row.values()])
            out.append({j: int(Fraction(v) * den) for j, v in row.items()})
        return out, _IntegerDomain()
    if isinstance(field, QuadraticRationalField):
        out = []
        for row in rows:
            if not row:
                continue
            den = lcm(*[v[2] for v in row.values()])
            out.append(
                {
                    j: (a * (den // d), b * (den // d))
                    for j, (a, b, d) in row.items()
                }
            )
        return out, _IntegerQuotientDomain(field)
    if isinstance(field, QuotientRing) and isinstance(field.base, RationalField):
        out = []
        for row in rows:
            if not row:
                continue
            den = lcm(*[Fraction(c).denominator for v in row.values() for c in v] or [1])
            out.append(
                {j: tuple(int(Fraction(c) * den) for c in v) for j, v in row.items()}
            )
        return out, _IntegerQuotientDomain(field)
    raise ValueError("no integral model for %s" % field.spec_string())


class InexactDivision(ArithmeticError):
    """A Bareiss step met a division that is not exact in the integral model."""


class _IntegerDomain:
    zero = 0

    def mul(self, a, b):
        return a * b

    def sub(self, a, b):
        return a - b

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r:
            raise InexactDivision("Bareiss division %d / %d not exact" % (a, b))
        return q

    def is_zero(self, a):
        return a == 0

    def size_hint(self, a):
        return abs(a)


class _IntegerQuotientDomain:
    """Z[t]/(m) with integer coefficient tuples, m the field's monic modulus."""

    def __init__(self, field):
        self.degree = field.degree
        # monic integer modulus (the field guarantees monic; coefficients of
        # the presets used here are integers already)
        self.modulus = tuple(int(Fraction(c)) for c in field.modulus)
        self.zero = (0,) * self.degree

    def mul(self, a, b):
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(d):
                    prod[i - d + j] -= c * self.modulus[j]
        return tuple(prod[:d])

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def is_zero(self, a):
        return not any(a)

    def exact_div(self, a, b):
        # divide in Q[t]/(m), then check integrality
        d = self.degree
        # compute b^{-1} via resultant-free approach: solve a = q*b by
        # linear system over Q using the multiplication matrix of b
        cols = []
        for k in range(d):
            e = [0] * d
            e[k] = 1
            cols.append(self.mul(tuple(e), b))
        # solve M q = a where M[i][k] = cols[k][i]
        m = [[Fraction(cols[k][i]) for k in range(d)] + [Fraction(a[i])] for i in range(d)]
        q = _solve_dense_fraction(m, d)
        if q is None:
            raise InexactDivision("Bareiss division by a zero divisor %r" % (b,))
        if any(c.denominator != 1 for c in q):
            raise InexactDivision("Bareiss division %r / %r not exact" % (a, b))
        return tuple(int(c) for c in q)

    def size_hint(self, a):
        return max(abs(c) for c in a)


def _solve_dense_fraction(aug, n):
    """Solve an n x n dense Fraction system given as augmented rows."""
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _rank_bareiss(field, mat):
    rows, dom = _to_integral(field, mat.copy_rows())
    rows = [r for r in rows if r]
    rank_ = 0
    prev = None  # previous pivot (denominator of the Bareiss step)
    while rows:
        # Markowitz: pick the entry minimising (row_nnz - 1) * (col_nnz - 1)
        col_count = {}
        for r in rows:
            for j in r:
                col_count[j] = col_count.get(j, 0) + 1
        best = None
        for ri, r in enumerate(rows):
            rw = len(r) - 1
            for j, v in r.items():
                score = rw * (col_count[j] - 1)
                key = (score, dom.size_hint(v), ri, j)
                if best is None or key < best[0]:
                    best = (key, ri, j)
        _, ri, pj = best
        prow = rows.pop(ri)
        pval = prow[pj]
        rank_ += 1
        nxt = []
        for r in rows:
            rv = r.get(pj)
            if rv is None:
                # entries still must be divided per Bareiss; division only
                # changes entries in rows that had the pivot column, others
                # get multiplied/divided trivially:
                if prev is not None:
                    r = {
                        j: dom.exact_div(dom.mul(v, pval), prev) for j, v in r.items()
                    }
                else:
                    r = {j: dom.mul(v, pval) for j, v in r.items()}
            else:
                new = {}
                for j in set(r) | set(prow):
                    if j == pj:
                        continue
                    a = dom.mul(r.get(j, dom.zero), pval)
                    b = dom.mul(prow.get(j, dom.zero), rv)
                    v = dom.sub(a, b)
                    if not dom.is_zero(v):
                        new[j] = v
                if prev is not None:
                    new = {j: dom.exact_div(v, prev) for j, v in new.items()}
                r = new
            if r:
                nxt.append(r)
        rows = nxt
        prev = pval
    return rank_


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
