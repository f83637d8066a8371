"""Exact sparse linear algebra over the fields of :mod:`braidrack.fields`.

Matrices are row-sparse: a list of dicts column -> scalar, with no explicit
zeros.  There is one elimination, :class:`Echelon`: Gaussian elimination
over the field into fully reduced rows.  Both graded engines, kernels and
every rank use it, and hand it dict vectors and read dict rows whatever
the field.

The field chooses how an echelon stores its rows, once a caller names the
echelon's key universe; each graded engine names its grade block's keys.
Over ``PrimeField(p)`` with p <= 13 a row is one int with a byte per key of
the universe, the least key in the lowest byte, and an axpy is one big-int
multiply-add: a byte then holds at most (p-1) + (p-1)^2 <= 255, so no byte
carries into the next, and ``(255 - (p-1)) // (p-1)^2`` axpys fit before
one ``bytes.translate`` reduces every byte mod p.  That is delayed modular
reduction over word-packed vectors, as in FFLAS-FFPACK (Dumas, Giorgi and
Pernet, ACM TOMS 35(3), 2008).  Every other field keeps dict rows and its
own ``Field.axpy``, and so does an echelon with no key universe: the small
matrices of ``rank`` and ``kernel_basis``.  Both stores pivot on a row's
least key, so they give the same rows.
"""
from __future__ import annotations

from itertools import compress

from .fields import PrimeField

# a byte of a packed row holds (p-1) + (p-1)^2 after one axpy
PACKED_PRIME_MAX = 13
# p -> the 256 bytes i % p; each is built by the first packed echelon over p
_MOD = {}


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
    """Rows in reduced echelon form over a field.

    ``keys``, if given, holds every key a vector may have, and lets a small
    prime field pack the rows (module docstring).  Each row is 1 at its
    pivot, which is its least key, and 0 at every other row's pivot.
    Because the rows stay fully reduced, subtracting one multiple of each
    row whose pivot a vector holds clears every pivot of it.  With least-key pivots
    the rows depend only on their span, so either store gives the same
    rows; ``QuotientEngine`` relies on that (its retirement argument), and
    it is why a packed row's byte order must be key order.

    An echelon is filled either by ``add`` or by ``express``.  ``express``
    numbers the vectors it keeps 0, 1, ...; each row carries, past every
    key, its coefficients on them, which the row operations carry along and
    never pivot on; it needs the keys.  ``NicholsEngine`` reads a dependent
    vector's coordinates there.
    """

    def __init__(self, field, keys=None):
        self.field = field
        self._rows = {}
        if keys is not None and isinstance(field, PrimeField) and field.p <= PACKED_PRIME_MAX:
            p = self._p = field.p
            if p not in _MOD:
                _MOD[p] = bytes(i % p for i in range(256))
            self._mod = _MOD[p]
            self._delay = (255 - (p - 1)) // (p - 1) ** 2
            self._keys = sorted(keys)
            self._slot = {k: s for s, k in enumerate(self._keys)}
        else:
            self._slot = None
            # express's coefficient on kept vector i is at key top + i
            self._top = None if keys is None else max(keys, default=-1) + 1

    def __len__(self):
        return len(self._rows)

    def __contains__(self, key):
        """Whether ``key`` is a row's pivot."""
        return key in self._rows

    def items(self):
        """(pivot, row as a dict over the keys) for each row, in insertion order."""
        if self._slot is None:
            return self._rows.items()
        keys, n = self._keys, len(self._keys)
        out = []
        for piv, row in self._rows.items():
            data = row.to_bytes((row.bit_length() + 7) >> 3, "little")
            out.append((piv, {keys[s]: data[s] for s in compress(range(n), data)}))
        return out

    def add(self, vec):
        """Keep ``vec`` reduced as a row unless it vanishes; whether it was kept."""
        rest = self._reduce(vec)
        if rest:
            self._insert(rest)
        return bool(rest)

    def express(self, vec):
        """None if ``vec`` is independent of the vectors kept before it, which
        keeps it; otherwise its coordinates {i: c} in kept vectors 0, 1, ..."""
        if self._slot is not None:
            i, rest = len(self._rows), self._reduce(vec)
            at = len(self._keys) << 3
            if rest & ((1 << at) - 1):
                self._insert(rest | 1 << (at + (i << 3)))
                return None
            p, data = self._p, (rest >> at).to_bytes(i, "little")
            return {j: p - data[j] for j in compress(range(i), data)}
        top, rows, f = self._top, self._rows, self.field
        if max(vec, default=-1) >= top:
            # a key past the keys would be read as a coefficient; a packed
            # echelon raises the same KeyError from its slot map
            raise KeyError(max(vec))
        # _reduce's dict loop, inline: the QQ Nichols engine calls this once
        # per candidate
        rest, neg, axpy = dict(vec), f.neg, f.axpy
        for key in [k for k in rest if k in rows]:
            axpy(rest, rows[key], neg(rest[key]))
        if min(rest, default=top) < top:
            # set after reduce; set before, it would precede the keys
            # reduce adds, which reorders (but does not change) the rows
            rest[top + len(rows)] = f.one
            self._insert(rest)
            return None
        return {k - top: neg(c) for k, c in rest.items()}

    def _fold(self, v):
        """``v`` with every byte reduced mod p."""
        data = v.to_bytes((v.bit_length() + 7) >> 3, "little")
        return int.from_bytes(data.translate(self._mod), "little")

    def _reduce(self, vec):
        """``vec`` less a multiple of each row whose pivot it holds, in the store's form."""
        rows = self._rows
        if self._slot is None:
            vec, neg, axpy = dict(vec), self.field.neg, self.field.axpy
            for key in [k for k in vec if k in rows]:
                axpy(vec, rows[key], neg(vec[key]))
            return vec
        slot, p, delay = self._slot, self._p, self._delay
        buf = bytearray(len(slot))
        for k, c in vec.items():
            buf[slot[k]] = c
        # each axpy adds at most (p-1)^2 to a byte: fold after ``delay`` of them
        v, pending = int.from_bytes(buf, "little"), 0
        for k, c in vec.items():
            row = rows.get(k)
            if row is not None:
                v += (p - c) * row
                pending += 1
                if pending == delay:
                    v, pending = self._fold(v), 0
        return self._fold(v) if pending else v

    def _insert(self, vec):
        """Add a reduced nonzero ``vec`` as a row, reducing the others by it."""
        rows, f = self._rows, self.field
        if self._slot is None:
            piv = min(vec)
            inv, neg, axpy = f.inv(vec[piv]), f.neg, f.axpy
            row = {k: f.mul(v, inv) for k, v in vec.items()}
            for other in rows.values():
                c = other.get(piv)
                if c is not None:
                    axpy(other, row, neg(c))
            rows[piv] = row
            return
        # the pivot is the lowest nonzero byte
        at = ((vec & -vec).bit_length() - 1) & ~7
        c = vec >> at & 255
        row = vec if c == 1 else self._fold(vec * f.inv(c))
        p = self._p
        for piv, other in rows.items():
            c = other >> at & 255
            if c:
                rows[piv] = self._fold(other + (p - c) * row)
        rows[self._keys[at >> 3]] = row


def echelon(field, rows):
    """The :class:`Echelon` spanned by sparse ``rows`` (left unchanged)."""
    ech = Echelon(field)
    for row in rows:
        ech.add(row)
    return ech


def row_reduce(field, rows, ncols):
    """Reduced row echelon form of sparse rows over ``field``.

    ``rows`` is a list of sparse row dicts (left unchanged).  Returns
    ``(pivots, reduced)`` where ``pivots`` is a list of (row_index, col)
    into ``reduced``, ordered by column, and every reduced row is 1 at its
    pivot and 0 at every other pivot column.
    """
    reduced = dict(echelon(field, rows).items())
    cols = sorted(reduced)
    return list(enumerate(cols)), [reduced[c] for c in cols]


def rank(field, mat):
    """Exact rank: the number of rows of the echelon form."""
    return len(echelon(field, mat.rows))


def kernel_basis(field, mat):
    """Basis of the right kernel: vectors v (dicts col -> scalar) with Mv = 0."""
    ech = echelon(field, mat.rows)
    basis = {free: {free: field.one} for free in range(mat.ncols) if free not in ech}
    for c, row in ech.items():
        for free, coef in row.items():
            if free != c:
                basis[free][c] = field.neg(coef)
    return list(basis.values())


def kernel_dim(field, mat):
    return mat.ncols - rank(field, mat)
