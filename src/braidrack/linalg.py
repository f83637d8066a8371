"""Exact sparse linear algebra over the fields of :mod:`braidrack.fields`.

Matrices are row-sparse: a list of dicts column -> scalar, with no explicit
zeros.  There is one elimination, :class:`Echelon`: Gaussian elimination
over the field into fully reduced rows.  Both graded engines, kernels and
every rank use it.

The field picks one store for every vector of a graded engine: its normal
forms, its Nichols derivations, its grade blocks' candidate vectors and the
echelon rows they reduce to.  Over ``PrimeField(p)`` with p <= 13 a vector
is one int with a byte per coordinate, the first in the lowest byte, and an
axpy is one big-int multiply-add.  Each sum keeps an upper bound on its
bytes: p-1 once folded, and an axpy by factor c adds at most c(p-1).  No
byte may pass 255, or it would carry into the next, so a sum is folded (one
``bytes.translate`` reduces every byte mod p, ``_fold``) only when its next
axpy could take it past 255; since (p-1) + (p-1)^2 <= 255, one axpy always
fits after a fold.  An echelon's rows are folded the same way, and lazily:
a row updated by an insert stays unfolded until it is read.  That is delayed
modular reduction over word-packed vectors, as in FFLAS-FFPACK (Dumas,
Giorgi and Pernet, ACM TOMS 35(3), 2008).  Every other field keeps sparse
dicts and its own ``Field.axpy``.  :func:`vectors` gives an engine its
store, and every :class:`Echelon`, handed its key universe, packs its rows
by the same rule.  Both stores pivot on a row's least key, so they give the
same rows.

A packed vector's bytes stand for the basis indices of a *span*, one grade
block's basis words of one degree, so an engine's vector is a pair
(span, int).  A normal form nfmul[n][key] is the int alone: its span is
spans[n][key], which the engine keeps.  An echelon row's bytes follow its
sorted keys; a block's keys x * nb + j of one letter x are the j of one
grade block of degree n-1, so a vector over that span enters a row with one
shift, and a row leaves it by one shift and mask (``Echelon.split``).
"""
from __future__ import annotations

from itertools import compress
from operator import itemgetter

from .fields import PrimeField

# a folded byte takes one axpy, (p-1) + (p-1)^2 <= 255, for p <= 13
PACKED_PRIME_MAX = 13
# p -> the 256 bytes i % p, and p -> the 256 bytes -i % p; both are built
# by the first packed store over p
_MOD = {}
_NEG = {}


def _packs(field):
    """Whether ``field`` keeps packed vectors; builds its byte tables."""
    if not (isinstance(field, PrimeField) and field.p <= PACKED_PRIME_MAX):
        return False
    p = field.p
    if p not in _MOD:
        _MOD[p] = bytes(i % p for i in range(256))
        _NEG[p] = bytes(-i % p for i in range(256))
    return True


def _fold(v, table):
    """``v`` with every byte mapped through ``table`` (``_MOD[p]`` or ``_NEG[p]``)."""
    data = v.to_bytes((v.bit_length() + 7) >> 3, "little")
    return int.from_bytes(data.translate(table), "little")


class SparseMatrix:
    """A rows x cols matrix: ``rows[i]`` maps column -> nonzero entry."""

    def __init__(self, nrows, ncols):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)]


class Echelon:
    """Rows in reduced echelon form over a field.

    ``keys`` holds every key a vector may have, and a vector's entries are
    field elements; the field alone picks packed or dict rows (module
    docstring).  Each row is 1 at its pivot, which is its least key, and 0
    at every other row's pivot.  Because the rows stay fully reduced,
    subtracting one multiple of each row whose pivot a vector holds clears
    every pivot of it.  With least-key pivots the rows depend only on their
    span, so either store gives the same rows; ``QuotientEngine`` relies on
    that (its retirement argument), and it is why a packed row's byte order
    must be key order.

    Packed rows are read fully reduced mod p.  An insert updates the other
    rows without folding them, and keeps each updated row's byte bound
    until its next fold: a row is folded when an update could take a byte
    past 255, when ``add`` or ``express`` reduces a vector by it (its
    factors are read once, so it must be exactly 0 at the other pivots),
    and by ``items``.  An insert and ``forms`` read an unfolded row's bytes
    mod p.

    ``add`` and ``express`` take a dict over the keys, or a packed echelon's
    own int, whose byte s is the coefficient of the s-th least key: the
    graded engines hand it the ints their store builds.  An echelon is
    filled either by ``add`` or by ``express``.  ``express`` numbers the
    vectors it keeps 0, 1, ...; each row carries, past every key, its
    coefficients on them, which the row operations carry along and never
    pivot on, and which ``items`` leaves out.  ``NicholsEngine`` reads a
    dependent vector's coordinates there.
    """

    def __init__(self, field, keys):
        self.field = field
        self._rows = {}
        if _packs(field):
            p = self._p = field.p
            self._mod, self._neg = _MOD[p], _NEG[p]
            # pivot -> byte bound of each row updated since its last fold
            self._stale = {}
            self._keys = sorted(keys)
            self._slot = {k: s for s, k in enumerate(self._keys)}
            # the bits of the keys' bytes, and 255 at each pivot's byte
            self._at = len(self._keys) << 3
            self._mask, self._pivots = (1 << self._at) - 1, 0
            self._letters = None
        else:
            self._slot = None
            # express's coefficient on kept vector i is at key top + i
            self._top = max(keys, default=-1) + 1

    def __len__(self):
        return len(self._rows)

    def __contains__(self, key):
        """Whether ``key`` is a row's pivot."""
        return key in self._rows

    def items(self):
        """(pivot, row as a dict over the keys) for each row, in insertion order."""
        if self._slot is None:
            # express keeps its coefficients past the keys: no row entries
            top = self._top
            return [(piv, {k: c for k, c in row.items() if k < top}) for piv, row in self._rows.items()]
        # every row updated since its last fold is folded for good
        rows, mod = self._rows, self._mod
        for piv in self._stale:
            rows[piv] = _fold(rows[piv], mod)
        self._stale.clear()
        keys, n = self._keys, len(self._keys)
        out = []
        for piv, row in rows.items():
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
        keeps it; otherwise its coordinates in kept vectors 0, 1, ...: a dict
        {i: c} for a dict ``vec``, an int with byte i for a packed one."""
        if self._slot is not None:
            i, rest = len(self._rows), self._reduce(vec)
            at = self._at
            if rest & self._mask:
                self._insert(rest | 1 << (at + (i << 3)))
                return None
            form = _fold(rest >> at, self._neg)
            if not isinstance(vec, dict):
                return form
            data = form.to_bytes(i, "little")
            return {j: data[j] for j in compress(range(i), data)}
        top, f = self._top, self.field
        if max(vec, default=-1) >= top:
            # a key past the keys would be read as a coefficient; a packed
            # echelon raises the same KeyError from its slot map
            raise KeyError(max(vec))
        rest = self._reduce(vec)
        if min(rest, default=top) < top:
            # set after reduce; set before, it would precede the keys
            # reduce adds, which reorders (but does not change) the rows
            rest[top + len(self._rows)] = f.one
            self._insert(rest)
            return None
        return {k - top: f.neg(c) for k, c in rest.items()}

    def split(self, vec, nb):
        """A vector cut by letter, key = x * nb + j: {x: its part over the j},
        for each x with a nonzero part, in the engines' vector store."""
        if self._slot is None:
            out = {}
            for key, c in vec.items():
                x, j = divmod(key, nb)
                out.setdefault(x, {})[j] = c
            return out
        if self._letters is None:
            # (x, bit offset, mask, span) per letter: its keys are consecutive
            runs = {}
            for s, key in enumerate(self._keys):
                x, j = divmod(key, nb)
                runs.setdefault(x, (s << 3, []))[1].append(j)
            self._letters = [(x, at, (1 << (len(span) << 3)) - 1, span) for x, (at, span) in runs.items()]
        out = {}
        for x, at, mask, span in self._letters:
            part = vec >> at & mask
            if part:
                out[x] = span, part
        return out

    def forms(self, keys):
        """The keys of ``keys`` at no pivot, in that order, and (pivot, form)
        for each row: the pivot's class modulo the rows, minus the row's
        entries at those keys by position, as a dict or a packed int."""
        rows = self._rows
        free = [key for key in keys if key not in rows]
        if self._slot is None:
            neg = self.field.neg
            index = {key: i for i, key in enumerate(free)}
            return free, [(piv, {index[k]: neg(c) for k, c in row.items() if k != piv})
                          for piv, row in rows.items()]
        # _NEG[p] maps every byte, so an unfolded row needs no fold here
        n, neg, slots = len(self._keys), self._neg, [self._slot[key] for key in free]
        # itemgetter of one slot gives a scalar, not a 1-tuple
        take = itemgetter(*slots) if len(slots) > 1 else lambda data: [data[s] for s in slots]
        return free, [(piv, int.from_bytes(bytes(take(row.to_bytes(n, "little"))).translate(neg), "little"))
                      for piv, row in rows.items()]

    def _reduce(self, vec):
        """``vec`` less a multiple of each row whose pivot it holds, in the store's form."""
        rows = self._rows
        if self._slot is None:
            vec, neg, axpy = dict(vec), self.field.neg, self.field.axpy
            for key in [k for k in vec if k in rows]:
                axpy(vec, rows[key], neg(vec[key]))
            return vec
        if isinstance(vec, dict):
            buf, slot = bytearray(len(self._keys)), self._slot
            for k, c in vec.items():
                buf[slot[k]] = c
            vec = int.from_bytes(buf, "little")
        # the rows, once folded, are 0 at each other's pivots, so vec's
        # bytes there are the factors; vec's bytes stay at most ``bound``
        hits = vec & self._pivots
        data = hits.to_bytes((hits.bit_length() + 7) >> 3, "little")
        p, keys, mod, stale = self._p, self._keys, self._mod, self._stale
        top = bound = p - 1
        for s in compress(range(len(data)), data):
            piv = keys[s]
            if piv in stale:
                del stale[piv]
                rows[piv] = _fold(rows[piv], mod)
            c = p - data[s]
            bound += c * top
            if bound > 255:
                vec, bound = _fold(vec, mod), top + c * top
            vec += c * rows[piv]
        return _fold(vec, mod) if bound > top else vec

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
        row = vec if c == 1 else _fold(vec * f.inv(c), self._mod)
        p, mod, stale = self._p, self._mod, self._stale
        top = p - 1
        for piv, other in rows.items():
            # an unfolded row's byte is read mod p
            c = mod[other >> at & 255]
            if c:
                c = p - c
                bound = stale.get(piv, top) + c * top
                if bound > 255:
                    other, bound = _fold(other, mod), top + c * top
                rows[piv] = other + c * row
                stale[piv] = bound
        rows[self._keys[at >> 3]] = row
        self._pivots |= 255 << at


def vectors(field, nfmul, spans, basis):
    """The store of a graded engine's vectors over ``field``.

    It reads the engine's tables as the engine fills them: ``basis[n]``,
    the normal form nfmul[n][key] of candidate key = y * len(basis[n-1]) + j
    and spans[n][key], the basis indices of that candidate's grade block.
    """
    return (PackedVectors if _packs(field) else DictVectors)(field, nfmul, spans, basis)


class DictVectors:
    """Vectors as sparse dicts basis index -> scalar; a normal form is one too.

    The store's operations, which :class:`PackedVectors` shares: ``unit``,
    ``entry`` and ``vector`` make normal forms and vectors, ``coords``
    reads one, ``word_times`` multiplies by a word and ``lift`` builds a
    grade block's candidate vector.
    """

    def __init__(self, field, nfmul, spans, basis):
        # a dict carries its own indices: the spans go unread
        self.f, self.nfmul, self.basis = field, nfmul, basis

    def unit(self, span, pos):
        """The normal form of basis word span[pos]."""
        return {span[pos]: self.f.one}

    def entry(self, span, form):
        """The normal form whose coordinates on span, by position, are ``form``."""
        return {span[i]: c for i, c in form.items()}

    def vector(self, span, entry):
        """The vector of a normal form over span."""
        return entry

    def coords(self, vec):
        """A vector as a dict basis index -> scalar."""
        return vec

    def word_times(self, word, vec, n):
        """word times a vector of degree n, expanded in the basis."""
        axpy, nfmul, basis = self.f.axpy, self.nfmul, self.basis
        for y in reversed(word):
            out = {}
            ynb = y * len(basis[n])
            n += 1
            nf = nfmul[n]
            for j, c in vec.items():
                axpy(out, nf[ynb + j], c)
            vec = out
        return vec

    def lift(self, ech, terms, n, key=None):
        """The degree-n vector in ``ech``'s store: 1 at ``key`` if given, plus
        each term's c * x * (word * vec).

        A term (x, word, vec, c) has vec in degree n-1-len(word).  word * vec
        is expanded in basis[n-1], and x in front of its basis word j is the
        candidate key x * nb + j.
        """
        out = {} if key is None else {key: self.f.one}
        nb, axpy, word_times = len(self.basis[n - 1]), self.f.axpy, self.word_times
        for x, word, vec, c in terms:
            xnb = x * nb
            tail = word_times(word, vec, n - 1 - len(word))
            axpy(out, {xnb + j: cj for j, cj in tail.items()}, c)
        return out


class PackedVectors:
    """Vectors over ``PrimeField(p)``, p <= 13, as (span, int), byte s the
    coefficient of basis index span[s]; a normal form is the int alone.

    The operations are :class:`DictVectors`'."""

    def __init__(self, field, nfmul, spans, basis):
        self.nfmul, self.spans, self.basis = nfmul, spans, basis
        self._top, self._mod = field.p - 1, _MOD[field.p]

    def unit(self, span, pos):
        return 1 << (pos << 3)

    def entry(self, span, form):
        # a block's form is over its words' span already
        return form

    def vector(self, span, entry):
        return span, entry

    def coords(self, vec):
        span, v = vec
        data = v.to_bytes((v.bit_length() + 7) >> 3, "little")
        return dict(zip(compress(span, data), compress(data, data)))

    def word_times(self, word, vec, n):
        span, v = vec
        nfmul, spans, basis, top, mod = self.nfmul, self.spans, self.basis, self._top, self._mod
        for y in reversed(word):
            if not v:
                break
            ynb = y * len(basis[n])
            n += 1
            nf = nfmul[n]
            # every y * basis[n-1][j], j in span, has one grade: their
            # forms share the span of ynb + span[0]
            at = v.bit_length() - 1
            if not v & (v - 1) and not at & 7:
                # one coefficient, 1: its form is the product
                v = nf[ynb + span[at >> 3]]
            else:
                # v's bytes stay at most ``bound`` (module docstring)
                data = v.to_bytes((at >> 3) + 1, "little")
                v = bound = 0
                for j, c in zip(compress(span, data), compress(data, data)):
                    bound += c * top
                    if bound > 255:
                        v, bound = _fold(v, mod), top + c * top
                    v += c * nf[ynb + j]
                if bound > top:
                    v = _fold(v, mod)
            span = spans[n][ynb + span[0]]
        return span, v

    def lift(self, ech, terms, n, key=None):
        # word * vec lies in one grade block of degree n-1, whose keys
        # x * nb + j are consecutive slots of ech: one shift places it
        slot, nb, top, mod = ech._slot, len(self.basis[n - 1]), self._top, self._mod
        out, bound = (0, 0) if key is None else (1 << (slot[key] << 3), 1)
        for x, word, vec, c in terms:
            span, tail = self.word_times(word, vec, n - 1 - len(word))
            if tail:
                bound += c * top
                if bound > 255:
                    out, bound = _fold(out, mod), top + c * top
                out += c * tail << (slot[x * nb + span[0]] << 3)
        return _fold(out, mod) if bound > top else out


def echelon(field, rows, ncols):
    """The :class:`Echelon` spanned by sparse ``rows`` (left unchanged) over
    columns 0 .. ncols-1."""
    ech = Echelon(field, range(ncols))
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
    reduced = dict(echelon(field, rows, ncols).items())
    cols = sorted(reduced)
    return list(enumerate(cols)), [reduced[c] for c in cols]


def rank(field, mat):
    """Exact rank: the number of rows of the echelon form."""
    return len(echelon(field, mat.rows, mat.ncols))


def kernel_basis(field, mat):
    """Basis of the right kernel: vectors v (dicts col -> scalar) with Mv = 0."""
    ech = echelon(field, mat.rows, mat.ncols)
    basis = {free: {free: field.one} for free in range(mat.ncols) if free not in ech}
    for c, row in ech.items():
        for free, coef in row.items():
            if free != c:
                basis[free][c] = field.neg(coef)
    return list(basis.values())


def kernel_dim(field, mat):
    return mat.ncols - rank(field, mat)
