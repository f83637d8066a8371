"""Quantum symmetrizers, graded dimensions, cubic kernels and conditions.

Elements of the degree-n tensor component are sparse dicts word -> scalar,
a word being an n-tuple of rack elements.  Every word operator is a term
generator, word -> (word, scalar) pairs, summed over a vector by one
accumulator.  The symmetrizer follows the recursion
S_n = (id (x) S_{n-1}) o X_n with X_n = sum_{k=0}^{n-1} c_{12} c_{23} ...
c_{k,k+1}, whose terms ``_x_terms`` alone computes; the skew-derivation d_x
keeps the terms of X_n whose first letter is x, with that letter removed,
so u lies in ker S_n exactly when every d_x(u) lies in ker S_{n-1}.  That
biconditional is what the fast graded-dimension engine is built on, and it
is re-verified at runtime on small degrees by the structural tests.
``operator_matrix`` writes an operator on a block of words as a matrix and
raises NotBlockDiagonal when an image leaves the block.
"""
from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

from . import hilbert
from .hurwitz import orbits as hurwitz_orbits
from .linalg import Echelon, SparseMatrix, kernel_dim, rank, vectors
from .percolate import orbit_plague

# a degree's blocks are forked out only when the degree before took this long.
# Timed on the F_7 t-new inputs (perfbench modular_inputs(1)), 2-core host,
# median of 7 runs with every degree in-process against every degree forked
# in 2 parts: a tiny degree took 3-6 ms forked (the fork and merge cost),
# and forking won from about 9 ms of in-process work (quotient degree 7,
# 8.8 against 8.5 ms; Nichols degree 7, 12.0 against 10.3 ms).  At 30 ms
# the quotient forks from degree 10 or 11 to 18 (degree 13, after 90 ms,
# took 67 ms forked against 102 ms) and the Nichols engine degree 10 (39
# against 62 ms).  A lower threshold would fork more winning degrees, but
# quick must never fork: its slowest deciding degree (C-sign+-1 degree 3,
# over QQ) took 7-11 ms in the same runs and 14-17 ms when the host ran
# about half as fast.
# _PARTS, if set, replaces the one process per usable CPU.  Both are
# private: the tests set them to force either side, and nothing else should.
_FORK_SECONDS = 0.03
_PARTS = None


class NotHomogeneous(Exception):
    pass


class ImmunityBoundViolated(Exception):
    """A cubic-kernel block is larger than its orbit's immunity bound."""


class NotBlockDiagonal(Exception):
    """An operator sent a word of a block to a word outside it."""


# ---------------------------------------------------------------------------
# word-level operators: each is a term generator run through _apply

def _apply(f, vec, terms):
    """sum of c * terms(w) over the (w, c) of a sparse vector.

    ``terms(w)`` yields (word, scalar) pairs; equal words add up, and a sum
    that cancels is dropped.
    """
    out = {}
    get, add, mul, is_zero, one = out.get, f.add, f.mul, f.is_zero, f.one
    for w, c in vec.items():
        for nw, coeff in terms(w):
            # operator matrices apply operators to {w: one}: skip that product
            if c is not one:
                coeff = mul(c, coeff)
            cur = get(nw)
            if cur is None:
                out[nw] = coeff
            else:
                s = add(cur, coeff)
                if is_zero(s):
                    del out[nw]
                else:
                    out[nw] = s
    return out


def _x_terms(b, letters):
    """The terms of X_k on a k-letter word, as (z, tt, coeff).

    Term tt moves letter tt to the front: it is coeff times the word
    (z,) + letters without letter tt, where
    z = l_0 |> (l_1 |> ... (l_{tt-1} |> l_tt)) and coeff is the product of
    the q factors met on the way.
    """
    q = b.cocycle.q
    t = b.rack.table
    one, mul = b.field.one, b.field.mul
    for tt, z in enumerate(letters):
        coeff = one
        if tt:
            # start at the first q factor: a product with one would be wasted
            y = letters[tt - 1]
            coeff = q[y][z]
            z = t[y][z]
            for y in reversed(letters[: tt - 1]):
                coeff = mul(coeff, q[y][z])
                z = t[y][z]
        yield z, tt, coeff


def apply_x(b, vec, off, k):
    """X_k on slots off..off+k-1 of every word."""

    def terms(w):
        head, letters, tail = w[:off], w[off : off + k], w[off + k :]
        for z, tt, coeff in _x_terms(b, letters):
            yield head + (z,) + letters[:tt] + letters[tt + 1 :] + tail, coeff

    return _apply(b.field, vec, terms)


def symmetrizer_apply(b, n, vec):
    """S_n applied to a sparse vector of n-letter words."""
    for k in range(n, 1, -1):
        vec = apply_x(b, vec, n - k, k)
    return vec


def derive(b, x, vec):
    """The degree-lowering skew-derivation d_x on free words.

    d_x picks the v_x-leg coefficient of X_n: the terms of X_n whose first
    letter is x, with that letter removed.  Equivalently
    d_x(y w) = delta_{x,y} w + q[y][phi_y^{-1}(x)] * y d_{phi_y^{-1}(x)}(w).
    """

    def terms(w):
        for z, tt, coeff in _x_terms(b, w):
            if z == x:
                yield w[:tt] + w[tt + 1 :], coeff

    return _apply(b.field, vec, terms)


def derive_chain(b, letters, vec):
    """Compose derivations: letters are applied right to left as written."""
    for x in reversed(letters):
        vec = derive(b, x, vec)
    return vec


def operator_matrix(f, words, op):
    """The matrix whose column j is op(words[j]) in ``words`` coordinates.

    ``op`` maps a word to a sparse vector; an image word outside ``words``
    raises NotBlockDiagonal.
    """
    index = {w: i for i, w in enumerate(words)}
    m = SparseMatrix(len(words), len(words))
    for j, w in enumerate(words):
        for nw, c in op(w).items():
            i = index.get(nw)
            if i is None:
                raise NotBlockDiagonal("the image of %r has %r, outside the block" % (w, nw))
            m.rows[i][j] = c
    return m


# ---------------------------------------------------------------------------
# grading by monomial matrices (used to block eliminations)

class _Grading:
    """Word grades in the monoid of the monomial matrices M_x (permutation
    y -> x |> y, scalars q[x][y]), which satisfy M_x M_y = M_{x|>y} M_x."""

    def __init__(self, b):
        self.f = b.field
        self.mats = [(tuple(b.rack.table[x]), tuple(b.cocycle.q[x])) for x in range(b.dim)]
        self.unit = (tuple(range(b.dim)), (self.f.one,) * b.dim)
        # a degree has few distinct grades, so each product is computed once
        self._products = {}

    def mul(self, g, h):
        """The product g * h of two grades; grade(u v) = grade(u) * grade(v)."""
        gh = self._products.get((g, h))
        if gh is None:
            (p1, s1), (p2, s2), mul = g, h, self.f.mul
            gh = tuple(p1[k] for k in p2), tuple(mul(s1[k], s) for k, s in zip(p2, s2))
            self._products[g, h] = gh
        return gh

    def of_word(self, word):
        m = self.unit
        for x in reversed(word):
            m = self.mul(self.mats[x], m)
        return m


# ---------------------------------------------------------------------------
# graded engines: basis and normal forms degree by degree

class GradedEngine:
    """Degree-by-degree basis of a graded quotient of the tensor algebra.

    Degree n is represented by a list of basis words, each of the form
    letter + lower-degree basis word, together with:

    * grades[n][i]: the monomial-matrix grade of basis[n][i];
    * nfmul[n][y * nb + j], nb = len(basis[n-1]): the class of the
      candidate y * basis[n-1][j] expanded in basis[n];
    * spans[n][y * nb + j]: the basis indices of that candidate's grade
      block, the words its class can hold.

    That key is a candidate's one name, in nfmul and in every vector and
    echelon row.  The candidates of degree n are grouped by grade, which
    every elimination respects, and the grade block is the one unit in
    which vectors are built and eliminated.  A subclass's ``_build_degree``
    takes degree n's blocks of keys from ``_grade_blocks`` and hands them to
    ``_run_blocks`` with ``ctx``, what its blocks read of degree n.  Each
    block goes to the subclass's ``_reduce_block(n, grade, keys, ctx)``,
    which builds the block's vectors, eliminates them and returns
    (new, forms, extra): the keys that become basis words, in order, each
    other candidate's class by position in new, and what else the subclass
    keeps; ``_merge_block`` appends them to degree n, so a block's words are
    consecutive in basis[n].  NicholsEngine's vectors are the candidates'
    derivations; QuotientEngine's are the placements r * b, whose grade
    grade(r) * grade(b) is known before they are placed.

    Every vector, form and echelon row is in the store that the field picks
    (``linalg.vectors``), and only ``self.vs`` and ``linalg.Echelon`` look
    inside one: ``form`` reads a class as a dict.

    A block reads only lower degrees and ctx, never another block's output,
    so the blocks of a degree may run in separate processes
    (:mod:`braidrack.parallel`).  ``seconds[n]`` is the wall time of degree
    n and ``parts[n]`` the number of processes its blocks ran in.
    """

    def __init__(self, b):
        self.b = b
        self.f = b.field
        self.grading = _Grading(b)
        d = b.dim
        self.basis = {0: [()], 1: [(x,) for x in range(d)]}
        self.grades = {
            0: [self.grading.unit],
            1: [self.grading.of_word((x,)) for x in range(d)],
        }
        # degree 1's grade blocks: the letters of each grade, in order
        letters = {}
        for x, grade in enumerate(self.grades[1]):
            letters.setdefault(grade, []).append(x)
        self.spans = {1: [letters[grade] for grade in self.grades[1]]}
        self.nfmul = {}
        self.vs = vectors(self.f, self.nfmul, self.spans, self.basis)
        self.nfmul[1] = [self.vs.unit(span, span.index(x)) for x, span in enumerate(self.spans[1])]
        self.seconds = {}
        self.parts = {}

    def dims(self, up_to):
        if up_to < 0:
            raise ValueError("the degree must be nonnegative, got %d" % up_to)
        # one degree per extend call, so each degree is timed on its own
        for n in range(up_to + 1):
            self.extend(n)
        return [len(self.basis[n]) for n in range(up_to + 1)]

    def extend(self, up_to):
        for n in range(max(self.basis) + 1, up_to + 1):
            start = time.perf_counter()
            self._build_degree(n)
            self.seconds[n] = time.perf_counter() - start

    def form(self, n, key):
        """The class of degree-n candidate ``key`` as a dict over basis[n] indices."""
        return self.vs.coords(self.vs.vector(self.spans[n][key], self.nfmul[n][key]))

    def _grade_blocks(self, n):
        """Start degree n; its (grade, candidate keys) blocks, in discovery order."""
        blocks = {}
        mul, mats = self.grading.mul, self.grading.mats
        d, nb = self.b.dim, len(self.grades[n - 1])
        for j, grade in enumerate(self.grades[n - 1]):
            for y in range(d):
                blocks.setdefault(mul(mats[y], grade), []).append(y * nb + j)
        self.basis[n], self.grades[n] = [], []
        self.nfmul[n], self.spans[n] = [None] * (d * nb), [None] * (d * nb)
        return list(blocks.items())

    def _run_blocks(self, n, blocks, ctx):
        """Reduce and merge every block of degree n in discovery order; the extras.

        When degree n-1 took ``_FORK_SECONDS`` or more, ``parallel.run_blocks``
        spreads the blocks over forked processes.  Wherever a block runs, it
        is reduced by the same ``_reduce_block`` and merged here by the same
        ``_merge_block``, so the degree does not depend on where it ran.
        """
        parts = self.parts[n] = self._part_count(n, len(blocks))
        if parts > 1:
            # imported by a degree that forks, so an in-process run neither
            # compiles the module nor loads the pickler
            from .parallel import run_blocks

            return run_blocks(self, n, blocks, ctx, parts)
        return [self._merge_block(n, grade, self._reduce_block(n, grade, keys, ctx))
                for grade, keys in blocks]

    def _part_count(self, n, nblocks):
        """Processes for degree n: one per usable CPU if degree n-1 took long."""
        # fork is unsafe in a process with threads; a platform without
        # sched_getaffinity (or fork) runs every block in-process
        if (self.seconds.get(n - 1, 0.0) < _FORK_SECONDS or threading.active_count() > 1
                or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")):
            return 1
        return max(1, min(_PARTS or len(os.sched_getaffinity(0)), nblocks))

    def _merge_block(self, n, grade, out):
        """Append a block's basis words to degree n, set its forms; its extra.

        The block's words get the next indices, its span; a dict form is
        rebuilt on the span's ints, so nfmul's dicts share one int per
        basis word, where an unpickled index would be a new int per entry
        past 256.
        """
        new, forms, extra = out
        words, prev, nb = self.basis[n], self.basis[n - 1], len(self.basis[n - 1])
        span = list(range(len(words), len(words) + len(new)))
        nf, spans, vs = self.nfmul[n], self.spans[n], self.vs
        for pos, key in enumerate(new):
            y, j = divmod(key, nb)
            words.append((y,) + prev[j])
            nf[key], spans[key] = vs.unit(span, pos), span
        self.grades[n] += [grade] * len(new)
        for key, form in forms:
            nf[key], spans[key] = vs.entry(span, form), span
        return extra

    def nf_vector(self, vec, n):
        """Class of a free degree-n vector, as a dict over basis[n] indices."""
        self.extend(n)
        out = {}
        vs, axpy = self.vs, self.f.axpy
        unit = vs.vector([0], vs.unit([0], 0))
        for w, c in vec.items():
            if len(w) != n:
                raise NotHomogeneous("vector mixes degrees")
            axpy(out, vs.coords(vs.word_times(w, unit, 0)), c)
        return out


class NicholsEngine(GradedEngine):
    """Graded data of the braided space's quotient by the symmetrizer kernels.

    Besides the basis and nfmul of :class:`GradedEngine` it keeps, for its
    top degree n only, dmat[i] = {x: d_x(basis[n][i])}, each derivation a
    vector of degree n-1 and only the nonzero ones kept (``derivations``
    reads them as dicts).  A candidate is eliminated when its derivations
    depend on those of the candidates before it in its block: u lies in
    ker S_n exactly when every d_x(u) lies in ker S_{n-1}.
    """

    def __init__(self, b):
        super().__init__(b)
        # d_x(y) is 1 when x = y and 0 otherwise
        one = self.vs.vector([0], self.vs.unit([0], 0))
        self.dmat = [{x: one} for x in range(b.dim)]

    def derivations(self, i):
        """{x: d_x(basis[n][i])} at the top degree n, each a dict over basis[n-1] indices."""
        return {x: self.vs.coords(dx) for x, dx in self.dmat[i].items()}

    def _build_degree(self, n):
        # each block returns its words' derivations, in discovery order
        parts = self._run_blocks(n, self._grade_blocks(n), self.dmat)
        self.dmat = [dx for part in parts for dx in part]

    def _reduce_block(self, n, grade, cands, prev_d):
        """Eliminate the block's derivations; its words, forms and dmat rows."""
        q, t = self.b.cocycle.q, self.b.rack.table
        nb, lift = len(self.basis[n - 1]), self.vs.lift
        new, forms, dm = [], [], []
        # d_x of a word of grade g has grade M_x^-1 g, so a derivation key
        # x * nb + i is itself a candidate of this block: the keys are cands
        ech = Echelon(self.f, cands)
        for cand in cands:
            # d_x(y w) = delta_{x,y} w + q[y][z] y d_z(w) with y |> z = x,
            # keyed x * nb + i; it reads only prev_d and nfmul[n-1], so each
            # candidate's vector is built as it is reduced
            y, j = divmod(cand, nb)
            qy, ty = q[y], t[y]
            vec = lift(ech, [(ty[z], (y,), dz, qy[z]) for z, dz in prev_d[j].items()], n, cand)
            form = ech.express(vec)
            if form is None:
                new.append(cand)
                # the kept word's derivations, split by letter
                dm.append(ech.split(vec, nb))
            else:
                # dependent: its class in the block's chosen words
                forms.append((cand, form))
        return new, forms, dm


def graded_dims(b, up_to):
    """Graded dimensions 0..up_to via the differential engine."""
    return NicholsEngine(b).dims(up_to)


# ---------------------------------------------------------------------------
# cubic kernel per orbit block

@dataclass
class OrbitKernel:
    seed: tuple
    size: int
    kernel_dim: int
    immunity_bound: Fraction   # imm * size * e^3
    optimal: bool


@dataclass
class CubicKernelReport:
    total: int
    blocks: list
    dim_v: int

    def many_cubic_threshold(self):
        return Fraction(self.dim_v * (self.dim_v**2 - 1), 3)

    def has_many_cubic_relations(self):
        return Fraction(self.total) >= self.many_cubic_threshold()


def cubic_kernel(b):
    """dim ker(1 + c12 + c12 c23) summed over Hurwitz 3-orbit blocks.

    Each block is checked against the immunity bound imm * size, with imm
    from ``percolate.orbit_plague``, raising ImmunityBoundViolated if it
    fails; an orbit that gets no plague search there (above its cap) gets
    the trivial bound size, never optimal.
    """
    f = b.field
    blocks = []
    total = 0
    for o in hurwitz_orbits(b.rack, 3):
        m = operator_matrix(f, o.tuples, lambda w: apply_x(b, {w: f.one}, 0, 3))
        dim = o.size - rank(f, m)
        res = orbit_plague(o)
        bound = Fraction(o.size) if res is None else res.immunity * o.size
        if dim > bound:
            raise ImmunityBoundViolated(
                "kernel dim %d exceeds immunity bound %s on a size-%d orbit"
                % (dim, bound, o.size)
            )
        optimal = res is not None and dim == bound
        blocks.append(OrbitKernel(o.tuples[0], o.size, dim, bound, optimal))
        total += dim
    return CubicKernelReport(total=total, blocks=blocks, dim_v=b.dim)


# ---------------------------------------------------------------------------
# the three conditions

@dataclass
class ConditionsReport:
    dims: list
    cond1_truncated: bool
    factorizations: list
    # False when hilbert.factorizations stopped at MAX_SOLUTIONS
    factorizations_complete: bool
    cond2: bool
    cond3: bool
    cubic: CubicKernelReport


def check_conditions(b, hilbert_degree=4):
    """Evaluate the three equivalent finiteness conditions.

    cond3: dim ker(1 + c12 + c12 c23) >= dim V ((dim V)^2 - 1) / 3;
    cond2: dim B_3 <= dim V (dim B_2 - ((dim V)^2 - 1) / 3);
    cond1: the dims up to ``hilbert_degree`` extend to a product of factors
    (n)_t, (n)_{t^2} (a truncated check, not a certificate).
    """
    if hilbert_degree < 3:
        raise ValueError("hilbert_degree must be >= 3, got %d" % hilbert_degree)
    dims = graded_dims(b, hilbert_degree)
    ck = cubic_kernel(b)
    dv = b.dim
    cond2 = Fraction(dims[3]) <= dv * (Fraction(dims[2]) - Fraction(dv * dv - 1, 3))
    facts, complete = hilbert.factorizations(dims, hilbert_degree)
    return ConditionsReport(
        dims=dims,
        cond1_truncated=bool(facts),
        factorizations=facts,
        factorizations_complete=complete,
        cond2=cond2,
        cond3=ck.has_many_cubic_relations(),
        cubic=ck,
    )


# ---------------------------------------------------------------------------
# closed forms and the general inequality

def closed_form_kernel_1orbit(e, q, field):
    """Kernel dimension of 1 + c12 + c12 c23 on a rank-e one-point block."""
    f = field
    char = f.characteristic
    one = f.one
    q2 = f.mul(q, q)
    if char == 3 and q == one:
        return e * (e * e + 2) // 3
    if q == f.neg(one) or (char != 3 and q == one):
        return e * (e * e - 1) // 3
    if char != 3 and f.is_zero(f.add(f.add(one, q), q2)):
        return e * (e + 1) * (e + 2) // 6
    if char not in (2, 3) and f.is_zero(f.add(f.sub(one, q), q2)):
        return e * (e - 1) * (e - 2) // 6
    return 0


def closed_form_kernel_8orbit_bound(e, q, field):
    """Upper bound for the kernel on an 8-orbit block with fiber dimension e."""
    if q == field.neg(field.one):
        return e * e * (5 * e + 1) // 2
    return e * e * (5 * e - 1) // 2


def general_inequality_lhs(d, e, k3, m, d1, d8):
    """LHS of the census-derived necessary inequality for many cubic relations.

    Derived by summing the per-orbit immunity bounds with the orbit counts
    written in terms of (d, k2 = d - k3 - 1, k3, m, t); both t and d cancel:

        24 d1 + 12 k3 d8 - e^3 k3^2 - 30 e^3 k3 + e^3 m - 8 e^3 + 8 e >= 0.

    At e = 1 this is 24 d1 + 12 k3 d8 - k3^2 - 30 k3 + m >= 0.
    """
    e3 = e**3
    return Fraction(24) * d1 + 12 * k3 * Fraction(d8) - e3 * k3 * k3 - 30 * e3 * k3 + e3 * m - 8 * e3 + 8 * e


def lemma_reduction_minus_one(e, k3, m):
    """With d1 = e(e^2-1)/3, d8 = e^2(5e+1)/2 the inequality reduces to
    e k3^2 - e m - 6 k3 <= 0; returns that LHS."""
    return e * k3 * k3 - e * m - 6 * k3


def lemma_reduction_generic(e, k3, m):
    """With d1 = e(e^2+2)/3, d8 = e^2(5e-1)/2 the inequality reduces to
    e^2 k3^2 - e^2 m + 6 e k3 - 24 <= 0; returns that LHS."""
    return e * e * k3 * k3 - e * e * m + 6 * e * k3 - 24


def k3_bound(e, minus_one=True):
    """The least k3 from which no admissible m passes the lemma reduction.

    For 0 <= m <= k3 the minus-one LHS is at least k3 (e (k3 - 1) - 6), and
    the generic one at least e^2 k3 (k3 - 1) + 6 e k3 - 24.  The first is
    positive once k3 > 1 + 6/e, the second once k3 > 4/e.
    """
    if e < 1:
        raise ValueError("e must be positive, got %r" % (e,))
    return 2 + 6 // e if minus_one else 1 + 4 // e


def max_k3(e, minus_one=True):
    """Largest k3 for which some admissible m (0 <= m <= k3, 3 | m) passes."""
    lhs = lemma_reduction_minus_one if minus_one else lemma_reduction_generic
    best = 0
    for k3 in range(k3_bound(e, minus_one)):
        if any(lhs(e, k3, m) <= 0 for m in range(0, k3 + 1, 3)):
            best = k3
    return best


# ---------------------------------------------------------------------------
# structural identities (asserted by the test suite on every computed space)

def kernel_identity_terms(b):
    """(dim ker S3, dim V * dim ker(1+c), dim ker X3) for the identity
    dim ker S3 <= dim V dim ker(1+c) + dim ker X3."""
    f = b.field
    d = b.dim
    words2 = list(itertools.product(range(d), repeat=2))
    words3 = list(itertools.product(range(d), repeat=3))
    ker_1c = kernel_dim(f, operator_matrix(f, words2, lambda w: apply_x(b, {w: f.one}, 0, 2)))
    ker_x3 = kernel_dim(f, operator_matrix(f, words3, lambda w: apply_x(b, {w: f.one}, 0, 3)))
    ker_s3 = kernel_dim(f, operator_matrix(
        f, words3, lambda w: symmetrizer_apply(b, 3, {w: f.one})))
    return ker_s3, d * ker_1c, ker_x3
