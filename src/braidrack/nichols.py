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
from dataclasses import dataclass
from fractions import Fraction

from . import hilbert
from .hurwitz import orbits as hurwitz_orbits, sigma, sigma_inv
from .linalg import Echelon, SparseMatrix, kernel_dim, rank
from .percolate import minimal_plague_cached

DIRECT_WORD_CAP = 3 * 10**5
# orbits up to this size get the exact minimal-plague bound in cubic_kernel
BOUND_ORBIT_CAP = 24


class DegreeCap(Exception):
    pass


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


def braid_map(b, i, vec):
    """c_{i,i+1} on a sparse vector of n-letter words (1 <= i <= n-1)."""
    r, q = b.rack, b.cocycle.q
    return _apply(b.field, vec, lambda w: ((sigma(r, i, w), q[w[i - 1]][w[i]]),))


def braid_map_inv(b, i, vec):
    f, r, q = b.field, b.rack, b.cocycle.q

    def terms(w):
        nw = sigma_inv(r, i, w)
        yield nw, f.inv(q[nw[i - 1]][nw[i]])

    return _apply(f, vec, terms)


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


def x3_apply(b, vec):
    """1 + c12 + c12 c23 on 3-letter words."""
    return apply_x(b, vec, 0, 3)


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

def grading_matrices(b):
    """M_x = action of x on the space: they satisfy M_x M_y = M_{x|>y} M_x."""
    d = b.dim
    q = b.cocycle.q
    t = b.rack.table
    return [
        (tuple(t[x][y] for y in range(d)), tuple(q[x][y] for y in range(d)))
        for x in range(d)
    ]


class _Grading:
    """Word grades in the monoid the grading matrices generate."""

    def __init__(self, b):
        self.f = b.field
        self.mats = grading_matrices(b)
        d = b.dim
        self.unit = (tuple(range(d)), (self.f.one,) * d)

    def lmul(self, x, m):
        """M_x * grade(m) (prepend letter x on the left)."""
        p1, s1 = self.mats[x]
        p2, s2 = m
        f = self.f
        return (
            tuple(p1[p2[y]] for y in range(len(p2))),
            tuple(f.mul(s1[p2[y]], s2[y]) for y in range(len(p2))),
        )

    def of_word(self, word):
        m = self.unit
        for x in reversed(word):
            m = self.lmul(x, m)
        return m


# ---------------------------------------------------------------------------
# direct engine: rank of S_n blockwise over the Hurwitz orbits of X^n

def graded_dim_direct(b, n):
    """dim of the degree-n component as rank S_n, summed over orbit blocks."""
    if n == 0:
        return 1
    if b.dim**n > DIRECT_WORD_CAP:
        raise DegreeCap("d^n = %d exceeds the word cap" % b.dim**n)
    f = b.field
    total = 0
    for o in hurwitz_orbits(b.rack, n):
        # NotBlockDiagonal if S_n ever left the orbit block
        m = operator_matrix(f, o.tuples, lambda w: symmetrizer_apply(b, n, {w: f.one}))
        total += rank(f, m)
    return total


# ---------------------------------------------------------------------------
# graded engines: basis and normal forms degree by degree

class GradedEngine:
    """Degree-by-degree basis of a graded quotient of the tensor algebra.

    Degree n is represented by a list of basis words, each of the form
    letter + lower-degree basis word, together with:

    * grades[n][i]: the monomial-matrix grade of basis[n][i];
    * nfmul[n][(y, j)]: the class of y * basis[n-1][j] expanded in basis[n].

    The candidates (y, j) of degree n are grouped by grade, which every
    elimination respects, and each grade block is eliminated on its own.
    A subclass says what a block eliminates: ``_block_vectors`` gives its
    vectors and ``_reduce_block`` picks the block's basis words, through
    ``_new_word``, and sets nfmul of the other candidates.
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
        self.nfmul = {1: {(x, 0): {x: self.f.one} for x in range(d)}}

    def dims(self, up_to):
        # one degree per extend call, so each degree is timed on its own
        for n in range(up_to + 1):
            self.extend(n)
        return [len(self.basis[n]) for n in range(up_to + 1)]

    def dim(self, n):
        self.extend(n)
        return len(self.basis[n])

    def extend(self, up_to):
        n = max(self.basis) + 1
        while n <= up_to:
            self._build_degree(n)
            n += 1

    def _build_degree(self, n):
        blocks = {}
        for j, grade in enumerate(self.grades[n - 1]):
            for y in range(self.b.dim):
                blocks.setdefault(self.grading.lmul(y, grade), []).append((y, j))
        self.basis[n], self.grades[n], self.nfmul[n] = [], [], {}
        if not blocks:
            return
        vectors = self._block_vectors(n, blocks)
        # blocks in the order of their first candidate, for a fixed basis order
        for g in sorted(blocks, key=lambda g: blocks[g][0]):
            self._reduce_block(n, g, blocks[g], vectors.get(g, ()))

    def _new_word(self, n, cand, grade):
        """Make candidate (y, j) the next basis word of degree n; its index."""
        y, j = cand
        words = self.basis[n]
        i = len(words)
        words.append((y,) + self.basis[n - 1][j])
        self.grades[n].append(grade)
        self.nfmul[n][cand] = {i: self.f.one}
        return i

    def _lmul(self, y, coords, n):
        """y times a vector in basis[n-1] coordinates, in basis[n] coordinates."""
        out = {}
        nf = self.nfmul[n]
        axpy = self.f.axpy
        for j, c in coords.items():
            axpy(out, nf[(y, j)], c)
        return out

    def _word_times(self, word, coords, n):
        """word times a vector in basis[n] coordinates, expanded in the basis."""
        for k, y in enumerate(reversed(word), n + 1):
            coords = self._lmul(y, coords, k)
        return coords

    def nf_vector(self, vec, n):
        """Class of a free degree-n vector in basis[n] coordinates."""
        self.extend(n)
        out = {}
        axpy, one = self.f.axpy, self.f.one
        for w, c in vec.items():
            if len(w) != n:
                raise NotHomogeneous("vector mixes degrees")
            axpy(out, self._word_times(w, {0: one}, 0), c)
        return out


class NicholsEngine(GradedEngine):
    """Graded data of the braided space's quotient by the symmetrizer kernels.

    Besides the basis and nfmul of :class:`GradedEngine` it keeps
    dmat[n][x][i], d_x of basis[n][i] expanded in basis[n-1].  A candidate
    is eliminated when its derivations depend on those of the candidates
    before it in its block: u lies in ker S_n exactly when every d_x(u)
    lies in ker S_{n-1}.
    """

    def __init__(self, b):
        super().__init__(b)
        self.dmat = {1: [[{0: self.f.one} if w[0] == x else {} for w in self.basis[1]]
                         for x in range(b.dim)]}

    def _build_degree(self, n):
        self.dmat[n] = [[] for _ in range(self.b.dim)]
        super()._build_degree(n)

    def _block_vectors(self, n, blocks):
        """Per candidate y * basis[n-1][j], its derivations (d_x)_x in
        coordinates (x, i) -> x * len(basis[n-1]) + i."""
        f = self.f
        axpy = f.axpy
        d = self.b.dim
        q = self.b.cocycle.q
        phi = [self.b.rack.phi(x) for x in range(d)]
        prev_d = self.dmat[n - 1]
        nb = len(self.basis[n - 1])
        vectors = {}
        for g, cands in blocks.items():
            vecs = vectors[g] = []
            for y, j in cands:
                vec = {y * nb + j: f.one}  # delta term of d_y
                for xp in range(d):
                    dv = prev_d[xp][j]
                    if dv:
                        xnb = phi[y][xp] * nb
                        ydv = self._lmul(y, dv, n - 1)
                        axpy(vec, {xnb + i: c for i, c in ydv.items()}, q[y][xp])
                vecs.append(vec)
        return vectors

    def _reduce_block(self, n, grade, cands, vectors):
        f = self.f
        nb = len(self.basis[n - 1])
        dm = self.dmat[n]
        ech = Echelon(f)
        # each row's tag expresses it in the derivation vectors of basis words
        for cand, vec in zip(cands, vectors):
            rest = dict(vec)
            expr = {}
            ech.reduce(rest, expr)
            if rest:
                i = self._new_word(n, cand, grade)
                for col in dm:
                    col.append({})
                for key, c in vec.items():
                    x, i1 = divmod(key, nb)
                    dm[x][i][i1] = c
                expr[i] = f.one
                ech.insert(rest, expr)
            else:
                # dependent: its class is -(expr) combination of chosen words
                self.nfmul[n][cand] = {i: f.neg(c) for i, c in expr.items()}


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

    Each block is checked against the immunity bound (kernel <= imm * size),
    raising ImmunityBoundViolated if it fails; the bound is only evaluated
    for orbit sizes <= ``BOUND_ORBIT_CAP`` where the exact minimal plague
    search is cheap.
    """
    f = b.field
    blocks = []
    total = 0
    for o in hurwitz_orbits(b.rack, 3):
        m = operator_matrix(f, o.tuples, lambda w: x3_apply(b, {w: f.one}))
        dim = o.size - rank(f, m)
        if o.size <= BOUND_ORBIT_CAP:
            imm = minimal_plague_cached(o).immunity
            bound = imm * o.size
            if dim > bound:
                raise ImmunityBoundViolated(
                    "kernel dim %d exceeds immunity bound %s on a size-%d orbit"
                    % (dim, bound, o.size)
                )
            optimal = Fraction(dim) == bound
        else:
            bound = Fraction(o.size)
            optimal = False
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
    cond2: bool
    cond3: bool
    cubic: CubicKernelReport

    def all_true(self):
        return self.cond1_truncated and self.cond2 and self.cond3


def check_conditions(b, hilbert_degree=4):
    """Evaluate the three equivalent finiteness conditions.

    cond3: dim ker(1 + c12 + c12 c23) >= dim V ((dim V)^2 - 1) / 3;
    cond2: dim B_3 <= dim V (dim B_2 - ((dim V)^2 - 1) / 3);
    cond1: the dims up to ``hilbert_degree`` extend to a product of factors
    (n)_t, (n)_{t^2} (a truncated check, not a certificate).
    """
    if hilbert_degree < 3:
        raise ValueError("hilbert_degree must be >= 3")
    dims = graded_dims(b, hilbert_degree)
    ck = cubic_kernel(b)
    dv = b.dim
    cond2 = Fraction(dims[3]) <= dv * (Fraction(dims[2]) - Fraction(dv * dv - 1, 3))
    facts = hilbert.factorizations(dims, hilbert_degree)
    return ConditionsReport(
        dims=dims,
        cond1_truncated=bool(facts),
        factorizations=facts,
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


def one_orbit_operator_matrix(field, e, q):
    """1 + c12 + c12 c23 on (V_x)^{(x)3} with dim V_x = e, x acting by q."""
    q2 = field.mul(q, q)

    def terms(w):
        i, j, k = w
        return ((w, field.one), ((j, i, k), q), ((k, i, j), q2))

    words = list(itertools.product(range(e), repeat=3))
    return operator_matrix(field, words, lambda w: _apply(field, {w: field.one}, terms))


def general_inequality_lhs(d, e, k3, m, d1, d8):
    """LHS of the census-derived necessary inequality for many cubic relations.

    Derived by summing the per-orbit immunity bounds with the orbit counts
    written in terms of (d, k2 = d - k3 - 1, k3, m, t); both t and d cancel:

        24 d1 + 12 k3 d8 - e^3 k3^2 - 30 e^3 k3 + e^3 m - 8 e^3 + 8 e >= 0.

    At e = 1 this is 24 d1 + 12 k3 d8 - k3^2 - 30 k3 + m >= 0.
    """
    e3 = e**3
    return Fraction(24) * d1 + 12 * k3 * Fraction(d8) - e3 * k3 * k3 - 30 * e3 * k3 + e3 * m - 8 * e3 + 8 * e


def general_inequality(d, e, k3, m, d1, d8):
    return general_inequality_lhs(d, e, k3, m, d1, d8) >= 0


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
    ker_x3 = kernel_dim(f, operator_matrix(f, words3, lambda w: x3_apply(b, {w: f.one})))
    ker_s3 = kernel_dim(f, operator_matrix(
        f, words3, lambda w: symmetrizer_apply(b, 3, {w: f.one})))
    return ker_s3, d * ker_1c, ker_x3
