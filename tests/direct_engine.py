"""The direct graded-dimension method, a reference the tests compare the
differential engine with: rank S_n blockwise over the Hurwitz orbits of X^n;
and ``words``, which spells a graded engine's basis keys as letter tuples."""
from braidrack.hurwitz import orbits as hurwitz_orbits
from braidrack.linalg import rank
from braidrack.nichols import operator_matrix, symmetrizer_apply

DIRECT_WORD_CAP = 3 * 10**5


class DegreeCap(Exception):
    pass


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


def words(eng, n):
    """basis[n] of a graded engine spelled as letter tuples.

    The engine stores word i of degree m as the key y * nb + j,
    nb = len(basis[m-1]): letter y followed by word j of degree m-1.
    """
    spelled = [()]
    for m in range(1, n + 1):
        nb = len(eng.basis[m - 1])
        spelled = [(key // nb,) + spelled[key % nb] for key in eng.basis[m]]
    return spelled
