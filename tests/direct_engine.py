"""The direct graded-dimension method, a reference the tests compare the
differential engine with: rank S_n blockwise over the Hurwitz orbits of X^n."""
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
