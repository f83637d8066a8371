import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidrack.fields import (
    GF,
    QQ,
    Field,
    FieldError,
    QuadraticRationalField,
    QuotientRing,
    RationalField,
    parse_field,
)

SPECS = ["QQ", "Fp(7)", "Fp(2)", "QQ[t]/(t^2+t+1)", "QQ[t]/(t^2-t+1)", "Fp(2)[t]/(t^2+t+1)", "Fp(3)[t]/(t^2+1)"]
# every kind of field: prime fields, QQ quotients of degree 2 (integer and
# fractional coefficients), 3 and 4, and F4, F9, F25, F125
ALL_KINDS = SPECS + [
    "QQ[t]/(t^2+3*t-5)", "QQ[t]/(t^2+1/2)", "QQ[t]/(t^3-2)", "QQ[t]/(t^4+1)",
    "Fp(5)[t]/(t^2+2)", "Fp(5)[t]/(t^3+t+1)",
]


@pytest.mark.parametrize("spec", SPECS)
def test_spec_string_roundtrip(spec):
    f = parse_field(spec)
    assert f.spec_string() == spec
    assert parse_field(f.spec_string()) == f


@pytest.mark.parametrize("spec", SPECS)
def test_scalar_print_parse_roundtrip(spec):
    f = parse_field(spec)
    samples = [f.zero, f.one, f.from_int(-1), f.from_int(5)]
    if hasattr(f, "gen"):
        samples += [f.gen, f.add(f.gen, f.one), f.neg(f.mul(f.gen, f.gen))]
    if f.characteristic == 0:
        samples.append(f.parse("3/2"))
    for v in samples:
        assert f.parse(f.to_str(v)) == v


def test_literal_forms():
    f = parse_field("QQ[t]/(t^2+t+1)")
    assert f.parse("-1") == f.from_int(-1)
    assert f.parse("3/2") == f.div(f.from_int(3), f.from_int(2))
    assert f.parse("t+1") == f.add(f.gen, f.one)
    # "q" aliases the generator in scalar literals
    assert f.parse("q^2") == f.mul(f.gen, f.gen)
    assert f.parse("-q^2") == f.neg(f.mul(f.gen, f.gen))


def test_quadratic_field_is_used_over_qq():
    f = parse_field("QQ[t]/(t^2+t+1)")
    assert isinstance(f, QuadraticRationalField)
    # 1 + t + t^2 = 0
    assert f.add(f.add(f.one, f.gen), f.mul(f.gen, f.gen)) == f.zero
    # t has order 3, -t order 6
    assert f.pow(f.gen, 3) == f.one
    assert f.pow(f.neg(f.gen), 6) == f.one
    assert f.pow(f.neg(f.gen), 3) != f.one


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        parse_field("QQ[t]/(t^2-1)")
    with pytest.raises(FieldError):
        parse_field("Fp(3)[t]/(t^2+2)")  # t^2 = 1 has roots mod 3


def test_zero_divisor_detected_on_inversion():
    # t^2+2t+1 = (t+1)^2 over Fp(5): Rabin's test rejects it up front
    with pytest.raises(FieldError):
        QuotientRing(GF(5), [1, 2, 1])
    # so does the quartic (t^2+1)^2, which has no root mod 5; inversion
    # meeting a zero divisor is covered over QQ[t]/(t^4-1) in test_linalg
    with pytest.raises(FieldError):
        QuotientRing(GF(5), [1, 0, 2, 0, 1])


def _has_factor(p, f):
    """Brute force: whether the monic f (lowest power first) over Fp(p) has a
    monic factor of degree 1 .. deg(f) // 2."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for low in range(p ** d):
            g = [(low // p ** i) % p for i in range(d)] + [1]
            rem = list(f)
            for i in range(n, d - 1, -1):
                c = rem[i]
                for j in range(d + 1):
                    rem[i - d + j] = (rem[i - d + j] - c * g[j]) % p
            if not any(rem):
                return True
    return False


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_rabin_matches_brute_force(p, n):
    for low in range(p ** n):
        f = [(low // p ** i) % p for i in range(n)] + [1]
        if _has_factor(p, f):
            with pytest.raises(FieldError):
                QuotientRing(GF(p), f)
        else:
            assert QuotientRing(GF(p), f).irreducible_assumed is False


def test_reducible_quartics_over_fp_rejected():
    # (t^2+t+1)^2 over Fp(2) and (t^2+1)^2 over Fp(5): no roots, yet reducible
    for spec in ("Fp(2)[t]/(t^4+t^2+1)", "Fp(5)[t]/(t^4+2*t^2+1)"):
        with pytest.raises(FieldError):
            parse_field(spec)
    assert parse_field("Fp(2)[t]/(t^4+t+1)").irreducible_assumed is False


def _elems(f, n):
    out = [f.from_int(k) for k in range(-n, n + 1)]
    if hasattr(f, "gen"):
        out += [f.add(f.from_int(k), f.gen) for k in range(-1, 2)]
    return [v for v in out]


@pytest.mark.parametrize("spec", SPECS)
def test_field_axioms_on_samples(spec):
    f = parse_field(spec)
    xs = _elems(f, 3)
    for a in xs:
        for b in xs:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
        if not f.is_zero(a):
            assert f.mul(a, f.inv(a)) == f.one
    for a in xs[:5]:
        for b in xs[:5]:
            for c in xs[:5]:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)


def _pair(f, c0, c1):
    """c0 + c1 t from Fraction coefficients, built by arithmetic."""
    c0, c1 = (f.div(f.from_int(c.numerator), f.from_int(c.denominator)) for c in (c0, c1))
    return f.add(c0, f.mul(c1, f.gen))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-40, 40), st.integers(-40, 40),
    st.integers(-40, 40), st.integers(-40, 40),
    st.integers(1, 9), st.integers(1, 9),
)
def test_quadratic_triple_arithmetic_matches_fractions(a1, b1, a2, b2, d1, d2):
    f = parse_field("QQ[t]/(t^2+t+1)")
    x = _pair(f, Fraction(a1, d1), Fraction(b1, d1))
    y = _pair(f, Fraction(a2, d2), Fraction(b2, d2))
    # reference computation with Fractions: (a + b t)(c + d t), t^2 = -t-1
    ax, bx = Fraction(a1, d1), Fraction(b1, d1)
    ay, by = Fraction(a2, d2), Fraction(b2, d2)
    prod = (ax * ay - bx * by, ax * by + ay * bx - bx * by)
    assert f.coefficients(f.mul(x, y)) == prod
    assert f.coefficients(f.add(x, y)) == (ax + ay, bx + by)
    if not f.is_zero(x):
        assert f.mul(x, f.inv(x)) == f.one


def test_prime_field_requires_prime():
    with pytest.raises(FieldError):
        GF(6)


def _element(f, coeffs):
    """sum of (num/den) t^k over the given (num, den) pairs, built by arithmetic."""
    x = f.zero
    for k, (num, den) in enumerate(coeffs[: getattr(f, "degree", 1)]):
        d = f.from_int(den)
        c = f.div(f.from_int(num), d) if not f.is_zero(d) else f.from_int(num)
        x = f.add(x, c if k == 0 else f.mul(c, f.pow(f.gen, k)))
    return x


_COEFFS = st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 12)), min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_KINDS), _COEFFS)
def test_print_parse_roundtrip_over_every_field_kind(spec, coeffs):
    f = parse_field(spec)
    x = _element(f, coeffs)
    assert f.parse(f.to_str(x)) == x
    g = parse_field(f.spec_string())
    assert g == f and type(g) is type(f)


_QUADRATICS = [(1, 1), (-1, 1), (3, -5), (0, 1), (0, 2), (5, 7)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_QUADRATICS), _COEFFS)
def test_quadratic_field_matches_the_generic_quotient_ring(uv, coeffs):
    # the generic tuple representation is the reference for the integer triples
    fast = QuadraticRationalField(*uv)
    ref = QuotientRing(RationalField(), fast.modulus)
    (a1, d1), (b1, e1), (a2, d2), (b2, e2) = coeffs
    xr = (Fraction(a1, d1), Fraction(b1, e1))
    yr = (Fraction(a2, d2), Fraction(b2, e2))
    x, y = _pair(fast, *xr), _pair(fast, *yr)
    assert fast.coefficients(x) == xr
    assert fast.coefficients(fast.add(x, y)) == ref.add(xr, yr)
    assert fast.coefficients(fast.sub(x, y)) == ref.sub(xr, yr)
    assert fast.coefficients(fast.mul(x, y)) == ref.mul(xr, yr)
    assert fast.to_str(x) == ref.to_str(xr)
    assert fast.spec_string() == ref.spec_string()
    if not fast.is_zero(x):
        assert fast.coefficients(fast.inv(x)) == ref.inv(xr)


@pytest.mark.parametrize("spec", ALL_KINDS)
def test_malformed_literal_raises_field_error_naming_it(spec):
    f = parse_field(spec)
    for literal in ["1+-t", "--1", "1/0", "t/2", "",
                    "1.5", ".5", "1e3", "1e-3", "1_0", "\u0663", "1/-2", "*t", "1 2"]:
        with pytest.raises(FieldError, match=re.escape("%r for %s" % (literal, spec))):
            f.parse(literal)


_LITERALS = ["0", "-7", "+12", "6/3", "-3/4", "\u22125", "19+16/8", "3 / 4", "1 - 1/3",
             "t", "q^2", "2*t+1", "-q^2 - 1/2", "1/2t", "t^3", "t^0 + 3"]
_NO_T = (None,) * 7
# the value of each literal above in each field; None is a FieldError
_PINNED = {
    "QQ": (0, -7, 12, 2, Fraction(-3, 4), -5, 21, Fraction(3, 4), Fraction(2, 3)) + _NO_T,
    "Fp(7)": (0, 0, 5, 2, 1, 2, 0, 6, 3) + _NO_T,
    "Fp(2)": (0, 1, 0, 0, None, 1, None, None, 0) + _NO_T,
    "QQ[t]/(t^2+t+1)": (
        (0, 0, 1), (-7, 0, 1), (12, 0, 1), (2, 0, 1), (-3, 0, 4), (-5, 0, 1), (21, 0, 1),
        (3, 0, 4), (2, 0, 3), (0, 1, 1), (-1, -1, 1), (1, 2, 1), (1, 2, 2), (0, 1, 2),
        (1, 0, 1), (4, 0, 1),
    ),
    "Fp(2)[t]/(t^2+t+1)": (
        (0, 0), (1, 0), (0, 0), (0, 0), None, (1, 0), None, None, (0, 0),
        (0, 1), (1, 1), (1, 0), None, None, (1, 0), (0, 0),
    ),
    "QQ[t]/(t^3-2)": (
        (0, 0, 0), (-7, 0, 0), (12, 0, 0), (2, 0, 0), (Fraction(-3, 4), 0, 0), (-5, 0, 0),
        (21, 0, 0), (Fraction(3, 4), 0, 0), (Fraction(2, 3), 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 2, 0), (Fraction(-1, 2), 0, -1), (0, Fraction(1, 2), 0), (2, 0, 0), (4, 0, 0),
    ),
    "Fp(7)[t]/(t-2)": tuple((v,) for v in (0, 0, 5, 2, 1, 2, 0, 6, 3, 2, 4, 5, 6, 1, 1, 4)),
}


def _types(x):
    return tuple(map(_types, x)) if type(x) is tuple else type(x)


@pytest.mark.parametrize("spec", sorted(_PINNED))
def test_one_grammar_pins_every_field(spec):
    f = parse_field(spec)
    for literal, want in zip(_LITERALS, _PINNED[spec], strict=True):
        if want is None:
            with pytest.raises(FieldError, match=re.escape("%r for %s" % (literal, spec))):
                f.parse(literal)
        else:
            got = f.parse(literal)
            assert (got, _types(got)) == (want, _types(want)), literal


def test_a_literal_is_a_string():
    # a JSON number in a cocycle or relation file
    with pytest.raises(FieldError, match="bad scalar -1 for QQ"):
        QQ.parse(-1)


def test_q_aliases_t_in_a_modulus():
    for spec in ("QQ[t]/(q^2+q+1)", "Fp(2)[t]/( q ^ 2 + q + 1 )"):
        f = parse_field(spec)
        assert f == parse_field(spec.replace("q", "t"))


def test_only_ascii_digits_make_a_number():
    with pytest.raises(FieldError):
        parse_field("Fp(\u0667)")
    with pytest.raises(FieldError):
        parse_field("QQ[t]/(t^2+\u0663)")


@st.composite
def _literal(draw, with_t):
    """A random literal of the scalar grammar, its value as {power of t:
    Fraction} and its denominators."""
    def ws():
        return draw(st.sampled_from(["", " ", "  "]))

    text, poly, dens = "", {}, []
    for i in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["+", "-", "\u2212"] + ([""] if i == 0 else [])))
        num, den = draw(st.integers(0, 99)), draw(st.integers(1, 12))
        coef = str(num) if den == 1 and draw(st.booleans()) else "%d%s/%s%d" % (num, ws(), ws(), den)
        k = draw(st.none() | st.integers(0, 5)) if with_t else None
        if k is not None:
            gen = draw(st.sampled_from("tq"))
            if k != 1 or draw(st.booleans()):
                gen += "%s^%s%d" % (ws(), ws(), k)
            if num == den == 1 and draw(st.booleans()):
                coef = gen
            else:
                coef += ws() + draw(st.sampled_from(["", "*"])) + ws() + gen
        text += ws() + sign + ws() + coef
        c = Fraction(num, den)
        poly[k or 0] = poly.get(k or 0, 0) + (-c if sign in ("-", "\u2212") else c)
        dens.append(den)
    return text + ws(), poly, dens


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_KINDS), st.data())
def test_a_grammar_literal_is_its_fraction_value(spec, data):
    f = parse_field(spec)
    text, poly, dens = data.draw(_literal(hasattr(f, "gen")))
    if f.characteristic and any(d % f.characteristic == 0 for d in dens):
        with pytest.raises(FieldError):
            f.parse(text)
        return
    want = f.zero
    for k, c in poly.items():
        x = f.div(f.from_int(c.numerator), f.from_int(c.denominator))
        want = f.add(want, f.mul(x, f.pow(f.gen, k)) if k else x)
    assert f.parse(text) == want


def test_bad_modulus_raises_field_error():
    for spec in ["QQ[t]/(2*t^2+1)", "QQ[t]/(t^2+1/0)", "QQ[t]/(t^2+-1)", "Fp(3)[t]/(t^2+1/0)"]:
        with pytest.raises(FieldError):
            parse_field(spec)


def test_field_identity_includes_the_representation():
    fast = QuadraticRationalField(1, 1)
    generic = QuotientRing(RationalField(), fast.modulus)
    assert fast.spec_string() == generic.spec_string()
    # integer triples and Fraction pairs are different scalars
    assert fast != generic and generic != fast
    assert len({fast, generic}) == 2
    g = parse_field(fast.spec_string())
    assert g == fast and hash(g) == hash(fast) and type(g) is QuadraticRationalField


def _sparse(f, entries):
    """key -> nonzero scalar from (key, coefficients) pairs; later keys win."""
    out = {}
    for k, coeffs in entries:
        x = _element(f, coeffs)
        if f.is_zero(x):
            out.pop(k, None)
        else:
            out[k] = x
    return out


def _check_axpy(f, t, s, c, ref_factor):
    ref = dict(t)
    Field.axpy(f, ref, s, ref_factor)
    got = dict(t)
    f.axpy(got, s, c)
    assert got == ref
    assert not any(f.is_zero(v) for v in got.values())
    return got


_ENTRIES = st.lists(st.tuples(st.integers(0, 9), _COEFFS), max_size=8)
_DEN3 = [(1, 3), (2, 3), (5, 6), (1, 1)]


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(ALL_KINDS), _ENTRIES, _ENTRIES, _COEFFS,
    st.sets(st.integers(0, 9)), st.booleans(),
)
# QQ(zeta3) with denominators, cancelled on both shared keys
@example("QQ[t]/(t^2+t+1)", [(0, _DEN3), (1, _DEN3[::-1])], [(1, _DEN3), (2, _DEN3)], _DEN3, {0, 1}, False)
# a zero factor
@example("QQ[t]/(t^2+t+1)", [(0, _DEN3)], [(0, _DEN3)], _DEN3, set(), True)
# disjoint keys
@example("Fp(7)", [(0, _DEN3)], [(1, _DEN3)], _DEN3, set(), False)
def test_axpy_kernel_matches_the_generic_loop(spec, t_entries, s_entries, c_coeffs, cancel, zero_factor):
    f = parse_field(spec)
    t, s = _sparse(f, t_entries), _sparse(f, s_entries)
    c = f.zero if zero_factor else _element(f, c_coeffs)
    cancelled = set() if f.is_zero(c) else cancel & t.keys()
    for k in cancelled:
        # exact cancellation: s = -t / c on the key
        s[k] = f.neg(f.div(t[k], c))
    got = _check_axpy(f, t, s, c, c)
    assert not cancelled & got.keys()
    if f.is_zero(c):
        assert got == t


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 7]),
    st.dictionaries(st.integers(0, 9), st.integers(1, 6)),
    st.dictionaries(st.integers(0, 9), st.integers(1, 6)),
    st.integers(-20, 20),
)
def test_prime_field_axpy_reduces_the_factor_once(p, t, s, c):
    f = GF(p)
    t = {k: v % p for k, v in t.items() if v % p}
    s = {k: v % p for k, v in s.items() if v % p}
    # p and -1 are not canonical; the generic loop gets their residues
    for factor in (c, p, -1, -p - 1):
        _check_axpy(f, t, s, factor, f.from_int(factor))


def _qq_canonical(x):
    # QQ's one representation: an int when integral, else a Fraction
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


_RATIONAL = st.fractions(min_value=-30, max_value=30, max_denominator=6)


@settings(max_examples=400, deadline=None)
@given(
    _RATIONAL, _RATIONAL, _RATIONAL,
    st.dictionaries(st.integers(0, 6), _RATIONAL, max_size=6),
    st.dictionaries(st.integers(0, 6), _RATIONAL, max_size=6),
)
# products, sums and quotients of non-integral values that are integral
@example(Fraction(1, 3), Fraction(3), Fraction(2, 3), {0: Fraction(1, 3)}, {0: Fraction(1, 2)})
@example(Fraction(-1, 2), Fraction(1, 2), Fraction(-2), {1: Fraction(1)}, {1: Fraction(1, 2)})
def test_qq_matches_fraction_arithmetic(a, b, c, t, s):
    x, y, z = (QQ.parse(str(v)) for v in (a, b, c))
    assert (x, y, z) == (a, b, c)
    want = [(QQ.add(x, y), a + b), (QQ.sub(x, y), a - b), (QQ.mul(x, y), a * b),
            (QQ.neg(x), -a)]
    if b:
        want += [(QQ.inv(y), 1 / b), (QQ.div(x, y), a / b)]
    for got, value in want + [(v, v) for v in (x, y, z)]:
        assert got == value and _qq_canonical(got)
    # axpy on sparse dicts of canonical scalars, against the Fraction loop
    t = {k: QQ.parse(str(v)) for k, v in t.items() if v}
    s = {k: QQ.parse(str(v)) for k, v in s.items() if v}
    ref = {k: Fraction(v) for k, v in t.items()}
    for k, v in s.items():
        ref[k] = ref.get(k, 0) + c * v
    got = dict(t)
    QQ.axpy(got, s, z)
    assert got == {k: v for k, v in ref.items() if v}
    assert all(_qq_canonical(v) for v in got.values())


def test_qq_inverse_is_exact():
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert type(QQ.inv(Fraction(-1, 4))) is int
    assert (type(QQ.zero), type(QQ.one), type(QQ.from_int(7))) == (int, int, int)
