"""Exact coefficient arithmetic: rationals, prime fields, univariate quotient rings.

A field is described by a spec string:

    QQ                      rationals
    Fp(7)                   integers mod 7
    QQ[t]/(t^2+t+1)         quotient ring over the rationals
    Fp(2)[t]/(t^2+t+1)      quotient ring over a prime field

Scalars are plain hashable values: for QQ an ``int`` when integral and a
``fractions.Fraction`` otherwise, ints in [0, p) for Fp(p), and
fixed-length tuples of base scalars (degree many coefficients, lowest
power first) for quotient rings, except integer triples for
QQ[t]/(t^2+u*t+v) with integer u, v.  All arithmetic goes
through the Field object so hot loops never allocate wrapper objects.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm


class FieldError(Exception):
    pass


class NotAField(FieldError):
    """A quotient-ring inversion hit a zero divisor."""

    def __init__(self, message, zero_divisor=None):
        super().__init__(message)
        self.zero_divisor = zero_divisor


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class Field:
    """Common interface; subclasses set ``zero``/``one`` and implement ops."""

    characteristic = 0

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == self.zero

    def axpy(self, target, source, factor):
        """target += factor * source on sparse dicts, dropping zeros.

        The generic loop; a subclass overrides it with the same result
        computed in its own representation.
        """
        fadd, fmul, fzero = self.add, self.mul, self.is_zero
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

    def from_int(self, n):
        raise NotImplementedError

    def parse(self, s):
        """The scalar a literal denotes; a malformed literal raises FieldError.

        Every field reads the one grammar of ``_poly_terms``; a term in t
        needs a quotient ring.
        """
        try:
            acc = self.zero
            for num, den, k in _poly_terms(s):
                x = self.div(self.from_int(num), self.from_int(den))
                if k is not None:
                    gen = getattr(self, "gen", None)
                    if gen is None:
                        raise ValueError("%s has no generator t" % self.spec_string())
                    x = self.mul(x, self.pow(gen, k))
                acc = self.add(acc, x)
            return acc
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(
                "bad scalar %r for %s: %s" % (s, self.spec_string(), exc)
            ) from exc

    def to_str(self, a):
        raise NotImplementedError

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        r = self.one
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def __eq__(self, other):
        # the type fixes the element representation: equal specs with
        # different types (integer triples against coefficient tuples) differ
        return type(other) is type(self) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash((type(self), self.spec_string()))

    def __repr__(self):
        return "Field(%r)" % self.spec_string()

    def spec_string(self):
        raise NotImplementedError


def _rational(x):
    """A QQ scalar in its one representation: an int when integral."""
    return x.numerator if x.denominator == 1 else x


class RationalField(Field):
    characteristic = 0

    def __init__(self):
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return _rational(a + b)

    def sub(self, a, b):
        return _rational(a - b)

    def mul(self, a, b):
        return _rational(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        # through Fraction: 1 / a of an int would be a float
        return _rational(1 / Fraction(a))

    def axpy(self, target, source, factor):
        if not factor:
            return
        get = target.get
        for j, v in source.items():
            s = factor * v
            cur = get(j)
            if cur is not None:
                s = cur + s
                if not s:
                    del target[j]
                    continue
            target[j] = s if type(s) is int else _rational(s)

    def from_int(self, n):
        return _rational(Fraction(n))

    def to_str(self, a):
        return str(a)

    def spec_string(self):
        return "QQ"


class PrimeField(Field):
    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError("Fp(%d): %d is not prime" % (p, p))
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in Fp(%d)" % self.p)
        return pow(a, self.p - 2, self.p)

    def axpy(self, target, source, factor):
        p = self.p
        # reduced once here, so a factor of p never stores an explicit 0
        factor %= p
        if not factor:
            return
        get = target.get
        for j, v in source.items():
            cur = get(j)
            if cur is None:
                target[j] = factor * v % p
            else:
                s = (cur + factor * v) % p
                if s:
                    target[j] = s
                else:
                    del target[j]

    def from_int(self, n):
        return n % self.p

    def to_str(self, a):
        return str(a % self.p)

    def elements(self):
        return list(range(self.p))

    def spec_string(self):
        return "Fp(%d)" % self.p


def _poly_trim(cs):
    n = len(cs)
    while n > 0 and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def _poly_divmod(base, num, den):
    """Division with remainder of coefficient lists over the base field."""
    num = list(num)
    dd = len(den) - 1
    lead_inv = base.inv(den[dd])
    quot = [base.zero] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if base.is_zero(c):
            continue
        f = base.mul(c, lead_inv)
        quot[i - dd] = f
        for j in range(dd + 1):
            num[i - dd + j] = base.sub(num[i - dd + j], base.mul(f, den[j]))
    return quot, _poly_trim(num)


def _poly_text(base, coeffs):
    """Coefficients (lowest power first) as a 'c*t^k' sum, highest power
    first, as ``_poly_terms`` reads it back."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if base.is_zero(c):
            continue
        cs = base.to_str(c)
        sign = "+" if parts else ""
        if cs.startswith("-"):
            sign, cs = "-", cs[1:]
        if k == 0:
            body = cs
        else:
            tpow = "t" if k == 1 else "t^%d" % k
            body = tpow if cs == "1" else "%s*%s" % (cs, tpow)
        parts.append(sign + body)
    return "".join(parts) if parts else "0"


class QuotientRing(Field):
    """base[t] / (modulus).  Used as a field when the modulus is irreducible.

    Irreducibility is verified over a prime field by Rabin's test at every
    degree, and over QQ for degree <= 3 (no rational roots); higher degrees
    over QQ are accepted with ``irreducible_assumed`` recorded, and any zero
    divisor met during inversion raises NotAField.  Elements are tuples
    of base scalars; a subclass may store them otherwise and override the
    arithmetic, ``zero``/``one``/``gen`` and ``coefficients``.
    """

    def __init__(self, base, modulus):
        if isinstance(base, QuotientRing):
            raise FieldError("nested quotient rings are not supported")
        modulus = tuple(modulus)
        if len(modulus) < 2:
            raise FieldError("modulus degree must be >= 1")
        if modulus[-1] != base.one:
            raise FieldError("modulus must be monic")
        self.base = base
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.characteristic = base.characteristic
        self.zero = (base.zero,) * self.degree
        one = [base.zero] * self.degree
        one[0] = base.one
        self.one = tuple(one)
        gen = [base.zero] * self.degree
        if self.degree >= 2:
            gen[1] = base.one
        else:
            # t reduces to a base element when the modulus is linear
            gen[0] = base.neg(modulus[0])
        self.gen = tuple(gen)
        self.irreducible_assumed = self._check_irreducible()

    def _check_irreducible(self):
        """Whether irreducibility is assumed, unchecked: over QQ, for degree > 3.

        A reducible modulus over a prime field, or one of degree 2 or 3 with
        a rational root, raises FieldError.
        """
        if self.degree == 1:
            return False
        if isinstance(self.base, PrimeField):
            if not self._rabin():
                raise FieldError(
                    "modulus %s is reducible over %s"
                    % (_poly_text(self.base, self.modulus), self.base.spec_string())
                )
            return False
        if self.degree > 3:
            return True
        # degree 2 or 3: irreducible over QQ iff it has no rational root
        for c in self._rational_root_candidates():
            acc = self.base.zero
            for coef in reversed(self.modulus):
                acc = self.base.add(self.base.mul(acc, c), coef)
            if self.base.is_zero(acc):
                raise FieldError(
                    "modulus %s is reducible over %s (root %s)"
                    % (_poly_text(self.base, self.modulus), self.base.spec_string(),
                       self.base.to_str(c))
                )
        return False

    def _rabin(self):
        """Rabin's test over Fp: the modulus f of degree n is irreducible iff
        t^(p^n) = t mod f and gcd(t^(p^(n/l)) - t, f) = 1 for each prime l | n."""
        p, n = self.base.p, self.degree
        frob = [self.gen]  # frob[k] = t^(p^k) mod f
        for _ in range(n):
            frob.append(self.pow(frob[-1], p))
        if frob[n] != self.gen:
            return False
        for l in range(2, n + 1):
            if n % l == 0 and _is_prime(l):
                g = self.sub(frob[n // l], self.gen)
                # a common factor with f is a zero divisor, and so is 0
                try:
                    self.inv(g)
                except (NotAField, ZeroDivisionError):
                    return False
        return True

    def _rational_root_candidates(self):
        # monic over QQ: clear denominators, then any rational root of the
        # integer polynomial a_n x^n + ... + a_0 is p/q with p | a_0, q | a_n
        den = lcm(*[c.denominator for c in self.modulus])
        ints = [int(c * den) for c in self.modulus]
        a0, an = ints[0], ints[-1]
        if a0 == 0:
            return [self.base.zero]
        cands = set()
        for p in _divisors(abs(a0)):
            for q in _divisors(abs(an)):
                cands.add(_rational(Fraction(p, q)))
                cands.add(_rational(Fraction(-p, q)))
        return sorted(cands)

    # -- arithmetic on fixed-length coefficient tuples --

    def add(self, a, b):
        base = self.base
        return tuple(base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        base = self.base
        return tuple(base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        base = self.base
        return tuple(base.neg(x) for x in a)

    def mul(self, a, b):
        base = self.base
        d = self.degree
        prod = [base.zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if base.is_zero(x):
                continue
            for j, y in enumerate(b):
                if base.is_zero(y):
                    continue
                prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        # reduce modulo the monic modulus
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if base.is_zero(c):
                continue
            prod[i] = base.zero
            for j in range(self.degree):
                prod[i - self.degree + j] = base.sub(
                    prod[i - self.degree + j], base.mul(c, self.modulus[j])
                )
        return tuple(prod[:d])

    def inv(self, a):
        base = self.base
        if all(base.is_zero(c) for c in a):
            raise ZeroDivisionError("inverse of zero in %s" % self.spec_string())
        # extended Euclid on (a, modulus)
        r0, r1 = list(self.modulus), _poly_trim(list(a))
        s0, s1 = [], [base.one]
        while True:
            q, r = _poly_divmod(base, r0, r1)
            if not r:
                break
            s = list(s0)
            while len(s) < len(q) + len(s1):
                s.append(base.zero)
            for i, qc in enumerate(q):
                if base.is_zero(qc):
                    continue
                for j, sc in enumerate(s1):
                    s[i + j] = base.sub(s[i + j], base.mul(qc, sc))
            r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
        if len(r1) != 1:
            zd = tuple(list(r1) + [base.zero] * (self.degree - len(r1)))
            raise NotAField(
                "%s is not a field: %s is a zero divisor"
                % (self.spec_string(), self.to_str(zd)),
                zero_divisor=zd,
            )
        c = base.inv(r1[0])
        out = [base.mul(c, x) for x in s1]
        out += [base.zero] * (self.degree - len(out))
        return tuple(out[: self.degree])

    def from_int(self, n):
        out = [self.base.zero] * self.degree
        out[0] = self.base.from_int(n)
        return tuple(out)

    def coefficients(self, a):
        """The base-field coefficients of a, lowest power of t first."""
        return a

    # -- parsing / printing --

    def to_str(self, a):
        return _poly_text(self.base, self.coefficients(a))

    def spec_string(self):
        return "%s[t]/(%s)" % (self.base.spec_string(), _poly_text(self.base, self.modulus))


def _divisors(n):
    out = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            if f != n // f:
                out.append(n // f)
        f += 1
    return sorted(out)


class QuadraticRationalField(QuotientRing):
    """QQ[t]/(t^2 + u t + v) with integer u, v and irreducible modulus.

    The generic quotient ring with another element representation:
    scalars are normalized integer triples (a, b, den) meaning
    (a + b t) / den with gcd(a, b, den) = 1 and den >= 1.  The compact
    representation keeps the eliminations in the graded engines fast.
    """

    def __init__(self, u, v):
        super().__init__(RationalField(), (v, u, 1))
        self.u = u
        self.v = v
        self.zero = (0, 0, 1)
        self.one = (1, 0, 1)
        self.gen = (0, 1, 1)

    @staticmethod
    def _norm(a, b, den):
        if den < 0:
            a, b, den = -a, -b, -den
        g = gcd(gcd(a, b), den)
        if g > 1:
            return (a // g, b // g, den // g)
        return (a, b, den)

    # add, sub and mul skip _norm for denominator 1: gcd(a, b, 1) = 1

    def add(self, x, y):
        a1, b1, d1 = x
        a2, b2, d2 = y
        if d1 == d2:
            if d1 == 1:
                return (a1 + a2, b1 + b2, 1)
            return self._norm(a1 + a2, b1 + b2, d1)
        return self._norm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    def sub(self, x, y):
        a1, b1, d1 = x
        a2, b2, d2 = y
        if d1 == d2:
            if d1 == 1:
                return (a1 - a2, b1 - b2, 1)
            return self._norm(a1 - a2, b1 - b2, d1)
        return self._norm(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def neg(self, x):
        return (-x[0], -x[1], x[2])

    def mul(self, x, y):
        a1, b1, d1 = x
        a2, b2, d2 = y
        bb = b1 * b2
        a, b, den = a1 * a2 - self.v * bb, a1 * b2 + a2 * b1 - self.u * bb, d1 * d2
        return (a, b, 1) if den == 1 else self._norm(a, b, den)

    def inv(self, x):
        a, b, den = x
        n = a * a - self.u * a * b + self.v * b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in %s" % self.spec_string())
        return self._norm(den * (a - self.u * b), -den * b, n)

    def is_zero(self, x):
        return x[0] == 0 and x[1] == 0

    def axpy(self, target, source, factor):
        fa, fb, fd = factor
        if fa == 0 and fb == 0:
            return
        # factor * (a + b t) = (fa a - v fb b) + (fb a + (fa - u fb) b) t
        vfb, c1 = self.v * fb, fa - self.u * fb
        get = target.get
        for j, (a, b, d) in source.items():
            pa, pb, pd = fa * a - vfb * b, fb * a + c1 * b, fd * d
            cur = get(j)
            if cur is not None:
                ca, cb, cd = cur
                if cd == pd:
                    pa, pb = ca + pa, cb + pb
                else:
                    pa, pb, pd = ca * pd + pa * cd, cb * pd + pb * cd, cd * pd
                if pa == 0 and pb == 0:
                    del target[j]
                    continue
            if pd == 1:
                target[j] = (pa, pb, 1)
            else:
                g = gcd(pa, pb, pd)
                target[j] = (pa // g, pb // g, pd // g) if g > 1 else (pa, pb, pd)

    def from_int(self, n):
        return (n, 0, 1)

    def coefficients(self, x):
        """(constant, t-coefficient) as QQ scalars."""
        a, b, den = x
        return _rational(Fraction(a, den)), _rational(Fraction(b, den))


# one term of a literal: [sign] coef | [sign] [coef ['*']] t ['^' k], with
# q an alias of t and whitespace allowed between tokens, not inside a number
_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(?=[0-9tq])"
    r"(?:([0-9]+)(?:\s*/\s*([0-9]+))?(?:\s*\*?\s*(?=[tq]))?)?"
    r"(?:([tq])(?:\s*\^\s*([0-9]+))?)?\s*",
    re.ASCII,
)


def _poly_terms(s):
    """(signed numerator, denominator, power of t or None) of each term of a
    literal ``[sign] term (sign term)*``; a malformed literal raises ValueError."""
    if not isinstance(s, str):
        raise ValueError("a literal is a string, not %s" % type(s).__name__)
    s = s.replace("\u2212", "-")
    terms, pos = [], 0
    while pos < len(s) or not terms:
        m = _TERM_RE.match(s, pos)
        # every term after the first starts with its sign
        if m is None or (terms and not m.group(1)):
            raise ValueError("malformed at %r" % s[pos:])
        sign, num, den, t, k = m.groups()
        num = int(num or 1)
        terms.append((-num if sign == "-" else num, int(den or 1), int(k or 1) if t else None))
        pos = m.end()
    return terms


_SPEC_RE = re.compile(
    r"^\s*(QQ|Fp\((\d+)\))\s*(?:\[t\]\s*/\s*\(([^)]+)\))?\s*$", re.ASCII
)


def parse_field(spec):
    """Build a Field from its spec string.  Round-trips with spec_string()."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise FieldError("cannot parse field spec %r" % spec)
    if m.group(1) == "QQ":
        base = RationalField()
    else:
        base = PrimeField(int(m.group(2)))
    if m.group(3) is None:
        return base
    coeffs = _parse_modulus(base, m.group(3))
    if (
        isinstance(base, RationalField)
        and len(coeffs) == 3
        and coeffs[2] == 1
        and all(c.denominator == 1 for c in coeffs)
    ):
        return QuadraticRationalField(int(coeffs[1]), int(coeffs[0]))
    return QuotientRing(base, coeffs)


def _parse_modulus(base, s):
    """Coefficients, lowest power first, of a modulus literal over ``base``."""
    coeffs = []
    try:
        for num, den, k in _poly_terms(s):
            k = k or 0
            coeffs += [base.zero] * (k + 1 - len(coeffs))
            coeffs[k] = base.add(coeffs[k], base.div(base.from_int(num), base.from_int(den)))
    except (ValueError, ZeroDivisionError) as exc:
        raise FieldError("bad modulus %r: %s" % (s, exc)) from exc
    return coeffs


QQ = RationalField()


def GF(p):
    return PrimeField(p)
