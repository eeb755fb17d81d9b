"""Exact arithmetic in K = Q(i, sqrt(2), sqrt(5)).

K is a degree-8 extension of Q, represented on the fixed Q-basis

    B = (1, i, s2, i*s2, s5, i*s5, s10, i*s10)

where s2 = sqrt(2), s5 = sqrt(5) and s10 = s2*s5 = sqrt(10).  An element is
stored as eight integer coordinates over a single positive denominator, kept
in lowest terms.  The basis is closed under multiplication up to the integer
scalars produced by i^2 = -1, s2^2 = 2, s5^2 = 5, so products reduce to a
small table lookup.  Basis index j encodes the exponent triple: bit 0 is the
power of i, bit 1 of s2, bit 2 of s5; the product of basis elements j and k
lands on index j XOR k with scale (-1|2|5)^(j AND k bitwise).

The eight Galois automorphisms are the sign choices on (i, s2, s5); the
inverse of x comes from the tower of relative norms down to Q, one
automorphism per level.  Square roots are found by descending the quadratic
tower Q < Q(s2) < Q(s2, s5) < K, solving y = a + b*gen coordinatewise at
each level.  All values are immutable and hashable.

K also maps to the prime field F_P, P = 1073741561 < 2^30: P = 1 mod 40,
so -1, 2 and 5 are squares mod P, and sending i, s2, s5 to fixed square
roots of -1, 2, 5 is a ring map on every element whose denominator P does
not divide (mod_p).
"""

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

_N = 8
_ZERO8 = (0,) * _N

# _MUL[(j << 3) | k] = (index, scale) with basis_j * basis_k = scale * basis_index.
_MUL = []
for _j in range(_N):
    for _k in range(_N):
        _both = _j & _k
        _s = 1
        if _both & 1:
            _s = -_s
        if _both & 2:
            _s *= 2
        if _both & 4:
            _s *= 5
        _MUL.append((_j ^ _k, _s))
_MUL = tuple(_MUL)

# _BITS[mask] = indices of the set bits, for sparse iteration.
_BITS = tuple(tuple(j for j in range(_N) if m >> j & 1) for m in range(1 << _N))

# _SIGNS[t][j] = sign of basis_j under the automorphism flipping the
# generators selected by the bits of t (bit 0: i, bit 1: s2, bit 2: s5).
_SIGNS = tuple(
    tuple(-1 if bin(t & j).count("1") & 1 else 1 for j in range(_N))
    for t in range(_N)
)
# FLIPPED[t] = mask of the basis elements that automorphism t negates; t and u
# agree on x exactly when FLIPPED[t] & x.mask == FLIPPED[u] & x.mask
FLIPPED = tuple(sum(1 << j for j in range(_N) if _SIGNS[t][j] < 0) for t in range(_N))

_SYM = ("", "i", "s2", "i*s2", "s5", "i*s5", "s10", "i*s10")

# One coordinate of the text form: an integer or a fraction of integers, in
# ASCII digits only, so no exponent, underscore, space or other script can
# make a short token demand a huge integer.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class KElem:
    """An element of K: eight integer coordinates over one denominator."""

    __slots__ = ("num", "den", "mask")

    def __init__(self, num, den, mask):
        # Internal constructor; use the factory helpers below.
        self.num = num
        self.den = den
        self.mask = mask

    # -- factories ---------------------------------------------------------

    @staticmethod
    def from_text(text):
        """Parse the 8-comma-joined rational form produced by :meth:`to_text`.

        Each part must match ``-?[0-9]+(/[0-9]+)?``; anything else raises
        ValueError, a zero denominator ZeroDivisionError.
        """
        parts = text.split(",")
        if len(parts) != _N:
            raise ValueError(f"expected 8 comma-separated rationals, got {len(parts)}")
        nums = []
        dens = []
        for p in parts:
            m = _RATIONAL.fullmatch(p)
            if m is None:
                raise ValueError(f"malformed rational {p!r}")
            nums.append(int(m[1]))
            dens.append(int(m[2] or 1))
        if 0 in dens:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        den = lcm(*dens)
        return _make([n * (den // d) for n, d in zip(nums, dens)], den)

    # -- views -------------------------------------------------------------

    def to_text(self):
        """Canonical textual form: 8 reduced rationals joined by commas."""
        d = self.den
        if d == 1:
            return ",".join(map(str, self.num))
        out = []
        for n in self.num:
            g = gcd(n, d)
            out.append(str(n // d) if g == d else f"{n // g}/{d // g}")
        return ",".join(out)

    def as_fraction(self):
        if self.mask > 1:
            raise ValueError(f"not rational: {self}")
        return Fraction(self.num[0], self.den)

    # -- ring operations ----------------------------------------------------

    def __bool__(self):
        return self.mask != 0

    def __eq__(self, other):
        if isinstance(other, KElem):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == _coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return KElem(tuple(-n for n in self.num), self.den, self.mask)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _make([x + y for x, y in zip(self.num, other.num)], da)
        return _make([x * db + y * da for x, y in zip(self.num, other.num)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _make([x - y for x, y in zip(self.num, other.num)], da)
        return _make([x * db - y * da for x, y in zip(self.num, other.num)], da * db)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        ma, mb = self.mask, other.mask
        if ma == 0 or mb == 0:
            return ZERO
        a, b = self.num, other.num
        if ma == 1 and mb == 1:
            return _make1(a[0] * b[0], self.den * other.den)
        if ma == 1:
            n0 = a[0]
            return _make([n0 * y for y in b], self.den * other.den)
        if mb == 1:
            m0 = b[0]
            return _make([x * m0 for x in a], self.den * other.den)
        res = [0] * _N
        mul = _MUL
        for j in _BITS[ma]:
            nj = a[j]
            j8 = j << 3
            for k in _BITS[mb]:
                idx, s = mul[j8 | k]
                res[idx] += s * nj * b[k]
        return _make(res, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self):
        """Multiplicative inverse by the tower of relative norms.

        N1 = x * s_i(x) lies in Q(s2, s5), N2 = N1 * s_5(N1) in Q(s2) and
        N3 = N2 * s_2(N2) in Q, where s_g flips the sign of g; so
        1/x = s_i(x) * s_5(N1) * s_2(N2) / N3, five products in all.
        """
        if self.mask == 0:
            raise ZeroDivisionError("inverse of zero in K")
        if self.mask == 1:
            return _make1(self.den, self.num[0])
        y = self.galois(1)
        n = self * y
        for t in (4, 2):
            conj = n.galois(t)
            y = y * conj
            n = n * conj
        if n.mask > 1:  # the absolute norm is rational
            raise ArithmeticError("norm computation left irrational part")
        return y * _make1(n.den, n.num[0])

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.mask == 0:
            raise ZeroDivisionError("division by zero in K")
        if other.mask == 1:
            return self * _make1(other.den, other.num[0])
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    # -- Galois structure ----------------------------------------------------

    def galois(self, t):
        """Image under the automorphism flipping generators per bits of t (0..7)."""
        if not self.mask & FLIPPED[t]:  # no coordinate changes sign: fixed
            return self
        return KElem(tuple(map(mul, _SIGNS[t], self.num)), self.den, self.mask)

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.mask == 0:
            return "0"
        parts = []
        for j in _BITS[self.mask]:
            c = Fraction(self.num[j], self.den)
            sym = _SYM[j]
            if not sym:
                body = str(abs(c))
            elif abs(c) == 1:
                body = sym
            else:
                body = f"{abs(c)}*{sym}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"K({self})"


def dot(xs, ys):
    """sum(x * y for x, y in zip(xs, ys)), normalised once.

    The products are accumulated as integer coordinates over the lcm of
    their denominators, so the whole sum costs one gcd reduction instead of
    one per product and per addition.  Pairs with a zero factor are skipped.
    """
    acc = None  # no product yet
    den = 1
    mul = _MUL
    for x, y in zip(xs, ys):
        ma = x.mask
        mb = y.mask
        if not ma or not mb:
            continue
        d = x.den * y.den
        f = 1
        if acc is None:
            acc = [0] * _N
            den = d
        elif d != den:
            g = gcd(den, d)
            f = den // g  # lcm(den, d) // d
            if d != g:
                up = d // g  # lcm(den, d) // den
                acc = [v * up for v in acc]
                den *= up
        a = x.num
        b = y.num
        if ma == 1:
            n0 = a[0] * f
            for k in _BITS[mb]:
                acc[k] += n0 * b[k]
        elif mb == 1:
            m0 = b[0] * f
            for j in _BITS[ma]:
                acc[j] += a[j] * m0
        else:
            for j in _BITS[ma]:
                nj = a[j] * f
                j8 = j << 3
                for k in _BITS[mb]:
                    idx, s = mul[j8 | k]
                    acc[idx] += s * nj * b[k]
    if acc is None:
        return ZERO
    return _make(acc, den)


P = 1073741561  # the largest prime below 2^30 that is 1 mod 40
_ROOTS = (487957686, 282416752, 246295460)  # square roots of -1, 2, 5 mod P
for _r, _sq in zip(_ROOTS, (-1, 2, 5)):
    assert (_r * _r - _sq) % P == 0
# _PHI[j] = image of basis_j in F_P, by the same bits as _MUL
_PHI = tuple(
    _ROOTS[0] ** (j & 1) * _ROOTS[1] ** (j >> 1 & 1) * _ROOTS[2] ** (j >> 2) % P
    for j in range(_N)
)


def mod_p(x):
    """The image of x in F_P as an int in [0, P), or None when P divides x.den."""
    if x.den % P == 0:
        return None
    return sum(n * f for n, f in zip(x.num, _PHI)) * pow(x.den, -1, P) % P


def dot_p(xs, ys):
    """The coefficient sum over F_P: dot of integer images, reduced mod P."""
    return sum(map(mul, xs, ys)) % P


def _make(nums, den):
    if den < 0:
        den = -den
        nums = [-n for n in nums]
    g = gcd(den, *nums)
    if g > 1:
        den //= g
        nums = [n // g for n in nums]
    mask = 0
    for j in range(_N):
        if nums[j]:
            mask |= 1 << j
    if not mask:
        return ZERO  # one shared zero instead of a fresh object per result
    return KElem(tuple(nums), den, mask)


def _make1(n, d):
    # Fast path for rational elements.
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return KElem((n, 0, 0, 0, 0, 0, 0, 0), d, 1 if n else 0)


def _coerce(x):
    if isinstance(x, KElem):
        return x
    if isinstance(x, int):
        return _make1(x, 1)
    if isinstance(x, Fraction):
        return _make1(x.numerator, x.denominator)
    return None


def kelem(x):
    """Coerce an int, Fraction or KElem to KElem."""
    v = _coerce(x)
    if v is None:
        raise TypeError(f"cannot coerce {type(x).__name__} to KElem")
    return v


ZERO = KElem(_ZERO8, 1, 0)
ONE = KElem((1, 0, 0, 0, 0, 0, 0, 0), 1, 1)
I = KElem((0, 1, 0, 0, 0, 0, 0, 0), 1, 2)
SQRT2 = KElem((0, 0, 1, 0, 0, 0, 0, 0), 1, 4)
I_SQRT2 = KElem((0, 0, 0, 1, 0, 0, 0, 0), 1, 8)
SQRT5 = KElem((0, 0, 0, 0, 1, 0, 0, 0), 1, 16)
I_SQRT5 = KElem((0, 0, 0, 0, 0, 1, 0, 0), 1, 32)
SQRT10 = KElem((0, 0, 0, 0, 0, 0, 1, 0), 1, 64)
I_SQRT10 = KElem((0, 0, 0, 0, 0, 0, 0, 1), 1, 128)


# -- square roots via the quadratic tower ------------------------------------

# Tower levels: 0 = Q, 1 = Q(s2), 2 = Q(s2, s5), 3 = K = Q(s2, s5)(i).
_GENBIT = (None, 2, 4, 1)  # basis-index bit introduced at each level
_GENELT = (None, SQRT2, SQRT5, I)
_GENSQ = (None, 2, 5, -1)  # square of the level generator


def _level_split(x, genbit):
    na = [0] * _N
    nb = [0] * _N
    for j in _BITS[x.mask]:
        if j & genbit:
            nb[j ^ genbit] = x.num[j]
        else:
            na[j] = x.num[j]
    return _make(na, x.den), _make(nb, x.den)


def _sqrt_rat(x):
    n, d = x.num[0], x.den
    if n < 0:
        return None
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return _make1(rn, rd)


def _sqrt_level(x, level):
    if x.mask == 0:
        return ZERO
    if level == 0:
        return _sqrt_rat(x)
    genbit = _GENBIT[level]
    a, b = _level_split(x, genbit)
    d = _GENSQ[level]
    if b.mask == 0:
        r = _sqrt_level(a, level - 1)
        if r is not None:
            return r
        r = _sqrt_level(a / d, level - 1)
        if r is not None:
            return r * _GENELT[level]
        return None
    # y = ay + by*gen with ay^2 + d*by^2 = a and 2*ay*by = b.
    n = a * a - d * (b * b)
    s = _sqrt_level(n, level - 1)
    if s is None:
        return None
    for t in (a + s, a - s):
        ay = _sqrt_level(t / 2, level - 1)
        if ay is not None and ay.mask:
            y = ay + (b / (ay + ay)) * _GENELT[level]
            if y * y == x:
                return y
    return None


def sqrt_in_k(x):
    """A square root of x in K, or None if none exists.

    When both roots lie in K the one whose first nonzero coordinate (in basis
    order B) is positive is returned.
    """
    x = kelem(x)
    r = _sqrt_level(x, 3)
    if r is None or r.mask == 0:
        return r
    for j in range(_N):
        if r.num[j]:
            return r if r.num[j] > 0 else -r
    return r

