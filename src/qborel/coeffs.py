"""Exact arithmetic in the rational function field Q(q).

Every coefficient in this package is an element of Q(q), the field of
univariate rational functions in a formal variable q with rational
coefficients.  No floating point is used anywhere.

A value is kept in a canonical form, so equality of values is structural
equality of their representations:

* the fraction num/den is fully reduced (polynomial gcd 1),
* num and den are primitive integer polynomials with positive leading
  coefficient, and the rational content is split off as two coprime ints
  cn/cd with cd > 0,
* zero is cn/cd = 0/1 with num = () and den = (1,).

The classical presentation "reduced fraction with monic denominator over Q"
is exposed through :meth:`QRat.monic_pair`; the two normal forms are in
bijection, so structural equality is unaffected by the internal layout.

A product cross-cancels the two contents with two integer gcds (none
when both cd are 1); a sum brings them to lcm(cd_a, cd_b) = l and reduces
the content of its numerator over l once.  A constant operand (num = den
= (1,), an element of Q) changes the content alone: the product keeps the
other operand's num and den as they are, and x * 1 returns x itself.

Each canonical form divides once.  A product or a sum of two Laurent
polynomials (both denominators q-powers, as for most operands the Serre
echelon meets) has a closed form and takes no polynomial gcd:

* a product num_a num_b / q^(k_a + k_b) has a primitive numerator (Gauss's
  lemma), and only q^min(low(num), k_a + k_b) can cancel;
* a sum shifts both numerators to q^max(k_a, k_b), adds them, splits off
  the content and cancels the low q-power the same way.

Every other pair goes through ``_gcd_cofactors(a, b)``, which returns the
gcd g together with the cofactors a/g and b/g, by the first of three
paths that applies.

* A unit or q-power operand has a closed form: for primitive b,
  gcd(q^k, b) = q^min(k, low(b)), and the cofactors are the operands
  shifted down by that power.
* The heuristic gcd of Char, Geddes and Gonnet (J. Symb. Comput. 1989)
  evaluates both operands at an integer xi > 2M + 2, with M the smaller
  of their max norms, takes the integer gcd of the two values and reads a
  candidate h from its balanced base-xi digits.  If the primitive part p
  of h divides both operands, it is the gcd.  For p divides g = gcd(a, b),
  say g = p k; g(xi) divides the integer gcd h(xi) = cont(h) p(xi), so
  k(xi) divides cont(h) <= xi/2.  A nonconstant k has its roots among
  those of a and of b, of modulus below 1 + M (Cauchy), so
  |k(xi)| > xi - 1 - M > xi/2.  Hence k = 1: the exact division is the
  certificate, and its quotients are the cofactors.  A candidate that
  fails it grows xi.
* After six failed candidates the primitive remainder sequence gives g,
  and two exact divisions give the cofactors.

The gcd is primitive with positive leading coefficient, hence unique, so
the canonical form does not depend on the path that found it.

The module also provides the balanced q-integers

    [n]_d = (q^(d*n) - q^(-d*n)) / (q^d - q^(-d))

together with q-factorials and q-binomials, which are Laurent polynomials
in q (a property the tests pin down).

>>> q_integer(2, 1).render()
'q + q^-1'
>>> (qpow(3) * qpow(-1)).render()
'q^2'
"""

from __future__ import annotations

import re
from math import gcd, lcm

from .errors import DivisionByZero

__all__ = [
    "QRat",
    "ZERO",
    "ONE",
    "Q",
    "from_int",
    "from_fraction",
    "qpow",
    "q_integer",
    "q_factorial",
    "q_binomial",
    "parse",
]


# ---------------------------------------------------------------------------
# integer polynomials as tuples of coefficients, lowest degree first


def _pnorm(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _pnorm(out)


def _pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    if a == (1,):
        return b
    if b == (1,):
        return a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _pnorm(out)


def _pscale(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    if k == 0:
        return ()
    if k == 1:
        return a
    return tuple(x * k for x in a)


def _pcontent(a: tuple[int, ...]) -> int:
    g = 0
    for x in a:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def _pprim(a: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Return (primitive positive-leading part, signed content)."""
    if not a:
        return (), 0
    g = _pcontent(a)
    if a[-1] < 0:
        g = -g
    if g == 1:
        return a, 1
    return tuple(x // g for x in a), g


def _pquo(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    """The quotient a/b if b divides a exactly over Z, else None."""
    if b == (1,):
        return a
    db, lb = len(b) - 1, b[-1]
    if len(a) <= db:
        return None if a else ()
    rem = list(a)
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if rem[i]:
            c, r = divmod(rem[i], lb)
            if r:
                return None
            out[i - db] = c
            for j in range(db + 1):
                rem[i - db + j] -= c * b[j]
    if any(rem):
        return None
    return tuple(out)


def _prem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # pseudo-remainder of a by b (lc(b)^k * a mod b, exact over Z)
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    rem = list(a)
    for i in range(da, db - 1, -1):
        head = rem[i]
        if head:
            for j in range(len(rem)):
                rem[j] *= lb
            for j in range(db + 1):
                rem[i - db + j] -= head * b[j]
        # rem[i] is now zero
    del rem[db:]
    return _pnorm(rem)


def _gcd_cofactors(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(g, a/g, b/g) with g = gcd(a, b), for nonzero primitive a, b.

    a and b must have positive leading coefficients; then so do g and
    both cofactors, and all three are primitive.
    """
    if a == (1,) or b == (1,):
        return (1,), a, b
    # a q-power operand: for primitive b, gcd(q^k, b) = q^min(k, low(b))
    if not any(a[:-1]) or not any(b[:-1]):
        k = min(_low(a), _low(b))
        if not k:
            return (1,), a, b
        return (0,) * k + (1,), a[k:], b[k:]
    # heuristic gcd (Char, Geddes and Gonnet, J. Symb. Comput. 1989)
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        h = _balanced_digits(gcd(_peval(a, xi), _peval(b, xi)), xi)
        h = _pprim(h)[0]
        if h == (1,):
            return h, a, b
        qa = _pquo(a, h)
        if qa is not None:
            qb = _pquo(b, h)
            if qb is not None:
                return h, qa, qb
        xi = xi * 73794 // 27011
    g = _pgcd_prs(a, b)
    return g, _pquo(a, g), _pquo(b, g)


def _peval(a: tuple[int, ...], x: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _balanced_digits(n: int, xi: int) -> tuple[int, ...]:
    # n = sum h_i xi^i with |h_i| <= xi/2, lowest digit first
    half = xi // 2
    out = []
    while n:
        r = n % xi
        if r > half:
            r -= xi
        out.append(r)
        n = (n - r) // xi
    return tuple(out)


def _pgcd_prs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # the primitive polynomial remainder sequence, for nonzero primitive a, b
    while b:
        if len(a) < len(b):
            a, b = b, a
        r = _prem(a, b)
        a, b = b, _pprim(r)[0]
    return a


def _low(a: tuple[int, ...]) -> int:
    # order of vanishing at q = 0
    for i, x in enumerate(a):
        if x:
            return i
    return 0


def _is_monomial(a: tuple[int, ...]) -> bool:
    return bool(a) and all(x == 0 for x in a[:-1])


# ---------------------------------------------------------------------------


class QRat:
    """An element of Q(q) in canonical form.

    A value is ``(cn/cd) * num/den``: the content cn/cd is a reduced
    fraction of two ints with cd > 0, and num, den are coprime primitive
    integer polynomials with positive leading coefficients.  The four
    fields are plain slots; ``c`` is a read-only view of the content as a
    Fraction.  Arithmetic and rendering use the ints alone: ``fractions``
    is imported only by the calls that take or return a Fraction (``c``,
    :meth:`monic_pair` and :func:`from_fraction`, which :func:`parse`
    calls).  Instances are immutable and come from the trusted constructor
    ``_qrat`` or from :meth:`make`; all arithmetic returns canonical
    instances, so ``==`` is structural.
    """

    __slots__ = ("cn", "cd", "num", "den")

    cn: int
    cd: int
    num: tuple[int, ...]
    den: tuple[int, ...]

    def __setattr__(self, *a):
        raise AttributeError("QRat is immutable")

    __delattr__ = __setattr__

    @property
    def c(self) -> "Fraction":
        """The content cn/cd as a Fraction."""
        from fractions import Fraction

        return Fraction(self.cn, self.cd)

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(c, num: tuple[int, ...], den: tuple[int, ...]) -> "QRat":
        """Build a canonical value c * num/den from an arbitrary presentation.

        c is an int or a Fraction; only its ``numerator`` and
        ``denominator`` are read.  Trailing zero coefficients are stripped
        first, so a zero denominator raises DivisionByZero however it is
        written.
        """
        num, den = _pnorm(list(num)), _pnorm(list(den))
        if not den:
            raise DivisionByZero("zero denominator in Q(q)")
        if not num or c == 0:
            return ZERO
        num, pn = _pprim(num)
        den, pd = _pprim(den)
        _, num, den = _gcd_cofactors(num, den)
        cn, cd = c.numerator * pn, c.denominator * pd
        if cd < 0:
            cn, cd = -cn, -cd
        g = gcd(cn, cd)
        return _qrat(cn // g, cd // g, num, den)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QRat") -> "QRat":
        if not isinstance(other, QRat):
            return NotImplemented
        an, bn = self.num, other.num
        if not an:
            return other
        if not bn:
            return self
        acd, bcd = self.cd, other.cd
        if acd == bcd:
            l, ia, ib = acd, self.cn, other.cn
        else:
            l = lcm(acd, bcd)
            ia = self.cn * (l // acd)
            ib = other.cn * (l // bcd)
        ad, bd = self.den, other.den
        ka, kb = len(ad) - 1, len(bd) - 1
        if ad.count(0) == ka and bd.count(0) == kb:
            # Laurent sum: both numerators over q^k, k = max(ka, kb)
            if ka < kb:
                an, bn, ia, ib, ka, kb = bn, an, ib, ia, kb, ka
            out = [ia * x for x in an]
            out += [0] * (ka - kb + len(bn) - len(out))
            for j, x in enumerate(bn, ka - kb):
                out[j] += ib * x
            num = _pnorm(out)
            if not num:
                return ZERO
            num, cn = _pprim(num)
            if ka and not num[0]:
                d = min(_low(num), ka)
                num = num[d:]
                ka -= d
            den = (0,) * ka + (1,)
        else:
            if ad == bd:
                num = _padd(_pscale(an, ia), _pscale(bn, ib))
                den = ad
            else:
                _, da, db = _gcd_cofactors(ad, bd)
                num = _padd(_pscale(_pmul(an, db), ia), _pscale(_pmul(bn, da), ib))
                den = _pmul(ad, db)
            if not num:
                return ZERO
            # den is a product of primitive positive-leading factors, so only
            # num needs its content split off
            num, cn = _pprim(num)
            _, num, den = _gcd_cofactors(num, den)
        g = gcd(cn, l)
        return _qrat(cn // g, l // g, num, den)

    def __neg__(self) -> "QRat":
        if not self.num:
            return self
        return _qrat(-self.cn, self.cd, self.num, self.den)

    def __sub__(self, other: "QRat") -> "QRat":
        return self + (-other)

    def __mul__(self, other: "QRat") -> "QRat":
        if not isinstance(other, QRat):
            return NotImplemented
        an, bn = self.num, other.num
        if not an or not bn:
            return ZERO
        acn, acd, bcn, bcd = self.cn, self.cd, other.cn, other.cd
        if acd == 1 and bcd == 1:
            cn, cd = acn * bcn, 1
        else:
            # both contents are reduced, so only the cross pairs cancel
            g, h = gcd(acn, bcd), gcd(bcn, acd)
            cn = (acn // g) * (bcn // h)
            cd = (acd // h) * (bcd // g)
        ad, bd = self.den, other.den
        # a constant operand changes the content alone; x * 1 is x
        if bn == (1,) and bd == (1,):
            return self if cn == acn and cd == acd else _qrat(cn, cd, an, ad)
        if an == (1,) and ad == (1,):
            return other if cn == bcn and cd == bcd else _qrat(cn, cd, bn, bd)
        ka, kb = len(ad) - 1, len(bd) - 1
        if ad.count(0) == ka and bd.count(0) == kb:
            # Laurent product: num_a num_b is primitive (Gauss's lemma), and
            # only q^min(low(num), ka + kb) can cancel
            num = _pmul(an, bn)
            k = ka + kb
            if k and not num[0]:
                d = min(_low(num), k)
                num = num[d:]
                k -= d
            return _qrat(cn, cd, num, (0,) * k + (1,))
        _, n1, d2 = _gcd_cofactors(an, bd)
        _, n2, d1 = _gcd_cofactors(bn, ad)
        return _qrat(cn, cd, _pmul(n1, n2), _pmul(d1, d2))

    def shift(self, k: int) -> "QRat":
        """self * q^k in closed form: num and den are coprime, so at most
        one of them has a q-power factor, and q^k cancels against it."""
        if not k or not self.num:
            return self
        num, den = self.num, self.den
        if k > 0:
            d = min(k, _low(den))
            return _qrat(self.cn, self.cd, (0,) * (k - d) + num, den[d:])
        d = min(-k, _low(num))
        return _qrat(self.cn, self.cd, num[d:], (0,) * (-k - d) + den)

    def inverse(self) -> "QRat":
        if not self.num:
            raise DivisionByZero("inverse of zero in Q(q)")
        # num is positive-leading, so it is a valid denominator as it stands
        cn, cd = self.cn, self.cd
        if cn < 0:
            return _qrat(-cd, -cn, self.den, self.num)
        return _qrat(cd, cn, self.den, self.num)

    def __truediv__(self, other: "QRat") -> "QRat":
        if not isinstance(other, QRat):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int) -> "QRat":
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QRat)
            and self.num == other.num
            and self.den == other.den
            and self.cn == other.cn
            and self.cd == other.cd
        )

    def __hash__(self) -> int:
        return hash((self.cn, self.cd, self.num, self.den))

    # -- views -------------------------------------------------------------

    def monic_pair(self) -> tuple[tuple["Fraction", ...], tuple["Fraction", ...]]:
        """The reduced fraction with monic denominator over Q.

        Returns (numerator, denominator) as tuples of Fractions, lowest
        degree first.  This is the textbook canonical form; it determines
        and is determined by the internal representation.
        """
        from fractions import Fraction

        if not self.num:
            return (), (Fraction(1),)
        cn, cd = self.cn, self.cd
        lc = self.den[-1]
        num = tuple(Fraction(cn * x, cd * lc) for x in self.num)
        den = tuple(Fraction(x, lc) for x in self.den)
        return num, den

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Human readable string such as ``3*q^2 - 1/2*q^-1``.

        Laurent polynomials are written as signed sums of q-powers in
        decreasing exponent order; a genuine denominator falls back to the
        form ``(num)/(den)``.  :func:`parse` accepts both shapes.
        """
        num, den, cn, cd = self.num, self.den, self.cn, self.cd
        if not num:
            return "0"
        if _is_monomial(den):
            # content times each numerator coefficient, over q^shift
            return _render_laurent(num, cn, cd, len(den) - 1)
        # the monic pair: numerator times c / lc(den), denominator over lc(den)
        lc = den[-1]
        return f"({_render_laurent(num, cn, cd * lc, 0)})/({_render_laurent(den, 1, lc, 0)})"

    def __repr__(self) -> str:
        return f"QRat({self.render()})"


_new = object.__new__
_set_cn, _set_cd, _set_num, _set_den = (
    vars(QRat)[f].__set__ for f in ("cn", "cd", "num", "den")
)


def _qrat(cn: int, cd: int, num: tuple[int, ...], den: tuple[int, ...]) -> QRat:
    # trusted constructor: the arguments must already be canonical; the
    # slots' own setters bypass the raising __setattr__
    x = _new(QRat)
    _set_cn(x, cn)
    _set_cd(x, cd)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _render_laurent(coeffs: tuple[int, ...], cn: int, cd: int, shift: int) -> str:
    """The sum of (cn * coeffs[e] / cd) q^(e - shift), highest power first,
    for cd > 0; each coefficient is reduced with one integer gcd."""
    parts: list[str] = []
    for e in range(len(coeffs) - 1, -1, -1):
        n = cn * coeffs[e]
        if not n:
            continue
        mag, d = abs(n), cd
        g = gcd(mag, d)
        if g != 1:
            mag, d = mag // g, d // g
        sign = "-" if n < 0 else "+"
        body = str(mag) if d == 1 else f"{mag}/{d}"
        e -= shift
        if e:
            qp = "q" if e == 1 else f"q^{e}"
            body = qp if body == "1" else f"{body}*{qp}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


# ---------------------------------------------------------------------------

ZERO = _qrat(0, 1, (), (1,))
ONE = _qrat(1, 1, (1,), (1,))
Q = _qrat(1, 1, (0, 1), (1,))


def from_int(n: int) -> QRat:
    if n == 0:
        return ZERO
    return _qrat(n, 1, (1,), (1,))


def from_fraction(x) -> QRat:
    """The constant x, for an int, a Fraction or anything Fraction takes."""
    from fractions import Fraction

    x = Fraction(x)
    if not x:
        return ZERO
    return _qrat(x.numerator, x.denominator, (1,), (1,))


def qpow(k: int) -> QRat:
    """The monomial q^k, k may be negative."""
    if k >= 0:
        return _qrat(1, 1, (0,) * k + (1,), (1,))
    return _qrat(1, 1, (1,), (0,) * (-k) + (1,))


def q_integer(n: int, d: int = 1) -> QRat:
    """Balanced q-integer [n] in base q^d, a Laurent polynomial.

    [n] = q^(d(n-1)) + q^(d(n-3)) + ... + q^(-d(n-1)); [0] = 0, [1] = 1.
    """
    if n < 0:
        raise ValueError("q_integer needs n >= 0")
    if d < 1:
        raise ValueError("q_integer needs d >= 1")
    if n == 0:
        return ZERO
    num = [0] * (2 * d * (n - 1) + 1)
    for k in range(n):
        num[2 * d * k] = 1
    return QRat.make(1, tuple(num), (0,) * (d * (n - 1)) + (1,))


def q_factorial(n: int, d: int = 1) -> QRat:
    """[n]! = [1][2]...[n] in base q^d."""
    out = ONE
    for k in range(2, n + 1):
        out = out * q_integer(k, d)
    return out


def q_binomial(m: int, k: int, d: int = 1) -> QRat:
    """Balanced q-binomial [m choose k] in base q^d (a Laurent polynomial)."""
    if not 0 <= k <= m:
        raise ValueError("q_binomial needs 0 <= k <= m")
    return q_factorial(m, d) / (q_factorial(k, d) * q_factorial(m - k, d))


# ---------------------------------------------------------------------------
# parsing of the rendered grammar

_TERM = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
            (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*(?P<qc>q(?:\^(?P<ec>-?\d+))?))?
          | (?P<q>q(?:\^(?P<e>-?\d+))?)
        )\s*""",
    re.VERBOSE,
)


def _parse_laurent(text: str) -> QRat:
    pos = 0
    total = ZERO
    text = text.strip()
    if not text:
        raise ValueError("empty coefficient string")
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse coefficient near {text[pos:]!r}")
        if m.group("coef") is not None:
            coef = from_fraction(m.group("coef"))
            if m.group("qc") is not None:
                e = int(m.group("ec")) if m.group("ec") is not None else 1
            else:
                e = 0
        else:
            coef = ONE
            e = int(m.group("e")) if m.group("e") is not None else 1
        term = coef.shift(e)
        total = total - term if m.group("sign") == "-" else total + term
        pos = m.end()
    return total


def parse(text: str) -> QRat:
    """Parse a coefficient rendered by :meth:`QRat.render`; each rational
    coefficient goes through :func:`from_fraction`."""
    text = text.strip()
    m = re.fullmatch(r"\((?P<num>.*)\)\s*/\s*\((?P<den>.*)\)", text, re.DOTALL)
    if m:
        return _parse_laurent(m.group("num")) / _parse_laurent(m.group("den"))
    return _parse_laurent(text)


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
