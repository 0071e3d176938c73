"""Exact rational-function arithmetic over Q(q)."""

from fractions import Fraction

import pytest

from qborel.coeffs import (
    ONE,
    ZERO,
    QRat,
    from_fraction,
    from_int,
    parse,
    q_binomial,
    q_factorial,
    q_integer,
    qpow,
)
from qborel.errors import DivisionByZero


def test_constants():
    assert ZERO.is_zero()
    assert from_int(0) == ZERO
    assert from_int(1) == ONE
    assert qpow(0) == ONE


def test_qpow_monomials():
    assert qpow(2) * qpow(-5) == qpow(-3)
    assert qpow(7) * qpow(-7) == ONE
    assert qpow(3).render() == "q^3"
    assert qpow(-1).render() == "q^-1"


def test_ring_ops_are_canonical():
    q = qpow(1)
    lhs = (q + ONE) * (q - ONE)
    assert lhs == qpow(2) - ONE
    # cancellation: (q^2 - 1)/(q - 1) collapses to q + 1 structurally
    assert (qpow(2) - ONE) / (q - ONE) == q + ONE
    assert from_int(6) / from_int(4) == from_fraction(Fraction(3, 2))
    x = from_int(3) * qpow(2) - from_fraction(Fraction(1, 2)) * qpow(-1)
    assert x - x == ZERO
    assert x + (-x) == ZERO


def test_inverse_and_division_by_zero():
    x = from_int(3) * qpow(2) - from_fraction(Fraction(1, 2)) * qpow(-1)
    assert x * x.inverse() == ONE
    with pytest.raises(DivisionByZero):
        ZERO.inverse()
    with pytest.raises(DivisionByZero):
        ONE / ZERO


def test_immutability_and_hash():
    x = qpow(2)
    with pytest.raises(AttributeError):
        x.c = Fraction(5)
    assert len({qpow(1), qpow(1), qpow(2)}) == 2
    assert hash(qpow(1) + ONE) == hash(ONE + qpow(1))


def test_q_integers_balanced():
    # [n] = q^(n-1) + q^(n-3) + ... + q^(1-n)
    assert q_integer(0) == ZERO
    assert q_integer(1) == ONE
    assert q_integer(2) == qpow(1) + qpow(-1)
    assert q_integer(3) == qpow(2) + ONE + qpow(-2)
    assert q_integer(2, 2) == qpow(2) + qpow(-2)
    assert q_integer(3, 2) == qpow(4) + ONE + qpow(-4)
    with pytest.raises(ValueError):
        q_integer(-1)


def test_q_factorial_and_binomial():
    assert q_factorial(3) == q_integer(2) * q_integer(3)
    assert q_binomial(2, 1) == q_integer(2)
    assert q_binomial(4, 2) == q_binomial(4, 2)
    # Pascal recursion in the balanced convention:
    # [m choose k] = q^k [m-1 choose k] + q^(k-m) [m-1 choose k-1]
    m, k = 5, 2
    assert q_binomial(m, k) == qpow(k) * q_binomial(m - 1, k) + qpow(k - m) * q_binomial(
        m - 1, k - 1
    )
    with pytest.raises(ValueError):
        q_binomial(2, 3)


def test_q_binomial_is_laurent():
    for m in range(1, 7):
        for k in range(m + 1):
            for d in (1, 2, 3):
                x = q_binomial(m, k, d)
                assert sum(1 for c in x.den if c) == 1, (m, k, d)


def test_render_parse_round_trip():
    samples = [
        ZERO,
        ONE,
        qpow(-3),
        from_fraction(Fraction(-3, 7)),
        q_binomial(4, 2, 2),
        from_int(3) * qpow(2) - from_fraction(Fraction(1, 2)) * qpow(-1),
        ONE / (ONE + qpow(2)),
        (qpow(3) - from_int(2)) / (from_int(5) * qpow(-1) + ONE),
    ]
    for x in samples:
        assert parse(x.render()) == x, x.render()


def test_parse_grammar():
    assert parse("3*q^2 - 1/2*q^-1") == from_int(3) * qpow(2) - from_fraction(
        Fraction(1, 2)
    ) * qpow(-1)
    assert parse("q") == qpow(1)
    assert parse("-q^2 + 1") == ONE - qpow(2)
    with pytest.raises(ValueError):
        parse("3*z")


# ---------------------------------------------------------------------------
# property tests: sympy is the oracle for the field operations; both it and
# hypothesis are optional, so these skip on a zero-dependency install


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _qrats(st):
    """Values num/den * q^shift from small integer polynomials."""
    coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=4)

    @st.composite
    def build(draw):
        num = _strip(draw(coeffs))
        den = _strip(draw(coeffs.filter(any)))
        shift = draw(st.integers(-2, 2))
        if shift > 0:
            num = (0,) * shift + num if num else num
        else:
            den = (0,) * -shift + den
        c = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
        return QRat.make(c, num, den)

    return build()


def _sympy_value(sympy, x):
    q = sympy.Symbol("q")
    num, den = x.monic_pair()

    def poly(cs):
        return sum(sympy.Rational(c.numerator, c.denominator) * q**i for i, c in enumerate(cs))

    return poly(num) / poly(den)


def _sympy_monic_pair(sympy, expr):
    """monic_pair() of the value sympy.cancel gives for expr."""
    q = sympy.Symbol("q")
    n, d = sympy.fraction(sympy.cancel(expr))
    lc = sympy.Poly(d, q).LC()

    def coeffs(p):
        cs = reversed(sympy.Poly(p / lc, q).all_coeffs())
        return _strip(Fraction(int(c.p), int(c.q)) for c in cs)

    return coeffs(n), coeffs(d)


def test_field_ops_match_sympy():
    hyp = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(_qrats(hyp.strategies), _qrats(hyp.strategies))
    def check(x, y):
        sx, sy = _sympy_value(sympy, x), _sympy_value(sympy, y)
        assert (x * y).monic_pair() == _sympy_monic_pair(sympy, sx * sy)
        assert (x + y).monic_pair() == _sympy_monic_pair(sympy, sx + sy)
        if not x.is_zero():
            assert x.inverse().monic_pair() == _sympy_monic_pair(sympy, 1 / sx)

    check()


def test_render_parse_and_unit_properties():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(_qrats(hyp.strategies))
    def check(x):
        assert parse(x.render()) == x
        # the unit shortcut in the gcd must keep the canonical form
        shape = (x.c, x.num, x.den)
        assert ((x * ONE).c, (x * ONE).num, (x * ONE).den) == shape
        assert ((ONE * x).c, (ONE * x).num, (ONE * x).den) == shape

    check()


def _prs_gcd(a, b):
    """The primitive PRS loop of ``coeffs._pgcd_prs``, with no shortcut."""
    from qborel.coeffs import _pprim, _prem

    a, b = _pprim(a)[0], _pprim(b)[0]
    if not a or not b:
        return a or b
    while b:
        if len(a) < len(b):
            a, b = b, a
        a, b = b, _pprim(_prem(a, b))[0]
    return a


def test_pgcd_matches_the_prs_loop_on_monomial_operands():
    import random

    from qborel.coeffs import _gcd_cofactors, _pmul, _pprim

    rng = random.Random(20261018)

    def operand(common):
        # content * q^k * (a monomial or a small polynomial) * common factor
        core = (1,) if rng.random() < 0.5 else _strip(rng.randint(-4, 4) for _ in range(4)) or (1,)
        shift = (0,) * rng.randint(0, 4) + (rng.choice((-1, 1)) * rng.randint(1, 12),)
        return _pmul(_pmul(shift, core), common)

    monomial_pairs = 0
    for _ in range(3000):
        common = (0,) * rng.randint(0, 2) + (rng.randint(1, 3),)
        if rng.random() < 0.3:
            common = _pmul(common, (rng.randint(-2, 2), 1))
        a, b = operand(common), operand(common)
        monomial_pairs += not any(a[:-1]) or not any(b[:-1])
        assert _gcd_cofactors(_pprim(a)[0], _pprim(b)[0])[0] == _prs_gcd(a, b), (a, b)
        assert _gcd_cofactors(_pprim(b)[0], _pprim(a)[0])[0] == _prs_gcd(a, b), (a, b)
    assert monomial_pairs > 500


# the cyclotomic polynomials Phi_1 .. Phi_12, lowest degree first: the
# factors of the denominators the kernel meets (q-integers, q-factorials)
_CYCLOTOMIC = (
    (-1, 1),
    (1, 1),
    (1, 1, 1),
    (1, 0, 1),
    (1, 1, 1, 1, 1),
    (1, -1, 1),
    (1, 1, 1, 1, 1, 1, 1),
    (1, 0, 0, 0, 1),
    (1, 0, 0, 1, 0, 0, 1),
    (1, -1, 1, -1, 1),
    (1,) * 11,
    (1, 0, -1, 0, 1),
)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _primitive(a):
    from math import gcd

    g = 0
    for x in a:
        g = gcd(g, x)
    if a[-1] < 0:
        g = -g
    return tuple(x // g for x in a)


def _cyclotomic_pairs(seed, count):
    """Primitive pairs a = common * x, b = common * y, degree up to ~40.

    common, x and y are products of random cyclotomic factors, a random
    q-power and a random small core, so the gcd is often nontrivial.
    """
    import random

    rng = random.Random(seed)

    def factors(k):
        out = (1,)
        for _ in range(rng.randint(0, k)):
            out = _mul(out, rng.choice(_CYCLOTOMIC))
        return out

    def core():
        c = _strip(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
        return c or (1,)

    pairs = []
    while len(pairs) < count:
        common = _mul(factors(4), (0,) * rng.randint(0, 2) + (1,))
        a = _mul(_mul(common, factors(4)), core())
        b = _mul(_mul(common, factors(4)), core())
        b = _mul(b, (0,) * rng.randint(0, 3) + (1,))
        if len(a) <= 41 and len(b) <= 41:
            pairs.append((_primitive(a), _primitive(b)))
    return pairs


def test_gcd_cofactors_match_the_prs_loop_on_cyclotomic_products(monkeypatch):
    from qborel import coeffs

    fallbacks = []
    prs = coeffs._pgcd_prs
    monkeypatch.setattr(coeffs, "_pgcd_prs", lambda a, b: fallbacks.append(1) or prs(a, b))

    nontrivial = 0
    for a, b in _cyclotomic_pairs(20261018, 2000):
        want = _prs_gcd(a, b)
        nontrivial += want != (1,)
        for x, y in ((a, b), (b, a)):
            g, gx, gy = coeffs._gcd_cofactors(x, y)
            assert g == want, (x, y)
            assert _mul(g, gx) == x and _mul(g, gy) == y, (x, y)
        assert coeffs._gcd_cofactors(coeffs._pprim(a)[0], coeffs._pprim(b)[0])[0] == want
    assert nontrivial > 1000
    # on these pairs the heuristic gcd always certifies a candidate
    assert not fallbacks


def test_gcd_cofactors_match_sympy_on_cyclotomic_products():
    sympy = pytest.importorskip("sympy")
    from qborel.coeffs import _gcd_cofactors

    q = sympy.Symbol("q")
    for a, b in _cyclotomic_pairs(7, 200):
        want = sympy.Poly(list(reversed(a)), q).gcd(sympy.Poly(list(reversed(b)), q))
        want = tuple(int(c) for c in reversed(want.all_coeffs()))
        assert _gcd_cofactors(a, b)[0] == want, (a, b)
        assert _gcd_cofactors(b, a)[0] == want, (a, b)


def test_gcd_cofactors_closed_forms():
    from qborel.coeffs import _gcd_cofactors

    a = (3, 0, 2)
    assert _gcd_cofactors((1,), a) == ((1,), (1,), a)
    assert _gcd_cofactors(a, (1,)) == ((1,), a, (1,))
    # gcd(q^3, q^2 (3 + 2 q^2)) = q^2
    assert _gcd_cofactors((0, 0, 0, 1), (0, 0) + a) == ((0, 0, 1), (0, 1), a)
    assert _gcd_cofactors((0, 0) + a, (0, 0, 0, 1)) == ((0, 0, 1), a, (0, 1))
    assert _gcd_cofactors((0, 1), a) == ((1,), (0, 1), a)


def test_gcd_cofactors_rejects_a_candidate_that_does_not_divide():
    from qborel.coeffs import _gcd_cofactors

    # xi starts at 2 * min(1, 33) + 29 = 31, where a(31) = 32 and
    # b(31) = 64: the first candidate is q + 1, which does not divide b
    a, b = (1, 1), (33, 1)
    assert _gcd_cofactors(a, b) == ((1,), a, b)
    assert _gcd_cofactors(b, a) == ((1,), b, a)


def test_gcd_cofactors_prs_fallback(monkeypatch):
    from qborel import coeffs

    # a candidate of degree 199 divides no operand, so every heuristic
    # try fails and the PRS loop must give the gcd
    monkeypatch.setattr(coeffs, "_balanced_digits", lambda n, xi: (1,) * 200)
    fallbacks = []
    prs = coeffs._pgcd_prs
    monkeypatch.setattr(coeffs, "_pgcd_prs", lambda a, b: fallbacks.append(1) or prs(a, b))

    pairs = _cyclotomic_pairs(11, 200)
    for a, b in pairs:
        g, ga, gb = coeffs._gcd_cofactors(a, b)
        assert g == _prs_gcd(a, b), (a, b)
        assert _mul(g, ga) == a and _mul(g, gb) == b, (a, b)
    assert len(fallbacks) > 100
    x = parse("(q^2 - 1)/(q^3 + 1)")
    assert x.render() == "(q - 1)/(q^2 - q + 1)"


def _random_primitive(rng):
    # a nonzero primitive polynomial with positive leading coefficient
    while True:
        a = _strip(rng.randint(-6, 6) for _ in range(rng.randint(1, 9)))
        if a and a != (1,):
            return _primitive(a)


def test_memos_equal_the_uncached_functions():
    import random

    from qborel import coeffs

    rng = random.Random(20261021)
    pairs = _cyclotomic_pairs(20261021, 300)
    pairs += [(_random_primitive(rng), _random_primitive(rng)) for _ in range(300)]
    memos = (coeffs._gcd_cofactors_memo, coeffs._pmul_memo)
    hits = [memo.cache_info().hits for memo in memos]
    # each pair twice, so that the second call is a hit
    for _ in range(2):
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                assert coeffs._gcd_cofactors_memo(x, y) == coeffs._gcd_cofactors(x, y), (x, y)
                assert coeffs._pmul(x, y) == _mul(x, y), (x, y)
                assert coeffs._pmul_memo(x, y) == coeffs._pmul_memo.__wrapped__(x, y), (x, y)
    for memo, before in zip(memos, hits):
        assert memo.cache_info().hits - before >= 2 * len(pairs)


def test_memos_stay_within_their_bound():
    from qborel import coeffs

    bound = coeffs._MEMO_SIZE
    for k in range(bound + 500):
        a = (k + 2, 1)  # a distinct primitive operand for each k
        assert coeffs._pmul(a, (1, 1)) == (k + 2, k + 3, 1)
        assert coeffs._gcd_cofactors_memo(a, (1, 1)) == ((1,), a, (1, 1))
    for memo in (coeffs._pmul_memo, coeffs._gcd_cofactors_memo):
        info = memo.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound, info


def test_memos_do_not_change_any_canonical_form(monkeypatch):
    from qborel import coeffs

    q = qpow(1)
    values = _differential_values() + [
        parse("(q^2 - 1)/(q^3 + 1)"),
        q_binomial(5, 2),
        ONE / (q_integer(3) + q_integer(2, 2)),
        (q * q + q + ONE) / (q * q - ONE),
        from_fraction(Fraction(-3, 7)) / (q + from_int(2)),
    ]
    pairs = [(x, y) for x in values for y in values]

    def layouts(order):
        out = {}
        for k in order:
            x, y = pairs[k]
            out[k] = (_layout(x * y), _layout(x + y), _layout(x - y))
        return out

    forward, backward = list(range(len(pairs))), list(reversed(range(len(pairs))))
    runs = []
    for order in (forward, backward):
        coeffs._pmul_memo.cache_clear()
        coeffs._gcd_cofactors_memo.cache_clear()
        runs.append(layouts(order))  # from a cleared memo
        runs.append(layouts(order))  # from a warm one
    # the reference bypasses both memos
    monkeypatch.setattr(coeffs, "_pmul_memo", coeffs._pmul_memo.__wrapped__)
    monkeypatch.setattr(coeffs, "_gcd_cofactors_memo", coeffs._gcd_cofactors)
    want = layouts(forward)
    assert all(run == want for run in runs)
    # many products keep a denominator other than a q-power: the gcd path
    assert sum(any(product[3][:-1]) for product, _, _ in want.values()) > 50


def test_shift_is_multiplication_by_a_q_power():
    q = qpow(1)
    cyclo = q * q + q + ONE
    values = [
        ZERO,
        ONE,
        from_fraction(Fraction(-3, 7)),
        from_int(3) * qpow(2) - from_fraction(Fraction(1, 2)) * qpow(-1),
        qpow(-4) + from_int(5) * qpow(3),
        # a q-power in the denominator, and one in the numerator, to cancel
        (q + from_int(2)) / qpow(3),
        qpow(2) * (q - ONE) / (q + from_int(2)),
        # cyclotomic denominators, with and without a q-power beside them
        (q - ONE) / (cyclo * (q * q + ONE)),
        qpow(-2) * from_fraction(Fraction(5, 3)) / (cyclo * cyclo),
        q_binomial(5, 2, 2) / q_integer(3),
    ]
    for x in values:
        for k in range(-6, 7):
            got = x.shift(k)
            assert got == x * qpow(k), (x, k)
            # the trusted constructor skips canonicalisation, so compare the layout
            want = x * qpow(k)
            assert (got.c, got.num, got.den) == (want.c, want.num, want.den), (x, k)
    assert ONE.shift(0) is ONE and ZERO.shift(5) is ZERO


# ---------------------------------------------------------------------------
# the Laurent closed forms of __mul__ and __add__ against the general path


def _laurent_qrats(st):
    """Values biased to q-power denominators and fractional contents."""
    coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(_strip).filter(bool)

    @st.composite
    def build(draw):
        num = draw(coeffs)
        if draw(st.integers(0, 4)):
            den = (1,)  # a Laurent value: the q-power goes in through the shift
        else:
            den = draw(coeffs)
        shift = draw(st.integers(-3, 3))
        if shift > 0:
            num = (0,) * shift + num
        else:
            den = (0,) * -shift + den
        c = Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from((1, 2, 3, 4, 6, 9, 12))))
        return QRat.make(c, num, den)

    return build()


def test_laurent_ops_match_sympy():
    hyp = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(_laurent_qrats(hyp.strategies), _laurent_qrats(hyp.strategies))
    def check(x, y):
        sx, sy = _sympy_value(sympy, x), _sympy_value(sympy, y)
        assert (x * y).monic_pair() == _sympy_monic_pair(sympy, sx * sy)
        assert (x + y).monic_pair() == _sympy_monic_pair(sympy, sx + sy)
        # monic_pair rebuilds the content as a Fraction, so the layout is
        # checked apart
        assert _layout(x * y) == _layout(_make_product(x, y))
        assert _layout(x + y) == _layout(_make_sum(x, y))
        # taking y back off cancels the q-powers it brought in
        assert _layout((x + y) - y) == _layout(x)

    check()


def _laurent(c, exps):
    """c * sum of q^e over exps, built through make on a q-power denominator."""
    low = min(exps)
    num = [0] * (max(exps) - low + 1)
    for e in exps:
        num[e - low] += 1
    if low >= 0:
        return QRat.make(c, (0,) * low + tuple(num), (1,))
    return QRat.make(c, tuple(num), (0,) * -low + (1,))


def _differential_values():
    cyclo = (1, 1, 1)
    return [
        _laurent(Fraction(3, 4), [0]),
        _laurent(Fraction(2, 9), [0]),
        _laurent(Fraction(3, 4), [-3]),
        _laurent(Fraction(-2, 9), [2]),
        _laurent(Fraction(1), [3, 4]),  # q^3 (1 + q): cancels a q^-k denominator
        _laurent(Fraction(-1), [-3, -2]),  # q^-3 (1 + q)
        _laurent(Fraction(5, 6), [-2, 1]),
        _laurent(Fraction(-5, 6), [-2, 1]),  # the negative of the one above
        _laurent(Fraction(1), [-1, 0]),
        _laurent(Fraction(-1), [-1, 1]),  # adds to q^-1 + 1 as 1 - q: a low q-power cancels
        _laurent(Fraction(7, 2), [-4, -2, 0, 2, 4]),
        _laurent(Fraction(-7, 2), [-4, 0]),
        # cyclotomic denominators, with and without a q-power beside them
        QRat.make(Fraction(1, 3), (0, 1, 1), cyclo),
        QRat.make(Fraction(-4, 5), (2, 0, 1), (0, 0) + cyclo),
        QRat.make(Fraction(9, 4), (0, 0, 0, 1), (1, 0, 1)),
    ]


def _layout(x):
    return (x.cn, x.cd, x.num, x.den)


def _make_product(x, y):
    """x * y through make on the unreduced num/den, no closed form."""
    return QRat.make(Fraction(x.cn * y.cn, x.cd * y.cd), _mul(x.num, y.num), _mul(x.den, y.den))


def _make_sum(x, y):
    """x + y through make on the unreduced num/den, no closed form."""
    num = [0] * (len(x.num) + len(y.den) + len(y.num) + len(x.den))
    for i, v in enumerate(_mul(x.num, y.den)):
        num[i] += x.cn * y.cd * v
    for i, v in enumerate(_mul(y.num, x.den)):
        num[i] += y.cn * x.cd * v
    return QRat.make(Fraction(1, x.cd * y.cd), _strip(num), _mul(x.den, y.den))


def test_laurent_paths_match_make_on_the_unreduced_forms():
    values = _differential_values()
    q_cancel = zero_sums = 0
    for x in values:
        for y in values:
            assert _layout(x * y) == _layout(_make_product(x, y)), (x, y)
            assert _layout(x + y) == _layout(_make_sum(x, y)), (x, y)
            zero_sums += (x + y).is_zero()
            both = x.den.count(0) == len(x.den) - 1 and y.den.count(0) == len(y.den) - 1
            q_cancel += both and len((x * y).den) < len(x.den) + len(y.den) - 1
    assert zero_sums == 2 and q_cancel > 10
    third, two_ninths = values[0], values[1]
    assert _layout(third * two_ninths) == (1, 6, (1,), (1,))
    # q^3 (1 + q) * q^-3 (1 + q) = (1 + q)^2, and q^-3 * q^2 = q^-1
    assert _layout(values[4] * values[5]) == (-1, 1, (1, 2, 1), (1,))
    assert _layout(values[2] * values[3]) == (-1, 6, (1,), (0, 1))
    # (q^-1 + 1) + (-q^-1 - q) = 1 - q: the q^-1 denominator cancels
    assert _layout(values[8] + values[9]) == (-1, 1, (-1, 1), (1,))
    assert values[6] + values[7] == ZERO and values[10] - values[10] == ZERO


@pytest.mark.parametrize("strategy", [_qrats, _laurent_qrats])
def test_constant_operands_match_make_on_the_unreduced_forms(strategy):
    hyp = pytest.importorskip("hypothesis")
    constants = [ONE, -ONE, from_int(3), from_fraction(Fraction(-2, 5)), from_fraction(Fraction(1, 6))]

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(strategy(hyp.strategies))
    def check(x):
        for c in constants:
            assert _layout(x * c) == _layout(_make_product(x, c)), c
            assert _layout(c * x) == _layout(_make_product(c, x)), c
        assert x * ONE is x
        assert x * ZERO == ZERO and ZERO * x == ZERO

    check()


def test_qrat_is_an_immutable_value_type():
    x = QRat.make(Fraction(3, 4), (1, 0, 2), (0, 1))
    for field in ("cn", "cd", "num", "den", "c"):
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert _layout(x) == (3, 4, (1, 0, 2), (0, 1)) and x.c == Fraction(3, 4)
    for bad in (lambda: x * 3, lambda: 3 * x, lambda: x + 1, lambda: x + (1,)):
        with pytest.raises(TypeError):
            bad()
    # equal values reached by different paths hash equal
    q = qpow(1)
    pairs = [
        ((q + ONE) * (q - ONE), qpow(2) - ONE),
        (QRat.make(Fraction(6, 8), (2, 0, 4), (0, 2)), x),
        (from_fraction(Fraction(3, 4)) * qpow(-1) * (ONE + from_int(2) * qpow(2)), x),
        (ONE / (ONE + q), (ONE - q) / (ONE - q * q)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    # a value never equals the tuple of its own fields
    for v in (ZERO, ONE, x):
        assert v != _layout(v) and v != (v.c, v.num, v.den) and v != v.num
        assert not v == tuple(v.num)


def test_make_strips_trailing_zeros_first():
    # the zero polynomial written as (0,) is zero, as a numerator or a denominator
    assert _layout(QRat.make(1, (0,), (1,))) == _layout(ZERO)
    assert _layout(QRat.make(Fraction(2, 3), (0, 0), (1, 2))) == _layout(ZERO)
    for den in ((0,), (0, 0)):
        with pytest.raises(DivisionByZero):
            QRat.make(1, (1,), den)
    # a padded numerator or denominator gives the canonical value
    assert _layout(QRat.make(1, (1, 0), (1,))) == _layout(ONE)
    assert QRat.make(1, (1, 0), (1,)) == ONE
    assert _layout(QRat.make(3, (2, 4, 0), (0, 6, 0, 0))) == _layout(QRat.make(1, (1, 2), (0, 1)))


def _render_reference(x):
    """The Fraction rendering that ``QRat.render`` replaced."""

    def laurent(terms):
        parts = []
        for e, co in terms:
            sign = "-" if co < 0 else "+"
            mag = -co if co < 0 else co
            if e == 0:
                body = str(mag)
            else:
                qp = "q" if e == 1 else f"q^{e}"
                body = qp if mag == 1 else f"{mag}*{qp}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    if not x.num:
        return "0"
    c = Fraction(x.cn, x.cd)
    if not any(x.den[:-1]):
        shift = len(x.den) - 1
        return laurent([(e - shift, c * x.num[e]) for e in range(len(x.num) - 1, -1, -1) if x.num[e]])
    lc = x.den[-1]
    num = [c * v / lc for v in x.num]
    den = [Fraction(v, lc) for v in x.den]
    ns = laurent([(e, num[e]) for e in range(len(num) - 1, -1, -1) if num[e]])
    ds = laurent([(e, den[e]) for e in range(len(den) - 1, -1, -1) if den[e]])
    return f"({ns})/({ds})"


def test_render_matches_the_fraction_reference():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(st.one_of(_qrats(st), _laurent_qrats(st)), _qrats(st))
    def check(x, y):
        for v in (x, y, x * y, x + y, -x):
            assert v.render() == _render_reference(v)

    check()
    # contents that reduce against a coefficient, and a genuine denominator
    # whose leading coefficient divides some numerator coefficients
    for v in (
        QRat.make(Fraction(3, 4), (2, 0, 4), (1,)),
        QRat.make(Fraction(-1, 6), (3, 2), (0, 0, 1)),
        QRat.make(Fraction(5, 2), (4, 6, 1), (1, 1, 6)),
        QRat.make(Fraction(-4, 3), (9,), (3, 0, 6)),
        from_fraction(Fraction(-1, 2)),
        ONE,
        -ONE,
    ):
        assert v.render() == _render_reference(v)
