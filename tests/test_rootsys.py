"""Root systems from Cartan data, the symmetrized form, integer lattices."""

import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from qborel import rootsys
from qborel.errors import InvalidCartan, NotInPositiveCone
from qborel.rootsys import (
    LatticeSubgroup,
    _leading_minors_positive,
    _named_cartan,
    _symmetrizers,
    bilinear,
    build_root_system,
    height,
    integer_kernel,
    load_cartan_file,
    orthogonal_complement_lattice,
    reflect,
    vec_sub,
)
from qborel.weyl import from_word, identity

A2 = build_root_system("A2")
B2 = build_root_system("B2")
G2 = build_root_system("G2")


def test_named_systems():
    assert A2.rank == 2 and A2.d == (1, 1)
    assert A2.pos_roots == ((0, 1), (1, 0), (1, 1))
    # first simple root short in B2 and G2
    assert B2.d == (1, 2)
    assert B2.pos_roots == ((0, 1), (1, 0), (1, 1), (2, 1))
    assert G2.d == (1, 3)
    assert G2.pos_roots == ((0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2))
    a3 = build_root_system("A3")
    assert len(a3.pos_roots) == 6
    b3 = build_root_system("B3")
    assert len(b3.pos_roots) == 9


def test_gram_is_symmetrized_cartan():
    for rs in (A2, B2, G2):
        n = rs.rank
        for i in range(n):
            for j in range(n):
                assert rs.gram[i][j] == rs.d[i] * rs.cartan[i][j]
                assert rs.gram[i][j] == rs.gram[j][i]
    assert B2.gram == ((2, -2), (-2, 4))
    assert G2.gram == ((2, -3), (-3, 6))


def test_bilinear_and_heights():
    assert bilinear(A2, (1, 0), (1, 0)) == 2
    assert bilinear(A2, (1, 0), (0, 1)) == -1
    assert bilinear(G2, (0, 1), (0, 1)) == 6
    assert height(A2, (1, 1)) == 2
    with pytest.raises(NotInPositiveCone):
        height(A2, (1, -1))


def _bilinear_triple_loop(rs, x, y):
    """The loop that ``bilinear`` replaced: x_i, then row i, then y_j."""
    g = rs.gram
    n = rs.rank
    total = 0
    for i in range(n):
        xi = x[i]
        if xi:
            row = g[i]
            total += xi * sum(row[j] * y[j] for j in range(n) if y[j])
    return total


@pytest.mark.parametrize("label", ("A1", "G2", "B3", "C3", "D4", "F4"))
def test_bilinear_matches_the_triple_loop(label):
    rs = build_root_system(label)
    rng = random.Random(label)
    n = rs.rank
    ints = list(rs.pos_roots) + [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(20)]
    ints.append((0,) * n)
    fracs = [
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)) for _ in range(20)
    ]
    for x in ints:
        for y in ints:
            got = bilinear(rs, x, y)
            assert got == _bilinear_triple_loop(rs, x, y) and type(got) is int
    for x in fracs + ints[:5]:
        for y in fracs:
            assert bilinear(rs, x, y) == _bilinear_triple_loop(rs, x, y)
            assert bilinear(rs, y, x) == _bilinear_triple_loop(rs, y, x)


def test_reflect():
    assert reflect(A2, (1, 0), (0, 1)) == (1, 1)
    assert reflect(B2, (1, 0), (0, 1)) == (2, 1)
    assert reflect(G2, (1, 0), (0, 1)) == (3, 1)
    for rs in (A2, B2, G2):
        for beta in rs.pos_roots:
            assert reflect(rs, beta, beta) == tuple(-c for c in beta)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "D4"])
def test_reflect_reads_the_coroot_table(label):
    rs = build_root_system(label)
    n = rs.rank
    xs = [rs.simple(i) for i in range(1, n + 1)]
    xs += [rs.two_rho, tuple(range(-1, n - 1)), tuple((-2) ** i for i in range(n))]
    for beta in rs.pos_roots:
        for root in (beta, tuple(-c for c in beta)):
            for x in xs:
                k = Fraction(2 * bilinear(rs, root, x), bilinear(rs, root, root))
                got = reflect(rs, root, x)
                assert got == tuple(a - k * b for a, b in zip(x, root)), (root, x)
                assert all(type(c) is int for c in got)
    for v in ((1, 2), (0, 0)):
        with pytest.raises(ValueError):
            reflect(B2, v, (1, 0))


def test_rho_pairing():
    assert A2.two_rho == (2, 2)
    e = identity(A2)
    for beta in A2.pos_roots:
        assert bilinear(A2, beta, e.act(A2.two_rho)) > 0
    w0 = from_word(A2, (1, 2, 1))
    for beta in A2.pos_roots:
        assert bilinear(A2, beta, w0.act(A2.two_rho)) < 0


def test_is_root():
    assert (1, 1) in A2.coroots
    assert (-1, -1) in A2.coroots
    assert (2, 1) not in A2.coroots
    assert (0, 0) not in A2.coroots


def test_matrix_spec_matches_named():
    rs = build_root_system([[2, -1], [-1, 2]])
    assert rs.pos_roots == A2.pos_roots
    assert rs.gram == A2.gram


def test_invalid_cartan():
    with pytest.raises(InvalidCartan):
        build_root_system("Z9")
    with pytest.raises(InvalidCartan, match="cannot parse type string ''"):
        build_root_system("")
    with pytest.raises(InvalidCartan):
        build_root_system("Aq")
    with pytest.raises(InvalidCartan):
        build_root_system("A\u00b2")  # a digit to str.isdigit, not to int
    with pytest.raises(InvalidCartan):
        build_root_system([[2, -1]])
    with pytest.raises(InvalidCartan):
        build_root_system([[2, 1], [1, 2]])
    with pytest.raises(InvalidCartan):
        build_root_system([[2, 0], [-1, 2]])
    with pytest.raises(InvalidCartan):
        # affine matrix: form is not positive definite
        build_root_system([[2, -2], [-2, 2]])
    with pytest.raises(InvalidCartan):
        build_root_system([[1]])


@pytest.mark.parametrize(
    "name", ["A65", "D100", "A99999999999999999999", "A" + "9" * 5000, "A0065"]
)
def test_a_type_string_of_unbounded_rank_is_refused_before_building(name, monkeypatch):
    def no_matrix(n):
        raise AssertionError(f"built a rank-{n} chain")

    monkeypatch.setattr(rootsys, "_chain", no_matrix)
    with pytest.raises(InvalidCartan, match=f"rank above {rootsys.MAX_RANK} "):
        _named_cartan(name)


def test_the_rank_cap_admits_its_own_rank():
    assert len(_named_cartan(f"A{rootsys.MAX_RANK}")) == rootsys.MAX_RANK
    assert _named_cartan("A002") == _named_cartan("A2")


@pytest.mark.parametrize(
    "spec",
    [
        [[2.9, -1], [-1, 2]],
        [[2, -1.7], [-1, 2]],
        [[2.0, -1.0], [-1.0, 2.0]],
        [[2, False], [False, 2]],
        [["2", "-1"], ["-1", "2"]],
        {"cartan": [[2, -1], [-1, 2]]},
        [2, -1],
        5,
    ],
)
def test_non_integer_cartan_entries(spec):
    with pytest.raises(InvalidCartan):
        build_root_system(spec)


def _symmetrizers_oracle(a):
    """The Fraction code that ``_symmetrizers`` replaced."""
    n = len(a)
    d = [None] * n
    comps = []
    for start in range(n):
        if d[start] is not None:
            continue
        comp = [start]
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if a[i][j] != 0 and i != j:
                    want = d[i] * Fraction(a[i][j], a[j][i])
                    if d[j] is None:
                        d[j] = want
                        comp.append(j)
                        queue.append(j)
                    elif d[j] != want:
                        raise InvalidCartan("matrix is not symmetrizable")
        comps.append(comp)
    out = [Fraction(0)] * n
    for comp in comps:
        scale = min(d[i] for i in comp)
        for i in comp:
            out[i] = d[i] / scale
    ints = []
    for x in out:
        if x.denominator != 1:
            raise InvalidCartan("matrix is not symmetrizable over the integers")
        ints.append(int(x))
    return tuple(ints)


def _leading_minors_oracle(b):
    """The Fraction elimination that ``_leading_minors_positive`` replaced."""
    n = len(b)
    m = [[Fraction(x) for x in row] for row in b]
    for k in range(n):
        piv = m[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / piv
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return True


def _outcome(f, *args):
    """f(*args), or the message of the InvalidCartan it raises."""
    try:
        return f(*args)
    except InvalidCartan as exc:
        return ("InvalidCartan", str(exc))


def _random_cartan(rng, n):
    # 2 on the diagonal, a symmetric zero pattern, entries -1..-4 off it
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                a[i][j], a[j][i] = -rng.randint(1, 4), -rng.randint(1, 4)
    return a


NAMED = ("A1", "A4", "B2", "B5", "C2", "C4", "D4", "D6", "E6", "E7", "E8", "F4", "G2")


def test_integer_set_up_matches_the_fraction_oracle():
    for label in NAMED:
        a = _named_cartan(label)
        d = _symmetrizers(a)
        assert d == _symmetrizers_oracle(a) == build_root_system(label).d
        gram = [[d[i] * x for x in row] for i, row in enumerate(a)]
        assert _leading_minors_positive(gram) is _leading_minors_oracle(gram) is True
    # symmetrizable with integer ratios, not symmetrizable, and ratios that
    # leave a fraction after the scaling to min d = 1
    for a, message in (
        ([[2, -1, 0], [-2, 2, -1], [0, -1, 2]], None),
        ([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]], "matrix is not symmetrizable"),
        ([[2, -3], [-2, 2]], "matrix is not symmetrizable over the integers"),
    ):
        got = _outcome(_symmetrizers, a)
        assert got == _outcome(_symmetrizers_oracle, a)
        assert (got[1] if message else None) == message
    rng = random.Random(25)
    kinds = {"ok": 0, "not symmetrizable": 0, "over the integers": 0}
    for _ in range(600):
        a = _random_cartan(rng, rng.randint(1, 5))
        got = _outcome(_symmetrizers, a)
        assert got == _outcome(_symmetrizers_oracle, a), a
        if isinstance(got[0], int):
            kinds["ok"] += 1
            gram = [[got[i] * x for x in row] for i, row in enumerate(a)]
            assert _leading_minors_positive(gram) is _leading_minors_oracle(gram), a
        else:
            kinds["over the integers" if "integers" in got[1] else "not symmetrizable"] += 1
    assert all(kinds.values()), kinds
    # symmetric matrices with either sign on the diagonal, definite or not
    for _ in range(600):
        n = rng.randint(1, 5)
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            b[i][i] = rng.randint(-1, 8)
            for j in range(i + 1, n):
                b[i][j] = b[j][i] = rng.randint(-4, 4)
        assert _leading_minors_positive(b) is _leading_minors_oracle(b), b


def test_build_messages_match_the_fraction_set_up(monkeypatch):
    # the whole validation with the integer set-up and with the Fraction
    # code swapped back in: the same root system or the same message
    rng = random.Random(26)
    matrices = [_random_cartan(rng, rng.randint(1, 4)) for _ in range(300)]
    matrices += [[[2, 1], [1, 2]], [[2, 0], [-1, 2]], [[2, -2], [-2, 2]], [[1]]]
    got = [_outcome(build_root_system, a) for a in matrices]
    monkeypatch.setattr(rootsys, "_symmetrizers", _symmetrizers_oracle)
    monkeypatch.setattr(rootsys, "_leading_minors_positive", _leading_minors_oracle)
    want = [_outcome(build_root_system, a) for a in matrices]
    assert got == want
    assert sum(isinstance(x, tuple) for x in got) > 10 < sum(not isinstance(x, tuple) for x in got)


def test_load_cartan_file(tmp_path):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps([[2, -2], [-1, 2]]))
    rs = load_cartan_file(str(path))
    assert rs.pos_roots == B2.pos_roots
    path.write_text("[[2, -2], [-1, 2]")
    with pytest.raises(InvalidCartan, match="^" + re.escape(f"Cartan file {str(path)!r} is not JSON: ")):
        load_cartan_file(str(path))


def test_lattice_hnf_canonical():
    L = LatticeSubgroup.from_generators(2, [(2, 0), (0, 2), (1, 1)])
    assert L.basis == ((1, 1), (0, 2))
    assert L.rank == 2
    assert L.contains((1, 1)) and L.contains((2, 0)) and L.contains((3, 5))
    assert not L.contains((1, 0))
    # generator order must not matter
    M = LatticeSubgroup.from_generators(2, [(1, 1), (0, 2), (2, 0)])
    assert M.basis == L.basis


def test_lattice_leq():
    full = LatticeSubgroup.from_generators(2, [(1, 0), (0, 1)])
    even = LatticeSubgroup.from_generators(2, [(2, 0), (0, 2)])
    zero = LatticeSubgroup.from_generators(2, [])
    assert even.leq(full)
    assert not full.leq(even)
    assert zero.leq(even)
    assert zero.rank == 0 and not zero.contains((1, 0)) and zero.contains((0, 0))


def test_integer_kernel():
    K = integer_kernel([[1, 1]], 2)
    assert K.basis == ((1, -1),)
    K2 = integer_kernel([[2, 4]], 2)
    assert K2.contains((2, -1)) and not K2.contains((1, 0))


def test_lattice_reduce_is_a_coset_representative():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        gens = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        L = LatticeSubgroup.from_generators(n, gens)
        v = tuple(rng.randint(-20, 20) for _ in range(n))
        r = L.reduce(v)
        assert L.contains(vec_sub(v, r))
        shifted = list(v)
        for row in L.basis:
            c = rng.randint(-4, 4)
            shifted = [x + c * y for x, y in zip(shifted, row)]
        assert L.reduce(tuple(shifted)) == r
        assert L.reduce(r) == r
        for row in L.basis:
            col = next(j for j, x in enumerate(row) if x)
            assert 0 <= r[col] < row[col]
        assert L.contains(v) == (not any(r))


def test_integer_kernel_random_matrices():
    rng = random.Random(5)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        K = integer_kernel(rows, n)
        for b in K.basis:
            assert all(sum(a * x for a, x in zip(row, b)) == 0 for row in rows)
        for x in itertools.product(range(-3, 4), repeat=n):
            if all(sum(a * y for a, y in zip(row, x)) == 0 for row in rows):
                assert K.contains(x), (rows, x)


def test_orthogonal_complement():
    assert orthogonal_complement_lattice(A2, [(1, 0)]).basis == ((1, 2),)
    assert orthogonal_complement_lattice(B2, [(1, 0)]).basis == ((1, 1),)
    assert orthogonal_complement_lattice(G2, [(1, 0)]).basis == ((3, 2),)
    # complement of nothing is everything
    assert orthogonal_complement_lattice(A2, []).basis == ((1, 0), (0, 1))
    # complement of a spanning set is trivial
    assert orthogonal_complement_lattice(A2, [(1, 0), (0, 1)]).rank == 0
    for rs in (A2, B2, G2):
        L = orthogonal_complement_lattice(rs, [rs.simple(1)])
        for row in L.basis:
            assert bilinear(rs, row, rs.simple(1)) == 0
