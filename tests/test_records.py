"""The package's records: repr bytes, equality, hashing, immutability and
construction, pinned to the values they had as frozen dataclasses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qborel
from qborel import ReducedWord, build_root_system
from qborel.cli import Check, RunConfig
from qborel.coeffs import from_int, qpow
from qborel.record import Record
from qborel.rootsys import LatticeSubgroup, RootSystem
from qborel.strata import (
    CharacterData,
    ClassificationReport,
    CoidealTriple,
    ReportRow,
    Stratum,
    ThetaSet,
    classify,
)
from qborel.uqplus.pbw import PBWVec

A3_REPR = "RootSystem(rank=3, positive_roots=6)"
WORD_REPR = f"ReducedWord(rs={A3_REPR}, letters=(1, 3, 2))"
THETA_REPR = f"ThetaSet(word={WORD_REPR}, indices=(1, 2))"
STRATUM_REPR = f"Stratum(theta={THETA_REPR})"
LATTICE_REPR = "LatticeSubgroup(rank=2, basis=((2, 2, 0), (0, 3, 1)))"
ROW0_REPR = "ReportRow(y_word=(1,), theta_roots=(), dim=0, Lmax_basis=((1, 0, 0), (0, 1, 0), (0, 0, 1)))"
ROW1_REPR = "ReportRow(y_word=(), theta_roots=((1, 0, 0),), dim=1, Lmax_basis=((1, 2, 0), (0, 0, 1)))"


def _build(rs):
    """One instance of each record, built from the root system rs (A3)."""
    word = ReducedWord(rs, (1, 3, 2))
    theta = ThetaSet(word, (1, 2))
    stratum = Stratum(theta)
    char = CharacterData(stratum, {theta.roots[0]: qpow(1), theta.roots[1]: from_int(-2)})
    free_char = CharacterData(stratum)
    lattice = LatticeSubgroup.from_generators(3, [[2, 2, 0], [0, 3, 1]])
    report = classify(ReducedWord(rs, (1,)), "A3")
    return {
        "rs": rs,
        "lattice": lattice,
        "word": word,
        "theta": theta,
        "stratum": stratum,
        "char": char,
        "free_char": free_char,
        "triple": CoidealTriple(free_char, lattice),
        "row": report.rows[1],
        "report": report,
        "pbw": PBWVec(word, {(1, 0, 2): qpow(-1), (0, 1, 0): from_int(3)}),
        "config": RunConfig(rs=rs, label="A3", word_sel="w0", height=None, fmt="tsv", suite="all"),
        "check": Check("a", True),
        "failed_check": Check("b", False, "why"),
    }


# each repr as the frozen dataclasses printed it
REPRS = {
    "rs": A3_REPR,
    "lattice": LATTICE_REPR,
    "word": WORD_REPR,
    "theta": THETA_REPR,
    "stratum": STRATUM_REPR,
    "char": f"CharacterData(stratum={STRATUM_REPR}, f={{(1, 0, 0): QRat(q), (0, 0, 1): QRat(-2)}})",
    "free_char": f"CharacterData(stratum={STRATUM_REPR}, f=None)",
    "triple": f"CoidealTriple(char=CharacterData(stratum={STRATUM_REPR}, f=None), L={LATTICE_REPR})",
    "row": ROW1_REPR,
    "report": (
        f"ClassificationReport(type_label='A3', word=(1,), rows=({ROW0_REPR}, {ROW1_REPR}), "
        "bruhat=((1, 0),), totals={'T_w': 2, 'W_w': 2})"
    ),
    "pbw": f"PBWVec(word={WORD_REPR}, terms={{(1, 0, 2): QRat(q^-1), (0, 1, 0): QRat(3)}})",
    "config": f"RunConfig(rs={A3_REPR}, label='A3', word_sel='w0', height=None, fmt='tsv', suite='all')",
    "check": "Check(name='a', ok=True, detail='')",
    "failed_check": "Check(name='b', ok=False, detail='why')",
}

# the fields each value record compares and hashes, as a tuple
VALUE_KEYS = {
    "rs": lambda x: (x.cartan, x.d, x.gram, x.pos_roots),
    "lattice": lambda x: (x.n, x.basis),
    "word": lambda x: (x.rs, x.letters),
    "theta": lambda x: (x.word, x.indices),
    "stratum": lambda x: (x.theta,),
    "row": lambda x: (x.y_word, x.theta_roots, x.dim, x.Lmax_basis),
    "config": lambda x: (x.rs, x.label, x.word_sel, x.height, x.fmt, x.suite),
}
IDENTITY = ("char", "free_char", "triple", "report")
UNHASHABLE = ("pbw", "check", "failed_check")


@pytest.fixture(scope="module")
def pair():
    """Two builds of every record over two distinct, equal root systems."""
    return _build(build_root_system("A3")), _build(build_root_system("A3"))


def test_every_record_is_covered(pair):
    a, _ = pair
    assert set(a) == set(REPRS) == set(VALUE_KEYS) | set(IDENTITY) | set(UNHASHABLE)
    assert all(isinstance(x, Record) for x in a.values())


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_bytes(pair, name):
    a, b = pair
    assert repr(a[name]) == repr(b[name]) == REPRS[name]


@pytest.mark.parametrize("name", sorted(VALUE_KEYS))
def test_value_records_compare_and_hash_by_their_fields(pair, name):
    a, b = pair
    x, y = a[name], b[name]
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(VALUE_KEYS[name](x))
    assert x != object() and x != VALUE_KEYS[name](x)


def test_value_records_differ_in_any_field():
    rs = build_root_system("A3")
    assert rs != build_root_system("B3")
    assert ReducedWord(rs, (1, 2)) != ReducedWord(rs, (2, 1))
    word = ReducedWord(rs, (1, 3, 2))
    assert ThetaSet(word, (1,)) != ThetaSet(word, (2,))
    assert Stratum(ThetaSet(word, (1,))) != Stratum(ThetaSet(word, (1, 2)))
    assert LatticeSubgroup(3, ((1, 0, 0),)) != LatticeSubgroup(3, ((2, 0, 0),))
    assert ReportRow((), (), 0, ()) != ReportRow((), (), 1, ())
    assert Check("a", True) != Check("a", True, "detail")
    # fields left out of equality do not count: a word of another, equal
    # root system has a distinct element object
    other = ReducedWord(build_root_system("A3"), (1, 3, 2))
    assert other == word and hash(other) == hash(word) and other.element is not word.element


@pytest.mark.parametrize("name", IDENTITY)
def test_identity_records(pair, name):
    a, b = pair
    x, y = a[name], b[name]
    assert x == x and x != y
    assert hash(x) == object.__hash__(x)
    assert len({x, y}) == 2


def test_unhashable_records(pair):
    a, b = pair
    for name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a[name])
        assert a[name] == b[name]
    assert a["pbw"] != PBWVec(a["word"], {})
    # PBWVec compares letters, not root systems
    assert a["pbw"] == PBWVec(ReducedWord(build_root_system("B3"), (1, 3, 2)), a["pbw"].terms)


@pytest.mark.parametrize("name", sorted(REPRS))
def test_records_are_read_only(pair, name):
    x = pair[0][name]
    slots = [f for cls in type(x).__mro__ for f in getattr(cls, "__slots__", ())]
    assert slots, name
    for field in slots:
        before = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, before)
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert getattr(x, field) is before
    with pytest.raises(AttributeError):
        x.extra = 1
    assert not hasattr(x, "__dict__")


def test_keyword_and_positional_construction():
    rs = build_root_system("A3")
    fields = dict(y_word=(1,), theta_roots=((1, 0, 0),), dim=1, Lmax_basis=((0, 0, 1),))
    row = ReportRow(**fields)
    assert row == ReportRow(*fields.values())
    assert (row.y_word, row.theta_roots, row.dim, row.Lmax_basis) == tuple(fields.values())
    report = ClassificationReport(
        type_label="A3", word=(1,), rows=(row,), bruhat=(), totals={"T_w": 1, "W_w": 1}
    )
    assert report.rows == (row,) and report.totals == {"T_w": 1, "W_w": 1}
    assert report.to_tsv().startswith("# type A3\tword 1\n")
    again = RootSystem(cartan=rs.cartan, d=rs.d, gram=rs.gram, pos_roots=rs.pos_roots)
    assert again == rs and again.two_rho == rs.two_rho and again._weyl_table == {}
    assert ReducedWord(rs=rs, letters=(1, 2)) == ReducedWord(rs, (1, 2))
    word = ReducedWord(rs, (1, 3, 2))
    assert ThetaSet(word=word, indices=(1,)) == ThetaSet(word, (1,))
    assert LatticeSubgroup(n=2, basis=()) == LatticeSubgroup(2, ())
    assert Check(name="a", ok=True) == Check("a", True, "")
    assert Check("a", ok=False, detail="d").detail == "d"
    assert CharacterData(Stratum(ThetaSet(word, ()))).f is None
    with pytest.raises(TypeError):
        ReportRow((), (), 0)
    with pytest.raises(TypeError):
        Check("a", True, "", "extra")


def test_character_keeps_a_copy_of_its_values():
    rs = build_root_system("A3")
    theta = ThetaSet(ReducedWord(rs, (1, 3, 2)), (1,))
    values = {theta.roots[0]: qpow(2)}
    char = CharacterData(Stratum(theta), values)
    values.clear()
    assert char.f == {theta.roots[0]: qpow(2)}
    with pytest.raises(ValueError):
        CharacterData(Stratum(theta), {theta.roots[0]: from_int(0)})


def test_cold_import_loads_no_dataclasses_or_fractions():
    # a fresh interpreter, as a CLI call starts: importing the package and
    # building B3 must not load these modules (their import cost more than
    # the rest of set-up); modules the interpreter loaded before qborel do
    # not count against it
    src = str(Path(qborel.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qborel, qborel.cli, qborel.uqplus\n"
        "qborel.build_root_system('B3')\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = set(ast.literal_eval(out))
    assert "qborel.cli" in loaded
    assert not loaded & {"dataclasses", "fractions", "decimal", "inspect"}
