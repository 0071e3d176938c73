"""Acceptance gate.

Each test drives one of the verification suites from qborel.cli at its full
scope and asserts every check passes, plus the runtime budget where one is
stated.  pytest -v prints one pass/fail line per criterion.
"""

import time
from itertools import product

from qborel.cli import (
    suite_characters,
    suite_enumerate,
    suite_hopf,
    suite_kernel,
    suite_ls,
    suite_quotient,
    suite_strata,
    suite_weyl,
)
from qborel.rootsys import build_root_system
from qborel.uqplus.free import NFContext, kostant_dim
from qborel.uqplus.full import UAlgebra, root_vectors
from qborel.uqplus.pbw import pbw_data
from qborel.weyl import ReducedWord, all_reduced_words, weyl_group

RANK2 = ("A2", "B2", "G2")


def _run(suite, labels):
    checks = []
    for label in labels:
        checks.extend(suite(build_root_system(label), label))
    return checks


def _assert_all(checks):
    assert checks
    bad = [c for c in checks if not c.ok]
    assert not bad, "; ".join(f"{c.name} [{c.detail}]" for c in bad)


def test_01_rank2_exhaustive_stratification():
    t0 = time.perf_counter()
    checks = _run(suite_strata, RANK2)
    elapsed = time.perf_counter() - t0
    _assert_all(checks)
    # every reduced word of every rank-2 element, four structural checks each
    for label in RANK2:
        assert any(c.name.startswith(f"{label}: T^w closed") for c in checks)
        assert any("end roots" in c.name and c.name.startswith(label) for c in checks)
    assert elapsed < 10.0, f"{elapsed:.1f}s"


def test_02_a2_longest_element_strata():
    checks = suite_strata(build_root_system("A2"), "A2")
    extras = [c for c in checks if c.name.startswith("A2: w0") or "W^{w0}" in c.name]
    assert len(extras) == 3
    _assert_all(extras)


def test_03_ls_relation_shape():
    t0 = time.perf_counter()
    checks = _run(suite_ls, RANK2 + ("A3",))
    elapsed = time.perf_counter() - t0
    _assert_all(checks)
    assert any(c.name == "A2: ls_relation(1,2) vanishes" for c in checks)
    assert elapsed < 30.0, f"{elapsed:.1f}s"


def test_04_polynomial_quotients():
    t0 = time.perf_counter()
    checks = _run(suite_quotient, RANK2 + ("A3",))
    elapsed = time.perf_counter() - t0
    _assert_all(checks)
    assert elapsed < 120.0, f"{elapsed:.1f}s"


def test_05_enumeration_completeness():
    checks = _run(suite_enumerate, RANK2 + ("A3",))
    _assert_all(checks)


def test_06_character_dichotomy():
    checks = _run(suite_characters, RANK2)
    _assert_all(checks)


def test_07_descent_tests_and_chain_normalization():
    checks = _run(suite_weyl, RANK2 + ("A3", "B3"))
    _assert_all(checks)
    # rank 3 adds the chain postcondition check on 100 random chains
    for label in ("A3", "B3"):
        assert any("normalize_reflection_sequence" in c.name and c.name.startswith(label) for c in checks)


def test_08_hopf_twist_suite():
    t0 = time.perf_counter()
    checks = _run(suite_hopf, RANK2 + ("A3",))
    elapsed = time.perf_counter() - t0
    _assert_all(checks)
    for label in RANK2 + ("A3",):
        coideal = [c for c in checks if c.name.startswith(label) and "coideal_check" in c.name]
        assert len(coideal) == 1 and int(coideal[0].detail.split()[0]) > 0, coideal
        assert any(c.name.startswith(label) and "graded by the K-exponent" in c.name for c in checks)
    # 14, 22, 14 and 5 strata; measured 0.22-0.29 s on a 2-core x86-64 host
    # (0.33-0.49 s before the coideal spans grew by height on demand), and the
    # budget is kept at 1.1 s
    assert elapsed < 1.1, f"{elapsed:.1f}s"


def test_09_kernel_self_consistency():
    checks = _run(suite_kernel, RANK2 + ("A3",))
    _assert_all(checks)


def test_10_rank3_strata_and_rank4_weyl():
    t0 = time.perf_counter()
    checks = _run(suite_strata, ("B3", "C3")) + _run(suite_weyl, ("D4", "B4", "F4"))
    elapsed = time.perf_counter() - t0
    _assert_all(checks)
    for label in ("B3", "C3"):
        assert any(c.name.startswith(f"{label}: kappa is an order-reversing") for c in checks)
    for label in ("D4", "B4", "F4"):
        assert any("normalize_reflection_sequence" in c.name and c.name.startswith(label) for c in checks)
    # every reduced word of every B3 and C3 element; 1000 random descent cases per
    # rank-4 type; measured 0.3-0.4 s on a 2-core x86-64 host, and the budget
    # leaves room for a loaded host
    assert elapsed < 2.0, f"{elapsed:.1f}s"


def test_11_rank3_w0_suites():
    t0 = time.perf_counter()
    checks = []
    for label in ("A3", "B3", "C3"):
        rs = build_root_system(label)
        alg = UAlgebra(rs)  # one algebra per type, as `qborel verify` builds
        for suite in (suite_characters, suite_quotient, suite_enumerate, suite_ls):
            checks.extend(suite(rs, label, alg))
    elapsed = time.perf_counter() - t0
    _assert_all(checks)
    for label in ("A3", "B3", "C3"):
        assert any(c.name.startswith(label) and "ls_relation" in c.name for c in checks)
    assert elapsed < 40.0, f"{elapsed:.1f}s"


def test_12_rank4_strata():
    t0 = time.perf_counter()
    checks = suite_strata(build_root_system("A4"), "A4")
    elapsed = time.perf_counter() - t0
    _assert_all(checks)
    assert any(c.name.startswith("A4: kappa is an order-reversing") for c in checks)
    # every reduced word of every A4 element (3,061 words); measured 1.1-1.6 s
    # on a 2-core x86-64 host, and the budget is about four times that
    assert elapsed < 7.0, f"{elapsed:.1f}s"


def test_13_rank4_ls():
    t0 = time.perf_counter()
    checks = suite_ls(build_root_system("D4"), "D4")
    elapsed = time.perf_counter() - t0
    _assert_all(checks)
    assert any(c.detail == "3424 pairs" for c in checks)
    # every pair of the canonical word of every D4 element; measured
    # 0.8-0.9 s on a 2-core x86-64 host (0.9-1.1 s before the F-free path of
    # lusztig_T), and the budget is about twice that
    assert elapsed < 2.0, f"{elapsed:.1f}s"


def test_14_rank4_enumerate():
    t0 = time.perf_counter()
    checks = suite_enumerate(build_root_system("C4"), "C4")
    elapsed = time.perf_counter() - t0
    _assert_all(checks)
    assert any(c.name.startswith("C4: enumerate_polynomial_ideals") for c in checks)
    # every index subset of the canonical word of w0 (2^16 subsets); measured
    # 5.7-5.8 s on a 2-core x86-64 host, and the budget is about twice that
    assert elapsed < 11.0, f"{elapsed:.1f}s"


def test_15_rank4_kostant():
    t0 = time.perf_counter()
    totals = {}
    for label in ("B4", "F4"):
        rs = build_root_system(label)
        weights = [mu for mu in product(range(11), repeat=4) if 0 < sum(mu) <= 10]
        # two calls per weight, as suite_kernel made them
        counts = [kostant_dim(rs, mu) for mu in weights for _ in range(2)]
        totals[label] = (len(weights), sum(counts[::2]), counts[::2] == counts[1::2])
    elapsed = time.perf_counter() - t0
    # the sums match the uncached recursion the counts used before their table
    assert totals == {"B4": (1000, 10621, True), "F4": (1000, 11911, True)}
    # every weight of B4 and F4 up to height 10; measured 0.04-0.05 s each on
    # a 2-core x86-64 host against 8.8 and 13.1 s uncached, and the budget
    # leaves room for a loaded host
    assert elapsed < 1.0, f"{elapsed:.1f}s"


def test_16_rank3_root_vectors():
    t0 = time.perf_counter()
    rs = build_root_system("B3")
    w0 = max(weyl_group(rs), key=lambda g: g.length)
    words = all_reduced_words(w0)
    for letters in words:
        alg = UAlgebra(rs)  # a fresh algebra per word, as one `qborel ls` call builds
        word = ReducedWord(rs, letters)
        assert len(pbw_data(alg, word).free_vectors) == 9
        assert all(x.in_plus() for x in root_vectors(alg, word))
    elapsed = time.perf_counter() - t0
    assert len(words) == 42
    # every reduced word of w0 in B3, 36 lusztig_T calls each; measured
    # 2.3-2.7 s on a 2-core x86-64 host (5.1-5.6 s before the F-free path of
    # lusztig_T), and the budget is about twice that
    assert elapsed < 4.5, f"{elapsed:.1f}s"


def test_17_rank3_serre_echelon():
    t0 = time.perf_counter()
    rs = build_root_system("B3")
    nf = NFContext(rs)
    weights = [mu for mu in product(range(11), repeat=3) if 0 < sum(mu) <= nf.height_bound]
    wrong = [mu for mu in weights if nf.dim_plus(mu) != kostant_dim(rs, mu)]
    elapsed = time.perf_counter() - t0
    assert (nf.height_bound, len(weights), wrong) == (10, 285, [])
    # every weight of B3 up to its default height 10, one fresh echelon;
    # measured 0.9-1.2 s on a 2-core x86-64 host (1.9-2.2 s with a Fraction
    # content and no Laurent closed forms in QRat), and the budget is about
    # twice that
    assert elapsed < 2.5, f"{elapsed:.1f}s"
