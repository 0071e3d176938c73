"""Command line front end: tables, expansions and verification reports.

The verify subcommand drives the same suite functions the test suite
uses, so a regression shows up identically on the terminal and under
pytest.  All output is assembled from deterministically ordered data and
is byte-identical across runs for a fixed command line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import combinations, product
from typing import Optional, Sequence

from .coeffs import ONE, from_int, qpow
from .errors import (
    BadIndex,
    HeightOverflow,
    InvalidCartan,
    InvalidPair,
    NotReduced,
    QBorelError,
)
from .record import Record
from .rootsys import (
    RootSystem,
    bilinear,
    build_root_system,
    load_cartan_file,
    reflect,
    vec_neg,
)
from .weyl import (
    ReducedWord,
    WeylElt,
    all_reduced_words,
    bruhat_le,
    canonical_word,
    inversion_set,
    normalize_reflection_sequence,
    reflection_of_root,
    weyl_bruhat_equiv,
    weyl_group,
)
from .strata import (
    Stratum,
    _fmt_vecs,
    _fmt_word,
    character,
    classify,
    enumerate_strata,
    enumerate_Tw,
    kappa,
    max_admissible_lattice,
)
from .uqplus.free import FreeElt, NFContext, kostant_dim, serre_relation
from .uqplus.full import UAlgebra, lusztig_T
from .uqplus.linalg import SpanSolver
from .uqplus.pbw import (
    char_well_defined,
    enumerate_polynomial_ideals,
    ls_relation,
    pbw_data,
    quotient_is_commutative_polynomial,
)
from .uqplus.hopf import (
    _coassociative,
    _counit_law_holds,
    check_graded_compatibility,
    coideal_check,
    coproduct,
    psi_apply,
    span_is_Q_graded,
    twist_generators,
)


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 2."""


class RunConfig(Record):
    __slots__ = _fields = ("rs", "label", "word_sel", "height", "fmt", "suite")

    rs: RootSystem
    label: str
    word_sel: str
    height: Optional[int]
    fmt: str
    suite: str

    def __init__(self, rs, label, word_sel, height, fmt, suite):
        self._fill(rs, label, word_sel, height, fmt, suite)


class Check(Record):
    """One verdict of a suite; unhashable."""

    __slots__ = _fields = ("name", "ok", "detail")
    __hash__ = None

    name: str
    ok: bool
    detail: str

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self._fill(name, ok, detail)


# ---------------------------------------------------------------------------
# flag handling


def _config(args: argparse.Namespace) -> RunConfig:
    cartan_file = getattr(args, "cartan_file", None)
    type_str = getattr(args, "type", None)
    if cartan_file is not None:
        rs = load_cartan_file(cartan_file)
        label = type_str or "custom"
    elif type_str is not None:
        rs = build_root_system(type_str)
        label = type_str
    else:
        raise UsageError("one of --type or --cartan-file is required")
    height = getattr(args, "height", None)
    if height is not None and height < 1:
        raise UsageError(f"--height must be at least 1, got {height}")
    word_sel = getattr(args, "word", None)
    return RunConfig(
        rs=rs,
        label=label,
        word_sel="w0" if word_sel is None else word_sel,
        height=height,
        fmt=getattr(args, "format", "tsv"),
        suite=getattr(args, "suite", "all"),
    )


def _longest_element(rs: RootSystem) -> WeylElt:
    """w0, the one element that sends 2 rho to -2 rho."""
    return WeylElt(rs, vec_neg(rs.two_rho))


def _parse_word(rs: RootSystem, text: str) -> ReducedWord:
    try:
        letters = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise UsageError(f"cannot parse word {text!r}: expected comma-separated integers")
    if not letters:
        raise UsageError("empty word")
    return ReducedWord(rs, letters)


def _selected_words(cfg: RunConfig) -> list[ReducedWord]:
    if cfg.word_sel == "w0":
        return [ReducedWord(cfg.rs, canonical_word(_longest_element(cfg.rs)))]
    if cfg.word_sel == "all":
        return [ReducedWord(cfg.rs, canonical_word(g)) for g in weyl_group(cfg.rs)]
    return [_parse_word(cfg.rs, cfg.word_sel)]


def _emit(cfg: RunConfig, doc, tsv_text: str) -> None:
    if cfg.fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(tsv_text, end="")


# ---------------------------------------------------------------------------
# plain subcommands


def cmd_roots(cfg: RunConfig) -> int:
    rs = cfg.rs
    doc = {
        "type": cfg.label,
        "cartan": [list(r) for r in rs.cartan],
        "d": list(rs.d),
        "pos_roots": [{"root": list(b), "height": sum(b)} for b in rs.pos_roots],
    }
    lines = [f"# type {cfg.label}\trank {rs.rank}"]
    lines.append("index\troot\theight")
    for k, b in enumerate(rs.pos_roots, start=1):
        lines.append(f"{k}\t({','.join(str(c) for c in b)})\t{sum(b)}")
    _emit(cfg, doc, "\n".join(lines) + "\n")
    return 0


def cmd_weyl(cfg: RunConfig) -> int:
    rs = cfg.rs
    if cfg.word_sel in ("all",):
        group = weyl_group(rs)
        doc = {
            "type": cfg.label,
            "order": len(group),
            "elements": [
                {
                    "word": list(canonical_word(g)),
                    "length": g.length,
                    "num_reduced_words": len(all_reduced_words(g)),
                }
                for g in group
            ],
        }
        lines = [f"# type {cfg.label}\torder {len(group)}"]
        lines.append("word\tlength\treduced_words")
        for e in doc["elements"]:
            lines.append(f"{_fmt_word(e['word'])}\t{e['length']}\t{e['num_reduced_words']}")
        _emit(cfg, doc, "\n".join(lines) + "\n")
        return 0
    word = _selected_words(cfg)[0]
    g = word.element
    inv = inversion_set(g)
    doc = {
        "type": cfg.label,
        "word": list(word.letters),
        "canonical": list(canonical_word(g)),
        "length": g.length,
        "inversions": [list(b) for b in inv],
        "left_descents": g.left_descents(),
        "num_reduced_words": len(all_reduced_words(g)),
    }
    lines = [f"# type {cfg.label}\tword {_fmt_word(word.letters)}"]
    lines.append(f"canonical\t{_fmt_word(doc['canonical'])}")
    lines.append(f"length\t{g.length}")
    lines.append(f"inversions\t{_fmt_vecs(inv)}")
    lines.append(f"left_descents\t{_fmt_word(doc['left_descents'])}")
    lines.append(f"reduced_words\t{doc['num_reduced_words']}")
    _emit(cfg, doc, "\n".join(lines) + "\n")
    return 0


def cmd_strata(cfg: RunConfig) -> int:
    entries = []
    for word in _selected_words(cfg):
        strata = enumerate_strata(word)
        entries.append(
            {
                "word": list(word.letters),
                "strata": [
                    {
                        "theta_indices": list(st.theta.indices),
                        "theta_roots": [list(b) for b in st.theta.roots],
                        "y_word": list(canonical_word(st.y)),
                        "dim": st.dim,
                    }
                    for st in strata
                ],
            }
        )
    doc = {"type": cfg.label, "entries": entries}
    lines = []
    for e in entries:
        lines.append(f"# type {cfg.label}\tword {_fmt_word(e['word'])}")
        lines.append("theta_indices\ttheta_roots\ty_word\tdim")
        for st in e["strata"]:
            lines.append(
                f"{_fmt_word(st['theta_indices'])}\t{_fmt_vecs(st['theta_roots'])}"
                f"\t{_fmt_word(st['y_word'])}\t{st['dim']}"
            )
    _emit(cfg, doc, "\n".join(lines) + "\n")
    return 0


def cmd_classify(cfg: RunConfig) -> int:
    words = _selected_words(cfg)
    reports = [classify(word, cfg.label) for word in words]
    if cfg.fmt == "json":
        doc = [r.to_json_obj() for r in reports]
        print(json.dumps(doc[0] if len(doc) == 1 else doc, indent=2))
    else:
        print("".join(r.to_tsv() for r in reports), end="")
    return 0


def cmd_ls(cfg: RunConfig, i: int, j: int) -> int:
    if cfg.word_sel == "all":
        raise UsageError('ls takes one word: give --word as comma-separated letters or "w0"')
    word = _selected_words(cfg)[0]
    alg = UAlgebra(cfg.rs, cfg.height)
    v = ls_relation(alg, word, i, j)
    doc = {
        "type": cfg.label,
        "word": list(word.letters),
        "i": i,
        "j": j,
        "lhs": v.to_json_obj(),
    }
    _emit(cfg, doc, v.render() + "\n")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    checks = run_suite(cfg.suite, cfg.rs, cfg.label, cfg.height)
    passed = sum(1 for c in checks if c.ok)
    doc = {
        "type": cfg.label,
        "suite": cfg.suite,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "passed": passed,
        "total": len(checks),
        "ok": passed == len(checks),
    }
    lines = []
    for c in checks:
        if c.ok:
            lines.append(f"PASS {c.name}" + (f" ({c.detail})" if c.detail else ""))
        else:
            lines.append(f"FAIL {c.name}" + (f": {c.detail}" if c.detail else ""))
    lines.append(f"# suite {cfg.suite} on {cfg.label}: {passed}/{len(checks)} checks passed")
    _emit(cfg, doc, "\n".join(lines) + "\n")
    return 0 if passed == len(checks) else 1


# ---------------------------------------------------------------------------
# verification suites

# the root system whose worked examples suite_strata and suite_ls add,
# however its type string was spelled
_A2_CARTAN = ((2, -1), (-1, 2))


def suite_strata(rs: RootSystem, label: str, alg: Optional[UAlgebra] = None) -> list[Check]:
    """Exhaustive stratification checks over the whole Weyl group."""
    closure_ok = True
    bij_ok = True
    dims_ok = True
    ends_ok = True
    n_words = 0
    for g in weyl_group(rs):
        for letters in all_reduced_words(g):
            word = ReducedWord(rs, letters)
            thetas = enumerate_Tw(word)
            n_words += 1
            idx_sets = {th.indices for th in thetas}
            for th in thetas:
                for r in range(len(th.indices)):
                    for sub in combinations(th.indices, r):
                        if sub not in idx_sets:
                            closure_ok = False
            ys = [kappa(th) for th in thetas]
            if len(set(ys)) != len(thetas):
                bij_ok = False
            sets = [set(th.indices) for th in thetas]
            for set1, y1 in zip(sets, ys):
                for set2, y2 in zip(sets, ys):
                    if set1 <= set2 and not bruhat_le(y2, y1):
                        bij_ok = False
            for st in map(Stratum, thetas):
                if st.dim != g.length - st.y.length:
                    dims_ok = False
            if rs.rank == 2:
                t = len(letters)
                if any(not set(th.indices) <= {1, t} for th in thetas):
                    ends_ok = False
    checks = [
        Check(f"{label}: T^w closed under subsets", closure_ok, f"{n_words} words"),
        Check(f"{label}: kappa is an order-reversing bijection onto W^w", bij_ok),
        Check(f"{label}: stratum dimensions equal l(w) - l(w_Theta)", dims_ok),
    ]
    if rs.rank == 2:
        checks.append(Check(f"{label}: rank-2 admissible sets use only the end roots", ends_ok))
    if rs.cartan == _A2_CARTAN:
        w0 = _longest_element(rs)
        word = ReducedWord(rs, canonical_word(w0))
        strata = enumerate_strata(word)
        dims = sorted(st.dim for st in strata)
        images = {canonical_word(st.y) for st in strata}
        checks.append(Check(f"{label}: w0 has exactly 3 strata", len(strata) == 3, f"found {len(strata)}"))
        checks.append(Check(f"{label}: w0 stratum dimensions are 0,1,1", dims == [0, 1, 1]))
        checks.append(
            Check(
                f"{label}: W^{{w0}} = {{w0, s2 s1, s1 s2}}",
                images == {(1, 2, 1), (2, 1), (1, 2)},
            )
        )
    return checks


def suite_ls(rs: RootSystem, label: str, alg: Optional[UAlgebra] = None) -> list[Check]:
    """Straightening relations: support and weight constraints for all i<j."""
    alg = alg or UAlgebra(rs)
    shape_ok = True
    weight_ok = True
    n_pairs = 0
    for g in weyl_group(rs):
        if g.length < 2:
            continue
        word = ReducedWord(rs, canonical_word(g))
        betas = word.roots
        t = len(betas)
        for i in range(1, t + 1):
            for j in range(i + 1, t + 1):
                v = ls_relation(alg, word, i, j)
                n_pairs += 1
                target = tuple(a + b for a, b in zip(betas[i - 1], betas[j - 1]))
                for a in v.terms:
                    if any(a[k] for k in range(t) if k + 1 <= i or k + 1 >= j):
                        shape_ok = False
                    wt = tuple(
                        sum(a[k] * betas[k][c] for k in range(t)) for c in range(rs.rank)
                    )
                    if wt != target:
                        weight_ok = False
    checks = [
        Check(f"{label}: ls_relation supported strictly between i and j", shape_ok, f"{n_pairs} pairs"),
        Check(f"{label}: ls_relation terms have weight beta_i + beta_j", weight_ok),
    ]
    if rs.cartan == _A2_CARTAN:
        word = ReducedWord(rs, (1, 2, 1))
        checks.append(Check(f"{label}: ls_relation(1,2) vanishes", ls_relation(alg, word, 1, 2).is_zero()))
    return checks


def _suite_words(rs: RootSystem) -> list[ReducedWord]:
    # rank 2: every element; rank >= 3: just the longest element
    if rs.rank <= 2:
        return [ReducedWord(rs, canonical_word(g)) for g in weyl_group(rs)]
    return [ReducedWord(rs, canonical_word(_longest_element(rs)))]


def suite_quotient(rs: RootSystem, label: str, alg: Optional[UAlgebra] = None) -> list[Check]:
    """P_Theta quotients are commutative polynomial rings for admissible Theta."""
    alg = alg or UAlgebra(rs)
    ok = True
    bad = ""
    n = 0
    for word in _suite_words(rs):
        for th in enumerate_Tw(word):
            n += 1
            if not quotient_is_commutative_polynomial(alg, word, th.indices):
                ok = False
                bad = f"word {_fmt_word(word.letters)} theta {th.indices}"
    scope = "all w" if rs.rank <= 2 else "w0"
    return [Check(f"{label}: quotient by P_Theta is commutative polynomial ({scope})", ok, bad or f"{n} quotients")]


def suite_enumerate(rs: RootSystem, label: str, alg: Optional[UAlgebra] = None) -> list[Check]:
    """Blind search over all index subsets lands exactly on the admissible sets."""
    alg = alg or UAlgebra(rs)
    ok = True
    bad = ""
    for word in _suite_words(rs):
        found = enumerate_polynomial_ideals(alg, word)
        expected = sorted(
            (th.indices for th in enumerate_Tw(word)),
            key=lambda s: (len(s), s),
        )
        if list(found) != expected:
            ok = False
            bad = f"word {_fmt_word(word.letters)}"
    scope = "all w" if rs.rank <= 2 else "w0"
    return [Check(f"{label}: enumerate_polynomial_ideals = T^w ({scope})", ok, bad)]


def suite_characters(rs: RootSystem, label: str, alg: Optional[UAlgebra] = None) -> list[Check]:
    """Symbolic characters extend exactly on the admissible subsets."""
    alg = alg or UAlgebra(rs)
    dichotomy_ok = True
    orth_ok = True
    bad = ""
    n = 0
    for word in _suite_words(rs):
        admissible = {th.indices for th in enumerate_Tw(word)}
        t = len(word.letters)
        betas = word.roots
        for r in range(t + 1):
            for S in combinations(range(1, t + 1), r):
                n += 1
                well = char_well_defined(alg, word, S)
                if well != (S in admissible):
                    dichotomy_ok = False
                    bad = f"word {_fmt_word(word.letters)} S={S}"
                if well:
                    for a in range(len(S)):
                        for b in range(a + 1, len(S)):
                            if bilinear(rs, betas[S[a] - 1], betas[S[b] - 1]) != 0:
                                orth_ok = False
    scope = "all w" if rs.rank <= 2 else "w0"
    return [
        Check(f"{label}: char_well_defined iff S in T^w ({scope})", dichotomy_ok, bad or f"{n} subsets"),
        Check(f"{label}: well-defined characters live on orthogonal roots", orth_ok),
    ]


def suite_weyl(rs: RootSystem, label: str, alg: Optional[UAlgebra] = None) -> list[Check]:
    """Weyl group toolkit: descent test agreement and chain normalization."""
    rng = random.Random(20260814)
    group = weyl_group(rs)
    checks = []
    agree_ok = True
    if rs.rank <= 2:
        cases = [(u, beta) for u in group for beta in rs.pos_roots]
        scope = f"exhaustive, {len(cases)} cases"
    else:
        cases = [(rng.choice(group), rng.choice(rs.pos_roots)) for _ in range(1000)]
        scope = "1000 random cases"
    for u, beta in cases:
        c1, c2, c3 = weyl_bruhat_equiv(u, beta)
        if not (c1 == c2 == c3):
            agree_ok = False
    checks.append(Check(f"{label}: the three descent tests agree", agree_ok, scope))
    if rs.rank >= 3:
        chain_ok = True
        made = 0
        attempts = 0
        candidates = [g for g in group if g.length >= 4]
        while made < 100 and attempts < 4000:
            attempts += 1
            m = rng.randint(2, 4)
            w = rng.choice(candidates)
            seq = []
            x = w
            dead = False
            for _ in range(m):
                shorter = x.length - 1
                # only a root in the inversion set of x, (beta, x(2 rho)) < 0, can shorten x
                steps = ((b, reflection_of_root(rs, b) * x) for b in inversion_set(x))
                opts = [(b, y) for b, y in steps if y.length == shorter]
                if not opts:
                    dead = True
                    break
                b, x = rng.choice(opts)
                seq.append(b)
            if dead:
                continue
            if all(
                bilinear(rs, seq[i], seq[j]) == 0
                for i in range(m)
                for j in range(i + 1, m)
            ):
                continue
            made += 1
            out = normalize_reflection_sequence(w, seq)
            if len(out) != m:
                chain_ok = False
            if bilinear(rs, out[0], out[1]) == 0:
                chain_ok = False
            p_in = w
            for b in seq:
                p_in = reflection_of_root(rs, b) * p_in
            p_out = w
            for b in out:
                p_out = reflection_of_root(rs, b) * p_out
            if p_in != p_out:
                chain_ok = False
        checks.append(
            Check(
                f"{label}: normalize_reflection_sequence postconditions",
                chain_ok and made == 100,
                f"{made} chains",
            )
        )
    return checks


def _rand_coeff(rng: random.Random):
    return from_int(rng.randint(1, 5)) * qpow(rng.randint(-2, 2))


def _rand_elt(alg: UAlgebra, rng: random.Random, hmax: int):
    rs = alg.rs
    x = alg.zero()
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, hmax)))
        mu = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
        term = alg.K(mu)
        for i in w:
            term = term * alg.E(i)
        x = x + term.scale(_rand_coeff(rng))
    return x


def _rand_plus(alg: UAlgebra, rng: random.Random, hmax: int):
    # nonzero homogeneous element of U+ of height <= hmax, or None
    ht = rng.randint(0, hmax)
    w = tuple(rng.randint(1, alg.rs.rank) for _ in range(ht))
    comp = alg.nf.complement_basis(alg._wt(w))
    if not comp:
        return None
    return alg.from_free(FreeElt({wd: _rand_coeff(rng) for wd in comp}))


def suite_hopf(rs: RootSystem, label: str, alg: Optional[UAlgebra] = None) -> list[Check]:
    """Coproduct laws, the psi flip and the twisted coideal subalgebras."""
    alg = alg or UAlgebra(rs)
    # samples and spans stay inside the height bound (2 for A1, at least 4 above it)
    h = min(4, alg.nf.height_bound)
    rng = random.Random(20260814)
    coassoc_ok = True
    counit_ok = True
    for _ in range(25):
        x = _rand_elt(alg, rng, h)
        # both laws read one coproduct
        t = coproduct(alg, x)
        if not _coassociative(alg, t):
            coassoc_ok = False
        if not _counit_law_holds(x, t):
            counit_ok = False
    graded_ok = True
    n_graded = 0
    while n_graded < 25:
        x = _rand_plus(alg, rng, h)
        if x is None:
            continue
        beta = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
        n_graded += 1
        if not check_graded_compatibility(alg, x * alg.K(beta)):
            graded_ok = False
    psi_ok = True
    n_pairs = 0
    while n_pairs < 100:
        x = _rand_plus(alg, rng, h // 2)
        y = _rand_plus(alg, rng, h // 2)
        if x is None or y is None:
            continue
        n_pairs += 1
        if psi_apply(alg, x * y) != psi_apply(alg, x) * psi_apply(alg, y):
            psi_ok = False
    checks = [
        Check(f"{label}: coproduct is coassociative", coassoc_ok, f"25 samples, height <= {h}"),
        Check(f"{label}: counit law holds", counit_ok),
        Check(f"{label}: coproduct respects the bigrading", graded_ok, "25 homogeneous samples"),
        Check(f"{label}: psi is multiplicative", psi_ok, f"{n_pairs} pairs"),
    ]
    coideal_ok = True
    graded_span_ok = True
    n_strata = 0
    n_skipped = 0
    bad = ""
    for word in _suite_words(rs):
        if any(sum(b) > h for b in word.roots):
            n_skipped += 1
            continue
        for st in enumerate_strata(word):
            ch = character(st, {b: ONE for b in st.theta.roots})
            L = max_admissible_lattice(ch)
            gens = twist_generators(alg, ch, L)
            n_strata += 1
            if not coideal_check(alg, gens, h):
                coideal_ok = False
                bad = f"word {_fmt_word(word.letters)} theta {st.theta.indices}"
            if not span_is_Q_graded(alg, gens, h):
                graded_span_ok = False
    note = f"{n_strata} strata"
    if n_skipped:
        note += f", {n_skipped} words beyond the height budget skipped"
    checks.append(Check(f"{label}: twisted generators pass coideal_check at h={h}", coideal_ok, bad or note))
    checks.append(Check(f"{label}: twisted spans are graded by the K-exponent", graded_span_ok,
                        "" if n_strata else "0 strata"))
    return checks


def _serre_image(alg: UAlgebra, a: int, i: int, j: int, kind: str, inverse: bool):
    out = alg.zero()
    for w, c in serre_relation(alg.rs, i, j).terms.items():
        t = alg.one().scale(c)
        for letter in w:
            gen = alg.E(letter) if kind == "E" else alg.F(letter)
            t = t * lusztig_T(alg, a, gen, inverse=inverse)
        out = out + t
    return out


def suite_kernel(rs: RootSystem, label: str, alg: Optional[UAlgebra] = None) -> list[Check]:
    """Braid symmetries on the defining relations and the PBW dimensions."""
    alg = alg or UAlgebra(rs)
    n = rs.rank
    rel_ok = True
    inv_ok = True
    for a in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                # EF commutator: T of the normalized relation, and T as an
                # algebra map on both sides separately
                lhs = alg.E(i) * alg.F(j) - alg.F(j) * alg.E(i)
                if i == j:
                    d = (alg.qi(i) - alg.qi(i).inverse()).inverse()
                    ai = rs.simple(i)
                    rhs = (alg.K(ai) - alg.K(vec_neg(ai))).scale(d)
                else:
                    rhs = alg.zero()
                if not lusztig_T(alg, a, lhs - rhs).is_zero():
                    rel_ok = False
                tl = lusztig_T(alg, a, alg.E(i)) * lusztig_T(alg, a, alg.F(j)) - lusztig_T(
                    alg, a, alg.F(j)
                ) * lusztig_T(alg, a, alg.E(i))
                if tl != lusztig_T(alg, a, rhs):
                    rel_ok = False
                if i != j:
                    for kind, inverse in product(("E", "F"), (False, True)):
                        if not _serre_image(alg, a, i, j, kind, inverse).is_zero():
                            rel_ok = False
        for i in range(1, n + 1):
            mu = rs.simple(i)
            if lusztig_T(alg, a, alg.K(mu)) != alg.K(reflect(rs, rs.simple(a), mu)):
                rel_ok = False
        gens = (
            [alg.E(i) for i in range(1, n + 1)]
            + [alg.F(i) for i in range(1, n + 1)]
            + [alg.K(rs.simple(i)) for i in range(1, n + 1)]
            + [alg.K(vec_neg(rs.simple(i))) for i in range(1, n + 1)]
        )
        for g in gens:
            if lusztig_T(alg, a, lusztig_T(alg, a, g, inverse=True)) != g:
                inv_ok = False
            if lusztig_T(alg, a, lusztig_T(alg, a, g), inverse=True) != g:
                inv_ok = False
    checks = [
        Check(f"{label}: lusztig_T kills every defining relation", rel_ok),
        Check(f"{label}: lusztig_T and its inverse cancel on generators", inv_ok),
    ]

    word = ReducedWord(rs, canonical_word(_longest_element(rs)))
    data = pbw_data(alg, word)
    bound = alg.nf.height_bound
    indep_ok = True
    span_ok = True
    kostant_ok = True
    n_weights = 0
    for mu in product(range(bound + 1), repeat=n):
        if not 0 < sum(mu) <= bound:
            continue
        exps = data.exponents_of_weight(mu)
        dim = alg.nf.dim_plus(mu)
        n_weights += 1
        count = kostant_dim(rs, mu)
        if len(exps) != count or dim != count:
            kostant_ok = False
        solver = SpanSolver()
        for a in exps:
            if not solver.insert(dict(data.monomial(a).terms)):
                indep_ok = False
        if solver.rank != dim:
            span_ok = False
    checks.append(
        Check(f"{label}: PBW monomials are linearly independent", indep_ok, f"{n_weights} weights")
    )
    checks.append(Check(f"{label}: PBW monomials span each weight component", span_ok))
    checks.append(
        Check(f"{label}: PBW count = Kostant count = echelon dimension", kostant_ok)
    )
    return checks


SUITES = {
    "strata": suite_strata,
    "ls": suite_ls,
    "quotient": suite_quotient,
    "enumerate": suite_enumerate,
    "characters": suite_characters,
    "weyl": suite_weyl,
    "hopf": suite_hopf,
    "kernel": suite_kernel,
}


def run_suite(name: str, rs: RootSystem, label: str, height: Optional[int] = None) -> list[Check]:
    """Run one suite, or every suite in order, on one shared algebra."""
    if name != "all" and name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    alg = UAlgebra(rs, height)
    out: list[Check] = []
    for key in SUITES if name == "all" else (name,):
        out.extend(SUITES[key](rs, label, alg))
    return out


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", help="type string such as A2, B3, G2")
    common.add_argument("--cartan-file", help="JSON file holding a Cartan matrix")
    common.add_argument("--height", type=int, help="height bound for the algebra kernel")
    common.add_argument(
        "--format", choices=("json", "tsv"), default="tsv", help="output format"
    )
    wordful = argparse.ArgumentParser(add_help=False)
    wordful.add_argument("--word", help='comma-separated word, "w0" or "all"')

    parser = argparse.ArgumentParser(
        prog="qborel",
        description="Exact classification tools for quantum Borel algebras.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("roots", parents=[common], help="positive roots of the type")
    p.set_defaults(func=lambda cfg, a: cmd_roots(cfg))

    p = sub.add_parser("weyl", parents=[common, wordful], help="Weyl group data")
    p.set_defaults(func=lambda cfg, a: cmd_weyl(cfg))

    p = sub.add_parser("strata", parents=[common, wordful], help="admissible sets and strata")
    p.set_defaults(func=lambda cfg, a: cmd_strata(cfg))

    p = sub.add_parser("classify", parents=[common, wordful], help="full classification table")
    p.set_defaults(func=lambda cfg, a: cmd_classify(cfg))

    p = sub.add_parser("ls", parents=[common, wordful], help="straightening relation i<j")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=lambda cfg, a: cmd_ls(cfg, a.i, a.j))

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", default="all", help=f"one of {', '.join(SUITES)} or all")
    p.set_defaults(func=lambda cfg, a: cmd_verify(cfg))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        # one RunConfig per run: a Cartan file on a pipe can be read only once
        cfg = _config(args)
        return args.func(cfg, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotReduced as exc:
        print(f"error: word not reduced ({exc})", file=sys.stderr)
        return 2
    except (InvalidCartan, BadIndex, InvalidPair) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HeightOverflow as exc:
        # raised by the algebra, so after cfg was built
        if cfg.height is None:
            print(f"error: {exc}", file=sys.stderr)
        else:
            default = NFContext(cfg.rs).height_bound
            print(f"error: {exc}; omit --height to use the default {default}", file=sys.stderr)
        return 2
    except QBorelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
