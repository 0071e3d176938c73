"""The benchmark workloads: fixed lists of operations over public qborel calls.

A workload's ``setup(seed, rep)`` does the set-up a user pays before the
first call (root systems, and for ``ls-rank3`` the reduced word that
repetition ``rep`` runs) and returns ``(inputs, ops)``.  ``ops()`` yields
``(label, thunk)`` pairs in a fixed order; the fresh contexts the
operations share are created while the generator runs, so their cost
falls inside the timed region.  A thunk
returns ``(verdict, render)``: the verdict is the operation's own check and
``render()``, called after timing, turns its output into plain data for
the digest.

Module attributes are looked up at call time (``cli.suite_hopf``, not a
name bound at import), so a traced run sees the tracer's wrappers.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import combinations, product

from qborel import ReducedWord, build_root_system, cli, uqplus
from qborel.weyl import all_reduced_words, weyl_group

# (type, height bound) of each Serre echelon built by serre-echelon
ECHELONS = (("G2", 9), ("B3", 7))


def _suite(name: str, rs, label: str):
    checks = getattr(cli, name)(rs, label)
    return all(c.ok for c in checks), lambda: [[c.name, c.ok, c.detail] for c in checks]


def _suite_ops(plan):
    rs = {label: build_root_system(label) for label, _ in plan}

    def ops():
        for label, name in plan:
            yield f"{label} {name}", partial(_suite, name, rs[label], label)

    return {"types": [label for label, _ in plan]}, ops


def weyl_strata(seed: int, rep: int):
    """Strata over every reduced word of A3; Weyl group checks on A3, B3, C3."""
    return _suite_ops(
        [("A3", "suite_strata"), ("A3", "suite_weyl"), ("B3", "suite_weyl"), ("C3", "suite_weyl")]
    )


def hopf_coideal(seed: int, rep: int):
    """Coproduct laws and twisted coideals on A2 and B2."""
    return _suite_ops([("A2", "suite_hopf"), ("B2", "suite_hopf")])


def _dim_check(ctx, rs, mu):
    ok = ctx.dim_plus(mu) == uqplus.kostant_dim(rs, mu)
    basis = ctx.complement_basis(mu)
    return ok, lambda: [list(w) for w in basis]


def serre_echelon(seed: int, rep: int):
    """dim U+_mu against the Kostant count for every weight up to the height."""
    plan = [(build_root_system(label), label, h) for label, h in ECHELONS]

    def ops():
        for rs, label, h in plan:
            ctx = uqplus.NFContext(rs, h)
            for mu in product(range(h + 1), repeat=rs.rank):
                if 0 < sum(mu) <= h:
                    yield f"{label} h={h} dim_plus{mu}", partial(_dim_check, ctx, rs, mu)

    return {"echelons": [f"{label} h={h}" for label, h in ECHELONS]}, ops


def _root_vector_check(alg, word, betas):
    vectors = uqplus.pbw_data(alg, word).free_vectors
    n = alg.rs.rank
    ok = [v.homogeneous_weight(n) for v in vectors] == list(betas)
    return ok, lambda: [repr(v) for v in vectors]


def _ls_check(alg, word, betas, i, j):
    v = uqplus.ls_relation(alg, word, i, j)
    t = len(betas)
    target = tuple(a + b for a, b in zip(betas[i - 1], betas[j - 1]))
    ok = True
    for a in v.terms:
        if any(a[k] for k in range(t) if not i < k + 1 < j):
            ok = False
        wt = tuple(sum(a[k] * betas[k][c] for k in range(t)) for c in range(len(target)))
        if wt != target:
            ok = False
    return ok, v.render


def reduced_words_of_w0(label: str) -> list[tuple[int, ...]]:
    rs = build_root_system(label)
    w0 = max(weyl_group(rs), key=lambda g: g.length)
    return sorted(all_reduced_words(w0))


def ls_ops(rs, letters):
    """pbw_data, then ls_relation for every pair, on one word and a fresh UAlgebra."""
    word = ReducedWord(rs, letters)
    betas = word.roots
    name = ",".join(map(str, letters))

    def ops():
        alg = uqplus.UAlgebra(rs)
        yield f"B3 {name} pbw_data", partial(_root_vector_check, alg, word, betas)
        for i, j in combinations(range(1, len(letters) + 1), 2):
            yield f"B3 {name} ls({i},{j})", partial(_ls_check, alg, word, betas, i, j)

    return ops


# The reduced words of w0 in B3 that ls-rank3 draws from.  The 42 words fall
# in two clusters of work: at the commit that added this benchmark these 20
# made 266,061-270,312 Q(q) multiplications (``coeffs.mul.calls`` of a traced
# repetition: pbw_data and all 36 ls_relation pairs), the other 22 made
# 229,321-254,757.  Drawing from one cluster lets the seed change the word
# without changing the amount of work by more than 2%.
LS_WORDS = (
    "121321323", "121323123", "123121323", "123123123", "132132132",
    "132132312", "132312132", "132312312", "213213213", "213213231",
    "213231213", "213231231", "231213213", "231213231", "231231213",
    "231231231", "312132132", "312132312", "312312132", "312312312",
)


def ls_rank3(seed: int, rep: int):
    """The seed orders the 20 words of LS_WORDS; repetition rep runs one."""
    words = [tuple(map(int, w)) for w in LS_WORDS]
    random.Random(seed).shuffle(words)
    letters = words[rep % len(words)]
    return {"word": "B3 " + ",".join(map(str, letters))}, ls_ops(build_root_system("B3"), letters)


WORKLOADS = {
    "weyl-strata": weyl_strata,
    "serre-echelon": serre_echelon,
    "ls-rank3": ls_rank3,
    "hopf-coideal": hopf_coideal,
}
