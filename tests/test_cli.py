"""End-to-end checks of the command line interface via main(argv)."""

import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc

import pytest

import qborel
from qborel import cli
from qborel.cli import main
from qborel.errors import HeightOverflow
from qborel.weyl import weyl_group


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_python_m_qborel_runs_the_cli(capsys):
    argv = ["verify", "--type", "A1", "--suite", "weyl"]
    src = os.path.dirname(os.path.dirname(qborel.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qborel", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert (proc.returncode, proc.stdout) == (code, out)


def test_classify_tsv(capsys):
    code, out, err = run(capsys, "classify", "--type", "A2", "--word", "1,2,1")
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "# type A2\tword 1,2,1"
    assert lines[1].split("\t") == ["y_word", "theta_roots", "dim", "Lmax_basis"]
    body = [ln for ln in lines[2:] if ln and not ln.startswith("#")]
    assert len(body) == 3
    assert [ln.split("\t")[2] for ln in body] == ["0", "1", "1"]


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--type", "A2", "--word", "1,2,1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "A2"
    assert {r["dim"] for r in doc["rows"]} == {0, 1}
    assert len(doc["rows"]) == 3
    assert doc["totals"] == {"T_w": 3, "W_w": 3}


def test_classify_all_words(capsys):
    code, out, _ = run(capsys, "classify", "--type", "A1", "--word", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 2


def test_classify_rejects_non_reduced(capsys):
    code, out, err = run(capsys, "classify", "--type", "A2", "--word", "1,1")
    assert code == 2
    assert "not reduced" in err


def test_verify_unknown_type(capsys):
    code, _, err = run(capsys, "verify", "--type", "Z9")
    assert code == 2
    assert "Z9" in err


def test_verify_ls_suite(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A2", "--suite", "ls")
    assert code == 0
    assert "3/3" in out
    assert all(ln.startswith(("PASS", "#")) for ln in out.strip().splitlines())


def test_verify_strata_suite_b2(capsys):
    code, out, _ = run(capsys, "verify", "--type", "B2", "--suite", "strata")
    assert code == 0
    assert "4/4" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--type", "A2", "--suite", "nope")
    assert code == 2
    assert "nope" in err


def test_ls_tsv(capsys):
    code, out, _ = run(capsys, "ls", "--type", "A2", "1", "2")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "ls", "--type", "A2", "1", "3")
    assert code == 0
    assert out.strip() == "(1)*E[2]"


def test_ls_bad_indices(capsys):
    code, _, err = run(capsys, "ls", "--type", "A2", "3", "1")
    assert code == 2
    assert err


@pytest.mark.parametrize("command", ["weyl", "strata", "classify", "ls"])
def test_an_empty_word_is_refused(capsys, command):
    # an explicit empty --word is the same error as a word of no letters,
    # not a silent w0
    extra = ["1", "2"] if command == "ls" else []
    for word in ("", ","):
        code, out, err = run(capsys, command, "--type", "B2", "--word", word, *extra)
        assert (code, out, err) == (2, "", "error: empty word\n"), word


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--type", "A1", "--suite", ""], "error: unknown suite ''"),
        (["verify", "--type", "", "--suite", "weyl"], "error: cannot parse type string ''"),
        (["roots", "--type", ""], "error: cannot parse type string ''"),
        (["roots", "--cartan-file", "", "--type", "A2"], "error: cannot read Cartan file "),
    ],
)
def test_an_explicit_empty_flag_is_refused(capsys, argv, message):
    # an empty value is an error, never the flag's default nor a missing flag
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(message), err


def test_an_empty_cartan_file_path_is_quoted(capsys):
    # the path is quoted, so that an empty one is still visible in the message
    code, out, err = run(capsys, "roots", "--cartan-file", "", "--type", "A2")
    assert (code, out, err) == (2, "", "error: cannot read Cartan file '': No such file or directory\n")


@pytest.mark.parametrize("suite, count", [("strata", 7), ("ls", 3)])
def test_a2_checks_do_not_depend_on_the_spelling_of_the_type(capsys, suite, count):
    # the worked A2 examples are chosen by the Cartan matrix, not the label
    for label in ("A2", "a2", "A02"):
        code, out, _ = run(capsys, "verify", "--type", label, "--suite", suite)
        assert code == 0
        assert out.splitlines()[-1] == f"# suite {suite} on {label}: {count}/{count} checks passed"
        # every check line, the worked A2 examples too, names the run's label
        checks = out.splitlines()[:-1]
        assert len(checks) == count
        assert all(line.startswith(f"PASS {label}: ") for line in checks), out


def test_a_type_string_of_unbounded_rank_exits_2_in_bounded_memory():
    # under a 1.5 GB address-space limit and a timeout, so that a
    # regression fails instead of hanging
    def limit():
        cap = 1536 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(qborel.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qborel", "roots", "--type", "A99999999999999999999"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=limit,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: type string 'A99999999999999999999': rank above")


def test_ls_refuses_every_word(capsys):
    # "all" would run the identity's empty word, where no pair i < j exists
    code, out, err = run(capsys, "ls", "--type", "B2", "--word", "all", "1", "2")
    assert (code, out) == (2, "")
    assert err == 'error: ls takes one word: give --word as comma-separated letters or "w0"\n'


def test_ls_json(capsys):
    code, out, _ = run(capsys, "ls", "--type", "A2", "1", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["i"] == 1 and doc["j"] == 3
    assert doc["lhs"]["terms"][0]["exponents"] == [0, 1, 0]


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--type", "B2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["height"] for r in doc["pos_roots"]] == [1, 1, 2, 3]
    assert doc["d"] == [1, 2]


def test_weyl_summary_and_detail(capsys):
    code, out, _ = run(capsys, "weyl", "--type", "A2", "--word", "all",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 6
    code, out, _ = run(capsys, "weyl", "--type", "A2", "--format", "json")
    doc = json.loads(out)
    assert doc["length"] == 3
    assert doc["num_reduced_words"] == 2


def test_strata_default_word(capsys):
    code, out, _ = run(capsys, "strata", "--type", "A2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 1
    assert len(doc["entries"][0]["strata"]) == 3


def _matrices(w):
    """The matrices of w and w^{-1} on simple root coordinates, read off
    act and act_inv: column j holds the image of alpha_j."""
    simples = [w.rs.simple(j) for j in range(1, w.rs.rank + 1)]
    return tuple(zip(*map(w.act, simples))), tuple(zip(*map(w.act_inv, simples)))


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2", "D4", "F4"])
def test_longest_element_matches_the_group_enumeration(label):
    rs = qborel.build_root_system(label)
    w0 = cli._longest_element(rs)
    assert w0 == weyl_group(rs)[-1]
    assert _matrices(w0) == _matrices(weyl_group(rs)[-1])


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", "--type", "A2", "--suite", "strata")
    _, out2, _ = run(capsys, "verify", "--type", "A2", "--suite", "strata")
    assert out1 == out2


def test_missing_type(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 2
    assert "--type" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate", "--type", "A2")
    assert code == 2


def test_cartan_file(tmp_path, capsys):
    p = tmp_path / "cartan.json"
    p.write_text(json.dumps([[2, -1], [-1, 2]]))
    code, out, _ = run(capsys, "roots", "--cartan-file", str(p),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pos_roots"]) == 3


@pytest.mark.parametrize(
    "content",
    [
        None,  # the file does not exist
        "[[2, -1], [-1, 2]",
        '{"cartan": [[2, -1], [-1, 2]]}',
        '[["2", "-1"], ["-1", "2"]]',
        "[[2, -1.7], [-1, 2]]",
    ],
    ids=["missing", "not-json", "object", "string-entries", "float-entry"],
)
def test_bad_cartan_file_is_usage_error(tmp_path, capsys, content):
    p = tmp_path / "cartan.json"
    if content is not None:
        p.write_text(content)
    code, out, err = run(capsys, "roots", "--cartan-file", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_bad_word_parse(capsys):
    code, _, err = run(capsys, "weyl", "--type", "A2", "--word", "1,x")
    assert code == 2
    assert err


@pytest.mark.parametrize("argv", [
    ("ls", "--type", "A2", "--height", "0", "1", "3"),
    ("ls", "--type", "A2", "--height", "-1", "1", "3"),
    ("ls", "--type", "A2", "--height", "1", "1", "3"),
    ("verify", "--type", "A2", "--suite", "ls", "--height", "1"),
])
def test_height_too_small_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_height_overflow_names_the_default_bound(capsys):
    code, out, err = run(capsys, "verify", "--type", "B2", "--suite", "kernel", "--height", "2")
    assert code == 2
    assert out == ""
    # the default is twice the highest root height of B2, 2 * 3
    assert err == (
        "error: weight (2, 1) needs height 3, above the bound 2; omit --height to use the default 6\n"
    )


def test_height_overflow_without_height_names_no_default(capsys, monkeypatch):
    # "omit --height" is advice only for a run that gave --height
    def overflow(rs, label, alg):
        raise HeightOverflow("weight (3,) needs height 3, above the bound 2")

    monkeypatch.setitem(cli.SUITES, "hopf", overflow)
    code, out, err = run(capsys, "verify", "--type", "A1", "--suite", "hopf")
    assert (code, out) == (2, "")
    assert err == "error: weight (3,) needs height 3, above the bound 2\n"


def test_verify_all_on_a1_stays_inside_the_default_height(capsys):
    # A1's default height bound is 2, below the suite_hopf samples' 4
    code, out, err = run(capsys, "verify", "--type", "A1", "--suite", "all")
    assert (code, err) == (0, "")
    *checks, summary = out.splitlines()
    assert checks and all(line.startswith("PASS ") for line in checks)
    assert summary == f"# suite all on A1: {len(checks)}/{len(checks)} checks passed"
    assert "A1: twisted generators pass coideal_check at h=2 (3 strata)" in out


def test_hopf_on_b3_names_its_zero_strata(capsys):
    # B3's one word (w0) has a root of height 5, so no stratum is tested at h=4
    code, out, err = run(capsys, "verify", "--type", "B3", "--suite", "hopf")
    assert (code, err) == (0, "")
    assert "PASS B3: twisted generators pass coideal_check at h=4 (0 strata, " in out
    assert "PASS B3: twisted spans are graded by the K-exponent (0 strata)\n" in out


@pytest.mark.parametrize("argv", [
    ("--type", "A3", "--word", "1,3,2,1", "2", "4"),
    ("--type", "B3", "--word", "1,3,2,1,2", "2", "5"),
])
def test_ls_pair_that_fits_the_height_exits_0(capsys, argv):
    # beta_i + beta_j fits the height, the suffix pair (1, j-i+1) does not
    height = "3" if argv[1] == "A3" else "4"
    code, out, err = run(capsys, "ls", "--height", height, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, "ls", *argv) == (0, out, "")


# sha256 of stdout for one cheap invocation of each subcommand, and for
# `verify --suite all`, whose suites share one algebra; output is
# byte-stable, so a changed digest is a changed result or format
FROZEN = {
    ("roots", "--type", "B2"):
        "e71d000f22137d80060cd67b66a9a819dc4808eb3fa2862c813e7148a613b7fc",
    ("weyl", "--type", "A2", "--word", "all"):
        "9a5570a58de28b71ea445444ab3647ae26f4e46195a0354169e051bc1625ac06",
    ("strata", "--type", "B2"):
        "d82bcfe5848b81ebfb4adb0fe657d4526e4c97d80c88120d6f8c038694b5f41a",
    ("classify", "--type", "A2", "--word", "1,2,1"):
        "0f97b49fe9b98a302e1b9382c8ffbfee8376b8a702031d0c05b00479a9e01d5e",
    ("ls", "--type", "B2", "1", "4"):
        "d0864f5d26de5c0e18f664510bbe7e5817e28a8349e64771c1ab8dd06a55716c",
    ("verify", "--type", "A2", "--suite", "hopf", "--format", "json"):
        "f0fa93e4b196759d6e7dff03bb80a05dffb9a7821fceffab9f114d4b41923426",
    ("verify", "--type", "A2", "--suite", "all"):
        "c08d8963aab65533e5bd5bf32b5394dcaae21de8e4869a07e3a0fe6912cc71b3",
    ("verify", "--type", "B2", "--suite", "all"):
        "5ceb1b3f81d93e278b95ef23db8fe280ce58547c601b4dca28d5662370ee6e30",
    ("verify", "--type", "G2", "--suite", "all"):
        "56e219d44ea7add5ff21b47e8cc3834b94c84a467b4d998412bf9c2b61644aef",
    ("ls", "--type", "G2", "2", "5"):
        "9bc87583e1cf33a5d469540e704cdca44790d8710332f07f5b5c74978f4a9687",
    ("classify", "--type", "A1", "--word", "all"):
        "7749ad186741074320040d63ec87b8d3a81391dcaecb0809bcc51f43004c058b",
    ("strata", "--type", "A1", "--word", "all"):
        "3da704dccc8c4d7d8976fb48391ddb4064147b6e19556b80098125a668c32690",
}


@pytest.mark.parametrize("argv", list(FROZEN), ids=" ".join)
def test_output_frozen(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN[argv]


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_classify_and_strata_head_each_word_alike(capsys, label):
    # the identity's empty word is "-" in both, as in every other TSV field
    heads = []
    for command in ("classify", "strata"):
        code, out, _ = run(capsys, command, "--type", label, "--word", "all")
        assert code == 0
        heads.append([ln for ln in out.splitlines() if ln.startswith("# type ")])
    assert heads[0] == heads[1]
    assert heads[0][0] == f"# type {label}\tword -"


def test_verify_all_builds_one_algebra(capsys, monkeypatch):
    built = []

    class Counting(cli.UAlgebra):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "UAlgebra", Counting)
    assert run(capsys, "verify", "--type", "A2", "--suite", "all")[0] == 0
    assert len(built) == 1


def test_repeated_verify_keeps_no_memory(capsys):
    # only blocks allocated in qborel's own files count: test libraries may
    # allocate in gc callbacks
    own = [tracemalloc.Filter(True, os.path.join(os.path.dirname(qborel.__file__), "*"))]

    def pinned() -> int:
        gc.collect()
        return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(own).traces)

    tracemalloc.start()
    try:
        start = pinned()
        for _ in range(2):
            assert run(capsys, "verify", "--type", "A2", "--suite", "all")[0] == 0
        kept = pinned() - start
    finally:
        tracemalloc.stop()
    assert kept < 1024
