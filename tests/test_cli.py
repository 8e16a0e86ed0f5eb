import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from lcsideals import __version__
from lcsideals.cli import _check_block_cap, _check_degree_cap, main
from lcsideals.series import SpanIdeal, generators_S, m_span


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_containment_report(capsys):
    code, out, _ = run(
        capsys, "containment", "--n", "2", "--tuple", "2,2", "--cutoff", "6"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["index"] == 3
    assert doc["meta"]["tool"] == "lcsideals"
    assert doc["meta"]["n"] == 2
    assert doc["meta"]["cutoff"] == 6
    assert isinstance(doc["meta"]["wall_time_seconds"], float)


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify-identities")
    assert code == 0
    assert all(r["holds"] for r in json.loads(out)["result"])


def test_dims_csv(capsys):
    code, out, _ = run(
        capsys,
        "dims", "--n", "2", "--ideal", "M2", "--max-degree", "3", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "spec,degree,dim"
    assert "M2,3,4" in out


def test_membership_example(capsys):
    code, out, _ = run(
        capsys,
        "membership", "--n", "3",
        "--expr", "[x1,x2]*[x3,[x3,[x3,x1]]]",
        "--ideal", "M5", "--degree", "6",
    )
    assert code == 0
    assert json.loads(out)["result"]["contained"] is True


def test_pbw_degree_command(capsys):
    code, out, _ = run(capsys, "pbw-degree", "--n", "2", "--expr", "[x1,x2]*[x1,x2]")
    assert code == 0
    assert json.loads(out)["result"]["pbw_degree"] == 2


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "--n", "2", "--tuple", "2,2")
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["contained"] is False
    assert doc["pbw_factor_count"] == 2


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "pbw-degree", "--n", "2", "--expr", "x1 + + x2")
    assert code == 1
    assert "error" in err


def test_multi_digit_generator_is_a_parse_error(capsys):
    code, out, err = run(
        capsys, "membership", "--n", "3", "--expr", "x10", "--ideal", "M2"
    )
    assert code == 1
    assert out == ""
    assert "generator index" in err


def test_space_inside_generator_is_a_parse_error(capsys):
    code, out, err = run(
        capsys, "membership", "--n", "2", "--expr", "x 1*x2 - x2*x 1", "--ideal", "M2"
    )
    assert code == 1
    assert out == ""
    assert "generator index" in err


def test_pbw_degree_checks_the_size_cap(capsys):
    word = "*".join(["x1", "x2", "x3"] * 3 + ["x1", "x2"])  # degree 11
    code, out, err = run(capsys, "pbw-degree", "--n", "3", "--expr", word)
    assert code == 1
    assert out == ""
    assert "--force" in err


def test_membership_rejects_negative_degree(capsys):
    code, out, err = run(
        capsys, "membership", "--n", "3", "--expr", "x1", "--ideal", "M2",
        "--degree", "-1",
    )
    assert code == 1
    assert out == ""
    assert "--degree" in err


def test_usage_error_exit_code(capsys):
    assert main(["containment", "--n", "2"]) == 1  # missing --tuple
    capsys.readouterr()
    assert main(["no-such-verb"]) == 1
    capsys.readouterr()


def test_generators_verify_passes(capsys):
    code, out, _ = run(
        capsys, "generators", "--index", "3", "--max-degree", "6", "--verify"
    )
    doc = json.loads(out)
    assert code == 0
    assert all(r["equal"] for r in doc["result"]["verification"])
    # a generator set truncated below the degree of some shapes does lose
    # span (the library exposes that; the CLI always verifies within budget)
    ideal = SpanIdeal(2, generators_S(4, 4))
    assert ideal.span(5).dim < m_span(2, 4, 5).dim


def test_mismatch_exit_code_wiring(capsys, monkeypatch):
    import lcsideals.cli as cli_mod

    monkeypatch.setattr(cli_mod, "verify_identity", lambda name, n: False)
    code, out, _ = run(capsys, "verify-identities")
    assert code == 2
    assert not any(r["holds"] for r in json.loads(out)["result"])


def test_out_file_and_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run(
            capsys,
            "containment", "--n", "2", "--tuple", "2,3", "--out", str(p),
        )
        assert code == 0
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    a["meta"].pop("wall_time_seconds")
    b["meta"].pop("wall_time_seconds")
    assert a == b
    # canonical form: byte-identical up to the wall-time line
    lines1 = [l for l in p1.read_text().splitlines() if "wall_time" not in l]
    lines2 = [l for l in p2.read_text().splitlines() if "wall_time" not in l]
    assert lines1 == lines2


def test_degree_cap_requires_force(capsys):
    code, _, err = run(
        capsys, "dims", "--n", "2", "--ideal", "M2", "--max-degree", "11"
    )
    assert code == 1
    assert "cap" in err


def test_sweep_cap_checks_the_cutoff(capsys):
    code, _, err = run(
        capsys, "conjecture-sweep", "--n-max", "2", "--k-max", "1", "--cutoff", "11"
    )
    assert code == 1
    assert "cap" in err


def test_quotient_dims_command(capsys):
    code, out, _ = run(
        capsys,
        "quotient-dims", "--n", "2", "--mod", "2,2", "--series", "N",
        "--r", "1", "--max-degree", "4",
    )
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert [r["dim"] for r in rows] == [1, 2, 3, 4, 5]


def test_structure_check_r22(capsys):
    code, out, _ = run(
        capsys,
        "structure-check", "--which", "r22", "--n", "2", "--r-max", "3",
        "--max-degree", "5",
    )
    assert code == 0
    assert all(r["equal"] for r in json.loads(out)["result"]["rows"])


def test_witness_checks_the_degree_cap_before_building(capsys, monkeypatch):
    # the witness has 2^k terms for k factors: 20 factors of 2 took seconds
    # to build before degree 40 was refused
    import lcsideals.containment as containment_mod

    def refuse(*args):
        raise AssertionError("pbw_witness called past the degree cap")

    monkeypatch.setattr(containment_mod, "pbw_witness", refuse)
    code, out, err = run(capsys, "witness", "--n", "2", "--tuple", ",".join(["2"] * 20))
    assert (code, out) == (1, "")
    assert err == "error: degree 40 exceeds the safety cap 10; pass --force to override\n"


def test_open_elements_command(capsys):
    code, out, _ = run(capsys, "open-elements", "--cutoff", "6")
    assert code == 0
    assert all(r["contained"] for r in json.loads(out)["result"])


def test_membership_tests_every_component(capsys):
    # x1 is not in M2 although its degree-2 companion is
    code, out, _ = run(
        capsys, "membership", "--n", "2", "--expr", "x1 + [x1,x2]", "--ideal", "M2"
    )
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["contained"] is False
    assert doc["expr"] == "x1 + x1*x2 - x2*x1"
    assert doc["per_degree"] == [
        {"degree": 1, "contained": False},
        {"degree": 2, "contained": True},
    ]
    # with --degree only that component is tested, and stderr says so
    code, out, err = run(
        capsys, "membership", "--n", "2", "--expr", "x1 + [x1,x2]", "--ideal", "M2",
        "--degree", "2",
    )
    assert (code, err) == (0, "note: testing the degree-2 homogeneous component\n")
    doc = json.loads(out)["result"]
    assert (doc["expr"], doc["contained"]) == ("x1*x2 - x2*x1", True)


def test_membership_of_zero_has_no_degree(capsys):
    code, out, _ = run(capsys, "membership", "--n", "2", "--expr", "x1-x1", "--ideal", "M2")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["cutoff"] is None
    assert doc["result"] == {
        "contained": True, "degree": None, "expr": "0", "ideal": "M2", "per_degree": []
    }


def test_membership_inhomogeneous_member(capsys):
    code, out, _ = run(
        capsys,
        "membership", "--n", "2", "--ideal", "M2",
        "--expr", "[x1,x2] + x1*[x1,x2]*x2",
    )
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["contained"] is True
    assert doc["degree"] == 4
    assert [r["degree"] for r in doc["per_degree"]] == [2, 4]


def test_size_cap_limits_component_size():
    for n, degree in ((9, 10), (4, 8)):
        with pytest.raises(SystemExit, match="cap"):
            _check_degree_cap(n, degree, force=False)
        _check_degree_cap(n, degree, force=True)
    for n, degree in ((3, 10), (2, 10)):
        _check_degree_cap(n, degree, force=False)


def test_block_cap_limits_the_balanced_block():
    # containment, witness and conjecture-sweep ask one block per degree:
    # A_3 at degree 10 has 4200 words, A_4 and A_5 at degree 8 2520 and 5040
    for n, degree in ((2, 10), (3, 10), (4, 8), (5, 8), (9, 5)):
        _check_block_cap(n, degree, force=False)
    for n, degree in ((4, 9), (5, 9), (6, 8), (2, 11), (300, 7), (59050, 0)):
        with pytest.raises(SystemExit, match="cap"):
            _check_block_cap(n, degree, force=False)
        _check_block_cap(n, degree, force=True)


def test_containment_on_four_generators_at_degree_eight_needs_no_force(capsys):
    code, out, err = run(capsys, "containment", "--n", "4", "--tuple", "2,2,2", "--cutoff", "8")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["index"] == 4


def test_block_cap_refusal_names_the_block_size(capsys):
    code, out, err = run(capsys, "containment", "--n", "4", "--tuple", "2,2,2", "--cutoff", "9")
    assert (code, out) == (1, "")
    assert err == (
        "error: balanced block of 7560 words (n = 4, degree 9) exceeds the safety cap 5040; "
        "pass --force to override\n"
    )


# one invocation per verb, with the n and cutoff its report envelope carries
ENVELOPES = [
    ("dims --n 2 --ideal M3 --max-degree 4", 2, 4),
    ("containment --n 2 --tuple 2,2 --cutoff 6", 2, 6),
    ("witness --n 3 --tuple 2,4", 3, 6),
    ("pbw-degree --n 2 --expr [x1,x2]*[x1,x2]", 2, None),
    ("membership --n 2 --expr x1*[x1,x2]*x2 --ideal M2", 2, 4),
    ("generators --index 3 --max-degree 5 --verify", 2, 5),
    ("verify-identities", 3, None),
    ("quotient-dims --n 2 --mod 2,3 --series N --r 5 --max-degree 6", 2, 6),
    ("structure-check --which r22 --n 3 --r-max 3 --max-degree 5", 3, 5),
    ("conjecture-sweep --n-max 2 --k-max 2", 2, None),
    ("open-elements --cutoff 6", 3, 6),
]


@pytest.mark.parametrize(
    "line,n,cutoff", ENVELOPES, ids=[e[0].split()[0] for e in ENVELOPES]
)
def test_report_envelope(capsys, line, n, cutoff):
    argv = line.split()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    meta = json.loads(out)["meta"]
    wall = meta.pop("wall_time_seconds")
    assert isinstance(wall, float) and wall >= 0
    assert meta == {
        "command": argv[0],
        "cutoff": cutoff,
        "n": n,
        "tool": "lcsideals",
        "version": __version__,
    }


@pytest.mark.parametrize(
    "argv,message",
    [
        (["pbw-degree", "--n", "2", "--expr", "x1 - x1"], "zero element has no PBW degree"),
        (
            ["membership", "--n", "2", "--expr", "x1", "--ideal", "N2"],
            "membership applies to L, M, or product ideals",
        ),
        # a sweep with nothing to check is refused, not reported as a pass
        (["structure-check", "--which", "r22", "--r-max", "1"], "--r-max must be >= 2, got 1"),
        (["conjecture-sweep", "--n-max", "1"], "--n-max must be >= 2, got 1"),
        (["conjecture-sweep", "--k-max", "0"], "--k-max must be >= 1, got 0"),
        # --force lifts the size caps, not the sweep's desk-scale limit
        (
            ["conjecture-sweep", "--n-max", "6", "--k-max", "1", "--force"],
            "sweep is desk-scale only: n_max <= 5, k_max <= 4",
        ),
        (
            ["quotient-dims", "--n", "2", "--mod", "2,3,4", "--series", "N", "--r", "1"],
            "expected 2 comma-separated indices, got '2,3,4'",
        ),
        # the R_{2,3} formula is stated on A_2, where --n 3 once ran silently
        (
            ["structure-check", "--which", "r23", "--n", "3"],
            "structure-check r23 applies to n = 2, got --n 3",
        ),
        # no generators: dims and quotient-dims recursed until RecursionError
        (["dims", "--n", "0", "--ideal", "M2"], "generator count must be >= 1"),
        (
            ["quotient-dims", "--n", "0", "--mod", "2,2", "--series", "N", "--r", "2"],
            "generator count must be >= 1",
        ),
        (["structure-check", "--which", "r22", "--n", "0"], "generator count must be >= 1"),
        # the balanced block caps: no divmod by zero, and n is capped beside
        # the words of the block, which stop growing with n from n = degree on
        (["containment", "--n", "0", "--tuple", "2,2"], "generator count must be >= 1"),
        (["witness", "--n", "0", "--tuple", "2,2"], "generator count must be >= 1"),
        (
            ["containment", "--n", "300", "--tuple", "2,2,2", "--cutoff", "7"],
            "rank tables of 300^4 entries (n = 300, degree 7) exceed the safety cap 3^10; "
            "pass --force to override",
        ),
        (
            ["witness", "--n", "1000", "--tuple", "3,4"],
            "rank tables of 1000^4 entries (n = 1000, degree 7) exceed the safety cap 3^10; "
            "pass --force to override",
        ),
    ],
)
def test_refusal_message_and_exit_code(capsys, tmp_path, argv, message):
    report = tmp_path / "r.json"
    code, out, err = run(capsys, *argv, "--out", str(report))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not report.exists()


@pytest.mark.parametrize("fmt,name", [("json", "r.json"), ("csv", "r.csv")])
def test_out_writes_the_report_and_one_line(capsys, tmp_path, fmt, name):
    argv = ["dims", "--n", "2", "--ideal", "M2", "--max-degree", "3", "--format", fmt]
    _, stdout_report, _ = run(capsys, *argv)
    path = tmp_path / name
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, err) == (0, "")
    line = rf"dims: report written to {re.escape(str(path))} \([0-9.e-]+s\)\n"
    assert re.fullmatch(line, out)
    text = path.read_text()
    if fmt == "csv":
        assert text == stdout_report == "spec,degree,dim\nM2,0,0\nM2,1,0\nM2,2,1\nM2,3,4\n"
    else:
        wall = re.compile(r'"wall_time_seconds": [0-9.e-]+')
        assert wall.sub("", text) == wall.sub("", stdout_report)
        assert json.loads(text)["result"][-1] == {"spec": "M2", "degree": 3, "dim": 4}


def test_structure_check_mismatch_exits_two(capsys, monkeypatch):
    monkeypatch.setattr("lcsideals.quotients.quotient_dim", lambda spec, series, r, d: -1)
    code, out, _ = run(
        capsys, "structure-check", "--which", "r23", "--r", "5", "--max-degree", "5"
    )
    assert code == 2
    assert not any(r["equal"] for r in json.loads(out)["result"]["rows"])


def test_sweep_cutoff_zero_is_refused(capsys):
    # a zero cutoff once fell back to the default cutoffs and exited 0
    code, out, err = run(
        capsys, "conjecture-sweep", "--n-max", "2", "--k-max", "1", "--cutoff", "0"
    )
    assert (code, out) == (1, "")
    assert "cutoff 0" in err


def test_sweep_on_four_generators_runs_within_the_size_cap(capsys):
    code, out, _ = run(capsys, "conjecture-sweep", "--n-max", "4", "--k-max", "2")
    assert code == 0
    rows = json.loads(out)["result"]
    assert {(r["n"], r["k"]) for r in rows} == {(n, k) for n in (2, 3, 4) for k in (1, 2)}
    assert all(r["match"] for r in rows)


@pytest.mark.parametrize(
    "line", [e[0] for e in ENVELOPES[1:]], ids=[e[0].split()[0] for e in ENVELOPES[1:]]
)
def test_format_is_refused_on_verbs_without_csv(capsys, line):
    # --format csv once wrote JSON with exit 0 on every verb but dims
    code, out, err = run(capsys, *line.split(), "--format", "csv")
    assert (code, out) == (1, "")
    assert "--format" in err


@pytest.mark.parametrize("verb", ["verify-identities", "open-elements"])
def test_force_is_refused_on_verbs_without_a_cap(capsys, verb):
    code, out, err = run(capsys, verb, "--force")
    assert (code, out) == (1, "")
    assert "--force" in err


@pytest.mark.parametrize(
    "argv,bad",
    [
        ("containment --n 2 --tuple ٢,٢", "٢,٢"),
        ("witness --n 2 --tuple 2_2", "2_2"),
        ("containment --n 2 --tuple +2,2", "+2,2"),
        ("quotient-dims --n 2 --mod ٢,2 --series N --r 1 --max-degree 4", "٢,2"),
        ("dims --n ٣ --ideal M2", "٣"),
        ("dims --n 2 --ideal M2 --max-degree -1", "-1"),
        ("structure-check --which r22 --r-max -1", "-1"),
    ],
    ids=[
        "arabic-tuple",
        "underscore",
        "sign",
        "arabic-mod",
        "arabic-n",
        "negative-max-degree",
        "negative-r-max",
    ],
)
def test_indices_and_integer_flags_take_ascii_digits_only(capsys, argv, bad):
    # int() read "٢" as 2 and "2_2" as 22; a negative flag gave an empty report
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert repr(bad) in err


def test_open_elements_refuses_a_cutoff_it_does_not_check(capsys):
    code, out, err = run(capsys, "open-elements", "--cutoff", "9")
    assert (code, out) == (1, "")
    assert "cutoff must be 6 or 7" in err


def test_expression_degree_is_capped_while_parsing():
    # expanded, (x1+x2)^40 has 2^40 words: only a refusal made while parsing
    # ends in time
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def limit_memory():  # an expanding parser fails with MemoryError, not the host
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for verb in (["pbw-degree"], ["membership", "--ideal", "M2"]):
        done = subprocess.run(
            [sys.executable, "-m", "lcsideals.cli", *verb, "--n", "2", "--expr", "(x1+x2)" * 40],
            capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit_memory,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            "error: degree 11 exceeds the safety cap 10; pass --force to override\n"
        )


@pytest.mark.parametrize(
    "argv,message",
    [
        # the cap applies to the expression, not only to --degree
        (
            ["membership", "--n", "2", "--ideal", "M2", "--degree", "2", "--expr", "x1" * 11],
            "degree 11 exceeds the safety cap 10; pass --force to override",
        ),
        # on four generators the size cap stops at degree 7
        (
            ["pbw-degree", "--n", "4", "--expr", "[x1,x2]" * 4],
            "component size 4^8 exceeds the safety cap 3^10; pass --force to override",
        ),
        (
            ["pbw-degree", "--n", "2", "--expr", "(" * 2000 + "x1" + ")" * 2000],
            "nesting deeper than 100 levels (at position 100)",
        ),
    ],
)
def test_expression_refusals(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_pbw_degree_of_a_long_word_ends_in_time():
    # x2·x1^30 straightened with a last-in-first-out worklist took 2^30 - 1
    # rewrites; each factor sequence is now rewritten once
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ["pbw-degree", "--n", "2", "--force", "--expr", "*".join(["x2"] + ["x1"] * 30)]
    done = subprocess.run(
        [sys.executable, "-m", "lcsideals.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["pbw_degree"] == 31


def test_force_lifts_the_expression_cap(capsys):
    code, out, _ = run(capsys, "pbw-degree", "--n", "2", "--expr", "x1" * 11, "--force")
    assert code == 0
    assert json.loads(out)["result"]["pbw_degree"] == 11
