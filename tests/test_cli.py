"""Command-line interface: parsing, dispatch, exit codes, determinism."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasik import Limits, build_group, quasi_coefficients, serialize_quasi
from quasik.cli import CONSTRUCTIONS, CliConfig, main, parse_args, run
from quasik.errors import SelectorError


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:
        return exc.code, "", ""
    code = run(cfg, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_args_examples():
    cfg = parse_args(["quasi", "--group", "symmetric:3", "-n", "1", "--format", "json"])
    assert cfg == CliConfig(
        command="quasi", group_spec="symmetric:3", n=1, fmt="json", limits=Limits(tuples=4096)
    )
    cfg = parse_args(["chartab", "--group", "quaternion8"])
    assert cfg.command == "chartab" and cfg.group_spec == "quaternion8"
    cfg = parse_args(["faithful", "--group", "cyclic:4", "--sigma", "g2", "--rep", "chi1"])
    assert cfg.sigma == ("g2",) and cfg.rep == "chi1" and cfg.construction == "plain"
    cfg = parse_args(
        ["sfixed", "--group", "symmetric:3", "--sigma", "(12)", "--H", "(123)"]
    )
    assert cfg.sigma == ("(12)",) and cfg.subgroup == ("(123)",)


@pytest.mark.parametrize("m", [1, 48, 101, 1000, 10000])
def test_max_order_sets_the_order_and_tuple_caps_only(m):
    cfg = parse_args(["classes", "--group", "cyclic:3", "--max-order", str(m)])
    assert cfg.limits == Limits(order=m, tuples=max(4096, m * m), closure=10000)


@pytest.mark.parametrize("m", ["0", "-1", "10001", "20000", "1000000000"])
def test_max_order_out_of_range_is_usage_error(capsys, m):
    assert main(["classes", "--group", "cyclic:3", "--max-order", m]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --max-order must be between 1 and 10000\n"


def test_threads_below_one_is_usage_error(capsys):
    assert main(["classes", "--group", "cyclic:3", "--threads", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --threads must be at least 1\n"


@pytest.mark.parametrize("group", ["symmetric:8", "perm 8\n(1 2)\n(1 2 3 4 5 6 7 8)\n"],
                         ids=["builtin", "perm-file"])
def test_a_large_max_order_keeps_the_closure_cap(tmp_path, group):
    # S8 has 40320 elements; a closure cap that grew as max-order^2 would
    # build its 1.6e9-cell table instead of stopping at 10000 elements
    import subprocess
    import sys

    if group.startswith("perm"):
        path = tmp_path / "s8.grp"
        path.write_text(group)
        group = str(path)
    proc = subprocess.run(
        [sys.executable, "-m", "quasik.cli", "classes", "--group", group, "--max-order", "1000"],
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: closure exceeds the size cap of 10000 elements\n"


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["quasi", "--group", "symmetric:3", "--bogus"])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--sigma", "-1,i"], ["--sigma", "-i"]])
def test_a_selector_list_after_a_space_cannot_begin_with_a_dash(capsys, argv):
    # argparse reads "-1,i" and "-i" as flags, not as the value of --sigma
    with pytest.raises(SystemExit) as exc:
        parse_args(["faithful", "--group", "quaternion8", "--rep", "regular", *argv])
    assert exc.value.code == 2
    assert "argument --sigma: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--sigma=-1,i"], ["--sigma=-i"], ["--sigma", "-1"]])
def test_a_dash_selector_is_read_after_an_equals_sign_or_as_a_number(argv):
    # "-1" alone reads as a negative number, so argparse takes it as a value
    code, out, err = _run(["faithful", "--group", "quaternion8", "--rep", "regular", *argv])
    assert (code, err) == (0, "") and out.endswith("torus_rank: 0\nfaithful\n")


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        parse_args([])
    assert exc.value.code == 2


def test_gnz_s3():
    code, out, err = _run(["gnz", "--group", "symmetric:3", "-n", "2"])
    assert code == 0 and err == ""
    assert out.startswith("8 orbits")
    assert out.count("x ") == 8


def test_quasi_z2_total_rank():
    code, out, _ = _run(["quasi", "--group", "cyclic:2", "-n", "1"])
    assert code == 0
    assert "total rank: 4" in out
    code, out, _ = _run(["quasi", "--group", "cyclic:2", "-n", "1", "--format", "json"])
    doc = json.loads(out)
    assert doc["total_rank"] == 4 and doc["E"] == "K"


def test_sfixed_contractible():
    code, out, _ = _run(
        ["sfixed", "--group", "symmetric:3", "--sigma", "(12)", "--H", "(123)"]
    )
    assert code == 0 and out.strip() == "Contractible"
    code, out, _ = _run(
        ["sfixed", "--group", "symmetric:3", "--sigma", "(12)", "--H", "(13)"]
    )
    assert code == 0 and out.strip() == "Empty"


def test_classes_and_chartab():
    code, out, _ = _run(["classes", "--group", "quaternion8"])
    assert code == 0 and "5 conjugacy classes" in out
    code, out, _ = _run(["chartab", "--group", "quaternion8", "--format", "json"])
    doc = json.loads(out)
    assert sorted(r["degree"] for r in doc["irreducibles"]) == [1, 1, 1, 1, 2]
    code, out, _ = _run(["chartab", "--group", "cyclic:4"])
    assert "E(4)" in out


def test_lambda_basis_command():
    code, out, _ = _run(
        ["lambda-basis", "--group", "symmetric:3", "--sigma", "(123)", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert sorted(b["twist"][0] for b in doc["basis"]) == ["1", "1/3", "2/3"]


def test_faithful_command_witness():
    code, out, _ = _run(
        ["faithful", "--group", "cyclic:4", "--sigma", "g2", "--rep", "chi3"]
    )
    assert code == 0
    assert "not faithful" in out
    assert "(g3; t = (1/2))" in out
    code, out, _ = _run(
        ["faithful", "--group", "cyclic:4", "--sigma", "g2", "--rep", "chi3",
         "--construction", "q", "--format", "json"]
    )
    doc = json.loads(out)
    assert doc["faithful"] is True and doc["kernel_points"] == []


def test_faithful_kernel_points_at_the_smith_denominator():
    # at den = 4 the Smith diagonal is [1, 12]: the points have denominator 3
    code, out, _ = _run(
        ["faithful", "--group", "cyclic:4", "--sigma", "e,g1", "--rep", "chi3",
         "--construction", "q"]
    )
    assert code == 0
    assert out.splitlines() == [
        "(chi3, q^(0, -3/4)) x 1",
        "(chi3, q^(1, 1/4)) x 1",
        "torus_rank: 0",
        "kernel point: (g1; t = (2/3, 1/3))",
        "kernel point: (g2; t = (1/3, 2/3))",
        "not faithful",
    ]


def test_faithful_fixed_adds_the_fixed_part_at_weight_zero():
    code, out, _ = _run(
        ["faithful", "--group", "symmetric:4", "--sigma", "(12)", "--rep", "chi4",
         "--construction", "fixed"]
    )
    assert code == 0
    assert out.splitlines() == [
        "(chi1, q^(1/2)) x 1",
        "(chi2, q^(0)) x 1",  # the fixed part: chi2 has weight 1 in the plain construction
        "(chi2, q^(1)) x 1",
        "(chi3, q^(1/2)) x 1",
        "torus_rank: 0",
        "faithful",
    ]


def test_faithful_regular_real():
    code, out, _ = _run(
        ["faithful", "--group", "quaternion8", "--sigma", "-1", "--rep", "regular",
         "--construction", "real"]
    )
    assert code == 0 and out.strip().endswith("faithful")


def test_bad_selector_is_domain_error():
    code, out, err = _run(["gnz", "--group", "nonsense:9"])
    assert code == 1 and out == "" and "error:" in err
    code, _, err = _run(
        ["sfixed", "--group", "symmetric:3", "--sigma", "(99)", "--H", "(12)"]
    )
    assert code == 1 and "no element labelled" in err
    code, _, err = _run(
        ["faithful", "--group", "cyclic:4", "--sigma", "g2", "--rep", "chi9"]
    )
    assert code == 1 and "chi" in err
    # a rep label is exact: none of these names chi1 or chi10
    for label in ("chi01", "chi+1", "chi 1", "chi1_0"):
        code, out, err = _run(
            ["faithful", "--group", "cyclic:12", "--sigma", "g2", "--rep", label]
        )
        assert (code, out) == (1, ""), label
        assert err == (
            f"error: unknown representation label {label!r}; use chi0..chi11 or regular\n"
        )
    code, _, err = _run(
        ["faithful", "--group", "cyclic:4", "--sigma", "g1,g2", "--rep", "chi0"]
    )
    assert code == 0 or code == 1  # two commuting entries: fine; just not usage error


@pytest.mark.parametrize("command, extra", [("faithful", ["--rep", "chi1"]),
                                            ("lambda-basis", [])])
def test_sigma_longer_than_the_tuple_cap_is_rejected(command, extra):
    # the kernel solve allocates n x n integers, so n itself is capped
    sigma = ",".join(["g2"] * 4097)
    code, out, err = _run([command, "--group", "cyclic:4", "--sigma", sigma, *extra])
    assert code == 1 and out == ""
    assert err == "error: n = 4097 exceeds the tuple scan cap 4096\n"


def test_cap_exceeded_is_domain_error():
    code, _, err = _run(["gnz", "--group", "symmetric:4", "-n", "3"])
    assert code == 1 and "cap" in err
    code, _, err = _run(["chartab", "--group", "cyclic:6", "--max-order", "4"])
    assert code == 1 and "capped" in err
    code, out, _ = _run(["gnz", "--group", "symmetric:4", "-n", "3", "--max-order", "128"])
    assert code == 0 and out.splitlines()[0].endswith("3-tuples in symmetric:4")


def test_gnz_json():
    code, out, _ = _run(["gnz", "--group", "symmetric:3", "-n", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["orbits"]) == 8
    assert sum(o["orbit_size"] for o in doc["orbits"]) == 18  # commuting pairs in S3


def test_order_sixty_group_fails_loudly():
    # alternating:5 exceeds the default table cap; the error is clean, not a hang
    code, out, err = _run(["quasi", "--group", "alternating:5", "-n", "1"])
    assert code == 1 and out == "" and "capped" in err


def test_subprocess_runs_are_byte_identical(tmp_path):
    import subprocess
    import sys

    args = [sys.executable, "-m", "quasik.cli", "quasi", "--group", "quaternion8",
            "-n", "2", "--format", "json"]
    first = subprocess.run(args, capture_output=True, check=True)
    second = subprocess.run(args, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"{")


def test_a_text_run_never_loads_json():
    # json is imported where a document is encoded or decoded, not at start-up
    import subprocess
    import sys

    script = ("import sys, quasik.cli\n"
              "print('json' in sys.modules)\n"
              "quasik.cli.main(['quasi', '--group', 'cyclic:3', '-n', '1'])\n"
              "print('json' in sys.modules)\n"
              "quasik.cli.main(['classes', '--group', 'cyclic:3', '--format', 'json'])\n"
              "print('json' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "True")
    assert lines[lines.index("total rank: 9") + 1] == "False"


@pytest.mark.parametrize(
    "content",
    [b"table x\n", b"perm x\n(1 2)\n", b"table 2\n0 1\n1 a\n", b"table 1\n\xff\n",
     b"perm -3\n", b"perm 0\n", b"table 0\n", b"table -2\n"],
    ids=["table-size", "perm-degree", "table-row", "not-utf8", "perm-negative", "perm-zero",
         "table-zero", "table-negative"],
)
def test_malformed_group_file_is_domain_error(tmp_path, content):
    import subprocess
    import sys

    path = tmp_path / "bad.grp"
    path.write_bytes(content)
    proc = subprocess.run([sys.executable, "-m", "quasik.cli", "classes", "--group", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}")


@pytest.mark.parametrize(
    "group",
    ["perm 3000000\n(1 2)\n", "cyclic:10001"],
    ids=["perm-degree-file", "cyclic-order"],
)
def test_degree_above_the_closure_cap_is_rejected_before_building(tmp_path, group):
    import subprocess
    import sys

    if group.startswith("perm"):
        path = tmp_path / "huge.grp"
        path.write_text(group)
        group = str(path)
    proc = subprocess.run([sys.executable, "-m", "quasik.cli", "classes", "--group", group],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert "exceeds the size cap" in proc.stderr


def test_gnz_on_the_trivial_group_is_linear_in_n():
    # the one orbit of the trivial group is found in time linear in n
    import subprocess
    import sys

    argv = ["gnz", "--group", "cyclic:1", "-n", "200000", "--max-order", "500"]
    proc = subprocess.run([sys.executable, "-m", "quasik.cli", *argv],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "1 orbits of commuting 200000-tuples in cyclic:1"
    assert lines[1:] == ["  (" + ",".join(["e"] * 200000) + ") x 1"]


def test_python_dash_m_quasik_runs_the_cli():
    import subprocess
    import sys

    args = ["classes", "--group", "cyclic:3"]
    package = subprocess.run([sys.executable, "-m", "quasik", *args],
                             capture_output=True, check=True)
    module = subprocess.run([sys.executable, "-m", "quasik.cli", *args],
                            capture_output=True, check=True)
    assert package.stdout == module.stdout
    assert package.stdout.startswith(b"3 conjugacy classes")


def test_byte_identical_output():
    runs = [
        _run(["quasi", "--group", "dihedral:4", "-n", "2", "--format", "json"])
        for _ in range(2)
    ]
    runs.append(
        _run(["quasi", "--group", "dihedral:4", "-n", "2", "--format", "json",
              "--threads", "4"])
    )
    assert all(code == 0 for code, _, _ in runs)
    outputs = {out for _, out, _ in runs}
    assert len(outputs) == 1


@pytest.mark.parametrize("fmt, unused", [("json", "render_quasi_text"),
                                         ("text", "quasi_document")])
def test_a_run_renders_only_the_format_it_prints(monkeypatch, fmt, unused):
    import quasik.cli

    def refuse(table):
        raise AssertionError(f"{unused} called for --format {fmt}")

    monkeypatch.setattr(quasik.cli, unused, refuse)
    code, out, err = _run(["quasi", "--group", "symmetric:3", "-n", "1", "--format", fmt])
    assert (code, err) == (0, "")
    table = quasi_coefficients(build_group("symmetric:3"), 1)
    assert out.encode() == serialize_quasi(table, fmt)


def test_main_entry(capsys):
    assert main(["classes", "--group", "cyclic:3"]) == 0
    captured = capsys.readouterr()
    assert "3 conjugacy classes" in captured.out
    assert main(["quasi", "--group", "missingfile.grp"]) == 1
    assert "error:" in capsys.readouterr().err


# -- fuzzing the whole front end in-process ------------------------------------

_SMALL_BUILTINS = (
    [f"cyclic:{k}" for k in range(1, 25)]
    + [f"dihedral:{k}" for k in range(3, 13)]
    + [f"symmetric:{k}" for k in range(1, 5)]
    + [f"alternating:{k}" for k in range(0, 5)]
    + ["quaternion8"]
)
_MALFORMED_SPECS = [
    "", "cyclic:", "cyclic:0", "cyclic:x", "cyclic:3:4", "dihedral:2", "symmetric:0",
    "quaternion", "nonsense:9", "CYCLIC:3", "missing.grp",
]
_LABELS = sorted({label for spec in ("cyclic:6", "symmetric:3", "dihedral:4", "quaternion8")
                  for label in build_group(spec).labels})
_label = st.one_of(st.sampled_from(_LABELS), st.text(max_size=4))
_labels = st.lists(_label, min_size=1, max_size=3).map(",".join)
_rep = st.one_of(
    st.sampled_from(["regular", "chi0", "chi1", "chi4", "chi30", "chi-1", "chix"]),
    st.text(max_size=5),
)
_n = st.one_of(st.integers(min_value=-2, max_value=4), st.integers(min_value=-2, max_value=10**9))


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(
        ["classes", "chartab", "gnz", "lambda-basis", "faithful", "sfixed", "quasi"]
    ))
    spec = draw(st.one_of(st.sampled_from(_SMALL_BUILTINS), st.sampled_from(_MALFORMED_SPECS)))
    argv = [command, "--group", spec]
    if command in ("gnz", "quasi"):
        argv += ["-n", str(draw(_n))]
    if command in ("lambda-basis", "faithful", "sfixed"):
        argv += ["--sigma", draw(_labels)]
    if command == "faithful":
        argv += ["--rep", draw(_rep), "--construction", draw(st.sampled_from(CONSTRUCTIONS))]
    if command == "sfixed":
        argv += ["--H", draw(_labels)]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@settings(max_examples=120, deadline=None)
@given(cli_argvs())
@example(["gnz", "--group", "symmetric:3", "-n", "6000"])
@example(["gnz", "--group", "cyclic:1", "-n", "2000"])
@example(["quasi", "--group", "cyclic:1", "-n", "2000"])
def test_cli_fuzz_answers_or_rejects_in_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:  # argparse rejected the command line
        assert exc.code == 2
        return
    except SelectorError:  # what main() reports as a usage error
        return
    code = run(cfg, out=out, err=err)
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""


# -- fuzzing group files in-process ----------------------------------------------

_SIZES = st.one_of(
    st.integers(min_value=-3, max_value=8),
    st.sampled_from([63, 64, 65, 10**6, 10**30]),
    st.integers(),
)
_CYCLE = st.lists(st.integers(min_value=0, max_value=12), max_size=5).map(
    lambda pts: "(" + " ".join(map(str, pts)) + ")"
)
_CYCLES = st.lists(_CYCLE, max_size=3).map("".join)
_ROW = st.lists(st.integers(min_value=-1, max_value=8), max_size=9).map(
    lambda xs: " ".join(map(str, xs))
)


@st.composite
def group_files(draw):
    kind = draw(st.sampled_from(["perm", "table", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    size = draw(_SIZES)
    body = draw(st.lists(st.one_of(_CYCLES if kind == "perm" else _ROW, st.text(max_size=8)),
                         max_size=9))
    return "\n".join([f"{kind} {size}", *body]).encode()


@settings(max_examples=150, deadline=2000)
@given(group_files(), st.sampled_from(["classes", "chartab"]))
@example(b"table 65\n", "classes")
@example(b"perm 65\n(1 2)\n", "classes")
@example(b"table 0\n", "classes")
@example(b"perm -3\n()\n", "classes")
@example(b"perm 7\n(1 2)\n(1 2 3 4 5 6 7)\n", "classes")  # symmetric:7 passes 64 elements
@example(b"table 3\n0 1 2\n1 2 0\n2 0 1\n", "chartab")
def test_group_file_fuzz_answers_or_rejects_in_one_line(tmp_path_factory, content, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.grp"
    path.write_bytes(content)
    cfg = CliConfig(command=command, group_spec=str(path), limits=Limits(closure=64))
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, out=out, err=err)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""
