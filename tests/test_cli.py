import contextlib
import gc
import io
import json
import weakref
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from rahman.cli import _dump_json, main
from rahman.params import ParameterSet, derive
from rahman.polynomials import eval_P
from rahman.theorems import run_suites


@pytest.fixture
def runner():
    return CliRunner()


def test_check_ok(runner):
    result = runner.invoke(main, ["check", "--p", "1,2,3,5"])
    assert result.exit_code == 0
    assert result.output.strip() == "ok"


def test_check_names_offending_expression(runner):
    result = runner.invoke(main, ["check", "--p", "1,2,3,6"])
    assert result.exit_code == 2
    assert "p1p4-p2p3" in result.output


@pytest.mark.parametrize("n", [3, 13], ids=["below-ceiling", "above-ceiling"])
def test_check_ignores_the_degree_of_a_parameter_file(runner, tmp_path, n):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"p": ["1", "2", "3", "5"], "N": n}))
    result = runner.invoke(main, ["check", "--params-file", str(path)])
    assert result.exit_code == 0
    assert result.stdout == "ok\n"


@pytest.mark.parametrize("n", [3, 13], ids=["below-ceiling", "above-ceiling"])
def test_export_structure_ignores_the_degree_of_a_parameter_file(runner, tmp_path, n):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"p": ["1", "2", "3", "5"], "N": n}))
    result = runner.invoke(main, ["export", "structure", "--params-file", str(path)])
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / "structure_1_2_3_5.json").read_text()


def test_check_requires_parameters(runner):
    result = runner.invoke(main, ["check"])
    assert result.exit_code == 2


def test_eval_spot_value(runner):
    result = runner.invoke(main, ["eval", "1", "0", "1", "0", "--p", "1,2,3,5", "--N", "1"])
    assert result.exit_code == 0
    assert result.output.strip() == "-1/11"


def test_eval_requires_n(runner):
    result = runner.invoke(main, ["eval", "0", "0", "0", "0", "--p", "1,2,3,5"])
    assert result.exit_code == 2


def test_table_json(runner):
    result = runner.invoke(main, ["table", "--p", "1,2,3,5", "--N", "1"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["pairs"] == [[0, 0], [1, 0], [0, 1]]
    assert data["values"][1][1] == "-1/11"


def test_table_deterministic(runner):
    args = ["table", "--p", "2,1,7,3", "--N", "2", "--format", "csv"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_verify_all_passes(runner):
    result = runner.invoke(main, ["verify", "all", "--p", "1,2,3,5", "--N", "1"])
    assert result.exit_code == 0
    reports = json.loads(result.output)
    assert reports and all(r["status"] == "pass" for r in reports)


def test_verify_runs_positional_suites_in_order(runner):
    result = runner.invoke(main, [
        "verify", "module", "structure", "form", "--p", "2,1,7,3", "--N", "1",
    ])
    assert result.exit_code == 0
    prefixes = [r["name"].split(".")[0] for r in json.loads(result.output)]
    assert prefixes == sorted(prefixes, key=["module", "structure", "form"].index)
    assert set(prefixes) == {"module", "structure", "form"}


def test_verify_unknown_suite(runner):
    result = runner.invoke(main, ["verify", "bogus", "--p", "1,2,3,5", "--N", "1"])
    assert result.exit_code == 2


def test_params_file(runner, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"p": ["1", "2", "3", "5"], "N": 1}))
    result = runner.invoke(main, ["eval", "1", "0", "1", "0", "--params-file", str(path)])
    assert result.exit_code == 0
    assert result.output.strip() == "-1/11"


def test_export_structure(runner):
    result = runner.invoke(main, ["export", "structure", "--p", "1,2,3,5"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["constants"]["nu"] == "672"
    assert data["R"][0][0] == "1/28"


def test_export_gram_csv(runner):
    result = runner.invoke(
        main, ["export", "gram", "--p", "1,2,3,5", "--N", "1", "--format", "csv"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "r,s,t,norm_squared"
    assert len(lines) == 4


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("p, tag", [("1,2,3,5", "1_2_3_5"), ("-3/2,5,1/2,-3", "m3d2_5_1d2_m3")])
@pytest.mark.parametrize(
    "argv, name",
    [
        (["table", "--N", "4"], "table_N4_{tag}.json"),
        (["table", "--N", "4", "--format", "csv"], "table_N4_{tag}.csv"),
        (["export", "structure"], "structure_{tag}.json"),
        (["export", "dual-bases", "--N", "3"], "dual_bases_N3_{tag}.json"),
        (["verify", "all", "--N", "2"], "verify_all_N2_{tag}.json"),
        (["export", "gram", "--N", "12", "--format", "csv"], "gram_N12_{tag}.csv"),
        (["eval", "3", "4", "5", "2", "--N", "12"], "eval_N12_3_4_5_2_{tag}.txt"),
    ],
    ids=[
        "table-json",
        "table-csv",
        "export-structure",
        "export-dual-bases",
        "verify-all",
        "export-gram-N12",
        "eval-N12",
    ],
)
def test_output_matches_golden_bytes(runner, argv, name, p, tag):
    """stdout equals the files under tests/data, which were written by the
    CLI before ``p_table`` read integer columns, before ``build`` left the
    conjugated generators to first use, and before the tilde norms were
    read off the dual form.  The N = 12 Gram and ``eval`` files were
    written before ``derive`` and ``gram`` cleared the parameters to
    integers."""
    result = runner.invoke(main, argv + [f"--p={p}"])
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / name.format(tag=tag)).read_text()


def test_out_file(runner, tmp_path):
    target = tmp_path / "out.txt"
    result = runner.invoke(
        main, ["eval", "0", "0", "0", "0", "--p", "1,2,3,5", "--N", "2", "--out", str(target)]
    )
    assert result.exit_code == 0
    assert target.read_text().strip() == "1"


ALL_OPTIONS = ["--p", "--params-file", "--N", "--format", "--out"]


def test_each_command_declares_only_the_options_it_reads():
    declared = {
        name: [param.opts[0] for param in command.params]
        for name, command in main.commands.items()
    }
    assert declared == {
        "check": ["--p", "--params-file", "--out"],
        "eval": ["a", "b", "c", "d", "--p", "--params-file", "--N", "--out"],
        "verify": ["suites", "--p", "--params-file", "--N", "--out"],
        "table": ALL_OPTIONS,
        "export": ["what", *ALL_OPTIONS],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "5", "0", "0", "0", "--p", "1,2,3,5", "--N", "13"],
        ["table", "--p", "1,-1,3,5", "--N", "13"],
        ["verify", "bogus", "--p", "1,2,3,5", "--N", "13"],
        ["export", "gram", "--p", "1,-1,3,5", "--N", "13"],
    ],
    ids=["eval-off-lattice", "table-forbidden", "verify-unknown-suite", "export-forbidden"],
)
def test_degree_is_checked_before_anything_is_built(runner, argv):
    result = runner.invoke(main, argv, env={"RAHMAN_MAX_N": None})
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == (
        "Error: N=13 exceeds the ceiling 12 (override with RAHMAN_MAX_N)"
    )


def test_n_ceiling(runner, monkeypatch):
    result = runner.invoke(main, ["table", "--p", "1,2,3,5", "--N", "13"])
    assert result.exit_code == 2
    monkeypatch.setenv("RAHMAN_MAX_N", "2")
    result = runner.invoke(main, ["table", "--p", "1,2,3,5", "--N", "3"])
    assert result.exit_code == 2


@pytest.fixture
def defect_files(tmp_path):
    contents = {
        "list.json": ["1", "2", "3", "5"],
        "scalar-p.json": {"p": 5, "N": 2},
        "fractional-n.json": {"p": ["1", "2", "3", "5"], "N": 2.7},
    }
    for name, data in contents.items():
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--p", "1/0,2,3,5"],
        ["check", "--params-file", "{dir}/list.json"],
        ["check", "--params-file", "{dir}/scalar-p.json"],
        ["table", "--params-file", "{dir}/fractional-n.json"],
        ["export", "lattice", "--p", "1,2,3,5", "--N", "2", "--out", "{dir}/missing/out.json"],
        ["eval", "5", "0", "0", "0", "--p", "1,2,3,5", "--N", "2"],
        ["check", "--p", "1e3000000,2,3,5"],
        ["export", "structure", "--p", "1,2,3,5", "--format", "csv"],
        ["export", "lattice", "--p", "1,2,3,5", "--N", "2", "--format", "csv"],
        ["export", "dual-bases", "--p", "1,2,3,5", "--N", "2", "--format", "csv"],
        ["verify", "all", "--p", "1,2,3,5", "--N", "2", "--format", "csv"],
        ["table", "--params-file", "{dir}/deep.json", "--N", "1"],
        ["eval", "1", "0", "1", "0", "--p", "1,2,3,5", "--N", "1", "--format", "csv"],
        ["check", "--p", "1,2,3,5", "--format", "csv"],
        ["check", "--p", "1,2,3,5", "--N", "2"],
        ["verify", "--suite", "structure", "--p", "1,2,3,5", "--N", "1"],
        ["verify", "all", "--p", "1,2,3,5", "--N", "1", "--format", "json"],
        ["export", "structure", "--p", "1,2,3,5", "--N", "2"],
    ],
    ids=[
        "zero-denominator-param",
        "params-file-list",
        "params-file-scalar-p",
        "params-file-fractional-n",
        "out-missing-dir",
        "eval-off-lattice",
        "exponent-notation-param",
        "export-structure-csv",
        "export-lattice-csv",
        "export-dual-bases-csv",
        "verify-csv",
        "params-file-too-deep",
        "eval-csv",
        "check-csv",
        "check-degree",
        "verify-suite-option",
        "verify-json",
        "export-structure-degree",
    ],
)
def test_malformed_input_exits_2(runner, defect_files, argv):
    result = runner.invoke(main, [arg.format(dir=defect_files) for arg in argv])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert sum(line.startswith("Error:") for line in result.stderr.splitlines()) == 1
    assert result.stdout == ""


SOURCE_PREFIX = {"--p": "bad --p value", "params-file": "bad parameter file"}
# Each integer input, and the text its refusal starts with.
INTEGER_PREFIX = {
    "--N": "Invalid value for '--N': not an integer:",
    "eval": "Invalid value for 'A': not an integer:",
    "RAHMAN_MAX_N": "RAHMAN_MAX_N must be an integer, got",
}


def _refusal(runner, tmp_path, source, text):
    """The last stderr line of a run given ``text`` by ``source``: p1 of
    ``check`` by --p or a parameter file, table's --N, eval's A, or the
    ceiling RAHMAN_MAX_N of ``table --N 13``.  The run must exit 2 and
    print nothing to stdout."""
    env = {"RAHMAN_MAX_N": None}
    if source == "--p":
        argv = ["check", "--p", f"{text},2,3,5"]
    elif source == "params-file":
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"p": [text, "2", "3", "5"]}))
        argv = ["check", "--params-file", str(path)]
    elif source == "--N":
        argv = ["table", "--p", "1,2,3,5", "--N", text]
    elif source == "eval":
        argv = ["eval", text, "0", "0", "0", "--p", "1,2,3,5", "--N", "12"]
    else:
        argv, env = ["table", "--p", "1,2,3,5", "--N", "13"], {source: text}
    result = runner.invoke(main, argv, env=env)
    assert result.exit_code == 2
    assert result.stdout == ""
    return result.stderr.splitlines()[-1]


@pytest.mark.parametrize("source", list(SOURCE_PREFIX))
def test_a_digit_group_underscore_is_refused_on_every_python(runner, tmp_path, source):
    """Fraction reads "1_0" as 10 from Python 3.11 on and refuses it on
    3.10; the CLI refuses it on both, with one message."""
    assert _refusal(runner, tmp_path, source, "1_0") == (
        f"Error: {SOURCE_PREFIX[source]}: digit-group underscores are not accepted in '1_0'"
    )


@pytest.mark.parametrize("text", ["1.d", "\u0661", "\u0663/\u0664"])
@pytest.mark.parametrize("source", list(SOURCE_PREFIX))
def test_a_non_rational_is_refused_in_one_text(runner, tmp_path, source, text):
    """Fraction's own text for "1.d" differs between Pythons, and it reads
    non-ASCII digits ("\u0661" as 1); the CLI refuses each with one message."""
    assert _refusal(runner, tmp_path, source, text) == (
        f"Error: {SOURCE_PREFIX[source]}: not a rational number: {text!r}"
    )


@pytest.mark.parametrize("text", ["1_0", "1_3", "\u0662", "\u0661", " 1_0 "])
@pytest.mark.parametrize("source", list(INTEGER_PREFIX))
def test_an_integer_input_is_read_in_ascii_digits_only(runner, tmp_path, source, text):
    """``int`` reads "1_0" as 10 and non-ASCII digits ("\u0662" as 2), so
    ``table --N 1_0`` printed the N = 10 table and RAHMAN_MAX_N=1_3 lifted
    the ceiling; --N, eval's A B C D and RAHMAN_MAX_N refuse them as --p does."""
    assert _refusal(runner, tmp_path, source, text) == f"Error: {INTEGER_PREFIX[source]} {text!r}"


@pytest.mark.parametrize("args", [["3", "0", "0", "0"], ["0", "0", "1", "2"]])
def test_eval_off_the_lattice_message(runner, args):
    result = runner.invoke(main, ["eval", *args, "--p", "1,2,3,5", "--N", "2"])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == (
        "Error: arguments off the lattice: need A+B <= N and C+D <= N (N=2)"
    )


REFERENCE = ParameterSet.of(1, 2, 3, 5)


@pytest.mark.parametrize(
    "argv, call",
    [
        (["eval", "3", "0", "0", "0", "--p", "1,2,3,5", "--N", "2"],
         lambda: eval_P(3, 0, 0, 0, derive(REFERENCE), 2)),
        (["eval", "--p", "1,2,3,5", "--N", "2", "--", "-1", "0", "0", "0"],
         lambda: eval_P(-1, 0, 0, 0, derive(REFERENCE), 2)),
        (["verify", "nope", "--p", "1,2,3,5", "--N", "2"],
         lambda: run_suites(REFERENCE, 2, ["nope"])),
    ],
    ids=["eval-off-lattice", "eval-negative-argument", "verify-unknown-suite"],
)
def test_cli_prints_the_library_refusal(runner, argv, call):
    """The CLI states no input rule of its own: its Error: line is the
    message of the ValueError that the library entry point raises."""
    with pytest.raises(ValueError) as refusal:
        call()
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == f"Error: {refusal.value}"


def _exact(text: str) -> Fraction:
    """Parse "num/den" through Decimal, which has no digit limit."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def test_export_prints_values_past_the_str_digit_limit(runner):
    """At p1 = 7**1800, nu has over 6000 digits, more than str(int) prints
    by default; it is printed exactly."""
    p1 = 7**1800
    result = runner.invoke(main, ["export", "structure", f"--p={p1},2,3,5"])
    assert result.exit_code == 0
    constants = json.loads(result.stdout)["constants"]
    assert len(constants["nu"]) > 4300
    assert _exact(constants["nu"]) == derive(ParameterSet.of(p1, 2, 3, 5)).nu


VALID_TEXTS = st.one_of(
    st.integers(1, 40).map(str),
    st.integers(-40, -1).map(str),
    st.builds("{}/{}".format, st.integers(-40, 40), st.integers(1, 9)),
    st.builds("{}.{}".format, st.integers(-9, 9), st.integers(0, 99)),
)
RATIONAL_TEXTS = st.one_of(
    VALID_TEXTS,
    st.builds("{}/{}".format, st.integers(-40, 40), st.integers(-3, 0)),
    st.sampled_from([
        "", " ", "0", "1/0", "0/0", "+5", "1e3", "2E-1", "1e3000000", ".5",
        "nan", "inf", "1//2", "x", " 7 ", "9" * 5000,
    ]),
)
FOUR_VALID = st.lists(VALID_TEXTS, min_size=4, max_size=4)
P_LISTS = st.one_of(FOUR_VALID, FOUR_VALID, st.lists(RATIONAL_TEXTS, max_size=6))
P_TEXTS = P_LISTS.map(",".join)
# N <= 3 wherever it does work; 13..15 is past the default ceiling of 12.
WORK_N = st.sampled_from([None, -3, -1, 0, 1, 1, 2, 2, 3, 3, 13, 15])
FILE_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
              RATIONAL_TEXTS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.sampled_from(["p", "N", "x"]), inner, max_size=3),
    ),
    max_leaves=12,
)
FILE_OBJECTS = st.fixed_dictionaries(
    {"p": P_LISTS},
    optional={"N": st.one_of(WORK_N, st.floats(), st.booleans(), st.text(max_size=3))},
)
FILE_TEXTS = st.one_of(
    FILE_VALUES.map(json.dumps),
    FILE_OBJECTS.map(json.dumps),
    FILE_OBJECTS.map(json.dumps),
    st.sampled_from([10, 1000, 100000]).map(lambda depth: "[" * depth + "]" * depth),
    st.text(max_size=20),
)


def _invoke_cleanly(argv):
    """Run argv; it must end in exit 0 or 2 and never in a traceback, and
    exit 2 prints exactly one Error: line.  The one exit 2 without one is
    the verdict of check on a forbidden set, printed on stdout."""
    result = CliRunner().invoke(main, argv, env={"RAHMAN_MAX_N": None})
    assert result.exit_code in (0, 2), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        verdict = argv[0] == "check" and result.stdout.startswith("invalid: zero denominator ")
        errors = sum(line.startswith("Error:") for line in result.stderr.splitlines())
        assert errors == (0 if verdict else 1), (argv, result.output)


def _with_n(argv, n):
    return argv + ([] if n is None else ["--N", str(n)])


FORMATS = st.sampled_from(["json", "json", "csv"])
EVAL_ARGS = st.lists(st.sampled_from([0, 1, -1]), min_size=4, max_size=4)
# (argv before the parameters, argv after them); check and export
# structure refuse every --N.
COMMAND_LINES = st.one_of(
    st.builds(lambda n: (_with_n(["check"], n), []), st.none() | st.integers(-3, 15)),
    st.builds(lambda n, args: (_with_n(["eval"], n), ["--", *map(str, args)]),
              WORK_N, EVAL_ARGS),
    st.builds(lambda n, fmt: (_with_n(["table", "--format", fmt], n), []), WORK_N, FORMATS),
    st.builds(lambda kind, n, fmt: (_with_n(["export", kind, "--format", fmt], n), []),
              st.sampled_from(["structure", "gram", "dual-bases", "lattice"]), WORK_N, FORMATS),
)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@FUZZ
@given(COMMAND_LINES, P_TEXTS)
def test_fuzzed_argv_exits_0_or_2(line, p_text):
    head, tail = line
    _invoke_cleanly(head + [f"--p={p_text}"] + tail)


@FUZZ
@given(COMMAND_LINES, FILE_TEXTS)
def test_fuzzed_params_file_exits_0_or_2(tmp_path_factory, line, text):
    path = tmp_path_factory.mktemp("params") / "p.json"
    path.write_text(text)
    head, tail = line
    _invoke_cleanly(head + ["--params-file", str(path)] + tail)


def test_stdout_is_not_retained():
    """Output written to a redirected stdout is freed with its stream."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--p", "1,2,3,5", "--N", "1"], prog_name="rahman")
    assert exc.value.code == 0 and out.getvalue()
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize(
    "entry, named", [("null", "null"), ("true", "true"), ("[1]", "an array")]
)
def test_a_parameter_file_entry_that_is_no_string_or_number_exits_2(
    runner, tmp_path, entry, named
):
    path = tmp_path / "p.json"
    path.write_text(f'{{"p": [{entry}, 2, 3, 5]}}')
    result = runner.invoke(main, ["check", "--params-file", str(path)])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == (
        f'Error: bad parameter file: "p" entries must be JSON strings or numbers, got {named}'
    )


# Strings with quotes, backslashes, control and non-ASCII characters, which
# json escapes; ints of any size that str() prints.
JSON_STRINGS = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\n\t\x00\x7f\u2028é€😀')))
JSON_DATA = st.recursive(
    st.one_of(st.integers(), st.integers(-10**30, 10**30), JSON_STRINGS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(JSON_STRINGS, children, max_size=4),
    ),
    max_leaves=25,
)


@given(JSON_DATA)
@settings(max_examples=300, deadline=None)
def test_dump_json_writes_the_bytes_of_json_dumps(data):
    assert _dump_json(data) == json.dumps(data, indent=2)


@pytest.mark.parametrize("value", [True, None, 1.5, (1, 2), {1: "a"}])
def test_dump_json_refuses_what_the_cli_never_prints(value):
    with pytest.raises(TypeError):
        _dump_json(value)
