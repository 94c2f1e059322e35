
import re
import tempfile

import pytest

from kconfex.cli import main
from kconfex.prop import parse_dimacs

from conftest import DERIVED_NAME_COLLISIONS, NOPROMPT_CHOICE_SOURCE


def _bools(count):
    """A model of ``count`` prompted bool options, ``2**count`` rows."""
    return "".join(f'config O{i}\n\tbool "o"\n' for i in range(count))


# An int option compared with a hex literal of 4,000 digits, which reads
# past the signed 64-bit range (and past the 4,300 decimal digits that
# Python turns into text).
HUGE_LITERAL = 'config N\n\tint "n"\n\tdefault 1\nconfig A\n\tbool "a"\n\tdepends on N = 0x' + "f" * 4000 + "\n"
HUGE_LITERAL_ERROR = "error [A]: number 0xffffffffffffff... (4002 characters) read by N is outside the signed 64-bit range"
# The same rule for a decimal literal of 5,000 digits, more than Python's
# int() reads from text by default.
LONG_DECIMAL = 'config N\n\tint "n"\n\tdefault 1\nconfig A\n\tbool "a"\n\tdepends on N = ' + "1" * 5000 + "\n"
LONG_DECIMAL_ERROR = "error [A]: number 1111111111111111... (5000 characters) read by N is outside the signed 64-bit range"


@pytest.fixture
def golden_choice_file(tmp_path):
    path = tmp_path / "golden_choice.kconfig"
    path.write_text(NOPROMPT_CHOICE_SOURCE)
    return path


class TestTranslateCommand:
    def test_golden_outputs(self, golden_choice_file, tmp_path, capsys):
        model_out = tmp_path / "out.model"
        dimacs_out = tmp_path / "out.dimacs"
        code = main(
            ["translate", str(golden_choice_file), "--model", str(model_out), "--dimacs", str(dimacs_out)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "constraints:" in out and "variables:" in out
        assert model_out.read_text().count("\n") >= 4
        with open(dimacs_out, "rb") as fh:
            cnf = parse_dimacs(fh)
        assert cnf.num_vars >= 6

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.kconfig"
        empty.write_text("")
        model_out = tmp_path / "empty.model"
        dimacs_out = tmp_path / "empty.dimacs"
        code = main(
            ["translate", str(empty), "--model", str(model_out), "--dimacs", str(dimacs_out)]
        )
        assert code == 0
        assert model_out.read_text() == ""
        with open(dimacs_out, "rb") as fh:
            cnf = parse_dimacs(fh)
        assert list(cnf.clauses) == []

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.kconfig"
        bad.write_text('config A\n\tbool "a"\n\tdepends on &&\n')
        code = main(["translate", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert ":3:" in err

    @pytest.mark.parametrize("flag", ["--model", "--dimacs"])
    def test_unwritable_output_exits_2(self, flag, golden_choice_file, tmp_path, capsys):
        target = tmp_path / "missing" / "out"
        assert main(["translate", str(golden_choice_file), flag, str(target)]) == 2
        assert f"error: cannot write {target}" in capsys.readouterr().err

    def test_outputs_deterministic(self, golden_choice_file, tmp_path):
        outs = []
        for i in range(2):
            model_out = tmp_path / f"m{i}.model"
            dimacs_out = tmp_path / f"d{i}.dimacs"
            main(["translate", str(golden_choice_file), "--model", str(model_out), "--dimacs", str(dimacs_out)])
            outs.append((model_out.read_text(), dimacs_out.read_bytes()))
        assert outs[0] == outs[1]


class TestCheckCommand:
    def test_noprompt_choice_passes(self, golden_choice_file, capsys):
        assert main(["check", str(golden_choice_file)]) == 0
        assert "0 failures" in capsys.readouterr().out

    def test_known_limitation_exits_0_with_warning(self, tmp_path, capsys):
        path = tmp_path / "sel.kconfig"
        path.write_text(
            'config D\n\tbool "d"\n'
            'config P\n\tbool "p"\n\tdepends on D\n'
            'config O\n\tbool "o"\n\tselect P\n'
        )
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "KNOWN-LIMITATION" in out
        assert "warning" in out

    def test_parse_error_exits_2(self, tmp_path):
        path = tmp_path / "bad.kconfig"
        path.write_text("source oops\n")
        assert main(["check", str(path)]) == 2

    def test_bound_exceeded_exits_3(self, tmp_path, capsys):
        path = tmp_path / "wide.kconfig"
        path.write_text(_bools(23))
        assert main(["check", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: model has 8388608 configurations, enumeration bound is 4194304\n"

    def test_few_options_of_many_values_exceed_the_bound(self, tmp_path, capsys):
        """Ten string options of eight defaults each: 8**10 rows."""
        path = tmp_path / "strings.kconfig"
        path.write_text(
            "".join(
                f'config S{i}\n\tstring "s"\n' + "".join(f'\tdefault "v{j}"\n' for j in range(8))
                for i in range(10)
            )
        )
        assert main(["check", str(path)]) == 3
        assert capsys.readouterr().err.endswith(
            "error: model has 1073741824 configurations, enumeration bound is 4194304\n"
        )

    def test_wide_single_value_options_exceed_the_cell_bound(self, tmp_path, capsys):
        """20 bools and 137 single-default strings: 2**20 rows of 177
        values, each a column of 2**20 bits, past 44 * 2**22 cells; one
        string fewer checks."""
        strings = "".join(f'config S{i}\n\tstring "s"\n\tdefault "v"\n' for i in range(137))
        path = tmp_path / "wide.kconfig"
        path.write_text(_bools(20) + strings)
        assert main(["check", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: model has 185597952 rows x values, enumeration bound is 184549376\n"

    def test_exec_oracle_bound_exits_3_before_running_conf(self, tmp_path, capsys):
        """One conf process per row: the exec oracle stops at 3**10 rows."""
        conf = tmp_path / "conf"
        conf.write_text('#!/bin/sh\ntouch "$0.ran"\nexit 1\n')
        conf.chmod(0o755)
        path = tmp_path / "wide.kconfig"
        path.write_text(_bools(16))
        assert main(["check", str(path), "--oracle", f"exec:{conf}"]) == 3
        assert capsys.readouterr().err == (
            "error: model has 65536 configurations, enumeration bound is 59049\n"
        )
        assert not (tmp_path / "conf.ran").exists()

    def test_row_count_too_long_to_print_exits_3(self, tmp_path, capsys):
        """15,000 bools: 2**15000 rows, a count of 4,516 digits, is named by
        its power of ten."""
        path = tmp_path / "huge.kconfig"
        path.write_text(_bools(15000))
        assert main(["check", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: model has about 10^4515 configurations, enumeration bound is 4194304\n"

    @pytest.mark.parametrize("command", ["check", "translate", "stats"])
    def test_literal_past_64_bits_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "literal.kconfig"
        path.write_text(HUGE_LITERAL)
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == HUGE_LITERAL_ERROR + "\nerror: validation failed\n"

    def test_decimal_past_int_digit_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "decimal.kconfig"
        path.write_text(LONG_DECIMAL)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == LONG_DECIMAL_ERROR + "\nerror: validation failed\n"

    def test_exec_oracle_removes_its_workdir(self, tmp_path, monkeypatch):
        conf = tmp_path / "conf"
        conf.write_text("#!/bin/sh\nexit 0\n")
        conf.chmod(0o755)
        path = tmp_path / "one.kconfig"
        path.write_text('config A\n\tbool "a"\n')
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["check", str(path), "--oracle", f"exec:{conf}"]) == 0
        assert not list(tmp_path.glob("kconfex-conf-*"))

    def test_empty_exec_path_creates_no_workdir(self, tmp_path, monkeypatch):
        def mkdtemp(*args, **kwargs):
            raise AssertionError("a work directory was created")

        path = tmp_path / "one.kconfig"
        path.write_text('config A\n\tbool "a"\n')
        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        assert main(["check", str(path), "--oracle", "exec:"]) == 2

    def test_exec_oracle_with_relative_paths(self, tmp_path, monkeypatch):
        conf = tmp_path / "conf"
        conf.write_text('#!/bin/sh\ntest -f "$2"\n')  # fails unless the model file is found
        conf.chmod(0o755)
        (tmp_path / "one.kconfig").write_text('config A\n\tbool "a"\n')
        monkeypatch.chdir(tmp_path)
        assert main(["check", "one.kconfig", "--oracle", "exec:./conf"]) == 0

    def test_bound_override(self, tmp_path, capsys):
        """The row budget bounds the check, not the option count: 16
        options check exactly, with no flag."""
        path = tmp_path / "wide.kconfig"
        path.write_text(_bools(16))
        assert main(["check", str(path)]) == 0
        assert "wide.kconfig: 65536 configurations, 0 failures" in capsys.readouterr().out


_REWRITING_CONF = '#!/bin/sh\necho CONFIG_A=y > "$KCONFIG_CONFIG"\n'  # any A=n row is repaired to A=y


@pytest.mark.parametrize(
    "text, oracle, code, out, err",
    [
        (
            'config A\n\tbool "a"\n',
            "exec:./conf",
            1,
            [
                "[FAILURE] {A=n}: oracle=invalid formula=valid",
                "one.kconfig: 2 configurations, 1 failures, 0 known limitations (MS ms)",
            ],
            "",
        ),
        (
            'config A\n\tbool "a"\nconfig S\n\tstring "s"\n',
            "builtin",
            0,
            [
                "note: S: no known values, skipped in enumeration",
                "one.kconfig: 2 configurations, 0 failures, 0 known limitations (MS ms)",
            ],
            "",
        ),
        (
            'config A\n\tbool "a"\n',
            "magic",
            2,
            [],
            "error: unknown oracle 'magic' (use 'builtin' or 'exec:<path>')\n",
        ),
        (
            'config A\n\tbool "a"\n',
            "exec:",
            2,
            [],
            "error: oracle 'exec:' names no configurator (use 'exec:<path>')\n",
        ),
    ],
    ids=["failure-row", "note", "unknown-oracle", "empty-exec-path"],
)
def test_check_exit_code_and_output(text, oracle, code, out, err, tmp_path, monkeypatch, capsys):
    conf = tmp_path / "conf"
    conf.write_text(_REWRITING_CONF)
    conf.chmod(0o755)
    (tmp_path / "one.kconfig").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(["check", "one.kconfig", "--oracle", oracle]) == code
    captured = capsys.readouterr()
    assert re.sub(r"\(\d+\.\d ms\)", "(MS ms)", captured.out).splitlines() == out
    assert captured.err == err


@pytest.mark.parametrize("command", ["check", "translate"])
def test_range_bound_outside_option_type_exits_2(command, tmp_path, capsys):
    path = tmp_path / "range.kconfig"
    for ranges in ("\trange 0x0 0x10\n", "\trange 10 5\n\tdefault 7\n"):
        path.write_text('config N\n\tint "n"\n' + ranges)
        assert main([command, str(path)]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "translate"])
def test_ordered_comparison_of_a_constant_exits_2(command, tmp_path, capsys):
    path = tmp_path / "ordered.kconfig"
    path.write_text('config X\n\tbool "x" if y < 3\n')
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "error [X]: ordered comparison over non-numeric constants 'y', '3'" in err


@pytest.mark.parametrize(
    "condition, message",
    [
        ("N <= M", "ordered comparison of N against non-numeric 'M'"),
        ("A < B", "ordered comparison over non-numeric constants 'A', 'B'"),
    ],
    ids=["two-options", "two-undeclared-symbols"],
)
def test_ordered_comparison_without_a_number_is_a_validation_error(condition, message, tmp_path, capsys):
    path = tmp_path / "ordered.kconfig"
    options = 'config N\n\tint "n"\n\tdefault 1\nconfig M\n\tint "m"\n\tdefault 2\n'
    path.write_text(options + f'config X\n\tbool "x" if {condition}\n')
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error [X]: {message}" in err
    assert err.endswith("error: validation failed\n")


@pytest.mark.parametrize("command", ["check", "translate"])
@pytest.mark.parametrize("case", list(DERIVED_NAME_COLLISIONS))
def test_name_of_a_derived_variable_exits_2(command, case, tmp_path, capsys):
    text, name = DERIVED_NAME_COLLISIONS[case]
    path = tmp_path / "derived.kconfig"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error [{name}]: option name {name} collides with a derived variable" in err


# A modules switch on anything but a bool option, beside a tristate option
# that the switch gates.
_NON_BOOL_SWITCHES = {
    "tristate": 'config M\n\ttristate "m"\n\tdefault y\n\toption modules\n',
    "int": 'config M\n\tint "m"\n\tdefault 1\n\toption modules\n',
    "hex": 'config M\n\thex "m"\n\tdefault 0x1\n\toption modules\n',
    "string": 'config M\n\tstring "m"\n\tdefault "x"\n\toption modules\n',
}


@pytest.mark.parametrize("command", ["check", "translate", "stats"])
@pytest.mark.parametrize("kind", list(_NON_BOOL_SWITCHES))
def test_non_bool_modules_switch_exits_2(command, kind, tmp_path, capsys):
    path = tmp_path / "m.kconfig"
    path.write_text(_NON_BOOL_SWITCHES[kind] + 'config T\n\ttristate "t"\n')
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: m.kconfig:4:1: 'option modules' needs a bool option; M is {kind}\n"
    )


@pytest.mark.parametrize("command", ["check", "translate", "stats"])
def test_non_utf8_file_exits_2(command, tmp_path, capsys):
    path = tmp_path / "bad.kconfig"
    path.write_bytes(b'config A\n\tbool "caf\xe9"\n')
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "translate", "stats"])
def test_carriage_return_inside_a_line_ends_no_line(command, tmp_path, capsys):
    # kconfig breaks lines at \n alone; a \r before it is dropped.
    path = tmp_path / "cr.kconfig"
    path.write_bytes(b'config A\r\n\tbool "a\rb"\r\n')
    extra = ["--model", str(tmp_path / "out.model")] if command == "translate" else []
    assert main([command, str(path), *extra]) == 0
    assert capsys.readouterr().err == ""


# Past Python's recursion limit in the encoder: a 1,000-term conjunction and
# 1,000 ``depends on`` lines.
_DEEP_PREFIX = 'config A\n\tbool "a"\nconfig B\n\tbool "b"\n'
DEEP_MODELS = {
    "conjunction": _DEEP_PREFIX + "\tdepends on " + " && ".join(["A"] * 1000) + "\n",
    "depends_lines": _DEEP_PREFIX + "\tdepends on A\n" * 1000,
}


@pytest.mark.parametrize("command", ["check", "translate", "stats"])
@pytest.mark.parametrize("shape", list(DEEP_MODELS))
def test_deep_input_exits_2(command, shape, tmp_path, capsys):
    path = tmp_path / "deep.kconfig"
    path.write_text(DEEP_MODELS[shape])
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: input nested too deeply\n"


def _run_on(text, command, directory, capsys):
    """Exit code, output (timings dropped) and written files of one command
    on ``text`` saved as ``directory/m.kconfig``."""
    directory.mkdir()
    path = directory / "m.kconfig"
    path.write_text(text)
    extra = []
    if command == "translate":
        extra = ["--model", str(directory / "out.model"), "--dimacs", str(directory / "out.dimacs")]
    code = main([command, str(path), *extra])
    out, err = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name.startswith("out.")}
    return code, re.sub(r"\([0-9.]+ ms\)", "(ms)", out), err, files


# The parser takes nesting of any depth: parenthesized input gives the same
# model, and so the same output, as the input without the parentheses.
@pytest.mark.parametrize("command", ["check", "translate", "stats"])
@pytest.mark.parametrize("depth", [1000, 5000])
def test_nested_parentheses_match_flat_input(command, depth, tmp_path, capsys):
    nested = _DEEP_PREFIX + "\tdepends on " + "(" * depth + "A" + ")" * depth + "\n"
    flat = _DEEP_PREFIX + "\tdepends on A\n"
    got = _run_on(nested, command, tmp_path / "nested", capsys)
    assert got == _run_on(flat, command, tmp_path / "flat", capsys)
    assert got[0] == 0 and got[2] == ""
    if command == "translate":
        assert set(got[3]) == {"out.model", "out.dimacs"}


# Validation's dependency-cycle search used to recurse once per link.
@pytest.mark.parametrize("command", ["translate", "stats"])
def test_flat_dependency_chain_exits_0(command, tmp_path, capsys):
    count = 1500
    path = tmp_path / "chain.kconfig"
    path.write_text(
        "".join(
            f'config O{i}\n\tbool "o{i}"\n' + (f"\tdepends on O{i + 1}\n" if i + 1 < count else "")
            for i in range(count)
        )
    )
    assert main([command, str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "constraints:" in out


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(
            ["check", "{file}", "--max-options", "12"],
            "unrecognized arguments: --max-options 12",
            id="check-max-options-is-gone",
        ),
        pytest.param(
            ["corpus", "{dir}", "--max-options", "12"],
            "unrecognized arguments: --max-options 12",
            id="corpus-max-options-is-gone",
        ),
        (["corpus", "{dir}", "--jobs", "0"], "argument --jobs: must be at least 1, got 0"),
        (["corpus", "{dir}", "--jobs", "-3"], "argument --jobs: must be at least 1, got -3"),
        (["corpus", "{dir}", "--generated", "-5"], "argument --generated: must be at least 0, got -5"),
        (["corpus", "{dir}", "--jobs", "two"], "argument --jobs: invalid int value: 'two'"),
    ],
)
def test_bad_count_exits_2(args, message, golden_choice_file, capsys):
    paths = {"file": golden_choice_file, "dir": golden_choice_file.parent}
    with pytest.raises(SystemExit) as raised:
        main([arg.format(**paths) for arg in args])
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


class TestCorpusCommand:
    def test_repo_corpus(self, corpus_dir, tmp_path, capsys):
        report_path = tmp_path / "report.txt"
        code = main(["corpus", str(corpus_dir), "--report", str(report_path)])
        assert code == 0
        assert report_path.read_text().strip().endswith("status=PASS")

    def test_missing_directory_exits_2(self, tmp_path):
        assert main(["corpus", str(tmp_path / "nope")]) == 2

    def test_unwritable_report_exits_2(self, golden_choice_file, tmp_path, capsys):
        target = tmp_path / "missing" / "report.txt"
        code = main(["corpus", str(golden_choice_file.parent), "--report", str(target)])
        assert code == 2
        assert f"error: cannot write {target}" in capsys.readouterr().err

    def test_failing_corpus_exits_1(self, tmp_path, capsys):
        (tmp_path / "broken.kconfig").write_text("menu nope\n")
        assert main(["corpus", str(tmp_path)]) == 1

    def test_unreadable_file_is_an_error_row(self, tmp_path, capsys):
        (tmp_path / "bad.kconfig").write_bytes(b'config A\n\tbool "caf\xe9"\n')
        (tmp_path / "dir.kconfig").mkdir()
        (tmp_path / "good.kconfig").write_text('config A\n\tbool "a"\n')
        assert main(["corpus", str(tmp_path)]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows[:3]] == [
            "file=bad.kconfig",
            "file=dir.kconfig",
            "file=good.kconfig",
        ]
        assert "status=ERROR error=\"cannot read bad.kconfig: " in rows[0]
        assert "status=ERROR error=\"cannot read dir.kconfig: " in rows[1]
        assert rows[2].endswith("status=PASS")
        assert rows[3].startswith("corpus files=3 failing=2 errors=2 ")

    def test_carriage_return_inside_a_line_ends_no_line(self, tmp_path, capsys):
        (tmp_path / "cr.kconfig").write_bytes(b'config A\r\n\tbool "a\rb"\r\n')
        assert main(["corpus", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("file=cr.kconfig options=1 ")

    def test_deep_file_is_an_error_row(self, tmp_path, capsys):
        (tmp_path / "deep.kconfig").write_text(DEEP_MODELS["conjunction"])
        (tmp_path / "good.kconfig").write_text('config A\n\tbool "a"\n')
        assert main(["corpus", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert rows[0].startswith("file=deep.kconfig ")
        assert rows[0].endswith("status=ERROR error='input nested too deeply'")
        assert rows[1].startswith("file=good.kconfig ") and rows[1].endswith("status=PASS")
        assert rows[2].startswith("corpus files=2 failing=1 errors=1 ")
        assert captured.err == ""


    def test_too_many_options_row_counts_the_options(self, tmp_path, capsys):
        (tmp_path / "wide.kconfig").write_text(_bools(23))
        assert main(["corpus", str(tmp_path)]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == (
            "file=wide.kconfig options=23 configs=0 failures=0 known_limits=0 millis=0.0 "
            "status=ERROR error='model has 8388608 configurations, enumeration bound is 4194304'"
        )
        assert rows[1].startswith("corpus files=1 failing=1 errors=1 ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_inputs_too_large_to_print_are_error_rows(self, jobs, tmp_path, capsys):
        (tmp_path / "huge.kconfig").write_text(_bools(15000))
        (tmp_path / "literal.kconfig").write_text(HUGE_LITERAL)
        (tmp_path / "small.kconfig").write_text(_bools(2))
        assert main(["corpus", str(tmp_path), "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        rows = [re.sub(r"millis=\d+\.\d", "millis=MS", row) for row in captured.out.splitlines()]
        assert rows == [
            "file=huge.kconfig options=15000 configs=0 failures=0 known_limits=0 millis=MS status=ERROR "
            "error='model has about 10^4515 configurations, enumeration bound is 4194304'",
            "file=literal.kconfig options=2 configs=0 failures=0 known_limits=0 millis=MS status=ERROR "
            f"error={HUGE_LITERAL_ERROR!r}",
            "file=small.kconfig options=2 configs=4 failures=0 known_limits=0 millis=MS status=PASS",
            "corpus files=3 failing=2 errors=2 seed=0 status=FAIL",
        ]
        assert captured.err == ""

    def test_decimal_past_int_digit_limit_is_an_error_row(self, tmp_path, capsys):
        (tmp_path / "decimal.kconfig").write_text(LONG_DECIMAL)
        assert main(["corpus", str(tmp_path)]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert rows == [
            "file=decimal.kconfig options=2 configs=0 failures=0 known_limits=0 millis=0.0 "
            f"status=ERROR error={LONG_DECIMAL_ERROR!r}",
            "corpus files=1 failing=1 errors=1 seed=0 status=FAIL",
        ]

    def test_non_bool_modules_switch_is_an_error_row(self, tmp_path, capsys):
        (tmp_path / "m.kconfig").write_text(_NON_BOOL_SWITCHES["int"])
        assert main(["corpus", str(tmp_path)]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == (
            "file=m.kconfig options=0 configs=0 failures=0 known_limits=0 millis=0.0 "
            "status=ERROR error=\"m.kconfig:4:1: 'option modules' needs a bool option; M is int\""
        )
        assert rows[1].startswith("corpus files=1 failing=1 errors=1 ")

    def test_invalid_model_row_counts_the_options(self, tmp_path, capsys):
        (tmp_path / "a.kconfig").write_text(
            'config A\n\tbool "a"\n\tselect N\n\nconfig N\n\tint "n"\n'
        )
        assert main(["corpus", str(tmp_path)]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == (
            "file=a.kconfig options=2 configs=0 failures=0 known_limits=0 millis=0.0 "
            "status=ERROR error='error [A]: select target N is not bool/tristate'"
        )
        assert rows[1].startswith("corpus files=1 failing=1 errors=1 ")


class TestStatsCommand:
    def test_golden_counts_match_translate(self, golden_choice_file, capsys):
        from kconfex.encode import translate
        from kconfex.kconfig import parse_model

        assert main(["stats", str(golden_choice_file)]) == 0
        out = capsys.readouterr().out
        model = parse_model(NOPROMPT_CHOICE_SOURCE, "golden_choice")
        cs = translate(model)
        assert f"options: 3" in out
        assert f"constraints: {len(cs)}" in out
        assert f"variables: {len(cs.variable_order)}" in out

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["stats", str(tmp_path / "none.kconfig")]) == 2
