
import tempfile

import pytest

from kconfex.cli import main
from kconfex.prop import parse_dimacs

from conftest import DERIVED_NAME_COLLISIONS, NOPROMPT_CHOICE_SOURCE


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
        assert cnf.clauses == []

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

    def test_bound_exceeded_exits_3(self, tmp_path):
        path = tmp_path / "wide.kconfig"
        path.write_text("".join(f'config O{i}\n\tbool "o"\n' for i in range(12)))
        assert main(["check", str(path)]) == 3

    def test_exec_oracle_removes_its_workdir(self, tmp_path, monkeypatch):
        conf = tmp_path / "conf"
        conf.write_text("#!/bin/sh\nexit 0\n")
        conf.chmod(0o755)
        path = tmp_path / "one.kconfig"
        path.write_text('config A\n\tbool "a"\n')
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["check", str(path), "--oracle", f"exec:{conf}"]) == 0
        assert not list(tmp_path.glob("kconfex-conf-*"))

    def test_exec_oracle_with_relative_paths(self, tmp_path, monkeypatch):
        conf = tmp_path / "conf"
        conf.write_text('#!/bin/sh\ntest -f "$2"\n')  # fails unless the model file is found
        conf.chmod(0o755)
        (tmp_path / "one.kconfig").write_text('config A\n\tbool "a"\n')
        monkeypatch.chdir(tmp_path)
        assert main(["check", "one.kconfig", "--oracle", "exec:./conf"]) == 0

    def test_bound_override(self, tmp_path):
        path = tmp_path / "wide.kconfig"
        path.write_text("".join(f'config O{i}\n\tbool "o"\n' for i in range(12)))
        assert main(["check", str(path), "--max-options", "12"]) == 0


@pytest.mark.parametrize("command", ["check", "translate"])
def test_range_bound_outside_option_type_exits_2(command, tmp_path, capsys):
    path = tmp_path / "range.kconfig"
    for ranges in ("\trange 0x0 0x10\n", "\trange 10 5\n\tdefault 7\n"):
        path.write_text('config N\n\tint "n"\n' + ranges)
        assert main([command, str(path)]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "translate"])
@pytest.mark.parametrize("case", list(DERIVED_NAME_COLLISIONS))
def test_name_of_a_derived_variable_exits_2(command, case, tmp_path, capsys):
    text, name = DERIVED_NAME_COLLISIONS[case]
    path = tmp_path / "derived.kconfig"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error [{name}]: option name {name} collides with a derived variable" in err


@pytest.mark.parametrize("command", ["check", "translate", "stats"])
def test_non_utf8_file_exits_2(command, tmp_path, capsys):
    path = tmp_path / "bad.kconfig"
    path.write_bytes(b'config A\n\tbool "caf\xe9"\n')
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in err


# Past Python's recursion limit in the parser or in the encoder: 1,000 nested
# parentheses, a 1,000-term conjunction, and 1,000 ``depends on`` lines.
_DEEP_PREFIX = 'config A\n\tbool "a"\nconfig B\n\tbool "b"\n'
DEEP_MODELS = {
    "parentheses": _DEEP_PREFIX + "\tdepends on " + "(" * 1000 + "A" + ")" * 1000 + "\n",
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


@pytest.mark.parametrize(
    "args, message",
    [
        (["check", "{file}", "--max-options", "-1"], "argument --max-options: must be at least 0, got -1"),
        (["corpus", "{dir}", "--max-options", "-2"], "argument --max-options: must be at least 0, got -2"),
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

    def test_deep_file_is_an_error_row(self, tmp_path, capsys):
        (tmp_path / "deep.kconfig").write_text(DEEP_MODELS["parentheses"])
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
        (tmp_path / "one.kconfig").write_text('config A\n\tbool "a"\n')
        assert main(["corpus", str(tmp_path), "--max-options", "0"]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == (
            "file=one.kconfig options=1 configs=0 failures=0 known_limits=0 millis=0.0 "
            "status=ERROR error='model declares 1 options, enumeration bound is 0'"
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
