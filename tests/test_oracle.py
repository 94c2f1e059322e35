import ast
import hashlib
import io
import itertools
import json
import shutil
import stat
import sys
from pathlib import Path

import pytest

import kconfex
from kconfex.cli import _make_oracle
from kconfex.difftest import check_model, enumerate_configs, generate_model_text
from kconfex.errors import FormatError, NonConvergence, ProcessError
from kconfex.kconfig import (
    ConfigItem,
    Default,
    KconfigModel,
    Not,
    OptionType,
    Sym,
    parse_model,
)
from kconfex.oracle import (
    external_conf_oracle,
    parse_dotconfig,
    repair,
    write_dotconfig,
)
from kconfex.tri import Tri

from conftest import CORPUS_DIR, corpus_models

REPAIR_DIGEST = Path(__file__).resolve().parent / "repair_digest.json"


def _model(text):
    return parse_model(text, "t")


def _repair_digests() -> dict[str, str]:
    """Per model, the sha256 of (repaired, changed, select_override_fired)
    over every enumerated configuration of every corpus model and of
    generated seeds 0-99."""
    models = corpus_models() + [
        (f"generated[seed={seed}]", parse_model(generate_model_text(seed), "generated"))
        for seed in range(100)
    ]
    digests = {}
    for name, model in models:
        sha = hashlib.sha256()
        for cfg in enumerate_configs(model):
            outcome = repair(model, cfg)
            repaired = sorted(
                (k, v.label if isinstance(v, Tri) else v) for k, v in outcome.repaired.items()
            )
            row = [repaired, outcome.changed, outcome.select_override_fired]
            sha.update(json.dumps(row).encode("utf-8") + b"\n")
        digests[name] = sha.hexdigest()
    return digests


def test_repair_matches_recorded_digest():
    """Repaired values, not only verdicts, stay as recorded in
    repair_digest.json."""
    recorded = json.loads(REPAIR_DIGEST.read_text(encoding="utf-8"))
    assert _repair_digests() == recorded


class TestRepair:
    def test_golden_valid_config_unchanged(self, noprompt_choice_model):
        cfg = {"A": Tri.Y, "B": Tri.N, "NOPROMPT": Tri.Y}
        outcome = repair(noprompt_choice_model, cfg)
        assert not outcome.changed
        assert outcome.repaired == cfg

    def test_golden_empty_config_repaired(self, noprompt_choice_model):
        cfg = {"A": Tri.N, "B": Tri.N, "NOPROMPT": Tri.N}
        outcome = repair(noprompt_choice_model, cfg)
        assert outcome.changed
        assert outcome.repaired["NOPROMPT"] is Tri.Y
        assert [outcome.repaired[n] for n in "AB"].count(Tri.Y) == 1

    def test_unconstrained_bool(self):
        model = _model('config X\n\tbool "x"\n')
        assert not repair(model, {"X": Tri.Y}).changed
        assert not repair(model, {"X": Tri.N}).changed

    def test_golden_truth_table(self, noprompt_choice_model):
        valid = set()
        for a, b, npt in itertools.product((Tri.N, Tri.Y), repeat=3):
            cfg = {"A": a, "B": b, "NOPROMPT": npt}
            if not repair(noprompt_choice_model, cfg).changed:
                names = frozenset(k for k, v in cfg.items() if v is Tri.Y)
                valid.add(names)
        assert valid == {
            frozenset({"A", "NOPROMPT"}),
            frozenset({"B", "NOPROMPT"}),
        }

    def test_empty_model(self):
        assert not repair(_model(""), {}).changed

    def test_select_truth_table(self):
        model = _model('config O\n\tbool "o"\n\tselect P\nconfig P\n\tbool "p"\n')
        valid = {
            (o, p)
            for o, p in itertools.product((Tri.N, Tri.Y), repeat=2)
            if not repair(model, {"O": o, "P": p}).changed
        }
        assert valid == {(Tri.N, Tri.N), (Tri.N, Tri.Y), (Tri.Y, Tri.Y)}

    def test_select_override_flag(self):
        model = _model(
            'config D\n\tbool "d"\n'
            'config P\n\tbool "p"\n\tdepends on D\n'
            'config O\n\tbool "o"\n\tselect P\n'
        )
        cfg = {"D": Tri.N, "P": Tri.Y, "O": Tri.Y}
        outcome = repair(model, cfg)
        assert not outcome.changed
        assert outcome.select_override_fired

    def test_invisible_hex_defaults_keep_hex_text(self):
        model = _model(
            'config A\n\tbool "a"\n'
            "config H\n\thex\n\tdefault 0x10 if A\n\tdefault 0x3\n"
            "config L\n\thex\n\tdefault 0x100\n\trange 0x0 0xff\n"
        )
        cfg = {"A": Tri.Y, "H": "0x10", "L": "0xff"}
        assert not repair(model, cfg).changed

    def test_nonconvergence_reported(self):
        # a self-referential invisible default oscillates; built directly
        # because validation rejects it
        item = ConfigItem(
            name="A",
            type=OptionType.BOOL,
            defaults=(Default(Not(Sym("A"))),),
        )
        model = KconfigModel(items=(item,), choices=(), modules_option=None)
        with pytest.raises(NonConvergence):
            repair(model, {"A": Tri.N})

    def test_idempotence_smoke(self, noprompt_choice_model):
        for a, b, npt in itertools.product((Tri.N, Tri.Y), repeat=3):
            cfg = {"A": a, "B": b, "NOPROMPT": npt}
            repaired = repair(noprompt_choice_model, cfg).repaired
            assert not repair(noprompt_choice_model, repaired).changed


class TestDotConfig:
    def test_write_bool_lines(self):
        sink = io.StringIO()
        write_dotconfig({"A": Tri.Y, "B": Tri.N}, sink)
        assert sink.getvalue() == "CONFIG_A=y\n# CONFIG_B is not set\n"

    def test_empty(self):
        sink = io.StringIO()
        write_dotconfig({}, sink)
        assert sink.getvalue() == ""

    def test_round_trip_mixed(self):
        cfg = {"X": Tri.M, "N": "5"}
        sink = io.StringIO()
        write_dotconfig(cfg, sink)
        assert sink.getvalue() == "CONFIG_X=m\nCONFIG_N=5\n"
        assert parse_dotconfig(io.StringIO(sink.getvalue())) == cfg

    def test_round_trip_with_model_types(self):
        model = _model(
            'config A\n\tbool "a"\nconfig T\n\ttristate "t"\n'
            'config N\n\tint "n"\n\tdefault 5\nconfig S\n\tstring "s"\n\tdefault "v"\n'
        )
        cfg = {"A": Tri.N, "T": Tri.M, "N": "5", "S": 'va"l'}
        sink = io.StringIO()
        write_dotconfig(cfg, sink, model)
        back = parse_dotconfig(io.StringIO(sink.getvalue()))
        assert back == cfg

    def test_unset_options_omitted(self):
        sink = io.StringIO()
        write_dotconfig({"N": None, "A": Tri.Y}, sink)
        assert sink.getvalue() == "CONFIG_A=y\n"

    def test_parse_error_carries_line(self):
        with pytest.raises(FormatError) as info:
            parse_dotconfig(io.StringIO("CONFIG_A=y\nwhat is this\n"))
        assert info.value.line == 2


def _write_fake_conf(path, script):
    path.write_text(script)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)


class TestExternalOracle:
    def test_missing_binary(self, tmp_path):
        with pytest.raises(ProcessError):
            external_conf_oracle(
                str(tmp_path / "missing"), "model", {"A": Tri.Y}, str(tmp_path)
            )

    def test_accepting_binary(self, tmp_path):
        conf = tmp_path / "conf"
        _write_fake_conf(conf, "#!/bin/sh\nexit 0\n")
        verdict = external_conf_oracle(
            str(conf), "model.kconfig", {"A": Tri.Y}, str(tmp_path)
        )
        assert verdict is True

    def test_repairing_binary(self, tmp_path):
        conf = tmp_path / "conf"
        _write_fake_conf(
            conf, '#!/bin/sh\necho "CONFIG_EXTRA=y" >> "$KCONFIG_CONFIG"\nexit 0\n'
        )
        verdict = external_conf_oracle(
            str(conf), "model.kconfig", {"A": Tri.Y}, str(tmp_path)
        )
        assert verdict is False

    def test_failing_binary(self, tmp_path):
        conf = tmp_path / "conf"
        _write_fake_conf(conf, "#!/bin/sh\nexit 3\n")
        with pytest.raises(ProcessError):
            external_conf_oracle(
                str(conf), "model.kconfig", {"A": Tri.Y}, str(tmp_path)
            )


# A stand-in for kconfig's ``conf --olddefconfig MODEL``: it repairs the
# .config named by KCONFIG_CONFIG in place, with the builtin repair.
_STUB_CONF = """\
#!{python} -IS
import os
import sys

sys.path.insert(0, {src!r})
from kconfex.kconfig import parse_model
from kconfex.oracle import parse_dotconfig, repair, write_dotconfig

config = os.environ["KCONFIG_CONFIG"]
model = parse_model(open(sys.argv[-1], encoding="utf-8").read(), sys.argv[-1])
with open(config, encoding="utf-8") as fh:
    cfg = parse_dotconfig(fh)
with open(config, "w", encoding="utf-8") as fh:
    write_dotconfig(repair(model, cfg).repaired, fh, model)
{tail}"""


def _check_with_stub_conf(tmp_path, model_name, tail=""):
    conf = tmp_path / "conf"
    src = str(Path(kconfex.__file__).resolve().parent.parent)
    _write_fake_conf(conf, _STUB_CONF.format(python=sys.executable, src=src, tail=tail))
    path = CORPUS_DIR / model_name
    model = parse_model(path.read_text(encoding="utf-8"), model_name)
    oracle, workdir = _make_oracle(f"exec:{conf}", str(path))
    try:
        return model, check_model(model, oracle=oracle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class TestExecOracleStub:
    @pytest.mark.parametrize(
        "model_name",
        ["choice_bool_basic.kconfig", "hex_range.kconfig", "select_violates_depends.kconfig"],
    )
    def test_matches_builtin_report(self, tmp_path, model_name):
        model, report = _check_with_stub_conf(tmp_path, model_name)
        builtin = check_model(model)

        def rows(r):
            # The exec oracle cannot tell that a select override fired, so a
            # KNOWN-LIMITATION row of the builtin report is a FAILURE here.
            return [
                (m.cfg, m.oracle_verdict, m.formula_verdict, m.failed_constraints)
                for m in r.mismatches
            ]

        assert report.config_count == builtin.config_count
        assert rows(report) == rows(builtin)

    def test_nonzero_exit_raises(self, tmp_path):
        with pytest.raises(ProcessError, match="exited with 1"):
            _check_with_stub_conf(tmp_path, "choice_bool_basic.kconfig", "sys.exit(1)\n")

    def test_missing_read_back_raises(self, tmp_path):
        with pytest.raises(ProcessError, match="cannot read back"):
            _check_with_stub_conf(tmp_path, "choice_bool_basic.kconfig", "os.remove(config)\n")


def _imported_modules(module) -> set[str]:
    """The modules a source file imports, relative imports by their bare name."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    return names


def test_oracle_and_encoder_stay_independent():
    """The oracle side (oracle.py, tri.py) imports nothing from the encoder,
    and the encoder nothing from the oracle."""
    from kconfex import encode, oracle, tri

    for module in (oracle, tri):
        assert not {n for n in _imported_modules(module) if n.split(".")[-1] == "encode"}
    assert not {n for n in _imported_modules(encode) if n.split(".")[-1] == "oracle"}
