import io
import itertools
import stat

import pytest

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



def _model(text):
    return parse_model(text, "t")


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
