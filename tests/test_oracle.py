import ast
import hashlib
import io
import itertools
import json
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import kconfex
from kconfex import oracle
from kconfex.cli import _make_oracle, main
from kconfex.difftest import (
    _enumerate,
    builtin_oracle,
    check_model,
    generate_model_text,
    row_oracle,
)
from kconfex.errors import EvalError, FormatError, NonConvergence, ProcessError, UnwritableValue
from kconfex.kconfig import (
    ConfigItem,
    Default,
    KconfigModel,
    Not,
    OptionType,
    Sym,
    expr_nodes,
    parse_model,
)
from kconfex.oracle import (
    _Choice,
    _Option,
    _plan,
    external_conf_oracle,
    parse_dotconfig,
    repair_space,
    write_dotconfig,
)
from kconfex.tri import RowValues, Tri, row_config

from conftest import (
    BOUND_MODEL_SOURCE,
    CORPUS_DIR,
    bench_module,
    corpus_models,
    enumerated_configs,
    repair_row,
)

REPAIR_DIGEST = Path(__file__).resolve().parent / "repair_digest.json"


def _model(text):
    return parse_model(text, "t")


def _repair_digests() -> dict[str, str]:
    """Per model, the sha256 of (repaired, changed, select_override_fired)
    over every enumerated configuration of every corpus model and of
    generated seeds 0-99, read from one whole-space repair per model (each
    row equals the one-row repair: ``test_one_row_equals_whole_space``)."""
    models = corpus_models() + [
        (f"generated[seed={seed}]", parse_model(generate_model_text(seed), "generated"))
        for seed in range(100)
    ]
    digests = {}
    for name, model in models:
        _, ones, whole = _whole_space(model)
        sha = hashlib.sha256()
        for k in range(ones.bit_length()):
            repaired = sorted(
                (n, v.label if isinstance(v, Tri) else v)
                for n, v in row_config(whole.repaired, k).items()
            )
            row = [repaired, bool(whole.changed >> k & 1), bool(whole.select_override_fired >> k & 1)]
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
        outcome = repair_row(noprompt_choice_model, cfg)
        assert not outcome.changed
        assert outcome.repaired == cfg

    def test_golden_empty_config_repaired(self, noprompt_choice_model):
        cfg = {"A": Tri.N, "B": Tri.N, "NOPROMPT": Tri.N}
        outcome = repair_row(noprompt_choice_model, cfg)
        assert outcome.changed
        assert outcome.repaired["NOPROMPT"] is Tri.Y
        assert [outcome.repaired[n] for n in "AB"].count(Tri.Y) == 1

    def test_unconstrained_bool(self):
        model = _model('config X\n\tbool "x"\n')
        assert not repair_row(model, {"X": Tri.Y}).changed
        assert not repair_row(model, {"X": Tri.N}).changed

    def test_golden_truth_table(self, noprompt_choice_model):
        valid = set()
        for a, b, npt in itertools.product((Tri.N, Tri.Y), repeat=3):
            cfg = {"A": a, "B": b, "NOPROMPT": npt}
            if not repair_row(noprompt_choice_model, cfg).changed:
                names = frozenset(k for k, v in cfg.items() if v is Tri.Y)
                valid.add(names)
        assert valid == {
            frozenset({"A", "NOPROMPT"}),
            frozenset({"B", "NOPROMPT"}),
        }

    def test_empty_model(self):
        assert not repair_row(_model(""), {}).changed

    def test_select_truth_table(self):
        model = _model('config O\n\tbool "o"\n\tselect P\nconfig P\n\tbool "p"\n')
        valid = {
            (o, p)
            for o, p in itertools.product((Tri.N, Tri.Y), repeat=2)
            if not repair_row(model, {"O": o, "P": p}).changed
        }
        assert valid == {(Tri.N, Tri.N), (Tri.N, Tri.Y), (Tri.Y, Tri.Y)}

    def test_select_override_flag(self):
        model = _model(
            'config D\n\tbool "d"\n'
            'config P\n\tbool "p"\n\tdepends on D\n'
            'config O\n\tbool "o"\n\tselect P\n'
        )
        cfg = {"D": Tri.N, "P": Tri.Y, "O": Tri.Y}
        outcome = repair_row(model, cfg)
        assert not outcome.changed
        assert outcome.select_override_fired

    def test_invisible_hex_defaults_keep_hex_text(self):
        model = _model(
            'config A\n\tbool "a"\n'
            "config H\n\thex\n\tdefault 0x10 if A\n\tdefault 0x3\n"
            "config L\n\thex\n\tdefault 0x100\n\trange 0x0 0xff\n"
        )
        cfg = {"A": Tri.Y, "H": "0x10", "L": "0xff"}
        assert not repair_row(model, cfg).changed

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
            repair_row(model, {"A": Tri.N})

    def test_idempotence_smoke(self, noprompt_choice_model):
        for a, b, npt in itertools.product((Tri.N, Tri.Y), repeat=3):
            cfg = {"A": a, "B": b, "NOPROMPT": npt}
            repaired = repair_row(noprompt_choice_model, cfg).repaired
            assert not repair_row(noprompt_choice_model, repaired).changed


def _whole_space(model):
    columns, ones, _ = _enumerate(model)
    return columns, ones, repair_space(model, columns, ones)


class TestRepairSpace:
    def test_one_row_equals_whole_space(self):
        """The one-row repair of cfg_k is row k of the whole-space repair, repaired
        values and the options they hold included, on every corpus model and
        generated seeds 0-99."""
        models = corpus_models() + [
            (f"generated[seed={seed}]", parse_model(generate_model_text(seed), "generated"))
            for seed in range(100)
        ]
        for name, model in models:
            columns, ones, whole = _whole_space(model)
            for k in range(ones.bit_length()):
                cfg = row_config(columns, k)
                one = repair_row(model, cfg)
                assert one.repaired == row_config(whole.repaired, k), (name, cfg)
                assert one.changed == bool(whole.changed >> k & 1), (name, cfg)
                assert one.select_override_fired == bool(
                    whole.select_override_fired >> k & 1
                ), (name, cfg)

    def test_row_oracle_of_one_row_repairs_equals_builtin(self):
        """``row_oracle`` asking the one-row repair for each decoded row gives
        the builtin oracle's valid and override masks, on every corpus model
        and generated seeds 0-99."""

        def verdict(model, cfg):
            outcome = repair_row(model, cfg)
            return not outcome.changed, outcome.select_override_fired

        models = corpus_models() + [
            (f"generated[seed={seed}]", parse_model(generate_model_text(seed), "generated"))
            for seed in range(100)
        ]
        overridden = 0
        for name, model in models:
            columns, ones, _ = _enumerate(model)
            expected = builtin_oracle(model, columns, ones)
            assert row_oracle(verdict)(model, columns, ones) == expected, name
            overridden += bool(expected[1])
        assert overridden > 0

    def test_changed_rows_are_the_decoded_differences(self):
        """``changed`` holds exactly the rows whose repaired configuration
        differs from the enumerated one, on every corpus model and
        generated seeds 0-99."""
        models = corpus_models() + [
            (f"generated[seed={seed}]", parse_model(generate_model_text(seed), "generated"))
            for seed in range(100)
        ]
        changed_rows = 0
        for name, model in models:
            columns, ones, whole = _whole_space(model)
            differing = 0
            for k in range(ones.bit_length()):
                if row_config(whole.repaired, k) != row_config(columns, k):
                    differing |= 1 << k
            assert whole.changed == differing, name
            changed_rows += differing.bit_count()
        assert changed_rows > 0

    def test_changed_is_the_column_difference(self):
        """``changed``, the OR of the rows each pass changed, equals the OR
        over options and values of each given column XOR its repaired
        column, on the corpus, generated seeds 0-299, the benchmark's 100
        fuzz models of seed 0 (valued options with partial domains, which
        exercise ``set_values``) and its bound models of seeds 0-9."""
        with bench_module("gen") as gen:
            texts = [generate_model_text(seed) for seed in range(300)]
            texts += [gen.fuzz_model_text(0, index) for index in range(100)]
            texts += [gen.bound_model_text(seed) for seed in range(10)]
        models = corpus_models() + [
            (f"text[{i}]", parse_model(text, "t")) for i, text in enumerate(texts)
        ]
        changed_rows = valued = 0
        for name, model in models:
            columns, _, whole = _whole_space(model)
            differing = 0
            for item in model.items:
                before, after = columns.get(item.name, {}), whole.repaired.get(item.name, {})
                for value in before.keys() | after.keys():
                    differing |= before.get(value, 0) ^ after.get(value, 0)
            assert whole.changed == differing, name
            changed_rows += differing.bit_count()
            valued += any(not item.is_boolish for item in model.items) and bool(differing)
        assert changed_rows > 0
        assert valued > 0

    def test_empty_configuration(self, noprompt_choice_model):
        outcome = repair_row(noprompt_choice_model, {})
        assert outcome.changed
        assert outcome.repaired == {"A": Tri.Y, "B": Tri.N, "NOPROMPT": Tri.Y}

    def test_missing_choice_member_stays_missing(self):
        model = _model(
            'choice\n\ttristate "pick"\nconfig A\n\ttristate "a"\n'
            'config B\n\ttristate "b"\nendchoice\n'
        )
        outcome = repair_row(model, {"A": Tri.M})
        assert not outcome.changed
        assert outcome.repaired == {"A": Tri.M}

    def test_visible_values_outside_the_domain_kept_verbatim(self):
        model = _model(
            'config N\n\tint "n"\n\trange 0 100\n\tdefault 5\n'
            'config H\n\thex "h"\n\tdefault 0x10\n'
        )
        assert not repair_row(model, {"N": "42", "H": "7f"}).changed
        assert not repair_row(model, {"N": "42", "H": "0X7F"}).changed
        outcome = repair_row(model, {"N": "200"})
        assert outcome.repaired == {"N": "5", "H": "0x10"}

    def test_unreached_comparison_does_not_raise(self):
        # B reads S < 5 only on rows where A is n.
        model = _model(
            'config A\n\tbool "a"\nconfig S\n\tstring "s"\n\tdefault "sa"\n'
            "config B\n\tbool\n\tdefault y if A\n\tdefault y if S < 5\n"
        )
        assert not repair_row(model, {"A": Tri.Y, "S": "sa", "B": Tri.Y}).changed
        columns = {"A": {Tri.Y: 0b11}, "S": {"sa": 0b11}, "B": {Tri.N: 0b01, Tri.Y: 0b10}}
        assert repair_space(model, columns, 0b11).changed == 0b01
        with pytest.raises(EvalError, match="'sa'"):
            _whole_space(model)

    def test_select_condition_unread_while_the_selector_is_missing(self):
        # O is missing until its own step writes it, so P's select condition
        # is not read in the first pass; D fails first, on T's text.
        model = _model(
            'config S\n\tstring "s"\n\tdefault "sa"\n'
            'config T\n\tstring "t"\n\tdefault "tb"\n'
            'config P\n\tbool "p"\n'
            "config D\n\tbool\n\tdefault y if T < 5\n"
            'config O\n\tbool "o"\n\tselect P if S < 5\n'
        )
        with pytest.raises(EvalError, match="'tb'"):
            repair_row(model, {"S": "sa", "T": "tb", "P": Tri.N, "D": Tri.N})

    def test_error_of_the_first_failing_row(self):
        # Row 0 (C=n) first fails at D on T's text; rows with C=y fail
        # earlier in the pass, at B on S's text.
        model = _model(
            'config S\n\tstring "s"\n\tdefault "sa"\n'
            'config T\n\tstring "t"\n\tdefault "tb"\n'
            "config B\n\tbool\n\tdefault y if !C\n\tdefault y if S < 5\n"
            "config D\n\tbool\n\tdefault y if T < 5\n"
            "config C\n\tbool\n\tdefault y\n"
        )
        first, second = enumerated_configs(model)[2][:2]
        with pytest.raises(EvalError, match="'tb'"):
            repair_row(model, first)
        with pytest.raises(EvalError, match="'sa'"):
            repair_row(model, second)
        with pytest.raises(EvalError, match="'tb'"):
            _whole_space(model)

    @pytest.mark.parametrize("row_at_y, error", [(0, "'tb'"), (1, "'sa'")])
    def test_error_of_the_lowest_failing_row(self, row_at_y, error):
        """Two rows, each failing with an error of its own: X reads S's text
        where A is n, Y reads T's where A is y, and X's error is met first in
        the pass.  The repair raises the error of row 0, whichever it is."""
        model = _model(
            'config S\n\tstring "s"\n\tdefault "sa"\n'
            'config T\n\tstring "t"\n\tdefault "tb"\n'
            'config A\n\tbool "a"\n'
            "config X\n\tbool\n\tdefault n if A\n\tdefault y if S < 5\n"
            "config Y\n\tbool\n\tdefault n if !A\n\tdefault y if T < 5\n"
        )
        at_y = 1 << row_at_y
        columns = {"S": {"sa": 0b11}, "T": {"tb": 0b11}, "A": {Tri.N: 0b11 ^ at_y, Tri.Y: at_y}}
        with pytest.raises(EvalError, match=error):
            repair_space(model, columns, 0b11)
        with pytest.raises(EvalError, match=error):
            repair_row(model, row_config(columns, 0))

    def test_masks_lie_inside_the_row_set(self, monkeypatch):
        """After the repair, each bool or tristate option has y inside ge
        inside present inside ``ones``, each int, hex or string option's
        parts are disjoint and cover ``ones``, and the changed and override
        masks lie inside ``ones``: the complements ``ones ^ x`` and ``a ^ b``
        of the repair and the comparison operands rely on it.  The final
        values are read where the repair turns them into columns."""

        def inside(a, b):
            return a >= 0 and a | b == b

        final = []
        columns = RowValues.columns

        def captured(values):
            final.append(values)
            return columns(values)

        monkeypatch.setattr(RowValues, "columns", captured)
        models = corpus_models() + [("bound", _model(BOUND_MODEL_SOURCE))] + [
            (f"generated[seed={seed}]", parse_model(generate_model_text(seed), "generated"))
            for seed in range(100)
        ]
        for name, model in models:
            _, ones, whole = _whole_space(model)
            values = final.pop()
            assert not final and whole.repaired == columns(values), name
            assert values.ones == ones, name
            for item in model.items:
                option = (name, item.name)
                present = values.present[item.name]
                assert inside(present, ones), option
                if item.is_boolish:
                    ge, y = values.ge[item.name], values.y[item.name]
                    assert inside(y, ge) and inside(ge, present), option
                    continue
                parts = values.values[item.name].values()
                assert all(inside(rows, ones) for rows in parts), option
                assert sum(rows.bit_count() for rows in parts) == ones.bit_count(), option
                covered = 0
                for rows in parts:
                    covered |= rows
                assert covered == ones, option
            assert inside(whole.changed, ones), name
            assert inside(whole.select_override_fired, ones), name


class TestSkippedSteps:
    """After the first pass, a pass runs only the steps that read an option
    written since their last run."""

    @staticmethod
    def _boolish_runs(monkeypatch, model):
        """Per pass of the whole-space repair, the options whose bool or
        tristate step ran."""
        passes = []
        one_pass, recompute_boolish = oracle._Repair.one_pass, oracle._Repair.recompute_boolish

        def counted_pass(state):
            passes.append([])
            return one_pass(state)

        def counted_step(state, opt, *args):
            passes[-1].append(opt.item.name)
            return recompute_boolish(state, opt, *args)

        monkeypatch.setattr(oracle._Repair, "one_pass", counted_pass)
        monkeypatch.setattr(oracle._Repair, "recompute_boolish", counted_step)
        _whole_space(model)
        return passes

    def test_bound_chain_runs_each_step_once(self, monkeypatch):
        # Each option reads only options declared before it, so the second
        # pass, which changes nothing, runs no step.
        passes = self._boolish_runs(monkeypatch, _model(BOUND_MODEL_SOURCE))
        assert passes == [["MODULES"] + [f"T{i}" for i in range(1, 10)], []]

    def test_only_readers_of_a_later_write_run_again(self, monkeypatch):
        # C reads its selector B, B reads its selector A.  The first pass
        # raises B under A after C ran, so the second runs C alone.
        path = CORPUS_DIR / "select_chain.kconfig"
        model = parse_model(path.read_text(encoding="utf-8"), path.name)
        assert self._boolish_runs(monkeypatch, model) == [["C", "B", "A"], ["C"], []]


def _evaluated_options(model, step) -> set[str]:
    """The declared options a repair step evaluates, collected from every
    field of the plan that the step reads."""
    exprs, names = [], []
    if isinstance(step, _Choice):
        block, options = step.block, step.members
        exprs += [block.depends, *(p.condition for p in block.prompts)]
        exprs += [e for d in block.defaults for e in d]
        names += block.members  # the mode and the selection read the members
        if block.type is OptionType.TRISTATE:
            names.append(model.modules_option)
    else:
        options = (step,)
    for opt in options:
        item = opt.item
        exprs += [opt.depends, *(p.condition for p in item.prompts)]
        exprs += [e for d in item.defaults for e in d]
        exprs += [r.condition for r in item.ranges]
        for selector, condition in opt.selectors:
            names.append(selector)
            exprs.append(condition)
        if item.type is OptionType.TRISTATE:
            names.append(model.modules_option)
    names += [n.name for e in exprs if e is not None for n in expr_nodes(e) if type(n) is Sym]
    return {name for name in names if name is not None and model.has_option(name)}


def test_read_sets_cover_what_each_step_evaluates():
    """A step is skipped while nothing in its read set changed, so the read
    set must hold every declared option the step evaluates; on every corpus
    model and generated seeds 0-99.  A new field of the plan is a new read:
    add it to ``_evaluated_options`` and to the read sets."""
    assert _Option._fields == (
        "item",
        "depends",
        "selectors",
        "literal_defaults",
        "always_bool",
        "reads",
    )
    assert _Choice._fields == ("block", "members", "reads")
    models = corpus_models() + [
        (f"generated[seed={seed}]", parse_model(generate_model_text(seed), "generated"))
        for seed in range(100)
    ]
    choices = 0
    for name, model in models:
        for step in _plan(model):
            assert _evaluated_options(model, step) <= step.reads, (name, step)
            choices += isinstance(step, _Choice)
    assert choices > 0


def test_choice_membership_has_one_owner():
    """Each member's ``choice_of`` is the block that lists it, and the plan
    places each choice's step at its first member; on every corpus model
    and generated seeds 0-299."""
    models = corpus_models() + [
        (f"generated[seed={seed}]", parse_model(generate_model_text(seed), "generated"))
        for seed in range(300)
    ]
    choices = 0
    for name, model in models:
        listing = {member: block for block in model.choices for member in block.members}
        for item in model.items:
            assert model.choice_of(item) is listing.get(item.name), (name, item.name)
        expected = []
        for item in model.items:
            block = listing.get(item.name)
            if block is None:
                expected.append(item.name)
            elif item.name == block.members[0]:
                expected.append(block)
        steps = [step.block if isinstance(step, _Choice) else step.item.name for step in _plan(model)]
        assert steps == expected, name  # the choices of one model list different members
        choices += len(model.choices)
    assert choices > 0


class TestDotConfig:
    MODEL = _model(
        'config A\n\tbool "a"\nconfig B\n\tbool "b"\nconfig X\n\ttristate "x"\n'
        'config N\n\tint "n"\n\tdefault 5\n'
    )

    def test_write_bool_lines(self):
        sink = io.StringIO()
        write_dotconfig({"A": Tri.Y, "B": Tri.N}, sink, self.MODEL)
        assert sink.getvalue() == "CONFIG_A=y\n# CONFIG_B is not set\n"

    def test_empty(self):
        sink = io.StringIO()
        write_dotconfig({}, sink, self.MODEL)
        assert sink.getvalue() == ""

    def test_round_trip_mixed(self):
        cfg = {"X": Tri.M, "N": "5"}
        sink = io.StringIO()
        write_dotconfig(cfg, sink, self.MODEL)
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

    @pytest.mark.parametrize(
        "value, line",
        [
            ("a\\", r'CONFIG_S="a\\"'),
            ('a"b', r'CONFIG_S="a\"b"'),
            ('\\"', r'CONFIG_S="\\\""'),
            (r"x\y\\z", r'CONFIG_S="x\\y\\\\z"'),
            ("", 'CONFIG_S=""'),
            ("\t", 'CONFIG_S="\t"'),
            ("a\vb", 'CONFIG_S="a\vb"'),
            ("a\fb", 'CONFIG_S="a\fb"'),
            ("a\x1cb", 'CONFIG_S="a\x1cb"'),
            ("a\x1db", 'CONFIG_S="a\x1db"'),
            ("a\x1eb", 'CONFIG_S="a\x1eb"'),
            ("a\x85b", 'CONFIG_S="a\x85b"'),
            ("a\u2028b", 'CONFIG_S="a\u2028b"'),
            ("a\u2029b", 'CONFIG_S="a\u2029b"'),
            ("a\rb", 'CONFIG_S="a\rb"'),
        ],
        ids=[
            "trailing-backslash",
            "quote",
            "backslash-quote",
            "backslashes",
            "empty",
            "tab",
            "vt",
            "ff",
            "fs",
            "gs",
            "rs",
            "nel",
            "ls",
            "ps",
            "cr",
        ],
    )
    def test_string_values_round_trip(self, value, line):
        """A backslash escapes a backslash or a quote on writing; on reading,
        a backslash and any character give that character.  Lines end at
        ``\\n`` alone, so a string may hold any other line break."""
        model = _model('config S\n\tstring "s"\n')
        sink = io.StringIO()
        write_dotconfig({"S": value}, sink, model)
        assert sink.getvalue() == line + "\n"
        assert parse_dotconfig(io.StringIO(sink.getvalue())) == {"S": value}
        assert parse_dotconfig(io.BytesIO(sink.getvalue().encode("utf-8"))) == {"S": value}

    @pytest.mark.parametrize(
        "value", ["a\nb", "\r\n", "a\n"], ids=["lf", "crlf", "lf-at-end"]
    )
    def test_string_value_with_a_line_break_is_refused(self, value):
        """``parse_dotconfig`` ends a line at ``\\n``, so it could not read
        such a value back."""
        model = _model('config A\n\tbool "a"\nconfig S\n\tstring "s"\n')
        sink = io.StringIO()
        with pytest.raises(UnwritableValue) as info:
            write_dotconfig({"A": Tri.Y, "S": value}, sink, model)
        assert isinstance(info.value, kconfex.KconfexError)
        assert info.value.name == "S" and str(info.value).startswith("CONFIG_S: ")
        assert sink.getvalue() == ""

    def test_backslash_reads_as_the_character_after_it(self):
        # The final backslash has no character after it and stays.
        assert parse_dotconfig(io.StringIO('CONFIG_S="a\\q\\"\n')) == {"S": "aq\\"}

    def test_quoting_follows_the_declared_type(self):
        """A string option holding a numeric text is quoted, and an int or
        hex value is written bare; both read back unchanged."""
        model = _model(
            'config S\n\tstring "s"\nconfig T\n\tstring "t"\n'
            'config N\n\tint "n"\nconfig H\n\thex "h"\n'
        )
        cfg = {"S": "42", "T": "0x10", "N": "42", "H": "0x10"}
        sink = io.StringIO()
        write_dotconfig(cfg, sink, model)
        assert sink.getvalue() == 'CONFIG_S="42"\nCONFIG_T="0x10"\nCONFIG_N=42\nCONFIG_H=0x10\n'
        assert parse_dotconfig(io.StringIO(sink.getvalue())) == cfg

    def test_unset_options_omitted(self):
        sink = io.StringIO()
        write_dotconfig({"N": None, "A": Tri.Y, "Z": Tri.Y}, sink, self.MODEL)
        assert sink.getvalue() == "CONFIG_A=y\n"

    def test_parse_error_carries_line(self):
        with pytest.raises(FormatError) as info:
            parse_dotconfig(io.StringIO("CONFIG_A=y\nwhat is this\n"))
        assert info.value.line == 2

    def test_setting_without_a_name_rejected(self):
        with pytest.raises(FormatError) as info:
            parse_dotconfig(io.StringIO("CONFIG_A=y\nCONFIG_=y\n"))
        assert (info.value.message, info.value.line) == ("missing option name", 2)

    @pytest.mark.parametrize("form", [str, lambda text: text.encode("utf-8")], ids=["str", "bytes"])
    def test_whole_text_reads_line_by_line(self, form):
        text = 'CONFIG_S="a b"\n# CONFIG_A is not set\nCONFIG_N=3'
        assert parse_dotconfig(form(text)) == {"S": "a b", "A": Tri.N, "N": "3"}
        with pytest.raises(FormatError) as info:
            parse_dotconfig(form(text + "\nwhat"))
        assert (info.value.message, info.value.line) == ("unrecognized line 'what'", 4)

    def test_lines_end_at_lf_alone(self):
        """As kconfig reads a ``.config``: a CR ends no line, and one before
        the LF is dropped."""
        data = b'CONFIG_A=y\r\nCONFIG_S="a\rb"\r\n# CONFIG_B is not set\rCONFIG_C=y\r\n'
        cfg = {"A": Tri.Y, "S": "a\rb"}
        assert parse_dotconfig(data) == parse_dotconfig(data.decode("utf-8")) == cfg
        assert parse_dotconfig(io.BytesIO(data)) == parse_dotconfig(io.StringIO(data.decode("utf-8"))) == cfg

    def test_bytes_parse_as_text_does(self):
        text = 'CONFIG_A=y\r\n# CONFIG_B is not set\rCONFIG_S="caf\u00e9"\nCONFIG_N=3'
        assert parse_dotconfig(io.BytesIO(text.encode("utf-8"))) == parse_dotconfig(io.StringIO(text))

    @pytest.mark.parametrize(
        "data, line",
        [
            (b'CONFIG_S="\xff"\n', 1),
            (b'CONFIG_A=y\n\nCONFIG_S="caf\xe9"\n', 3),
            (b"CONFIG_A=y\r\nCONFIG_B=\xc3", 2),
            (b"CONFIG_A=y\rCONFIG_B=\xc3", 1),
        ],
        ids=["first-line", "third-line", "after-a-cr", "cr-ends-no-line"],
    )
    def test_bytes_that_are_not_utf8_name_the_line(self, data, line):
        with pytest.raises(FormatError) as info:
            parse_dotconfig(io.BytesIO(data))
        assert (info.value.message, info.value.line) == ("not UTF-8 text", line)


def _write_fake_conf(path, script):
    path.write_text(script)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)


ONE_BOOL = _model('config A\n\tbool "a"\n')


class TestExternalOracle:
    def test_missing_binary(self, tmp_path):
        with pytest.raises(ProcessError):
            external_conf_oracle(
                str(tmp_path / "missing"), "model", {"A": Tri.Y}, str(tmp_path), ONE_BOOL
            )

    def test_accepting_binary(self, tmp_path):
        conf = tmp_path / "conf"
        _write_fake_conf(conf, "#!/bin/sh\nexit 0\n")
        verdict = external_conf_oracle(
            str(conf), "model.kconfig", {"A": Tri.Y}, str(tmp_path), ONE_BOOL
        )
        assert verdict == (True, False)

    def test_repairing_binary(self, tmp_path):
        conf = tmp_path / "conf"
        _write_fake_conf(
            conf, '#!/bin/sh\necho "CONFIG_EXTRA=y" >> "$KCONFIG_CONFIG"\nexit 0\n'
        )
        verdict = external_conf_oracle(
            str(conf), "model.kconfig", {"A": Tri.Y}, str(tmp_path), ONE_BOOL
        )
        assert verdict == (False, False)

    def test_unmet_dependencies_warning_flags_override(self, tmp_path):
        conf = tmp_path / "conf"
        _write_fake_conf(
            conf,
            "#!/bin/sh\necho 'WARNING: unmet direct dependencies detected for A' >&2\nexit 0\n",
        )
        verdict = external_conf_oracle(
            str(conf), "model.kconfig", {"A": Tri.Y}, str(tmp_path), ONE_BOOL
        )
        assert verdict == (True, True)

    def test_failing_binary(self, tmp_path):
        conf = tmp_path / "conf"
        _write_fake_conf(conf, "#!/bin/sh\nexit 3\n")
        with pytest.raises(ProcessError):
            external_conf_oracle(
                str(conf), "model.kconfig", {"A": Tri.Y}, str(tmp_path), ONE_BOOL
            )


# A stand-in for kconfig's ``conf --olddefconfig MODEL``: it repairs the
# .config named by KCONFIG_CONFIG in place, with the builtin repair, and warns
# as conf does when a select overrode an option's dependencies.
_STUB_CONF = """\
#!{python} -IBS
import os
import sys

sys.path.insert(0, {src!r})
from kconfex.kconfig import parse_model
from kconfex.oracle import parse_dotconfig, repair_space, write_dotconfig
from kconfex.tri import row_config

config = os.environ["KCONFIG_CONFIG"]
model = parse_model(open(sys.argv[-1], encoding="utf-8").read(), sys.argv[-1])
with open(config, "rb") as fh:
    cfg = parse_dotconfig(fh)
outcome = repair_space(model, {{name: {{value: 1}} for name, value in cfg.items()}}, 1)
with open(config, "w", encoding="utf-8") as fh:
    write_dotconfig(row_config(outcome.repaired, 0), fh, model)
if outcome.select_override_fired:
    print("WARNING: unmet direct dependencies detected", file=sys.stderr)
{tail}"""


def _stub_conf(tmp_path, tail=""):
    conf = tmp_path / "conf"
    src = str(Path(kconfex.__file__).resolve().parent.parent)
    _write_fake_conf(conf, _STUB_CONF.format(python=sys.executable, src=src, tail=tail))
    return conf


def _check_with_stub_conf(tmp_path, model_name, tail=""):
    conf = _stub_conf(tmp_path, tail)
    path = CORPUS_DIR / model_name
    model = parse_model(path.read_text(encoding="utf-8"), model_name)
    oracle, max_rows, workdir = _make_oracle(f"exec:{conf}", str(path))
    try:
        return model, check_model(model, oracle=oracle, max_rows=max_rows)
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
        assert report.config_count == builtin.config_count
        assert report.mismatches == builtin.mismatches

    def test_cli_reports_known_limitation(self, tmp_path, capsys):
        conf = _stub_conf(tmp_path)
        path = CORPUS_DIR / "select_violates_depends.kconfig"
        assert main(["check", str(path), "--oracle", f"exec:{conf}"]) == 0
        out = capsys.readouterr().out
        assert "[KNOWN-LIMITATION] {D=n, P=y, O=y}" in out
        assert "[FAILURE]" not in out

    def test_nonzero_exit_raises(self, tmp_path):
        with pytest.raises(ProcessError, match="exited with 1"):
            _check_with_stub_conf(tmp_path, "choice_bool_basic.kconfig", "sys.exit(1)\n")

    def test_missing_read_back_raises(self, tmp_path):
        with pytest.raises(ProcessError, match="cannot read back"):
            _check_with_stub_conf(tmp_path, "choice_bool_basic.kconfig", "os.remove(config)\n")

    def test_non_utf8_read_back_raises(self, tmp_path, capsys):
        tail = 'with open(config, "ab") as fh:\n    fh.write(b"# caf\\351\\n")\n'
        with pytest.raises(ProcessError, match="cannot read back"):
            _check_with_stub_conf(tmp_path, "choice_bool_basic.kconfig", tail)
        conf = _stub_conf(tmp_path, tail)
        path = CORPUS_DIR / "choice_bool_basic.kconfig"
        assert main(["check", str(path), "--oracle", f"exec:{conf}"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read back")

    def test_non_utf8_read_back_names_the_line(self, tmp_path):
        tail = 'with open(config, "ab") as fh:\n    fh.write(b"# caf\\351\\n")\n'
        with pytest.raises(ProcessError, match=r"cannot read back .*: line \d+: not UTF-8 text") as info:
            _check_with_stub_conf(tmp_path, "choice_bool_basic.kconfig", tail)
        assert isinstance(info.value.__cause__, FormatError)


class TestExecTimeout:
    @pytest.fixture(autouse=True)
    def conf_times_out(self, monkeypatch):
        def run(args, **kwargs):
            raise subprocess.TimeoutExpired(args, kwargs["timeout"])

        monkeypatch.setattr(subprocess, "run", run)

    def test_oracle_raises_process_error(self, tmp_path):
        with pytest.raises(ProcessError, match="timed out after 60 seconds"):
            external_conf_oracle("conf", "model.kconfig", {"A": Tri.Y}, str(tmp_path), ONE_BOOL)

    def test_check_exits_with_input_error(self, capsys):
        path = CORPUS_DIR / "single_bool.kconfig"
        assert main(["check", str(path), "--oracle", "exec:conf"]) == 2
        assert capsys.readouterr().err.startswith("error: failed to run conf")


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
