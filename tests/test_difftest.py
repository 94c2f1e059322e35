
import hashlib
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from kconfex.difftest import (
    MAX_CELLS,
    MAX_ROWS,
    CorpusOptions,
    _enumerate,
    _masks,
    builtin_oracle,
    check_model,
    generate_model_text,
    run_corpus,
)
from kconfex.encode import collect_numeric_values, translate
from kconfex.errors import ParseError, TooManyRows, UnsupportedComparison
from kconfex.kconfig import OptionType, parse_model, validate_model
from kconfex.prop import ConstraintSet
from kconfex.tri import Tri, row_config

from conftest import BOUND_MODEL_SOURCE, corpus_models, enumerated_configs, model_counts, single_row


def _model(text):
    return parse_model(text, "t")


def _oracle_rows(model):
    """The enumerated configurations, each with the builtin oracle's verdict."""
    columns, ones, configs = enumerated_configs(model)
    valid, _ = builtin_oracle(model, columns, ones)
    return [(cfg, bool(valid >> k & 1)) for k, cfg in enumerate(configs)]


class TestEnumerate:
    def test_noprompt_choice_count_and_rows(self, noprompt_choice_model):
        _, _, configs = enumerated_configs(noprompt_choice_model)
        assert len(configs) == 8
        assert configs[0] == {"A": Tri.N, "B": Tri.N, "NOPROMPT": Tri.N}
        assert configs[-1] == {"A": Tri.Y, "B": Tri.Y, "NOPROMPT": Tri.Y}
        assert len({tuple(sorted((k, v.value) for k, v in c.items())) for c in configs}) == 8

    def test_single_tristate(self):
        model = _model('config T\n\ttristate "t"\n')
        assert _enumerate(model)[1] == 0b111

    def test_mixed_domain_product(self):
        model = _model(
            'config A\n\tbool "a"\nconfig B\n\tbool "b"\nconfig T\n\ttristate "t"\n'
            'config N\n\tint "n"\n\tdefault 0\n\tdefault 5\n\tdefault 100\n'
        )
        assert _enumerate(model)[1].bit_length() == 2 * 2 * 3 * 3

    def test_bound(self):
        """The bound counts rows, and a model past it raises before any
        column is built: one column of 2**23 rows alone takes 1 MiB."""
        wide = _model("".join(f'config O{i}\n\tbool "o"\n' for i in range(23)))
        tracemalloc.start()
        try:
            with pytest.raises(TooManyRows) as info:
                _enumerate(wide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"model has {2**23} configurations, enumeration bound is {MAX_ROWS}"
        assert peak < 2**17
        twelve = _model("".join(f'config O{i}\n\tbool "o"\n' for i in range(12)))
        assert _enumerate(twelve, 2**12)[1].bit_length() == 2**12
        with pytest.raises(TooManyRows):
            _enumerate(twelve, 2**12 - 1)

    def test_cell_bound(self):
        """Columns cost rows x values, so single-value options, which leave
        the rows alone, count too; past the bound nothing is built."""
        bools = "".join(f'config O{i}\n\tbool "o"\n' for i in range(20))
        strings = "".join(f'config S{i}\n\tstring "s"\n\tdefault "v"\n' for i in range(137))
        model = _model(bools + strings)
        tracemalloc.start()
        try:
            with pytest.raises(TooManyRows) as info:
                _enumerate(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"model has {2**20 * 177} rows x values, enumeration bound is {MAX_CELLS}"
        assert peak < 2**17
        at_bound = _model(bools + strings.rsplit("config ", 1)[0])
        assert len(at_bound.items) == 156 and 2**20 * 176 == MAX_CELLS
        assert _enumerate(at_bound)[1].bit_length() == 2**20

    def test_check_refuses_before_translating(self, monkeypatch):
        def translate(model):
            raise AssertionError("a model past the bound was translated")

        monkeypatch.setattr("kconfex.difftest.translate", translate)
        wide = _model("".join(f'config O{i}\n\tbool "o"\n' for i in range(23)))
        with pytest.raises(TooManyRows):
            check_model(wide)

    def test_skipped_empty_domain(self):
        model = _model('config N\n\tint "n"\nconfig A\n\tbool "a"\n')
        _, _, configs = enumerated_configs(model)
        assert len(configs) == 2
        assert all("N" not in c for c in configs)


class TestGroundTruth:
    def test_noprompt_choice_column(self, noprompt_choice_model):
        rows = _oracle_rows(noprompt_choice_model)
        valid = {
            frozenset(k for k, v in cfg.items() if v is Tri.Y) for cfg, ok in rows if ok
        }
        assert valid == {frozenset({"A", "NOPROMPT"}), frozenset({"B", "NOPROMPT"})}
        assert sum(ok for _, ok in rows) == 2

    def test_empty_model(self):
        assert _oracle_rows(_model("")) == [({}, True)]

    def test_select_table(self):
        model = _model('config O\n\tbool "o"\n\tselect P\nconfig P\n\tbool "p"\n')
        assert sum(ok for _, ok in _oracle_rows(model)) == 3


class TestCheckModel:
    def test_noprompt_choice_passes(self, noprompt_choice_model):
        report = check_model(noprompt_choice_model)
        assert report.passed
        assert report.mismatches == []

    def test_empty_model_passes(self):
        report = check_model(_model(""))
        assert report.passed
        assert report.config_count == 1

    def test_mutated_translation_detected(self, noprompt_choice_model):
        full = translate(noprompt_choice_model)
        doctored = ConstraintSet(
            constraints=[c for c in full if "at-most-one" not in c.provenance],
            variable_order=full.variable_order,
        )
        report = check_model(noprompt_choice_model, constraints=doctored)
        assert not report.passed
        admitting = {"A": Tri.Y, "B": Tri.Y, "NOPROMPT": Tri.Y}
        assert any(
            m.cfg == admitting and m.classification == "FAILURE"
            for m in report.failures
        )

    def test_known_limitation_classification(self):
        model = _model(
            'config D\n\tbool "d"\n'
            'config P\n\tbool "p"\n\tdepends on D\n'
            'config O\n\tbool "o"\n\tselect P\n'
        )
        report = check_model(model)
        assert report.passed
        assert report.mismatches
        assert all(m.classification == "KNOWN-LIMITATION" for m in report.mismatches)
        assert all(m.oracle_verdict and not m.formula_verdict for m in report.mismatches)

    def test_mismatch_names_failed_constraints(self, noprompt_choice_model):
        full = translate(noprompt_choice_model)
        doctored = ConstraintSet(
            constraints=[c for c in full if "at-least-one" not in c.provenance],
            variable_order=full.variable_order,
        )
        report = check_model(noprompt_choice_model, constraints=doctored)
        assert not report.passed
        for m in report.failures:
            assert m.oracle_verdict != m.formula_verdict


    @pytest.mark.parametrize(
        "options, condition",
        [
            ('config S\n\tstring "s"\n', 'S = ""'),
            ('config S\n\tstring "s"\n', 'S != ""'),
            ('config S\n\tstring "s"\nconfig T\n\tstring "t"\n\tdefault ""\n', "S = T"),
            ("", "1 < 2"),
            ("", '"5" < 7'),
        ],
        ids=["unset-eq-empty", "unset-neq-empty", "unset-eq-empty-default", "numbers", "quoted-number"],
    )
    def test_comparison_agrees_with_the_oracle(self, options, condition):
        # S has no known value, so it is always unset and reads as "".
        model = _model(options + f'config B\n\tbool "b"\n\tdepends on {condition}\n')
        assert [d for d in validate_model(model) if d.severity == "error"] == []
        assert check_model(model).mismatches == []

    @pytest.mark.parametrize("value, reader", [("n", "bool"), ("m", "tristate")])
    def test_valued_option_holding_n_or_m_in_a_boolean_position(self, value, reader):
        # The configurator reads the text n as n and m as m, not as y.
        model = _model(f'config S\n\tstring\n\tdefault "{value}"\nconfig B\n\t{reader} "b"\n\tdepends on S\n')
        report = check_model(model)
        assert report.passed, [m.describe() for m in report.failures]


# Every option is prompted and has no dependencies.  E and J have no known
# value (unless a comparison with a number gives J one), so they are always
# unset; the others never are.
_MATRIX_OPTIONS = (
    'config B\n\tbool "b"\n'
    'config T\n\ttristate "t"\n'
    'config I\n\tint "i"\n\tdefault 3\n\trange 0 10\n'
    'config H\n\thex "h"\n\tdefault 0x10\n'
    'config S\n\tstring "s"\n\tdefault "y"\n\tdefault "n" if B\n\tdefault "m" if T\n'
    '\tdefault "zeta" if T=m\n\tdefault ""\n'
    'config E\n\tstring "e"\n'
    'config J\n\tint "j"\n'
)
_MATRIX_OPERANDS = (
    "B", "T", "I", "H", "S", "E", "J",
    "y", "m", "n", "'y'", "'m'", "'zeta'", "''", "3", "0x10", "16", "UNDECLARED",
)
_MATRIX_OPERATORS = ("=", "!=", "<", "<=", ">", ">=")


def _operand_matrix():
    """(name, text) of a model per ordered operand pair and operator, read
    as a prompt condition and beside T in a dependency, and of a model per
    operand alone in a boolean position."""
    for a, b in itertools.product(_MATRIX_OPERANDS, repeat=2):
        for op in _MATRIX_OPERATORS:
            cmp = f"{a}{op}{b}"
            readers = f'config X\n\ttristate "x" if {cmp}\nconfig Y\n\ttristate "y"\n\tdepends on T || {cmp}\n'
            yield cmp, _MATRIX_OPTIONS + readers
    for a in _MATRIX_OPERANDS:
        yield a, _MATRIX_OPTIONS + f'config X\n\ttristate "x"\n\tdepends on {a}\n'


def test_every_operand_kind_agrees_with_the_oracle():
    """Each kind of comparison operand (bool, tristate, int, hex and string
    options, options with no known value, tristate names, quoted texts,
    numbers, an undeclared symbol) under each operator reads the same in the
    formula as in the oracle."""
    checked = untranslated = rejected = 0
    failing = []
    for name, text in _operand_matrix():
        try:
            model = parse_model(text, name)
        except ParseError:
            continue
        if any(d.severity == "error" for d in validate_model(model)):
            rejected += 1  # an ordered comparison of a non-number, such as y<3 or B<3
            continue
        try:
            report = check_model(model)
        except UnsupportedComparison:
            untranslated += 1  # one that validation let through
            continue
        checked += 1
        if not report.passed:
            failing.append((name, report.error, len(report.failures)))
    assert failing == []
    assert (checked, untranslated, rejected) == (774, 0, 1188)


class TestTruthTableFormula:
    """Where the rows agree, equal model counts stand for equivalence with
    the truth-table formula, the disjunction of the valid rows' images."""

    def test_golden_disjunction(self, noprompt_choice_model):
        assert not check_model(noprompt_choice_model).mismatches
        assert model_counts(noprompt_choice_model) == (2, 2)

    def test_all_invalid_is_false(self):
        model = _model('config N\n\tint\nconfig G\n\tbool "g"\n\tdepends on N=5\n')
        # the invisible valued option can never hold its enumerated value
        assert not any(ok for _, ok in _oracle_rows(model))
        assert not check_model(model).mismatches
        assert model_counts(model) == (0, 0)

    def test_cross_strategy_consistency(self):
        """Generated seeds 0-99; criterion 8 covers the corpus."""
        clean = 0
        for seed in range(100):
            model = parse_model(generate_model_text(seed), f"generated[seed={seed}]")
            if check_model(model).mismatches:
                continue
            models, valid = model_counts(model)
            assert models == valid, seed
            clean += 1
        assert clean >= 90


def _rule_kind(provenance):
    return provenance.split(":", 1)[1].split("(", 1)[0]


@pytest.mark.parametrize("kind", ["tristate-excl", "bool-no-module", "one-hot", "value-excl"])
def test_count_catches_dropped_shape_rule(kind):
    """A shape rule only excludes assignments that are no configuration's
    image, so no row shows it missing; the model count does."""

    def caught(model):
        full = translate(model)
        kept = [c for c in full if _rule_kind(c.provenance) != kind]
        if len(kept) == len(full):
            return False
        doctored = ConstraintSet(constraints=kept, variable_order=full.variable_order)
        if check_model(model, constraints=doctored).failures:
            return False
        models, valid = model_counts(model, doctored)
        return models != valid

    assert any(caught(model) for _, model in corpus_models()), kind


class TestEmbed:
    """The boolean image of one configuration, read from ``_masks``."""

    @staticmethod
    def _image(model, cfg):
        columns, _, configs = enumerated_configs(model)
        masks = _masks(model, columns)
        (k,) = [k for k, row in enumerate(configs) if row == cfg]
        return {v: bool(rows >> k & 1) for v, rows in masks.items()}

    def test_tristate_pair_image(self):
        model = _model('config T\n\ttristate "t"\n')
        assert self._image(model, {"T": Tri.M}) == {"T": False, "T_MODULE": True}
        assert self._image(model, {"T": Tri.Y}) == {"T": True, "T_MODULE": False}

    def test_value_one_hot(self):
        model = _model('config N\n\tint "n"\n\tdefault 0\n\tdefault 5\n')
        assert self._image(model, {"N": "5"}) == {"N_EQ_0": False, "N_EQ_5": True}


class TestMasks:
    def test_masks_match_embed(self):
        """Bit k of each variable's mask is the variable's value in the image
        of configuration k: ``O`` iff O=y, ``O_MODULE`` iff O=m, ``N_EQ_v``
        iff N=v; on every corpus model and generated seeds 0-99."""
        models = corpus_models() + [
            (f"generated[seed={seed}]", parse_model(generate_model_text(seed), "generated"))
            for seed in range(100)
        ]
        valued = 0
        for name, model in models:
            columns, ones, configs = enumerated_configs(model)
            masks = _masks(model, columns)
            assert ones == (1 << len(configs)) - 1, name
            dom = collect_numeric_values(model)
            for k, cfg in enumerate(configs):
                image = {}
                for item in model.items:
                    value = cfg.get(item.name)
                    if item.is_boolish:
                        image[item.name] = value is Tri.Y
                        image[item.name + "_MODULE"] = value is Tri.M
                    else:
                        for known in dom[item.name]:
                            image[f"{item.name}_EQ_{known}"] = value == known
                assert {v: bool(rows >> k & 1) for v, rows in masks.items()} == image, (name, cfg)
            valued += sum("_EQ_" in v for v in masks)
        assert valued > 0

    def test_columns_match_configs(self):
        """Bit k of ``columns[name][value]`` is set exactly when configuration
        k holds ``value``, and ``row_config`` decodes row k to configuration
        k; on every corpus model, generated seeds 0-99 and the bound model.
        Configuration k is the k-th of ``itertools.product`` over the
        options' values in declaration order: bool n,y, tristate n,m,y, and
        a valued option its harvested values, if it has any."""
        models = corpus_models() + [
            (f"generated[seed={seed}]", parse_model(generate_model_text(seed), "generated"))
            for seed in range(100)
        ]
        models.append(("bound", parse_model(BOUND_MODEL_SOURCE, "bound")))
        for name, model in models:
            dom = collect_numeric_values(model)
            axes = {}
            for item in model.items:
                if item.type is OptionType.BOOL:
                    axes[item.name] = [Tri.N, Tri.Y]
                elif item.type is OptionType.TRISTATE:
                    axes[item.name] = [Tri.N, Tri.M, Tri.Y]
                elif dom[item.name]:
                    axes[item.name] = dom[item.name]
            configs = [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]
            expected = {
                option: {
                    value: int("".join("01"[cfg[option] == value] for cfg in reversed(configs)), 2)
                    for value in axis
                }
                for option, axis in axes.items()
            }
            columns, ones, _ = _enumerate(model)
            assert ones == (1 << len(configs)) - 1, name
            assert columns == expected, name
            assert [row_config(columns, k) for k in range(len(configs))] == configs, name

    def test_decoder_inverts_single_row(self):
        """``row_config(single_row(cfg), 0) == cfg`` on every enumerated row
        of the corpus, the order of the options included."""
        for name, model in corpus_models():
            for cfg in enumerated_configs(model)[2]:
                decoded = row_config(single_row(cfg), 0)
                assert list(decoded.items()) == list(cfg.items()), (name, cfg)

    def test_skipped_and_never_true_variables(self):
        model = _model(
            'config N\n\tint "n"\nconfig A\n\tbool "a"\n'
            'config S\n\tstring "s"\n\tdefault "x"\n\tdefault "y"\n'
        )
        columns, ones, _ = _enumerate(model)
        masks = _masks(model, columns)
        # N has no known value: skipped in enumeration, no variable of its own.
        assert list(columns) == ["A", "S"]
        assert masks == {
            "A": 0b1100,
            "A_MODULE": 0,
            "S_EQ_x": 0b0101,
            "S_EQ_y": 0b1010,
        }
        assert ones == 0b1111


class TestRunCorpus:
    def test_repo_corpus_passes(self, corpus_dir):
        report = run_corpus(corpus_dir)
        assert report.passed
        assert len(report.reports) >= 40

    def test_empty_directory(self, tmp_path):
        report = run_corpus(tmp_path)
        assert report.passed
        assert report.reports == []

    def test_sabotaged_file_fails_and_is_named(self, tmp_path):
        (tmp_path / "good.kconfig").write_text('config A\n\tbool "a"\n')
        # a file whose parse fails is recorded, not fatal
        (tmp_path / "broken.kconfig").write_text("mainmenu oops\n")
        report = run_corpus(tmp_path)
        assert not report.passed
        by_name = {r.name: r for r in report.reports}
        assert by_name["good.kconfig"].passed
        assert by_name["broken.kconfig"].error

    def test_range_bound_outside_option_type_is_error_row(self, tmp_path):
        (tmp_path / "range.kconfig").write_text('config N\n\tint "n"\n\trange 0x0 0x10\n')
        (tmp_path / "inverted.kconfig").write_text(
            'config N\n\tint "n"\n\trange 10 5\n\tdefault 7\n'
        )
        inverted, outside = run_corpus(tmp_path).reports
        assert "range bounds must be int literals" in outside.error
        assert "range 10 5 has its low bound above its high bound" in inverted.error

    def test_report_text_matches_recorded_digest(self, corpus_dir):
        """Every report line but the timings (verdicts, KNOWN-LIMITATION rows,
        violated constraints, notes) stays as recorded in
        corpus_report_digest.json."""
        recorded = json.loads(
            (Path(__file__).resolve().parent / "corpus_report_digest.json").read_text(encoding="utf-8")
        )
        text = run_corpus(corpus_dir, CorpusOptions(generated=recorded["generated"])).render_text()
        untimed = re.sub(r" millis=\S+", "", text)
        assert hashlib.sha256(untimed.encode("utf-8")).hexdigest() == recorded["sha256"]

    def test_parallel_equals_sequential(self, corpus_dir):
        seq = run_corpus(corpus_dir, CorpusOptions(jobs=1))
        par = run_corpus(corpus_dir, CorpusOptions(jobs=4))

        def strip(report):
            return [
                (r.name, r.option_count, r.config_count, r.error, len(r.mismatches))
                for r in report.reports
            ]

        assert strip(seq) == strip(par)

    def test_render_lists_the_notes_of_a_file(self, tmp_path):
        (tmp_path / "unset.kconfig").write_text('config A\n\tbool "a"\nconfig S\n\tstring "s"\n')
        lines = run_corpus(tmp_path).render_text().splitlines()
        assert lines[1:] == [
            "  note: S: no known values, skipped in enumeration",
            "corpus files=1 failing=0 errors=0 seed=0 status=PASS",
        ]

    def test_render_contains_per_file_records(self, corpus_dir):
        report = run_corpus(corpus_dir)
        text = report.render_text()
        assert "file=choice_noprompt_member.kconfig" in text
        assert text.strip().endswith("status=PASS")


class TestGeneratedModels:
    def test_generator_is_deterministic(self):
        assert generate_model_text(5) == generate_model_text(5)
        assert generate_model_text(5) != generate_model_text(6)

    def test_generated_models_parse_validate_and_agree(self):
        for seed in range(25):
            text = generate_model_text(seed)
            model = parse_model(text, f"gen{seed}")
            errors = [d for d in validate_model(model) if d.severity == "error"]
            assert not errors, (seed, errors)
            report = check_model(model)
            assert report.passed, (seed, [m.describe() for m in report.failures])

    def test_run_corpus_includes_generated(self, tmp_path):
        report = run_corpus(tmp_path, CorpusOptions(generated=5, seed=11))
        assert len(report.reports) == 5
        assert report.passed
        assert all("generated[seed=" in r.name for r in report.reports)
