import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import types
from pathlib import Path

import jsonschema
import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lolrnet as ln
import lolrnet.cli
import lolrnet.simulate as engine
from lolrnet.cli import main
from lolrnet.config import dumps_doc, format_number, load_matrix, write_doc
from lolrnet.errors import MUST_BE_FINITE, require
from _support import (CREDITOR_TABLE, FIXTURE_EIGENVALUE, FIXTURE_RANK,
                      chunked_mean, reference_simulation)

SCHEMA_DIR = Path(ln.__file__).parent / "schemas"

# every command on the case study, with flags that keep simulate small
COMMAND_ARGV = [
    ("rank",), ("rank", "--matrix-override", "printed_gd.json"),
    ("clearing", "--time", "0.5"), ("regions",), ("control",),
    ("simulate", "--paths", "400", "--steps", "8"),
]

# the file name mixed_config writes to
MIXED_CONFIG = "mixed_banks.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def assert_parses_to(parsed, value, where="doc"):
    """``parsed`` is ``value`` read back from its JSON text: every float bit
    for bit and still a float, NaN as null, and no infinity left for JSON
    to write as null."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        assert list(parsed) == list(value), where
        for key, item in value.items():
            assert_parses_to(parsed[key], item, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        assert len(parsed) == len(value), where
        for k, (got, item) in enumerate(zip(parsed, value)):
            assert_parses_to(got, item, f"{where}[{k}]")
    elif isinstance(value, (float, np.floating)):
        assert not math.isinf(value), where
        if math.isnan(value):
            assert parsed is None, where
        else:
            assert type(parsed) is float, where
            assert parsed.hex() == float(value).hex(), where
    else:
        assert type(parsed) is type(value.item() if isinstance(
            value, np.generic) else value), where
        assert parsed == value, where


def sparse_config(path, n, seed):
    """Write an ``n``-bank config with about 10% of liabilities nonzero."""
    rng = np.random.default_rng(seed)
    liabilities = np.where(rng.random((n, n)) < 0.1,
                           rng.uniform(1, 100, (n, n)), 0.0)
    liabilities[np.arange(n), (np.arange(n) + 1) % n] = 5.0
    np.fill_diagonal(liabilities, 0.0)
    config = {
        "schema_version": "1",
        "banks": [{"name": f"B{i}", "cash": float(c), "drift": 0.1,
                   "vol": 0.2}
                  for i, c in enumerate(rng.uniform(1, 50, n))],
        "liabilities": liabilities.tolist(),
        "growth_rate": 0.05, "horizon": 1.0,
        "ranking": {"c_plus": 0.7, "c_minus": 0.3},
        "policy": {"kind": "uniform", "q": 0.9}, "psi_cap": "inf"}
    path.write_text(json.dumps(config))
    return path


# JSON cells of every kind a liabilities or override matrix may hold: floats,
# ints, a signed zero, the bools numpy would read as numbers, strings, null,
# containers, and an integer past float's range
MATRIX_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6),
    st.sampled_from([-0.0, True, False, "3", "x", None, [], {}, 10**400]))


def reference_matrix(rows, path):
    """The load rule walked cell by cell: the error naming the first cell
    that is not a JSON number, else every cell as a float, an int past
    float's range as an infinity."""
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if not lolrnet.config._is_number(value):
                return f"{path}[{i}][{j}]: must be a number"
    return np.array([[float(v) if abs(v) < 2**1024 else
                      math.inf if v > 0 else -math.inf for v in row]
                     for row in rows])


def load_outcome(load, target):
    """What ``load(target)`` gives: its array's bytes, or its error's type
    and message without the file name."""
    try:
        return load(target).tobytes()
    except ln.ConfigError as exc:
        return type(exc).__name__, str(exc).removeprefix(f"{target}: ")


def mixed_config(path):
    """Write the case study with the cells it lacks to ``path``.

    Bank 1 holds no cash, the cap leaves bank 3 infeasible (``psi_star``
    None, ``expected_cost`` inf), and banks 2 and 4 are net creditors
    (``threshold_log_x`` None and the note).
    """
    doc = json.loads(ln.case_study_path().read_text())
    doc["banks"][0]["cash"] = 0
    doc["psi_cap"] = 0.1
    path.write_text(json.dumps(doc))
    return path


# numbers written in forms a parser may read differently: 17 to 25
# significant digits, subnormals, signed zeros, exponents, and integers past
# 2**53; none is zero but the two zeros
NUMBER_FORMS = [
    "0.30000000000000004", "0.1000000000000000055511151",
    "1.000000000000000111022302", "123456789.01234567890123",
    "4.9406564584124654e-324", "2.2250738585072009e-308", "1.5e-320",
    "-0.0", "0.0", "1E5", "2.5e-3", "9007199254740993",
]
# integers past 2**64, which orjson would read as floats
LONG_INTEGERS = ["18446744073709551617", "123456789012345678901234567890"]


def numbers_config(path, forms):
    """Write a config whose liabilities, cash, drift and vol are ``forms``
    as written, and return its text; vol skips the zeros."""
    n = len(forms)
    positive = [form for form in forms if float(form) != 0]
    banks = ",".join(
        f'{{"name": "B{i}", "cash": {forms[i]}, "drift": {forms[-1 - i]},'
        f' "vol": {positive[i % len(positive)]}}}' for i in range(n))
    rows = ",".join(
        "[" + ",".join("0" if i == j else forms[(i + j) % n]
                       for j in range(n)) + "]" for i in range(n))
    text = (f'{{"schema_version": "1", "banks": [{banks}],'
            f' "liabilities": [{rows}], "growth_rate": 0.05, "horizon": 1,'
            ' "ranking": {"c_plus": 1, "c_minus": 0},'
            ' "policy": {"kind": "uniform", "q": 0.9}, "psi_cap": "inf"}')
    path.write_text(text)
    return text


class TestConfigLoading:
    def test_fixture_is_the_transposed_creditor_table(self, case_config):
        net = case_config.network
        assert case_config.names == ("Bank 1", "Bank 2", "Bank 3", "Bank 4")
        assert np.array_equal(net.liabilities,
                              np.array(CREDITOR_TABLE, float).T)
        assert net.drift.tolist() == [0.2, 0.15, 0.3, 0.05]
        assert net.vol.tolist() == [0.1, 0.25, 0.2, 0.4]
        assert net.growth_rate == 0.08
        assert case_config.psi_cap == math.inf

    def test_fixture_matches_config_schema(self):
        doc = json.loads(ln.case_study_path().read_text())
        # the example carries no ignored field
        assert not any("recovery" in bank for bank in doc["banks"])
        jsonschema.validate(doc, load_schema("config"))

    def test_parse_error_is_distinct(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ln.ConfigParseError):
            ln.load_config(bad)

    def test_schema_version_mismatch_is_distinct(self, tmp_path):
        doc = json.loads(ln.case_study_path().read_text())
        doc["schema_version"] = "99"
        target = tmp_path / "versioned.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(ln.SchemaVersionError):
            ln.load_config(target)

    @pytest.mark.parametrize("version", ["18446744073709551616",
                                         "-9223372036854775809"])
    def test_schema_version_past_64_bits_is_named_as_written(self, tmp_path,
                                                             version):
        # orjson would read these integers as floats
        target = tmp_path / "versioned.json"
        target.write_text(ln.case_study_path().read_text().replace(
            '"schema_version": "1"', f'"schema_version": {version}'))
        with pytest.raises(ln.SchemaVersionError) as info:
            ln.load_config(target)
        assert str(info.value) == (
            f"unsupported schema_version {version}; expected '1'")

    @pytest.mark.parametrize("forms", [
        NUMBER_FORMS, NUMBER_FORMS + LONG_INTEGERS,
    ], ids=["within-64-bits", "past-64-bits"])
    def test_parsers_read_the_same_numbers(self, tmp_path, forms):
        target = tmp_path / "numbers.json"
        text = numbers_config(target, forms)
        reference = json.loads(text)
        net = ln.load_config(target).network

        def bits(values):
            floats = np.array(values, dtype=object).astype(float)
            return floats.view(np.uint64).tolist()

        assert bits(net.liabilities) == bits(reference["liabilities"])
        for field in ("cash", "drift", "vol"):
            assert bits(getattr(net, field)) == bits(
                [bank[field] for bank in reference["banks"]]), field

    def test_strict_json_skips_the_stdlib_parser(self, tmp_path,
                                                 monkeypatch):
        target = tmp_path / "numbers.json"
        numbers_config(target, NUMBER_FORMS)

        def refuse(*args, **kwargs):
            raise AssertionError("strict JSON reached json.loads")

        monkeypatch.setattr(json, "loads", refuse)
        ln.load_config(target)
        ln.load_config(ln.case_study_path())
        load_matrix(ln.printed_google_path(), 4)

    def test_deeply_nested_document_exits_without_a_crash(self, capsys,
                                                          tmp_path):
        # orjson builds containers on the C stack, which 100,000 nested
        # objects overflowed; json stops at its recursion limit instead,
        # which is reported as a parse error led by the file
        target = tmp_path / "deep.json"
        depth = 100_000
        target.write_text('{"a": ' * depth + "1" + "}" * depth)
        code, out, err = run_cli(capsys, "control", "--config", str(target))
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigParseError"
        assert error["message"].startswith(f"{target}: maximum recursion")

    def test_invariant_violation_names_field(self, tmp_path):
        # one row per value invariant: (keys to the value, value, error);
        # the liabilities cells have their own test below
        cases = [
            (("banks", 0, "cash"), -1.0,
             "banks[0].cash: must be non-negative"),
            (("banks", 1, "vol"), -0.25,
             "banks[1].vol: must be strictly positive"),
            (("banks", 2, "recovery"), 1.5,
             "banks[2].recovery: must lie strictly inside (0, 1)"),
            (("horizon",), 0.0, "horizon: must be a positive number"),
            (("growth_rate",), 800.0,
             "growth_rate: growth_rate * horizon must not exceed "
             "log(largest float) = 709.78"),
            # exp(709) is finite, 15 * exp(709) is not
            (("growth_rate",), 709.0,
             "growth_rate: grown obligations must stay below the largest "
             "float"),
            (("ranking", "c_plus"), -0.5,
             "ranking.c_plus: must be non-negative"),
            (("ranking", "c_minus"), -1.0,
             "ranking.c_minus: must be non-negative"),
            (("ranking", "c_minus"), 0.5,
             "ranking.c_minus: c_plus + c_minus must equal 1"),
            (("ranking", "damping"), 1.0,
             "ranking.damping: must lie strictly inside (0, 1)"),
            (("ranking", "epsilon"), -0.5,
             "ranking.epsilon: must be non-negative"),
            (("policy",), {"kind": "uniform", "q": 1.0},
             "policy.q: must lie strictly inside (0, 1)"),
            (("policy", "base"), 1.0,
             "policy.base: must lie strictly inside (0, 1)"),
            (("policy", "base"), 0.0,
             "policy.base: must lie strictly inside (0, 1)"),
            (("policy", "steps", 1, "threshold"), 0.5,
             "policy.steps[1].threshold: thresholds must be strictly "
             "ascending"),
            (("policy", "steps", 0, "increment"), -0.01,
             "policy.steps[0].increment: must be non-negative"),
            (("policy", "steps", 1, "increment"), 0.1,
             "policy.steps: base plus all increments must stay below 1"),
            (("psi_cap",), 0.0, "psi_cap: must be positive"),
        ]
        for keys, value, error in cases:
            doc = json.loads(ln.case_study_path().read_text())
            parent = doc
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = value
            target = tmp_path / "invariant.json"
            target.write_text(json.dumps(doc))
            with pytest.raises(ln.ConfigValidationError) as info:
                ln.load_config(target)
            assert str(info.value) == error
            assert info.value.field == error.split(": ")[0]

    def test_bad_liability_entry_names_cell(self, tmp_path):
        # (row, column or None for the whole row, value, field, message)
        cases = [
            (0, 2, -1.0, "liabilities[0][2]", "must be non-negative"),
            (0, 2, True, "liabilities[0][2]", "must be a number"),
            (0, 2, "3", "liabilities[0][2]", "must be a number"),
            (1, 1, 2.0, "liabilities[1][1]", "diagonal must be zero"),
            (2, None, [0.0, 1.0], "liabilities[2]", "must have 4 entries"),
        ]
        for row, col, value, field, message in cases:
            doc = json.loads(ln.case_study_path().read_text())
            if col is None:
                doc["liabilities"][row] = value
            else:
                doc["liabilities"][row][col] = value
            target = tmp_path / "badliab.json"
            target.write_text(json.dumps(doc))
            with pytest.raises(ln.ConfigValidationError) as info:
                ln.load_config(target)
            assert info.value.field == field
            assert str(info.value) == f"{field}: {message}"

    @given(st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(MATRIX_CELLS, min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    @settings(max_examples=150, deadline=None)
    def test_matrix_load_rule_holds_with_and_without_bools(
            self, tmp_path_factory, rows):
        # a document without true or false skips the cell-by-cell type
        # check; a comment holding "true" forces it, and both must give the
        # reference's array bit for bit, or its error
        n = len(rows)
        config = {"schema_version": "1",
                  "banks": [{"name": f"B{i}", "cash": 10.0, "drift": 0.1,
                             "vol": 0.2} for i in range(n)],
                  "liabilities": rows, "growth_rate": 0.05, "horizon": 1.0,
                  "ranking": {"c_plus": 0.7, "c_minus": 0.3},
                  "policy": {"kind": "uniform", "q": 0.9}, "psi_cap": "inf"}
        folder = tmp_path_factory.mktemp("load-rule")
        configs, overrides = [], []
        for tag, comment in (("bare", {}), ("typed", {"comment": "true"})):
            configs.append(folder / f"config-{tag}.json")
            configs[-1].write_text(json.dumps({**config, **comment}))
            overrides.append(folder / f"override-{tag}.json")
            overrides[-1].write_text(json.dumps(
                {"google": rows, **comment} if comment else rows))

        reference = reference_matrix(rows, "liabilities")
        if isinstance(reference, str):
            reference = "ConfigValidationError", reference
        else:
            try:
                ln.FinancialNetwork(liabilities=reference, cash=[10.0] * n,
                                    drift=[0.1] * n, vol=[0.2] * n,
                                    growth_rate=0.05, horizon=1.0)
                reference = reference.tobytes()
            except ln.InvalidValueError as exc:
                reference = "ConfigValidationError", str(exc)
        for target in configs:
            assert load_outcome(
                lambda path: ln.load_config(path).network.liabilities,
                target) == reference, target.name

        reference = reference_matrix(rows, "google")
        if isinstance(reference, str):
            reference = "ConfigError", reference
        else:
            try:
                require(np.isfinite(reference), "google", MUST_BE_FINITE)
                require(reference > 0, "google", "must be strictly positive")
                reference = reference.tobytes()
            except ln.InvalidValueError as exc:
                reference = "ConfigError", str(exc)
        for target in overrides:
            assert load_outcome(lambda path: load_matrix(path, n),
                                target) == reference, target.name

    def test_psi_cap_inf_sentinel(self, case_config):
        assert case_config.psi_cap is math.inf or math.isinf(
            case_config.psi_cap)

    def test_ranking_defaults_when_absent(self, tmp_path):
        doc = json.loads(ln.case_study_path().read_text())
        del doc["ranking"]["damping"], doc["ranking"]["epsilon"]
        target = tmp_path / "defaults.json"
        target.write_text(json.dumps(doc))
        weights = ln.load_config(target).weights
        assert (weights.damping, weights.epsilon) == (0.85, 0.0)

    def test_missing_file(self):
        with pytest.raises(ln.ConfigError, match="not found"):
            ln.load_config("/no/such/file.json")


class TestCommandOutputs:
    def test_regions_values_and_markers(self, capsys):
        code, out, err = run_cli(capsys, "regions", "--config",
                                 "case_study.json", "--format", "doc")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("regions"))
        banks = doc["banks"]
        assert banks[0]["threshold_log_x"] == pytest.approx(1.622593,
                                                            abs=1e-5)
        assert banks[2]["threshold_log_x"] == pytest.approx(2.97332,
                                                            abs=1e-4)
        for i in (1, 3):
            assert banks[i]["note"] == "net creditor / no default possible"
            assert banks[i]["threshold_log_x"] is None

    def test_rank_doc_schema_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "rank", "--config", "case_study.json",
                               "--format", "doc")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("rank"))
        assert doc["eigenvalue"] == pytest.approx(FIXTURE_EIGENVALUE,
                                                  abs=1e-3)
        ranks = [b["rank"] for b in doc["banks"]]
        assert ranks == pytest.approx(FIXTURE_RANK, abs=1e-3)
        assert [b["q"] for b in doc["banks"]] == pytest.approx(
            [0.9, 0.9, 0.99, 0.9], abs=1e-12)

    def test_rank_matrix_override(self, capsys):
        code, out, _ = run_cli(capsys, "rank", "--config", "case_study.json",
                               "--matrix-override", "printed_gd.json",
                               "--format", "doc")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("rank"))
        assert doc["matrix_override"] is True
        assert doc["eigenvalue"] == pytest.approx(1.2892, abs=1e-3)
        assert [b["rank"] for b in doc["banks"]] == pytest.approx(
            FIXTURE_RANK, abs=1e-3)

    @pytest.mark.parametrize("override", [(), ("--matrix-override",
                                               "printed_gd.json")])
    def test_rank_doc_carries_only_the_ranked_google_matrix(self, capsys,
                                                           override):
        code, out, _ = run_cli(capsys, "rank", "--config", "case_study.json",
                               *override, "--format", "doc")
        assert code == 0
        doc = json.loads(out)
        assert list(doc["matrices"]) == ["google"]
        # the eigenpair can be checked from the doc alone, as the
        # benchmark's rank check does
        google = np.array(doc["matrices"]["google"], dtype=float)
        rank = np.array([b["rank"] for b in doc["banks"]], dtype=float)
        residual = np.linalg.norm(google @ rank - doc["eigenvalue"] * rank)
        assert residual <= 1e-9

    def test_pure_lender_runs_every_rank_driven_command(self, capsys,
                                                         tmp_path):
        # bank 4 owes nothing, so c_plus = 1 leaves its row of rank
        # weights empty and the rank gives it the uniform column
        doc = json.loads(ln.case_study_path().read_text())
        doc["liabilities"][3] = [0, 0, 0, 0]
        path = tmp_path / "pure_lender.json"
        path.write_text(json.dumps(doc))
        for argv in (("rank",), ("regions",), ("control",),
                     ("simulate", "--paths", "1000")):
            code, out, err = run_cli(capsys, *argv, "--config", str(path),
                                     "--format", "doc")
            assert code == 0, err
        code, out, _ = run_cli(capsys, "rank", "--config", str(path),
                               "--format", "doc")
        rank_doc = json.loads(out)
        assert rank_doc["eigenvalue"] == 0.85673845882556887
        google = np.array(rank_doc["matrices"]["google"], dtype=float)
        rank = np.array([b["rank"] for b in rank_doc["banks"]], dtype=float)
        residual = np.linalg.norm(google @ rank
                                  - rank_doc["eigenvalue"] * rank)
        assert residual <= 1e-9

    @pytest.mark.parametrize("which", ["case_study", "sparse"])
    def test_rank_doc_google_is_the_pipeline_matrix(self, capsys, tmp_path,
                                                    which):
        path = (ln.case_study_path() if which == "case_study"
                else sparse_config(tmp_path / "sparse.json", 60, seed=3))
        code, out, _ = run_cli(capsys, "rank", "--config", str(path),
                               "--format", "doc")
        assert code == 0
        cfg = ln.load_config(path)
        expected = ln.google_matrix(
            ln.edge_weights(cfg.network, cfg.weights)[0],
            cfg.weights.damping)[1]
        # 17 significant digits round-trip every float64 exactly
        google = np.array(json.loads(out)["matrices"]["google"], dtype=float)
        assert np.array_equal(google.view(np.uint64),
                              expected.view(np.uint64))

    @pytest.mark.parametrize("value, message", [
        (math.nan, "google[1][2]: must be a finite number"),
        ("a", "google[1][2]: must be a number"),
        (True, "google[1][2]: must be a number"),
        (0.0, "google[1][2]: must be strictly positive"),
        (-0.5, "google[1][2]: must be strictly positive"),
    ])
    def test_rank_matrix_override_bad_entry(self, capsys, tmp_path, value,
                                            message):
        rows = json.loads(ln.printed_google_path().read_text())["google"]
        rows[1][2] = value
        target = tmp_path / "override.json"
        target.write_text(json.dumps(rows))
        code, out, err = run_cli(capsys, "rank", "--config", "case_study.json",
                                 "--matrix-override", str(target))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == {
            "type": "ConfigError", "message": f"{target}: {message}"}

    def test_policy_without_steps_never_ranks(self, capsys, tmp_path,
                                              monkeypatch):
        # a uniform policy and a rank_thresholds one without steps both give
        # every bank the same target, so neither runs the rank pipeline
        def no_rank(*_):
            raise AssertionError("rank_network called")

        monkeypatch.setattr("lolrnet.cli.rank_network", no_rank)
        doc = json.loads(ln.case_study_path().read_text())
        docs = {}
        for name, policy in (
                ("uniform", {"kind": "uniform", "q": 0.9}),
                ("nosteps", {"kind": "rank_thresholds", "base": 0.9,
                             "steps": []})):
            target = tmp_path / f"{name}.json"
            target.write_text(json.dumps({**doc, "policy": policy}))
            for argv in (("regions",), ("control",),
                         ("simulate", "--paths", "100")):
                code, out, err = run_cli(capsys, *argv, "--config",
                                         str(target), "--format", "doc")
                assert code == 0, err
                docs[name, argv[0]] = json.loads(out)
        for command in ("regions", "control", "simulate"):
            assert docs["uniform", command] == docs["nosteps", command]

    def test_clearing_doc_schema(self, capsys):
        code, out, _ = run_cli(capsys, "clearing", "--config",
                               "case_study.json", "--time", "0.5",
                               "--format", "doc")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("clearing"))
        assert doc["time"] == 0.5

    def test_control_doc_schema(self, capsys):
        code, out, _ = run_cli(capsys, "control", "--config",
                               "case_study.json", "--format", "doc")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("control"))
        regions = [b["region"] for b in doc["banks"]]
        assert regions == ["no_action", "no_action", "action", "no_action"]
        assert doc["banks"][2]["psi_star"] == pytest.approx(0.40837,
                                                            abs=1e-5)

    def test_tiny_cash_has_finite_cost(self, capsys, tmp_path):
        # psi* = 693.61 gives c * tau = 1387.9, beyond exp's range, but
        # x^2 = 1e-600 keeps the cost finite (value checked with mpmath)
        doc = json.loads(ln.case_study_path().read_text())
        doc["banks"][2]["cash"] = 1e-300
        target = tmp_path / "tiny_cash.json"
        target.write_text(json.dumps(doc))
        for command in ("regions", "control"):
            code, out, _ = run_cli(capsys, command, "--config", str(target),
                                   "--format", "doc")
            assert code == 0
        bank3 = json.loads(out)["banks"][2]
        assert bank3["region"] == "action"
        assert bank3["expected_cost"] == pytest.approx(95721.648425116,
                                                       rel=1e-9)

    @pytest.mark.parametrize("flags,antithetic", [
        ((), True), (("--no-antithetic",), False),
    ], ids=["default", "no-antithetic"])
    def test_simulate_doc_schema(self, capsys, case_network, case_q, flags,
                                 antithetic):
        code, out, _ = run_cli(capsys, "simulate", "--config",
                               "case_study.json", "--paths", "401",
                               "--steps", "8", "--seed", "3", "--format",
                               "doc", *flags)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("simulate"))
        assert doc["paths_used"] == 401
        assert doc["seed_used"] == 3
        assert doc["antithetic"] is antithetic
        assert doc["uncontrolled"][2]["psi"] == 0.0
        assert doc["controlled"][2]["psi"] == pytest.approx(0.40837,
                                                            abs=1e-5)
        # every number is the reference's, bit for bit (17 digits round
        # trip); the odd path count leaves one path unpaired
        cfg = ln.SimConfig(paths=401, steps=8, seed=3, antithetic=antithetic)
        for scenario, q in (("uncontrolled", np.full(4, 0.5)),
                            ("controlled", case_q)):
            want = reference_simulation(
                case_network, ln.network_decision(case_network, q), cfg)
            for field in ("default_freq", "default_ci_halfwidth",
                          "mean_cost", "terminal_mean", "terminal_logvar"):
                got = [bank[field] for bank in doc[scenario]]
                assert got == getattr(want, field).tolist(), (scenario,
                                                              field)

    def test_simulate_reports_both_scenarios_for_bank3(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--config",
                               "case_study.json", "--paths", "8000",
                               "--seed", "7", "--format", "doc")
        assert code == 0
        doc = json.loads(out)
        plain = doc["uncontrolled"][2]
        helped = doc["controlled"][2]
        assert abs(plain["default_freq"] - 0.388) \
            <= plain["default_ci_halfwidth"] + 0.001
        assert abs(helped["default_freq"] - 0.01) \
            <= helped["default_ci_halfwidth"] + 0.001

    def test_table_headers(self, capsys):
        expectations = {
            ("rank",): ["bank", "name", "net_position", "rank", "q",
                        "eigenvalue"],
            ("clearing",): ["bank", "name", "obligation", "payment",
                            "defaulted", "value"],
            ("regions",): ["bank", "name", "q", "v_terminal",
                           "threshold_log_x", "log_cash", "region", "note"],
            ("control",): ["bank", "name", "q", "region", "psi_star",
                           "expected_cost", "survival_prob_uncontrolled"],
            ("simulate", "--paths", "50", "--steps", "4"):
                ["bank", "name", "scenario", "psi", "default_freq",
                 "default_ci_halfwidth", "mean_cost", "terminal_mean",
                 "terminal_logvar", "infeasible_fallback"],
        }
        for argv, expected in expectations.items():
            code, out, _ = run_cli(capsys, argv[0], "--config",
                                   "case_study.json", *argv[1:])
            assert code == 0
            header, rows = parse_csv(out)
            assert header == expected
            # simulate emits one row per bank and scenario
            assert len(rows) == (8 if argv[0] == "simulate" else 4)

    @pytest.mark.parametrize("config, argv", [
        *[pytest.param("case_study.json", argv, id=" ".join(argv))
          for argv in COMMAND_ARGV],
        *[pytest.param(MIXED_CONFIG, argv, id=f"mixed {' '.join(argv)}")
          for argv in COMMAND_ARGV if "--matrix-override" not in argv]])
    def test_table_is_a_view_of_the_doc(self, capsys, tmp_path, monkeypatch,
                                        config, argv):
        def cell(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return format_number(value)
            return str(value)

        monkeypatch.chdir(tmp_path)
        mixed_config(tmp_path / MIXED_CONFIG)
        command = ("--config", config, *argv[1:])
        _, table, _ = run_cli(capsys, argv[0], *command)
        _, text, _ = run_cli(capsys, argv[0], *command, "--format", "doc")
        jsonschema.validate(json.loads(text), load_schema(argv[0]))
        # every JSON number is a float so "-0" keeps its sign
        doc = json.loads(text, parse_int=float)
        if argv[0] == "simulate":
            entries = [(s, e) for s in ("uncontrolled", "controlled")
                       for e in doc[s]]
        else:
            entries = [(None, e) for e in doc["banks"]]
        header, rows = parse_csv(table)
        assert len(rows) == len(entries)
        for row, (scenario, entry) in zip(rows, entries):
            for column, text_cell in zip(header, row):
                if column == "bank":
                    value = entry["index"]
                elif column == "scenario":
                    value = scenario
                else:
                    value = entry[column] if column in entry else doc[column]
                assert text_cell == cell(value), (column, entry["index"])

    def test_infeasible_warning_on_stderr(self, capsys, tmp_path):
        doc = json.loads(ln.case_study_path().read_text())
        doc["psi_cap"] = 0.1
        target = tmp_path / "capped.json"
        target.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--config", str(target),
                                 "--paths", "200", "--steps", "4")
        assert code == 0
        assert "infeasible" in err
        header, rows = parse_csv(out)
        controlled_bank3 = rows[6]  # second scenario block, third bank
        assert controlled_bank3[header.index("scenario")] == "controlled"
        assert controlled_bank3[header.index("infeasible_fallback")] == "true"


class TestDeterministicOutput:
    def test_byte_identical_runs(self, capsys):
        argv = ("simulate", "--config", "case_study.json", "--paths", "600",
                "--steps", "8", "--seed", "11", "--format", "doc")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        # antithetic pairing is the default draw contract
        _, explicit, _ = run_cli(capsys, *argv, "--antithetic")
        assert first == second == explicit

    @pytest.mark.parametrize("fmt", ["doc", "table"])
    @pytest.mark.parametrize("argv", COMMAND_ARGV, ids=" ".join)
    def test_recovery_is_ignored(self, capsys, tmp_path, argv, fmt):
        # default boundaries are terminal, so no command reads recovery
        sparse = sparse_config(tmp_path / "sparse.json", 60, seed=3)
        for source in (ln.case_study_path(), sparse):
            doc = json.loads(source.read_text())
            runs = []
            for recovery in (None, 0.5, 0.9):
                for bank in doc["banks"]:
                    bank.pop("recovery", None)
                    if recovery is not None:
                        bank["recovery"] = recovery
                jsonschema.validate(doc, load_schema("config"))
                path = tmp_path / f"recovery-{recovery}.json"
                path.write_text(json.dumps(doc))
                runs.append(run_cli(capsys, argv[0], "--config", str(path),
                                    *argv[1:], "--format", fmt))
            assert runs[0] == runs[1] == runs[2], source.name

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "out"
        for argv in COMMAND_ARGV:
            for fmt in ("table", "doc"):
                command = (argv[0], "--config", "case_study.json", *argv[1:],
                           "--format", fmt)
                code, out, _ = run_cli(capsys, *command)
                code2, out2, _ = run_cli(capsys, *command, "--output",
                                         str(target))
                assert code == code2 == 0, command
                assert out2 == "", command
                assert target.read_bytes() == out.encode("utf-8"), command

    def test_output_to_a_device_is_not_truncated(self, capsys):
        # ftruncate fails on a device, where O_TRUNC is ignored
        code, out, err = run_cli(capsys, "control", "--config",
                                 "case_study.json", "--output", "/dev/null")
        assert (code, out, err) == (0, "", "")

    def test_float_arrays_render_like_lists(self):
        rng = np.random.default_rng(5)
        special = [-0.0, 5e-324, 2.2250738585072009e-308, 1e308,
                   0.30000000000000004, 1.2345678901234567e-5, 3.0]
        finite = np.vstack([special, rng.normal(size=(3, len(special)))])
        nonfinite = np.array(special + [math.inf, -math.inf, math.nan])
        # a 2-D array is streamed row by row and every other array is
        # written by orjson whole; mostly-zero arrays, signed zeros and
        # repeated values must read exactly as the list's text
        sparse = np.where(rng.random((6, 5)) < 0.8, 0.0,
                          rng.normal(size=(6, 5)))
        signed_zeros = np.full((3, 4), -0.0)
        signed_zeros[1, 2] = signed_zeros[2, 0] = 0.0
        tau = rng.random((5, 5)) * (rng.random((5, 5)) < 0.3)
        google = (1 - 0.85) / 5 + 0.85 * tau
        tie = np.array([[1.5, 2.5, 1.5], [2.5, 0.1, 7.0]])
        inf_row = rng.normal(size=(3, 4))
        inf_row[1, 2] = math.inf
        for arr in (finite, finite[0], nonfinite, nonfinite.reshape(2, 5),
                    np.zeros((2, 0)), np.array([]), sparse, signed_zeros,
                    google, np.full((3, 3), 0.1), tie, np.array([[2.0]]),
                    sparse.reshape(2, 3, 5), inf_row):
            doc = {"matrix": arr, "nested": [arr]}
            plain = {"matrix": arr.tolist(), "nested": [arr.tolist()]}
            assert dumps_doc(doc) == dumps_doc(plain)

    def test_nested_values_render_as_orjson_at_every_depth(self):
        # every leaf is written by orjson nested in one-item lists and cut
        # out of their text, so each depth needs its own cut
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(3, 4))
        matrix[1, 2] = -0.0
        leaves = {"matrix": matrix, "transposed": matrix.T,
                  "strided": matrix[::2, ::3], "row": matrix[1],
                  "column": matrix[:, 2], "one_by_one": matrix[:1, :1],
                  "no_columns": np.zeros((2, 0)), "no_rows": np.zeros((0, 3)),
                  "empty_dict": {}, "empty_list": [], "float": 0.1,
                  "np_float": np.float64(-2.5), "int": -7,
                  "np_int": np.int64(3), "text": 'é "quoted"', "none": None,
                  "bool": True, "inf": math.inf,
                  "list": [matrix.T, {"inner": matrix[:, ::2]}, [], {}, 1.5]}
        doc = dict(leaves)
        for depth in range(6):
            for value in (doc, [doc], matrix, matrix.T, 0.25, "x", [], {}):
                assert dumps_doc(value) == orjson.dumps(
                    value, default=np.ndarray.tolist,
                    option=orjson.OPT_INDENT_2
                    | orjson.OPT_SERIALIZE_NUMPY).decode(), depth
            doc = {"scalar": depth, "leaves": dict(leaves), "next": doc,
                   "after": [depth, {}]}

    def test_records_render_to_golden_text(self):
        # Python and numpy scalars, non-ASCII text, the infinities and NaN
        # orjson writes as null, and the values write_doc descends into: a
        # non-empty dict, and a 2-D array, here a non-contiguous view
        doc = {"banks": [
            {"float": 0.1, "np_float64": np.float64(-0.0), "int": 7,
             "np_int64": np.int64(-3), "bool": True, "np_bool": np.False_,
             "str": 'say "hi" café', "none": None},
            {"tiny": 5e-324, "inf": math.inf, "neg_inf": np.float64(-math.inf),
             "nan": math.nan, "np_int32": np.int32(12),
             "np_float32": np.float32(0.1), "array": np.array([1.5, 2.0]),
             "nested": {"a": 1, "b": [True, None]}, "after": "x"}],
            "matrix": np.array([[1.0, 0.25], [-0.0, 3e300]]).T,
            "empty": {}}
        expected = textwrap.dedent('''\
            {
              "banks": [
                {
                  "float": 0.1,
                  "np_float64": -0.0,
                  "int": 7,
                  "np_int64": -3,
                  "bool": true,
                  "np_bool": false,
                  "str": "say \\"hi\\" café",
                  "none": null
                },
                {
                  "tiny": 5e-324,
                  "inf": null,
                  "neg_inf": null,
                  "nan": null,
                  "np_int32": 12,
                  "np_float32": 0.1,
                  "array": [
                    1.5,
                    2.0
                  ],
                  "nested": {
                    "a": 1,
                    "b": [
                      true,
                      null
                    ]
                  },
                  "after": "x"
                }
              ],
              "matrix": [
                [
                  1.0,
                  -0.0
                ],
                [
                  0.25,
                  3e300
                ]
              ],
              "empty": {}
            }''')
        pieces: list[str] = []
        write_doc(doc, types.SimpleNamespace(write=pieces.append))
        assert "".join(pieces) == dumps_doc(doc) == expected
        # the matrix is written one row at a time
        assert any(piece.endswith("[\n      1.0,\n      -0.0\n    ]")
                   for piece in pieces)

    def test_rank_doc_matrices_render_like_lists(self, capsys, tmp_path):
        path = sparse_config(tmp_path / "sparse.json", 60, seed=11)
        code, out, _ = run_cli(capsys, "rank", "--config", str(path),
                               "--format", "doc")
        assert code == 0
        cfg = ln.load_config(path)
        result = ln.rank_network(cfg.network, cfg.weights)
        doc = json.loads(out)
        doc["matrices"] = {name: getattr(result, name).tolist()
                           for name in doc["matrices"]}
        assert dumps_doc(doc) + "\n" == out

    def test_doc_is_written_without_holding_its_text(self, tmp_path):
        # four n x n rank matrices, built before tracing starts, render to
        # several MB of text; holding that text whole would put the
        # renderer's peak above the size of the file
        cfg = ln.load_config(sparse_config(tmp_path / "sparse.json", 300,
                                           seed=11))
        gamma_plus, gamma_minus = ln.edge_weights(cfg.network, cfg.weights)
        tau, google = ln.google_matrix(gamma_plus, cfg.weights.damping)
        doc = {"command": "rank",
               "matrices": {"gamma_plus": gamma_plus,
                            "gamma_minus": gamma_minus, "tau": tau,
                            "google": google}}
        target = tmp_path / "rank.json"
        with open(target, "w", encoding="utf-8") as handle:
            tracemalloc.start()
            try:
                write_doc(doc, handle)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < target.stat().st_size

    @pytest.mark.parametrize("config, argv", [
        *[pytest.param("case_study.json", argv, id=" ".join(argv))
          for argv in COMMAND_ARGV],
        *[pytest.param(MIXED_CONFIG, argv, id=f"mixed {' '.join(argv)}")
          for argv in COMMAND_ARGV if "--matrix-override" not in argv]])
    def test_doc_is_orjson_text_of_the_computed_values(
            self, capsys, tmp_path, monkeypatch, config, argv):
        docs = []

        def capture(doc, handle):
            docs.append(doc)
            write_doc(doc, handle)

        monkeypatch.chdir(tmp_path)
        mixed_config(tmp_path / MIXED_CONFIG)
        monkeypatch.setattr(lolrnet.cli, "write_doc", capture)
        code, out, _ = run_cli(capsys, argv[0], "--config", config, *argv[1:],
                               "--format", "doc")
        assert code == 0
        [doc] = docs
        text = orjson.dumps(doc, default=np.ndarray.tolist,
                            option=orjson.OPT_INDENT_2
                            | orjson.OPT_SERIALIZE_NUMPY).decode()
        assert out == dumps_doc(doc) + "\n" == text + "\n"
        parsed = json.loads(out)
        assert_parses_to(parsed, doc)
        # an infinity is the string "inf", never orjson's null
        if argv[0] in ("regions", "control"):
            cfg = ln.load_config(config)
            assert parsed["psi_cap"] == (
                "inf" if cfg.psi_cap == math.inf else cfg.psi_cap)
        if argv[0] == "control":
            _, decisions = lolrnet.cli._decisions(cfg, 0.0)
            costs = [d.expected_cost for d in decisions]
            assert [bank["expected_cost"] for bank in parsed["banks"]] == [
                "inf" if cost == math.inf else cost for cost in costs]
            assert ("inf" in [b["expected_cost"] for b in parsed["banks"]]
                    ) == (config == MIXED_CONFIG)
            assert parsed["total_expected_cost"] == (
                "inf" if config == MIXED_CONFIG else sum(costs))

    def test_numbers_round_trip_through_17_digits(self, capsys):
        _, out, _ = run_cli(capsys, "regions", "--config", "case_study.json",
                            "--format", "doc")
        doc = json.loads(out)
        y1 = doc["banks"][0]["threshold_log_x"]
        assert y1 == ln.no_action_threshold(ln.ControlProblem(
            mu=0.2, sigma=0.1, v_terminal=5 * math.exp(0.08),
            horizon_remaining=1.0, q=0.9))


class TestPathDump:
    def test_dump_file_layout(self, capsys, tmp_path):
        dump = tmp_path / "paths.csv"
        code, out, _ = run_cli(capsys, "simulate", "--config",
                               "case_study.json", "--paths", "25", "--steps",
                               "6", "--dump-paths", str(dump))
        assert code == 0
        header, rows = parse_csv(dump.read_text())
        assert header == ["bank", "name", "scenario", "path", "step", "time",
                          "value"]
        assert len(rows) == 2 * 4 * 25 * 7
        # every path starts at the bank's cash value at time zero
        first = rows[0]
        assert first[:5] == ["1", "Bank 1", "uncontrolled", "0", "0"]
        assert float(first[6]) == 5.2
        scenarios = {row[2] for row in rows}
        assert scenarios == {"uncontrolled", "controlled"}

    def test_dump_and_doc_repeat_bit_for_bit(self, capsys, tmp_path,
                                             monkeypatch):
        # a small chunk gives each bank several chunks and an odd last one
        monkeypatch.setattr(engine, "_CHUNK", 8)
        outputs = []
        for run in range(2):
            dump = tmp_path / f"paths-{run}.csv"
            code, out, err = run_cli(
                capsys, "simulate", "--config", "case_study.json", "--paths",
                "37", "--steps", "7", "--antithetic", "--format", "doc",
                "--dump-paths", str(dump))
            assert code == 0 and err == ""
            outputs.append((out, dump.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("mode", ["--antithetic", "--no-antithetic"])
    def test_dumped_terminals_reproduce_the_doc(self, capsys, tmp_path,
                                                monkeypatch, mode):
        # each dumped X_N is bit for bit the terminal behind the estimates,
        # across chunk boundaries and an odd last chunk
        monkeypatch.setattr(engine, "_CHUNK", 8)
        dump = tmp_path / "paths.csv"
        code, out, _ = run_cli(capsys, "simulate", "--config",
                               "case_study.json", "--paths", "37", "--steps",
                               "7", mode, "--format", "doc", "--dump-paths",
                               str(dump))
        assert code == 0
        doc = json.loads(out)
        header, rows = parse_csv(dump.read_text())
        boundary = ln.default_boundary(
            ln.load_config(ln.case_study_path()).network)
        cfg = ln.SimConfig(paths=37, steps=7,
                           antithetic=mode == "--antithetic")
        for scenario in ("uncontrolled", "controlled"):
            for i, entry in enumerate(doc[scenario]):
                ends = np.array([float(row[6]) for row in rows
                                 if row[0] == str(i + 1)
                                 and row[2] == scenario and row[4] == "7"])
                assert len(ends) == 37
                assert chunked_mean(ends, cfg) == entry["terminal_mean"]
                assert (ends < boundary[i]).mean() == entry["default_freq"]

    def test_dump_leaves_the_doc_unchanged(self, capsys, tmp_path):
        argv = ["simulate", "--config", "case_study.json", "--paths", "300",
                "--steps", "9", "--format", "doc"]
        plain = run_cli(capsys, *argv)
        dumped = run_cli(capsys, *argv, "--dump-paths",
                         str(tmp_path / "paths.csv"))
        assert plain == dumped

    def test_bank_without_cash_simulates_as_a_certain_default(self, capsys,
                                                              tmp_path):
        # control finds no feasible rate for a bank with no cash, and its
        # every path stays at exactly 0, below its positive boundary
        doc = json.loads(ln.case_study_path().read_text())
        doc["banks"][2]["cash"] = 0
        config = tmp_path / "zero_cash.json"
        config.write_text(json.dumps(doc))
        dump = tmp_path / "paths.csv"
        argv = ["simulate", "--config", str(config), "--paths", "1000",
                "--steps", "5"]
        code, out, err = run_cli(capsys, *argv, "--format", "doc",
                                 "--dump-paths", str(dump))
        assert code == 0
        assert err == ("warning: control for Bank 3 is infeasible;"
                       " simulated uncontrolled\n")
        sim = json.loads(out)
        jsonschema.validate(sim, load_schema("simulate"))
        for scenario in ("uncontrolled", "controlled"):
            bank = sim[scenario][2]
            assert (bank["default_freq"], bank["terminal_mean"],
                    bank["mean_cost"]) == (1, 0, 0)
            assert bank["infeasible_fallback"] == (scenario == "controlled")
        _, rows = parse_csv(dump.read_text())
        values = {row[6] for row in rows if row[1] == "Bank 3"}
        assert values == {"0"}
        assert sum(row[1] == "Bank 3" for row in rows) == 2 * 1000 * 6
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        header, rows = parse_csv(out)
        third = [dict(zip(header, row)) for row in rows
                 if row[1] == "Bank 3"]
        assert [(row["default_freq"], row["terminal_mean"])
                for row in third] == [("1", "0")] * 2

    def test_unwritable_output_writes_no_dump(self, capsys, tmp_path,
                                              monkeypatch):
        # the dump is written only once --output is open
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "simulate", "--config",
                                 "case_study.json", "--paths", "100",
                                 "--steps", "4", "--dump-paths", "d.csv",
                                 "--output", "missing/o.json")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"
        assert list(tmp_path.iterdir()) == []

    # a longer earlier file than the table, so a missed truncation shows
    @pytest.mark.parametrize("earlier", [None, "earlier output\n" * 1000],
                             ids=["new-output", "existing-output"])
    def test_unopenable_dump_leaves_output_untouched(self, capsys, tmp_path,
                                                     monkeypatch, earlier):
        monkeypatch.chdir(tmp_path)
        output = tmp_path / "o.json"
        if earlier is not None:
            output.write_text(earlier)
        argv = ("simulate", "--config", "case_study.json", "--paths", "100",
                "--steps", "4", "--output", "o.json")
        code, out, err = run_cli(capsys, *argv, "--dump-paths",
                                 "missing/d.csv")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"
        if earlier is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert output.read_text() == earlier
        # once both open, --output holds exactly what stdout would
        code, _, _ = run_cli(capsys, *argv, "--dump-paths", "d.csv")
        assert code == 0
        code, out, _ = run_cli(capsys, *argv[:-2])
        assert output.read_text() == out

    def test_dump_onto_output_is_rejected(self, capsys, tmp_path,
                                          monkeypatch):
        # the table would overwrite the head of the dump
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "simulate", "--config",
                                 "case_study.json", "--paths", "10",
                                 "--steps", "2", "--dump-paths", "./x.csv",
                                 "--output", "x.csv")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == {
            "type": "InvalidValueError",
            "message": "dump_paths: must not be the --output file"}
        assert list(tmp_path.iterdir()) == []

    def test_bare_flag_writes_sibling_of_output(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config",
                             "case_study.json", "--paths", "10", "--steps",
                             "4", "--dump-paths", "--output", str(target))
        assert code == 0
        assert (tmp_path / "report.csv.paths.csv").exists()


class TestStartup:
    def test_no_command_imports_scipy(self):
        # a fresh interpreter, since this one has scipy loaded already
        script = textwrap.dedent("""
            import contextlib
            import io
            import sys

            import lolrnet
            import lolrnet.cli

            def run(*argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    return lolrnet.cli.main(
                        [*argv, "--config", "case_study.json"])

            for command in ("rank", "clearing", "regions", "control"):
                assert run(command) == 0, command
            assert run("simulate", "--paths", "1000") == 0
            loaded = sorted(name for name in sys.modules
                            if name.split(".")[0] == "scipy")
            assert not loaded, loaded
        """)
        src = Path(ln.__file__).resolve().parents[1]
        result = subprocess.run([sys.executable, "-c", script], cwd=src,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestErrorHandling:
    def test_missing_config_exits_one_with_error_doc(self, capsys):
        code, out, err = run_cli(capsys, "regions", "--config",
                                 "/missing.json")
        assert code == 1
        assert out == ""
        doc = json.loads(err)
        jsonschema.validate(doc, load_schema("error"))
        assert doc["error"]["type"] == "ConfigError"

    def test_lone_surrogate_bank_name_is_rejected(self, capsys, tmp_path):
        # UTF-8 cannot encode a lone surrogate, so no output could hold the
        # name: it is refused at load, before anything is written
        doc = json.loads(ln.case_study_path().read_text())
        doc["banks"][1]["name"] = "\ud800"
        target = tmp_path / "surrogate.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(ln.ConfigValidationError) as info:
            ln.load_config(target)
        assert info.value.field == "banks[1].name"
        for fmt in ("table", "doc"):
            code, out, err = run_cli(capsys, "control", "--config",
                                     str(target), "--format", fmt)
            assert (code, out) == (1, ""), fmt
            error = json.loads(err)["error"]
            assert error["type"] == "ConfigValidationError"
            assert error["message"].startswith("banks[1].name: ")

    def test_undecodable_config_path_renders_its_error(self, capsys):
        # a path byte that is not UTF-8 reaches argv as a lone surrogate,
        # which the error object writes backslash-escaped
        code, out, err = run_cli(capsys, "control", "--config",
                                 "/nonexistent/\udcff.json")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "type": "ConfigError",
            "message": "input file not found: /nonexistent/\\udcff.json"}

    def test_validation_error_reports_field(self, capsys, tmp_path):
        doc = json.loads(ln.case_study_path().read_text())
        doc["banks"][2]["recovery"] = 1.5
        target = tmp_path / "recovery.json"
        target.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "control", "--config", str(target))
        assert code == 1
        assert "banks[2].recovery" in err

    @pytest.mark.parametrize("keys, value", [
        (("banks", 2, "drift"), math.nan),
        (("banks", 1, "recovery"), math.nan),
        (("banks", 0, "cash"), math.inf),
        (("growth_rate",), math.inf),
        (("horizon",), math.inf),
        (("psi_cap",), math.inf),
        (("psi_cap",), math.nan),
        (("ranking", "epsilon"), math.inf),
        (("liabilities", 0, 1), math.inf),
        (("liabilities", 1, 0), math.nan),
        pytest.param(("liabilities", 3, 2), 10**400,
                     id="('liabilities', 3, 2)-10**400"),
        # a str is JSON text that json.dumps cannot write
        pytest.param(("banks", 3, "vol"), "1e400",
                     id="('banks', 3, 'vol')-1e400"),
    ], ids=str)
    def test_non_finite_number_names_field(self, capsys, tmp_path, keys,
                                           value):
        doc = json.loads(ln.case_study_path().read_text())
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = "<value>" if isinstance(value, str) else value
        target = tmp_path / "nonfinite.json"
        target.write_text(json.dumps(doc).replace('"<value>"', str(value)))
        code, out, err = run_cli(capsys, "control", "--config", str(target))
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigValidationError"
        field = keys[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                  for k in keys[1:])
        assert error["message"] == f"{field}: must be a finite number"

    def test_zero_survival_target_names_policy_q(self, capsys, tmp_path):
        doc = json.loads(ln.case_study_path().read_text())
        doc["policy"] = {"kind": "uniform", "q": 0.0}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, load_schema("config"))
        target = tmp_path / "zero_q.json"
        target.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "control", "--config", str(target))
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigValidationError"
        assert error["message"] == "policy.q: must lie strictly inside (0, 1)"

    @pytest.mark.parametrize("field", ["damping", "epsilon"])
    @pytest.mark.parametrize("value", [None, "0.5", "abc"])
    def test_optional_ranking_number_is_checked(self, capsys, tmp_path,
                                                field, value):
        doc = json.loads(ln.case_study_path().read_text())
        doc["ranking"][field] = value
        target = tmp_path / "ranking.json"
        target.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "control", "--config", str(target))
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigValidationError"
        assert error["message"] == f"ranking.{field}: must be a number"

    @pytest.mark.parametrize("fmt", ["table", "doc"])
    @pytest.mark.parametrize("target, error_type", [
        ("missing/x.json", "FileNotFoundError"),
        (".", "IsADirectoryError"),
    ])
    def test_unwritable_output_exits_one_with_error_doc(
            self, capsys, tmp_path, monkeypatch, target, error_type, fmt):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "control", "--config",
                                 "case_study.json", "--format", fmt,
                                 "--output", target)
        assert code == 1
        assert out == ""
        doc = json.loads(err)
        jsonschema.validate(doc, load_schema("error"))
        assert doc["error"]["type"] == error_type
        assert not (tmp_path / "missing").exists()

    def test_failed_command_leaves_output_untouched(self, capsys, tmp_path):
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier output\n")
        fresh = tmp_path / "fresh.csv"
        for target in (kept, fresh):
            code, _, err = run_cli(capsys, "clearing", "--config",
                                   "case_study.json", "--time", "5",
                                   "--output", str(target))
            assert code == 1
            assert json.loads(err)["error"]["message"].startswith("t: ")
        assert kept.read_text() == "earlier output\n"
        assert not fresh.exists()

    @pytest.mark.parametrize("fmt", ["doc", "table"])
    def test_stdout_is_utf8_whatever_the_locale(self, tmp_path, fmt):
        # JSON text is UTF-8 (RFC 8259), so stdout carries what --output
        # does even where the locale's encoding cannot hold a bank's name
        doc = json.loads(ln.case_study_path().read_text())
        doc["banks"][0]["name"] = "Banco Ñ"
        config = tmp_path / "named.json"
        config.write_text(json.dumps(doc))
        target = tmp_path / "out"
        argv = [sys.executable, "-m", "lolrnet", "control", "--config",
                str(config), "--format", fmt]
        src = Path(ln.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONIOENCODING": "ascii",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        subprocess.run([*argv, "--output", str(target)], env=env, check=True,
                       timeout=60)
        assert proc.stdout == target.read_bytes()
        assert "Banco Ñ".encode() in proc.stdout

    def test_closed_stdout_pipe_exits_quietly(self, tmp_path):
        # the doc is megabytes, far more than a pipe buffer holds, so the
        # write after the reader has gone is certain to fail
        path = sparse_config(tmp_path / "sparse.json", 300, seed=11)
        proc = subprocess.Popen(
            [sys.executable, "-m", "lolrnet", "rank", "--config", str(path),
             "--format", "doc"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=Path(ln.__file__).resolve().parents[1])
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify", "--config", "case_study.json"])
        assert info.value.code == 2

    def test_overflowing_grown_obligations_name_growth_rate(self, capsys,
                                                             tmp_path):
        doc = json.loads(ln.case_study_path().read_text())
        doc["growth_rate"] = 709.0
        target = tmp_path / "growth.json"
        target.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "clearing", "--config", str(target),
                                 "--time", "1")
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigValidationError"
        assert error["message"] == ("growth_rate: grown obligations must "
                                    "stay below the largest float")

    @pytest.mark.parametrize("argv, field", [
        (("simulate", "--paths", "0"), "paths"),
        (("simulate", "--steps", "0"), "steps"),
        (("simulate", "--seed", "-1"), "seed"),
        (("clearing", "--time", "5"), "t"),
        (("clearing", "--time", "nan"), "t"),
        (("regions", "--time", "5"), "t"),
    ])
    def test_bad_value_names_its_field(self, capsys, argv, field):
        code, out, err = run_cli(capsys, *argv, "--config",
                                 "case_study.json")
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidValueError"
        assert error["message"].startswith(f"{field}: ")

    # a valid Google matrix for three banks, and one row of two columns; the
    # case study has four banks
    @pytest.mark.parametrize("rows", [[[1 / 3] * 3] * 3, [[1.0, 2.0]]],
                             ids=["three-banks", "one-row"])
    def test_matrix_override_of_wrong_size_names_file(self, capsys, tmp_path,
                                                      rows):
        target = tmp_path / "override.json"
        target.write_text(json.dumps(rows))
        code, out, err = run_cli(capsys, "rank", "--config", "case_study.json",
                                 "--matrix-override", str(target))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == {
            "type": "ConfigError",
            "message": f"{target}: google: must be a 4x4 array"}

    @pytest.mark.parametrize("flag", ["--config", "--matrix-override"])
    def test_non_utf8_file_is_a_parse_error_naming_it(self, capsys, tmp_path,
                                                      flag):
        doc = json.loads(ln.case_study_path().read_text())
        target = tmp_path / "latin1.json"
        target.write_bytes(json.dumps({**doc, "comment": "caf\u00e9"},
                                      ensure_ascii=False).encode("latin-1"))
        argv = (["--config", str(target)] if flag == "--config" else
                ["--config", "case_study.json", flag, str(target)])
        code, out, err = run_cli(capsys, "rank", *argv)
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigParseError"
        assert error["message"].startswith(f"{target}: 'utf-8' codec")

    # each is malformed both as a config and as a matrix
    @pytest.mark.parametrize("text", [
        "[[0.25, 0.25],]", "[[0.25, 0.25], [0.5", "[[01]]", "",
        "\ufeff[[1]]", "[[1]] [[1]]",
    ], ids=["trailing-comma", "truncated-array", "leading-zero", "empty",
            "utf8-bom", "extra-data"])
    @pytest.mark.parametrize("flag", ["--config", "--matrix-override"])
    def test_malformed_json_keeps_the_stdlib_message(self, capsys, tmp_path,
                                                     flag, text):
        target = tmp_path / "malformed.json"
        target.write_bytes(text.encode("utf-8"))
        with pytest.raises(json.JSONDecodeError) as info:
            json.loads(target.read_text(encoding="utf-8"))
        argv = (["--config", str(target)] if flag == "--config" else
                ["--config", "case_study.json", flag, str(target)])
        code, out, err = run_cli(capsys, "rank", *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == {
            "type": "ConfigParseError",
            "message": f"{target}: {info.value}"}

    @pytest.mark.parametrize("argv", COMMAND_ARGV, ids=" ".join)
    def test_crlf_config_gives_the_lf_docs(self, capsys, tmp_path, argv):
        lf = ln.case_study_path().read_bytes()
        assert b"\r" not in lf and b"\n" in lf
        crlf = tmp_path / "crlf.json"
        crlf.write_bytes(lf.replace(b"\n", b"\r\n"))
        docs = [run_cli(capsys, *argv, "--config", config, "--format", "doc")
                for config in ("case_study.json", str(crlf))]
        assert docs[0][0] == 0
        assert docs[1] == docs[0]

    def test_bad_config_is_reported_before_bad_override(self, capsys):
        code, _, err = run_cli(capsys, "rank", "--config", "/missing.json",
                               "--matrix-override", "/missing-gd.json")
        assert code == 1
        assert json.loads(err)["error"] == {
            "type": "ConfigError",
            "message": "input file not found: /missing.json"}

    @pytest.mark.parametrize("rows, n, message", [
        ([[1.0, 2.0]], 1, "google[0]: must have 1 entry"),
        ([[0.5, 0.5], [1.0]], 2, "google[1]: must have 2 entries"),
    ], ids=["one-bank", "two-banks"])
    def test_matrix_row_of_wrong_length_names_row(self, tmp_path, rows, n,
                                                  message):
        target = tmp_path / "matrix.json"
        target.write_text(json.dumps(rows))
        with pytest.raises(ln.ConfigError) as info:
            load_matrix(target, n)
        assert str(info.value) == f"{target}: {message}"

    def test_time_outside_horizon(self, capsys):
        code, _, err = run_cli(capsys, "clearing", "--config",
                               "case_study.json", "--time", "5")
        assert code == 1
        assert json.loads(err)["error"] == {
            "type": "InvalidValueError",
            "message": "t: must lie in [0, 1.0], got 5.0"}
