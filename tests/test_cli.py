import csv
import io
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import lolrnet as ln
import lolrnet.simulate as engine
from lolrnet.cli import main
from lolrnet.config import dumps_doc, format_number
from _support import CREDITOR_TABLE, FIXTURE_EIGENVALUE, FIXTURE_RANK

SCHEMA_DIR = Path(ln.__file__).parent / "schemas"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestConfigLoading:
    def test_fixture_is_the_transposed_creditor_table(self, case_config):
        net = case_config.to_network()
        assert case_config.names == ("Bank 1", "Bank 2", "Bank 3", "Bank 4")
        assert np.array_equal(net.liabilities,
                              np.array(CREDITOR_TABLE, float).T)
        assert net.drift.tolist() == [0.2, 0.15, 0.3, 0.05]
        assert net.vol.tolist() == [0.1, 0.25, 0.2, 0.4]
        assert net.growth_rate == 0.08
        assert case_config.psi_cap == math.inf

    def test_fixture_matches_config_schema(self):
        doc = json.loads(ln.case_study_path().read_text())
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
             "policy.q: must lie in [0, 1)"),
            (("policy", "base"), 1.0, "policy.base: must lie in [0, 1)"),
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

    @pytest.mark.parametrize("value, message", [
        (math.nan, "google[1][2]: must be a finite number"),
        ("a", "google[1][2]: must be a number"),
        (True, "google[1][2]: must be a number"),
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

    def test_simulate_doc_schema(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--config",
                               "case_study.json", "--paths", "400",
                               "--steps", "8", "--seed", "3", "--format",
                               "doc")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("simulate"))
        assert doc["paths_used"] == 400
        assert doc["seed_used"] == 3
        assert doc["uncontrolled"][2]["psi"] == 0.0
        assert doc["controlled"][2]["psi"] == pytest.approx(0.40837,
                                                            abs=1e-5)

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

    @pytest.mark.parametrize("argv", [
        ("rank",), ("rank", "--matrix-override", "printed_gd.json"),
        ("clearing", "--time", "0.5"), ("regions",), ("control",),
        ("simulate", "--paths", "400", "--steps", "8"),
    ], ids=" ".join)
    def test_table_is_a_view_of_the_doc(self, capsys, argv):
        def cell(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return format_number(value)
            return str(value)

        command = ("--config", "case_study.json", *argv[1:])
        _, table, _ = run_cli(capsys, argv[0], *command)
        _, text, _ = run_cli(capsys, argv[0], *command, "--format", "doc")
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
        assert first == second

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "rank.csv"
        code, out, _ = run_cli(capsys, "rank", "--config", "case_study.json")
        code2, _, _ = run_cli(capsys, "rank", "--config", "case_study.json",
                              "--output", str(target))
        assert code == code2 == 0
        assert target.read_text() == out

    def test_float_arrays_render_like_lists(self):
        rng = np.random.default_rng(5)
        special = [-0.0, 5e-324, 2.2250738585072009e-308, 1e308,
                   0.30000000000000004, 1.2345678901234567e-5, 3.0]
        finite = np.vstack([special, rng.normal(size=(3, len(special)))])
        nonfinite = np.array(special + [math.inf, -math.inf, math.nan])
        for arr in (finite, finite[0], nonfinite, nonfinite.reshape(2, 5),
                    np.zeros((2, 0)), np.array([])):
            doc = {"matrix": arr, "nested": [arr]}
            plain = {"matrix": arr.tolist(), "nested": [arr.tolist()]}
            assert dumps_doc(doc) == dumps_doc(plain)

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

    def test_dump_and_doc_do_not_depend_on_thread_count(self, capsys,
                                                        tmp_path,
                                                        monkeypatch):
        # a small chunk gives the second worker chunks to run
        monkeypatch.setattr(engine, "_CHUNK", 8)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("LOLRNET_THREADS", threads)
            dump = tmp_path / f"paths-{threads}.csv"
            code, out, err = run_cli(
                capsys, "simulate", "--config", "case_study.json", "--paths",
                "37", "--steps", "7", "--antithetic", "--format", "doc",
                "--dump-paths", str(dump))
            assert code == 0 and err == ""
            outputs.append((out, dump.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bare_flag_writes_sibling_of_output(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config",
                             "case_study.json", "--paths", "10", "--steps",
                             "4", "--dump-paths", "--output", str(target))
        assert code == 0
        assert (tmp_path / "report.csv.paths.csv").exists()


class TestErrorHandling:
    def test_missing_config_exits_one_with_error_doc(self, capsys):
        code, out, err = run_cli(capsys, "regions", "--config",
                                 "/missing.json")
        assert code == 1
        assert out == ""
        doc = json.loads(err)
        jsonschema.validate(doc, load_schema("error"))
        assert doc["error"]["type"] == "ConfigError"

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
    ], ids=str)
    def test_non_finite_number_names_field(self, capsys, tmp_path, keys,
                                           value):
        doc = json.loads(ln.case_study_path().read_text())
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        target = tmp_path / "nonfinite.json"
        target.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "control", "--config", str(target))
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigValidationError"
        field = keys[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                  for k in keys[1:])
        assert error["message"] == f"{field}: must be a finite number"

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

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify", "--config", "case_study.json"])
        assert info.value.code == 2

    def test_time_outside_horizon(self, capsys):
        code, _, err = run_cli(capsys, "clearing", "--config",
                               "case_study.json", "--time", "5")
        assert code == 1
        assert "outside" in err
