"""Command-line surface: grammar, verbs, formats, exit codes."""

from __future__ import annotations

import csv
import io
import json

import pytest

from overlapkit.cli import _CATALOG_ROWS, _head_kind, run


def _lines(capsys) -> list[str]:
    return capsys.readouterr().out.strip().splitlines()


# --- eval -------------------------------------------------------------------


def test_eval_at_point(capsys):
    assert run(["eval", "gon(GO_max, zadeh)", "--at", "0.6", "0.2"]) == 0
    assert _lines(capsys) == ["1.000000000"]


def test_eval_negation(capsys):
    assert run(["eval", "zadeh", "--at", "0.3"]) == 0
    assert _lines(capsys) == ["0.700000000"]


def test_eval_multiple_points(capsys):
    assert run(["eval", "O_min", "--at", "0.2", "0.9", "--at", "0.6", "0.4"]) == 0
    assert _lines(capsys) == ["0.200000000", "0.400000000"]


def test_eval_grid_dump(capsys):
    assert run(["eval", "zadeh", "--grid", "11"]) == 0
    lines = _lines(capsys)
    assert len(lines) == 11
    assert lines[0].split() == ["0.000000000", "1.000000000"]
    assert lines[-1].split() == ["1.000000000", "0.000000000"]


def test_eval_aggregated_family(capsys):
    code = run(["eval", "agg(mean; gon(GO_max, zadeh), gon(O_P:p=2, zadeh))",
                "--at", "0.5", "0.5"])
    assert code == 0
    assert _lines(capsys) == ["0.968750000"]


def test_eval_arity_mismatch_exits_3():
    assert run(["eval", "GO_PN:n=3", "--at", "0.5", "0.5"]) == 3


def test_eval_out_of_range_exits_3():
    assert run(["eval", "zadeh", "--at", "2.0"]) == 3


def test_parse_error_exits_2():
    assert run(["eval", "nonsense("]) == 2
    assert run(["eval", "gon(O_min)"]) == 2
    assert run(["axioms", "crisp_lower:x"]) == 2


@pytest.mark.parametrize(
    "expression", ["O_P:p=1,p=2", "idem_go:p=1,q=2,p=3", "trunc:O_P:p=1,a=0.5,a=0.5"]
)
def test_duplicate_parameter_exits_2(expression, capsys):
    assert run(["eval", expression, "--at", "0.5", "0.5"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [["eval", "O_P:p=1,p=2", "--at", "0.5", "0.5"], ["axioms", "O_P:p=1,p=2"]],
)
def test_parse_error_comes_from_the_parser_the_head_names(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duplicate parameter 'p'" in captured.err


def test_every_catalog_head_names_its_parser():
    for expression, kind, _ in _CATALOG_ROWS:
        for alternative in expression.split(" | "):
            assert _head_kind(alternative) == {"aggregation": "connective"}.get(kind, kind)


def test_unknown_implication_family_is_named(capsys):
    assert run(["props", "foo(O_P:p=2)"]) == 2
    assert "unknown implication family 'foo'" in capsys.readouterr().err


# --- axioms -----------------------------------------------------------------


def test_axioms_default_set_from_role(capsys):
    assert run(["axioms", "GO_max", "--assert"]) == 0
    out = capsys.readouterr().out
    assert "GO1" in out and "GO5" in out


def test_axioms_explicit_set_failure(capsys):
    # overlap axioms on a general overlap: O2 must fail, --assert flips exit
    assert run(["axioms", "GO_max", "--set", "O"]) == 0
    assert run(["axioms", "GO_max", "--set", "O", "--assert"]) == 1
    out = capsys.readouterr().out
    assert "O2" in out



@pytest.mark.parametrize("n", ["40", "70", "1e20"])
def test_axioms_of_a_huge_arity_exit_3(n, capsys):
    # The axiom grid would hold 11^n points: refused before it is built.
    assert run(["axioms", f"GO_PN:n={n}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"arity {int(float(n))} " in captured.err

def test_axioms_json(capsys):
    assert run(["axioms", "O_min", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == "O_min"
    assert payload["passed"] is True
    assert {c["axiom"] for c in payload["checks"]} == {"O1", "O2", "O3", "O4", "O5"}


def test_axioms_negation_target(capsys):
    assert run(["axioms", "zadeh", "--assert"]) == 0
    out = capsys.readouterr().out
    assert "N1" in out and "N2" in out


# --- props ------------------------------------------------------------------


def test_props_single_holds(capsys):
    assert run(["props", "gon(O_min, crisp_upper:0.5)", "--prop", "LOP", "--assert"]) == 0
    assert "holds" in capsys.readouterr().out


def test_props_failing_with_assert(capsys):
    assert run(["props", "gon(O_min, crisp_upper:0.5)", "--prop", "ROP", "--assert"]) == 1
    assert "fails" in capsys.readouterr().out


def test_props_list_and_csv(capsys):
    assert run(["props", "gon(O_min, zadeh)", "--prop", "NP,IP,EP", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][0] == "property"
    assert [r[0] for r in rows[1:]] == ["NP", "IP", "EP"]
    got = {r[0]: r[1] for r in rows[1:]}
    # I(x,x) = 1 - x near zero, so the identity principle genuinely fails
    assert got == {"NP": "holds_on_grid", "IP": "fails", "EP": "holds_on_grid"}


def test_props_all(capsys):
    assert run(["props", "gon(O_min, zadeh)", "--prop", "all"]) == 0
    out = capsys.readouterr().out
    for pid in ("NP", "IP", "LOP", "ROP", "IB", "EP", "EP1", "CP", "L-CP", "R-CP"):
        assert pid in out


def test_props_contraposition_negation_flag(capsys):
    code = run(["props", "gon(O_min, power:2)", "--prop", "L-CP",
                "--negation", "power:2", "--assert"])
    assert code == 0


# --- compare ----------------------------------------------------------------


def test_compare_duality(capsys):
    code = run(["compare", "gon(O_P:p=1, zadeh)", "gn(dualG(O_P:p=1, zadeh), zadeh)",
                "--assert"])
    assert code == 0
    assert "0.000000000" in capsys.readouterr().out


def test_compare_assert_fails_on_distinct(capsys):
    assert run(["compare", "gon(O_min, zadeh)", "gon(GO_max, zadeh)", "--assert"]) == 1


def test_compare_json(capsys):
    assert run(["compare", "gon(O_min, zadeh)", "gon(O_min, zadeh)", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["deviation"] == 0.0
    assert payload["samples_checked"] > 10000


# --- table2 -----------------------------------------------------------------


def test_table2_matches_expected(capsys):
    assert run(["table2", "--format", "csv", "--assert"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    header = rows[0]
    assert header[0] == "property"
    assert header[1:] == [
        "tn(O_min, zadeh)",
        "tn(O_min, power:2)",
        "tn(O_min, crisp_upper:0.5)",
        "gon(O_min, zadeh)",
        "gon(O_min, crisp_upper:0.5)",
    ]
    grid = {r[0]: r[1:] for r in rows[1:]}
    assert grid["EP"] == ["yes", "no", "yes", "yes", "yes"]
    assert grid["NP"] == ["yes", "no", "no", "yes", "no"]
    assert grid["ROP"] == ["yes", "yes", "no", "yes", "no"]
    assert grid["LOP"] == ["no", "no", "yes", "no", "yes"]
    assert grid["CP"] == ["yes", "no", "yes", "yes", "yes"]
    assert grid["L-CP"] == ["yes", "yes", "yes", "yes", "yes"]
    assert grid["R-CP"] == ["yes", "no", "yes", "yes", "yes"]


# --- search -----------------------------------------------------------------


def test_search_finds_ep_violation(capsys):
    code = run(["search", "gon(O_P:p={}, zadeh)", "--prop", "EP",
                "--range", "1", "3", "--steps", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "p=1.5" in out and "fails" in out


def test_search_assert_exit(capsys):
    code = run(["search", "gon(O_P:p={}, zadeh)", "--prop", "EP",
                "--range", "1", "3", "--steps", "5", "--assert"])
    assert code == 1


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_search_rejects_steps_below_one(steps, capsys):
    code = run(["search", "gon(O_P:p={}, zadeh)", "--prop", "EP",
                "--range", "1", "2", "--steps", steps])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--steps must be >= 1" in captured.err


def test_search_no_violation(capsys):
    code = run(["search", "gon(GO_TL:p={}, zadeh)", "--prop", "L-CP",
                "--range", "1", "3", "--steps", "3", "--assert"])
    assert code == 0
    assert "violation found" in capsys.readouterr().out


# --- catalog ----------------------------------------------------------------


def test_catalog_lists_grammar(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for token in ("O_P:p=", "GO_PN:n=", "crisp_upper:", "gon(", "agg(", "zadeh"):
        assert token in out


# --- config -----------------------------------------------------------------


def test_config_file_flag(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("grid_resolution = 21\nrandom_samples = 40\n")
    # the steep idempotent connective passes GO only at the coarse resolution
    assert run(["axioms", "idem_go:p=1,q=2", "--config", str(cfg), "--assert"]) == 0
    capsys.readouterr()
    assert run(["axioms", "idem_go:p=1,q=2", "--assert"]) == 1


def test_config_env_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("grid_resolution = 21\nrandom_samples = 40\n")
    monkeypatch.setenv("OVERLAPKIT_CONFIG", str(cfg))
    assert run(["axioms", "idem_go:p=1,q=2", "--assert"]) == 0


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("grid_resolution = 21\nrandom_samples = 40\n")
    code = run(["axioms", "idem_go:p=1,q=2", "--config", str(cfg),
                "--grid", "101", "--samples", "200", "--assert"])
    assert code == 1


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid_resolution : 21\n")
    assert run(["eval", "zadeh", "--at", "0.5", "--config", str(cfg)]) == 2


def test_missing_config_exits_3(tmp_path):
    assert run(["eval", "zadeh", "--at", "0.5", "--config", str(tmp_path / "nope.cfg")]) == 3


# --- determinism ------------------------------------------------------------


def test_repeated_commands_identical(capsys):
    run(["props", "gon(GO_max, zadeh)", "--prop", "EP", "--format", "json"])
    first = capsys.readouterr().out
    run(["props", "gon(GO_max, zadeh)", "--prop", "EP", "--format", "json"])
    assert capsys.readouterr().out == first


def test_seed_flag_changes_samples(capsys):
    run(["props", "gon(GO_max, zadeh)", "--prop", "EP", "--seed", "0", "--format", "json"])
    base = json.loads(capsys.readouterr().out)
    run(["props", "gon(GO_max, zadeh)", "--prop", "EP", "--seed", "5", "--format", "json"])
    other = json.loads(capsys.readouterr().out)
    # the verdict is seed-independent even though the sample set is not
    assert base[0]["status"] == other[0]["status"] == "fails"
