import contextlib
import hashlib
import io
import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmsquare import cli, hvmodels, square
from pmsquare.cli import main, resolve_state
from pmsquare.errors import InternalConsistencyError

from conftest import boundary_crossing, boundary_point, boundary_slope

GOLDEN = Path(__file__).resolve().parent / "golden"
HAAR = str(GOLDEN / "haar_state.json")
SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report-schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    document = json.loads(out)
    jsonschema.validate(document, SCHEMA)
    return code, document


# --- verify -------------------------------------------------------------------


def test_verify_passes_and_reports_products(capsys):
    code, document = run_json(capsys, "verify")
    assert code == 0
    assert document["pass"] is True
    results = document["results"]
    assert results["context_products"]["col2"] == -1
    assert results["context_products"]["row0"] == 1
    assert results["checks"]["commutation_pairs"] == 36
    assert results["checks"]["eigenvector_checks"] == 24
    assert results["checks"]["product_signs"] == 6
    assert len(results["commutation"]["pairs"]) == 36


def test_one_verify_checks_each_eigentable_once(monkeypatch, capsys):
    checked = []
    verify_eigentable = square.verify_eigentable

    def spy(context, entries):
        checked.append(context)
        return verify_eigentable(context, entries)

    monkeypatch.setattr(square, "verify_eigentable", spy)
    square.checked_eigentable.cache_clear()
    code, out = run_cli(capsys, "verify", "--json")
    assert code == 0
    assert sorted(checked) == sorted(square.CONTEXTS)
    assert out == (GOLDEN / "verify.json").read_text(encoding="utf-8")


def test_every_report_envelope_is_checked_without_a_flag(monkeypatch, capsys):
    checked = []
    validate_envelope = cli.validate_envelope

    def spy(document):
        checked.append(document["command"])
        return validate_envelope(document)

    monkeypatch.setattr(cli, "validate_envelope", spy)
    code, _ = run_cli(capsys, "verify")
    assert code == 0
    assert checked == ["verify"]


def test_verify_internal_consistency_error_is_one_line_and_no_report(monkeypatch, capsys):
    def broken():
        raise InternalConsistencyError("cells (0, 0) and (0, 1) do not commute")

    monkeypatch.setattr(cli, "commutation_relation", broken)
    code = main(["verify", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "pmsquare: internal consistency error: cells (0, 0) and (0, 1) do not commute\n"
    )


# --- contradiction --------------------------------------------------------------


def test_contradiction_default_finds_nothing(capsys):
    code, document = run_json(capsys, "contradiction")
    assert code == 0
    assert document["pass"] is True
    assert document["results"]["count"] == 0
    parity = document["results"]["parity"]
    assert parity["without_col2_count"] == 16
    assert parity["third_column_products"] == {"+1": 16, "-1": 0}
    assert parity["required_by_col2"] == -1


def test_contradiction_rows_only(capsys):
    code, document = run_json(capsys, "contradiction", "--constraints", "r0,r1,r2")
    assert code == 0
    assert document["results"]["count"] == 64
    assert len(document["results"]["survivors"]) == 64


def test_contradiction_rows_and_two_columns(capsys):
    code, document = run_json(
        capsys, "contradiction", "--constraints", "row0,row1,row2,col0,col1"
    )
    assert code == 0
    assert document["results"]["count"] == 16
    assert document["results"]["third_column_products"] == {"+1": 16, "-1": 0}


def test_contradiction_with_a_repeated_context_keeps_the_parity_view(capsys):
    code, repeated = run_json(capsys, "contradiction", "--constraints", "r0,r1,r2,c0,c1,c2,r0")
    _, six = run_json(capsys, "contradiction", "--constraints", "r0,r1,r2,c0,c1,c2")
    assert code == 0
    assert repeated["pass"] is True
    assert repeated["results"]["count"] == 0
    assert repeated["results"]["parity"] == six["results"]["parity"]


def test_contradiction_rejects_unknown_constraint(capsys):
    code = main(["contradiction", "--constraints", "diag1"])
    assert code == 2
    assert "unknown context" in capsys.readouterr().err


# --- realization -----------------------------------------------------------------


@pytest.mark.parametrize(
    "index,unique_ok,simultaneous_ok",
    [(1, True, False), (2, False, True), (3, False, False)],
)
def test_realization_reports(capsys, index, unique_ok, simultaneous_ok):
    code, document = run_json(capsys, "realization", str(index))
    assert code == 0
    assert document["pass"] is True
    requirements = document["results"]["requirements"]
    assert requirements["unique_realization_ok"] is unique_ok
    assert requirements["simultaneity_ok"] is simultaneous_ok


def test_realization3_broken_pairs_include_wing_vs_bell(capsys):
    _, document = run_json(capsys, "realization", "3")
    pairs = [tuple(b["pair"]) for b in document["results"]["requirements"]["broken_contexts"]]
    assert ("Lr_z", "fp(Bprime)") in pairs


# --- model ------------------------------------------------------------------------


def test_model1_psi1_reports_the_classic_witness(capsys):
    code, document = run_json(capsys, "model", "1", "--state", "psi1")
    assert code == 0
    assert document["pass"] is True
    witnesses = document["results"]["witnesses"]
    hits = [
        w
        for w in witnesses["context"]
        if w["context"] == "col2"
        and w["outcomes"] == {"Lzz": 1, "Lxx": 1, "B": 1}
        and w["triple"] == [1, 1, 1]
    ]
    assert hits
    assert witnesses["simultaneous_violation_count"] == 0
    assert document["results"]["noncontextual"] is True
    assert document["results"]["statistics"]["passed"] is True


def test_uncapped_witness_lists_of_the_haar_state_are_byte_identical(capsys):
    # the golden files cap each group at 12, so only this report renders long witness lists
    code, out = run_cli(
        capsys, "model", "2", "--state", HAAR, "--max-witnesses", "100000", "--json"
    )
    assert code == 0
    witnesses = json.loads(out)["results"]["witnesses"]
    assert (len(witnesses["context"]), len(witnesses["cell"])) == (1296, 360)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "9a88f79bddf12a9bcddf7b23e9f8a95f7ea165413bcf0853026faf84075f0db9"
    )


def test_model2_psi1_fine_block(capsys):
    code, document = run_json(capsys, "model", "2", "--state", "psi1")
    assert code == 0
    fine = document["results"]["fine"]
    assert fine["status"] == "feasible"
    block = sum(p for key, p in fine["joint"].items() if key.startswith("+1,+1"))
    assert block == pytest.approx(1.0, abs=1e-9)


def test_model2_chsh_max_exits_with_infeasible_code(capsys):
    code, document = run_json(capsys, "model", "2", "--state", "chsh-max")
    assert code == 3
    assert document["pass"] is False
    assert document["results"]["fine"]["status"] == "infeasible"
    assert document["results"]["ch"]["max_abs"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert document["results"]["ch"]["violated"] is True
    assert document["results"]["fine"]["certificate"]


# --- ch ----------------------------------------------------------------------------


def test_ch_singlet(capsys):
    code, document = run_json(capsys, "ch", "--state", "phiPP4")
    assert code == 0
    assert document["results"]["max_abs"] == pytest.approx(2.0, abs=1e-12)
    assert document["results"]["violated"] is False


# --- sample ---------------------------------------------------------------------------


def test_sample_reports_are_byte_identical(capsys):
    args = ("sample", "1", "--state", "psi1", "--shots", "50000", "--seed", "42", "--json")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sample_point_mass(capsys):
    code, document = run_json(
        capsys, "sample", "1", "--state", "psiPP1", "--shots", "1000", "--seed", "7"
    )
    assert code == 0
    assert document["results"]["measurements"]["B"]["frequencies"]["1"] == 1.0


def test_sample_realization3_pinned_wing(capsys):
    code, document = run_json(
        capsys, "sample", "3", "--state", "psi1", "--shots", "20000", "--seed", "1"
    )
    assert code == 0
    assert document["results"]["measurements"]["Ll_z"]["frequencies"]["1"] == 1.0


def test_sample_infeasible_state_exits_3(capsys):
    code, document = run_json(
        capsys, "sample", "2", "--state", "chsh-max", "--shots", "10", "--seed", "0"
    )
    assert code == 3
    assert document["pass"] is False


def test_sample_rejects_nonpositive_shots(capsys):
    code = main(["sample", "1", "--state", "psi1", "--shots", "0", "--seed", "1"])
    assert code == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_sample_rejects_out_of_range_seed(capsys, seed):
    code = main(["sample", "1", "--state", "psi1", "--shots", "10", "--seed", seed])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("pmsquare: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_sample_accepts_seed_range_ends(capsys, seed):
    code, document = run_json(
        capsys, "sample", "1", "--state", "psi1", "--shots", "10", "--seed", str(seed)
    )
    assert code == 0
    assert document["results"]["seed"] == seed


@pytest.mark.parametrize(
    "line, message",
    [
        ("sample 2 --state chsh-max --shots 0 --seed 0", "--shots must be positive"),
        ("model 2 --state chsh-max --max-witnesses -1", "--max-witnesses must be nonnegative"),
        ("sample 1 --state missing.json --shots 0 --seed 0", "--shots must be positive"),
    ],
)
def test_a_bad_option_is_reported_before_the_state_is_resolved_or_refused(capsys, line, message):
    # a refused or unreadable state must not hide the usage error
    code = main(line.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"pmsquare: {message}\n"


# --- state resolution -------------------------------------------------------------------


def test_internal_consistency_error_is_one_line_not_a_traceback(monkeypatch, capsys):
    from pmsquare import hvmodels
    from pmsquare.errors import InternalConsistencyError

    def broken(*args, **kwargs):
        raise InternalConsistencyError("identified readouts disagree")

    monkeypatch.setattr(hvmodels, "violation_witnesses", broken)
    code = main(["model", "2", "--state", "psi1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "pmsquare: internal consistency error: identified readouts disagree\n"
    assert "Traceback" not in captured.err


def test_a_failed_statistics_check_on_a_built_model_exits_1_not_3(monkeypatch, capsys):
    # the model carries a feasible fine block, so only a refusal's status may give exit 3
    reproduce = hvmodels.reproduce_statistics
    monkeypatch.setattr(
        hvmodels,
        "reproduce_statistics",
        lambda model, state: reproduce(model, state)._replace(passed=False),
    )
    code, document = run_json(capsys, "model", "2", "--state", "psi1")
    assert code == 1
    assert document["pass"] is False
    assert document["results"]["fine"]["status"] == "feasible"


def test_a_simultaneous_violation_fails_the_model_report(monkeypatch, capsys):
    scan = hvmodels.violation_witnesses

    def with_one_simultaneous_block(model, realization):
        report = scan(model, realization)
        return report._replace(simultaneous_blocks=report.context_blocks[:1])

    monkeypatch.setattr(hvmodels, "violation_witnesses", with_one_simultaneous_block)
    code, document = run_json(capsys, "model", "1", "--state", "psi1")
    assert code == 1
    assert document["pass"] is False
    assert document["results"]["statistics"]["passed"] is True
    assert document["results"]["witnesses"]["simultaneous_violation_count"] > 0


@pytest.mark.parametrize("index", ["2", "3"])
def test_model_in_the_chsh_slack_above_two_is_built(tmp_path, capsys, index):
    # |S| - 2 ~ 7e-10 is not a violation for the CHSH report, so the model
    # is built from the Born joints mixed slightly toward the uniform joint
    crossing = boundary_crossing(1.0, 1.02)
    state = boundary_point(crossing + 7e-10 / boundary_slope(crossing))
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"amplitudes": [[a.real, a.imag] for a in state]}))
    code, document = run_json(capsys, "model", index, "--state", str(path))
    results = document["results"]
    assert code == 0 and document["pass"]
    assert not results["ch"]["violated"] and 0.0 < results["ch"]["max_abs"] - 2.0 <= 1e-9
    assert results["fine"]["status"] == "feasible" and results["fine"]["mixing"] > 0.0
    assert results["statistics"]["passed"]


def test_resolve_named_states():
    state, echo = resolve_state("psi2")
    assert echo == {"name": "psi2"}
    assert state[1] == 1.0
    state, echo = resolve_state("chsh-max")
    assert echo == {"name": "chsh-max"}


def test_state_file_with_name(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text('{"name": "phiPP4"}', encoding="utf-8")
    code, document = run_json(capsys, "ch", "--state", str(path))
    assert code == 0
    assert document["inputs"]["state"] == {"name": "phiPP4"}


def test_state_file_name_may_not_point_to_a_file(tmp_path, capsys):
    itself = tmp_path / "itself.json"
    itself.write_text(json.dumps({"name": str(itself)}), encoding="utf-8")
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"name": str(tmp_path / "psi1.json")}), encoding="utf-8")
    (tmp_path / "psi1.json").write_text('{"name": "psi1"}', encoding="utf-8")
    for path in (itself, other):
        assert main(["ch", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pmsquare: ") and "not a known state name" in err


@pytest.mark.parametrize(
    "document",
    [
        {"name": "psi1", "amplitudes": 3},
        {"name": "psi1", "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]], "name": "chsh-max"},
    ],
)
def test_state_file_may_not_hold_both_a_name_and_amplitudes(tmp_path, capsys, document):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["ch", "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pmsquare: ") and "not both" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "document",
    [
        {"name": "psi1", "amplitude": [[0, 0], [1, 0], [0, 0], [0, 0]]},
        {"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]], "normalize": True},
        {"Name": "psi1"},
        {"name": "psi1", "": 0},
    ],
)
def test_state_file_may_not_hold_an_unknown_field(tmp_path, capsys, document):
    (unknown,) = set(document) - {"name", "amplitudes"}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["ch", "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pmsquare: ") and f"unknown field {unknown!r}" in captured.err
    assert captured.err.count("\n") == 1


def test_state_file_with_amplitudes(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text('{"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}', encoding="utf-8")
    code, document = run_json(capsys, "ch", "--state", str(path))
    assert code == 0
    assert document["results"]["correlators"]["zz"] == pytest.approx(1.0)


def test_state_file_requires_normalize_flag(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text('{"amplitudes": [[1, 0], [1, 0], [0, 0], [0, 0]]}', encoding="utf-8")
    code = main(["ch", "--state", str(path)])
    assert code == 2
    assert "--normalize" in capsys.readouterr().err
    code = main(["ch", "--state", str(path), "--normalize"])
    assert code == 0


def test_a_norm_off_by_5e_9_needs_the_normalize_flag(tmp_path, capsys):
    # the accepted norm error is 1e-9
    path = tmp_path / "state.json"
    path.write_text('{"amplitudes": [[1.000000005, 0], [0, 0], [0, 0], [0, 0]]}', encoding="utf-8")
    code = main(["ch", "--state", str(path)])
    assert code == 2
    assert "--normalize" in capsys.readouterr().err
    assert main(["ch", "--state", str(path), "--normalize"]) == 0


_KNOWN_NAMES = (
    "known names: chsh-max, phi1, phi2, phi3, phi4, phiP1, phiP2, phiP3, phiP4, phiPP1, phiPP2, "
    "phiPP3, phiPP4, psi1, psi2, psi3, psi4, psiP1, psiP2, psiP3, psiP4, psiPP1, psiPP2, psiPP3, "
    "psiPP4"
)


@pytest.mark.parametrize(
    "line, message",
    [
        (
            "ch --state nope",
            f"'nope' is neither a known state name nor an existing file; {_KNOWN_NAMES}",
        ),
        ("ch --state named.json", "state file 'named.json': 'nope' is not a known state name"),
        ("ch --state true.json", "state file 'true.json': 'name' must be a JSON string"),
        ("ch --state null.json", "state file 'null.json': 'name' must be a JSON string"),
        ("ch --state deep.json", "state file 'deep.json': 'name' must be a JSON string"),
        (
            "ch --state missing.json",
            f"'missing.json' is neither a known state name nor an existing file; {_KNOWN_NAMES}",
        ),
        ("contradiction --constraints ,", "--constraints must name at least one context"),
        ("contradiction --constraints x1", "unknown context name 'x1'"),
    ],
)
def test_state_and_constraint_errors_are_one_exact_line(
    tmp_path, monkeypatch, capsys, line, message
):
    # the named-state catalogue is built on first use; its error lines stay as they were
    monkeypatch.chdir(tmp_path)
    (tmp_path / "named.json").write_text('{"name": "nope"}', encoding="utf-8")
    # a name that is not a JSON string is refused as such, not printed as one
    (tmp_path / "true.json").write_text('{"name": true}', encoding="utf-8")
    (tmp_path / "null.json").write_text('{"name": null}', encoding="utf-8")
    deep = "[" * 900 + "]" * 900
    (tmp_path / "deep.json").write_text(f'{{"name": {deep}}}', encoding="utf-8")
    assert main(line.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pmsquare: {message}\n"


def test_unknown_state_is_a_usage_error(capsys):
    code = main(["ch", "--state", "not-a-state"])
    assert code == 2
    assert "known state name" in capsys.readouterr().err


def test_bad_state_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["ch", "--state", str(path)]) == 2
    capsys.readouterr()
    path.write_text('{"amplitudes": [[1, 0]]}', encoding="utf-8")
    assert main(["ch", "--state", str(path)]) == 2


@pytest.mark.parametrize("count", [1, 5])
def test_amplitudes_must_be_exactly_four_pairs(tmp_path, capsys, count):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"amplitudes": [[0.5, 0]] * count}), encoding="utf-8")
    assert main(["ch", "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pmsquare: 'amplitudes' must list four [re, im] pairs\n"


@pytest.mark.parametrize(
    "amplitudes",
    [
        '[[true, false], ["0", "0"], [0, 0], [0, 0]]',
        '[[1, 0], [0, "0"], [0, 0], [0, 0]]',
        '[[1, 0], {"0": 0, "1": 0}, [0, 0], [0, 0]]',
    ],
)
def test_amplitudes_must_be_json_numbers(tmp_path, capsys, amplitudes):
    # float() takes bools and numeric strings, and a dict unpacks to its keys
    path = tmp_path / "state.json"
    path.write_text(f'{{"amplitudes": {amplitudes}}}', encoding="utf-8")
    assert main(["ch", "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pmsquare: bad amplitude entry")
    assert captured.err.count("\n") == 1


def test_state_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_bytes(b'\xff\xfe{"name": "psi1"}')
    assert main(["ch", "--state", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pmsquare: cannot read state file") and err.count("\n") == 1


def test_normalize_survives_an_overflowing_norm(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text('{"amplitudes": [[1e308, 0], [1e308, 0], [0, 0], [0, 0]]}', encoding="utf-8")
    code, document = run_json(capsys, "ch", "--state", str(path), "--normalize")
    assert code == 0
    assert document["results"]["correlators"]["zz"] == pytest.approx(0.0, abs=1e-15)
    assert document["results"]["correlators"]["xx"] == pytest.approx(0.0, abs=1e-15)
    code, document = run_json(capsys, "model", "1", "--state", str(path), "--normalize")
    assert code == 0
    assert capsys.readouterr().err == ""


def test_normalize_rescales_a_vanishing_norm_and_drops_the_hint(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text('{"amplitudes": [[1e-301, 0], [0, 0], [0, 0], [0, 0]]}', encoding="utf-8")
    code, document = run_json(capsys, "ch", "--state", str(path), "--normalize")
    assert code == 0
    assert document["results"]["correlators"]["zz"] == 1.0
    assert capsys.readouterr().err == ""
    path.write_text('{"amplitudes": [[0, 0], [0, 0], [0, 0], [0, 0]]}', encoding="utf-8")
    assert main(["ch", "--state", str(path), "--normalize"]) == 2
    err = capsys.readouterr().err
    assert "cannot normalize the zero vector" in err and "did you mean" not in err
    assert main(["ch", "--state", str(path)]) == 2
    assert "(did you mean --normalize?)" in capsys.readouterr().err


# --- fuzzing: any state file and argument list ends in a report or a one-line error ---


_NUMBERS = st.one_of(
    st.floats(-1, 1),
    st.floats(),  # NaN and the infinities become NaN/Infinity tokens
    st.sampled_from([1e308, -1e308, 5e-324, 2.2250738585072014e-308, 1e-160, 0.5, 0, 10**400]),
    st.integers(),
    st.sampled_from(["1", "nan", "1e999", "x", ""]),
)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=8),
    lambda children: (
        st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=12,
)
_PAIRS = st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=4, max_size=4)
_AMPLITUDES = st.one_of(
    _PAIRS,
    _PAIRS,
    st.lists(st.lists(_NUMBERS, max_size=3), max_size=6),
    _JSON,
)
_NAMES = st.one_of(
    st.sampled_from(["psi1", "chsh-max", "phiPP4", "nope", "state.json", "other.json"]), _JSON
)


def _encode(document) -> bytes:
    return json.dumps(document).encode("utf-8")


_STATE_FILES = st.one_of(
    st.fixed_dictionaries({"amplitudes": _AMPLITUDES}).map(_encode),
    st.fixed_dictionaries({"amplitudes": _PAIRS}).map(_encode),
    st.fixed_dictionaries({"name": _NAMES}).map(_encode),
    st.fixed_dictionaries({}, optional={"name": _NAMES, "amplitudes": _AMPLITUDES}).map(_encode),
    _JSON.map(_encode),
    st.binary(max_size=40),
    _JSON.map(lambda d: b"\xff\xfe" + _encode(d)),
    st.integers(1, 100_000).map(lambda depth: b"[" * depth + b"]" * depth),
)
_STATES = st.sampled_from(
    ["state.json"] * 5 + ["other.json", "psi1", "chsh-max", "missing.json", "", "."]
)
_INDEX = st.sampled_from(["1", "2", "3"] * 3 + ["0", "x"])
_FLAGS = st.lists(st.sampled_from(["--json", "--normalize"]), max_size=3, unique=True)


def _argv(command, draw):
    if command == "model":
        argv = ["model", draw(_INDEX), "--state", draw(_STATES)]
        if draw(st.booleans()):
            argv += ["--max-witnesses", str(draw(st.integers(-2, 3000)))]
        return argv
    if command == "sample":
        return [
            "sample", draw(_INDEX), "--state", draw(_STATES),
            "--shots", str(draw(st.integers(-1, 500))),
            "--seed", str(draw(st.sampled_from([0, 7, -1, 2**64 - 1, 2**64]))),
        ]
    if command == "ch":
        return ["ch", "--state", draw(_STATES)]
    if command == "contradiction":
        if draw(st.booleans()):
            return ["contradiction"]
        return ["contradiction", "--constraints", draw(st.text(",r0c1ow2l ", max_size=8))]
    if command == "realization":
        return ["realization", draw(_INDEX)]
    return [command]


@st.composite
def _command_lines(draw):
    command = draw(
        st.sampled_from(
            ["model"] * 4 + ["sample"] * 2 + ["ch"] * 2
            + ["contradiction", "realization", "verify", "bogus"]
        )
    )
    argv = _argv(command, draw)
    flags = draw(_FLAGS)
    if command in ("verify", "contradiction", "realization", "bogus"):
        flags = [f for f in flags if f != "--normalize"]
    return argv + flags + draw(st.sampled_from([[]] * 8 + [["--extra"], ["1"]]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(state=_STATE_FILES, other=_STATE_FILES, argv=_command_lines())
@example(state=b'\xff\xfe{"name": "psi1"}', other=b"{}", argv=["ch", "--state", "state.json"])
@example(
    state=b'{"amplitudes": [[1e308, 0], [1e308, 0], [0, 0], [0, 0]]}',
    other=b"{}",
    argv=["model", "1", "--state", "state.json", "--normalize"],
)
@example(
    state=b'{"amplitudes": [[1' + b"0" * 400 + b', 0], [0, 0], [0, 0], [0, 0]]}',
    other=b"{}",
    argv=["model", "2", "--state", "state.json"],
)
@settings(max_examples=200, deadline=None)
def test_fuzzed_state_files_and_arguments_exit_cleanly(fuzz_dir, state, other, argv):
    # every call shares one process, and with it the cached argument parser
    (fuzz_dir / "state.json").write_bytes(state)
    (fuzz_dir / "other.json").write_bytes(other)
    argv = [str(fuzz_dir / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            assert exc.code == 2
            code = None
    stderr = err.getvalue()
    assert "Traceback" not in stderr
    if code is None:
        assert stderr.startswith("usage: pmsquare")
        return
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert sum(line.startswith("pmsquare:") for line in stderr.splitlines()) <= 1
    if code == 2:
        assert out.getvalue() == "" and stderr.startswith("pmsquare: ")
    elif "--json" in argv and out.getvalue():
        assert json.loads(out.getvalue())["command"] == argv[0]


# --- process-level behavior ----------------------------------------------------------------


def test_subprocess_round_trip_and_exit_codes():
    base = [sys.executable, "-m", "pmsquare"]
    first = subprocess.run(
        base + ["contradiction", "--json"], capture_output=True, check=True
    )
    second = subprocess.run(
        base + ["contradiction", "--json"], capture_output=True, check=True
    )
    assert first.stdout == second.stdout
    document = json.loads(first.stdout)
    jsonschema.validate(document, SCHEMA)
    assert document["results"]["count"] == 0

    infeasible = subprocess.run(
        base + ["model", "3", "--state", "chsh-max", "--json"], capture_output=True
    )
    assert infeasible.returncode == 3

    usage = subprocess.run(base + ["realization", "9"], capture_output=True)
    assert usage.returncode == 2


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the uncapped report is far larger than a pipe buffer, so the write meets the closed pipe
    argv = ["model", "2", "--state", HAAR, "--max-witnesses", "100000", "--json"]
    process = subprocess.Popen(
        [sys.executable, "-m", "pmsquare", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert process.stdout.read(100).startswith(b'{"command":"model"')
    process.stdout.close()
    stderr = process.stderr.read()
    process.stderr.close()
    assert process.wait() == 1
    assert stderr == b""


class _PipeClosedOnFlush(io.StringIO):
    """A stdout whose reader is gone by the time the report is flushed."""

    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def fileno(self):
        return self._fd

    def flush(self):
        raise BrokenPipeError


def test_a_stdout_closed_before_the_flush_exits_1(tmp_path, monkeypatch):
    # a short report fits in the buffer, so the closed pipe shows only at the flush
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _PipeClosedOnFlush(fd))
        assert main(["contradiction"]) == 1
    finally:
        os.close(fd)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_exits_leave_no_descriptor_open(tmp_path, monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _PipeClosedOnFlush(fd))
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            assert main(["contradiction"]) == 1
        assert len(os.listdir("/proc/self/fd")) == before
    finally:
        os.close(fd)


# --- README ----------------------------------------------------------------------------------


def test_readme_usage_block_lists_each_subcommand_with_its_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    usage = {line.split()[1]: line for line in lines}
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(line.split()[1] for line in lines) == sorted(subparsers.choices)
    for name, subparser in subparsers.choices.items():
        options = {o for a in subparser._actions for o in a.option_strings if o.startswith("--")}
        assert set(re.findall(r"--[a-z-]+", usage[name])) == options - {"--help"}, name
