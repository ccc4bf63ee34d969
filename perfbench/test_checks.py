"""The benchmark's output checks reject wrong answers.

Run with:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from checks import CheckError, check_cli, check_sample  # noqa: E402
from workloads import Op, build_models, chsh_max_abs, sampling_inputs  # noqa: E402


def _run(argv: tuple[str, ...]) -> tuple[int, str]:
    from pmsquare import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def _model_op(k: int, state: str, expected_exit: int) -> Op:
    from pmsquare.hvmodels import chsh_max_state
    from pmsquare.square import NAMED_STATES

    vector = chsh_max_state() if state == "chsh-max" else NAMED_STATES[state]
    argv = ("model", str(k), "--state", state, "--json")
    return Op(key=" ".join(argv), argv=argv, expected_exit=expected_exit,
              props={"chsh": chsh_max_abs(vector)})


@pytest.fixture(scope="module")
def model2_psi1():
    op = _model_op(2, "psi1", 0)
    code, stdout = _run(op.argv)
    return op, code, stdout


def test_genuine_reports_pass(model2_psi1):
    op, code, stdout = model2_psi1
    check_cli(op, code, stdout, {})
    refused = _model_op(2, "chsh-max", 3)
    check_cli(refused, *_run(refused.argv), {})


def test_wrong_exit_code_is_rejected(model2_psi1):
    op, code, stdout = model2_psi1
    with pytest.raises(CheckError, match="exit code"):
        check_cli(op, 3, stdout, {})
    refused = _model_op(2, "chsh-max", 3)
    _, refused_stdout = _run(refused.argv)
    with pytest.raises(CheckError, match="exit code"):
        check_cli(refused, 0, refused_stdout, {})


def _corrupt(stdout: str, edit) -> str:
    document = json.loads(stdout)
    edit(document)
    return json.dumps(document)


@pytest.mark.parametrize(
    "corruption",
    [
        lambda s: s[: len(s) // 2],
        lambda s: _corrupt(s, lambda d: d.pop("inputs")),
        lambda s: _corrupt(s, lambda d: d.update({"pass": False})),
        lambda s: _corrupt(s, lambda d: d.update({"command": "sample"})),
        lambda s: _corrupt(s, lambda d: d["results"]["statistics"].update({"passed": False})),
        lambda s: _corrupt(s, lambda d: d["results"].update({"hidden_states": 64})),
        lambda s: _corrupt(s, lambda d: d["results"]["ch"].update({"max_abs": 2.5})),
        lambda s: _corrupt(s, lambda d: d["results"]["fine"].update({"status": "infeasible"})),
        lambda s: _corrupt(s, lambda d: d["results"].pop("statistics")),
    ],
    ids=["truncated", "no-inputs", "pass-flipped", "wrong-command", "statistics-failed",
         "state-count", "chsh-value", "fine-status", "missing-results"],
)
def test_corrupted_report_is_rejected(model2_psi1, corruption):
    op, code, stdout = model2_psi1
    with pytest.raises(CheckError):
        check_cli(op, code, corruption(stdout), {})


def test_refusal_needs_a_certificate():
    op = _model_op(3, "chsh-max", 3)
    code, stdout = _run(op.argv)
    broken = _corrupt(stdout, lambda d: d["results"]["fine"].pop("certificate"))
    with pytest.raises(CheckError, match="certificate"):
        check_cli(op, code, broken, {})


def test_repeated_input_must_repeat_its_output(model2_psi1):
    op, code, stdout = model2_psi1
    seen: dict[str, str] = {}
    check_cli(op, code, stdout, seen)
    check_cli(op, code, stdout, seen)
    changed = stdout.replace('"max_witnesses":12', '"max_witnesses":12 ')
    with pytest.raises(CheckError, match="changed"):
        check_cli(op, code, changed, seen)


def test_sample_checks():
    from pmsquare import hvmodels

    inputs = sampling_inputs(seed=5)
    models = build_models(inputs)
    op = inputs.ops[0]
    p = op.props
    model, state = models[(p["k"], p["state"])], inputs.states[p["state"]]
    report = hvmodels.sample_model(model, state, p["shots"], p["seed"])
    seen: dict[str, str] = {}
    check_sample(op, model, report, seen)
    check_sample(op, model, report, seen)

    mid, measurement = next(iter(report.measurements.items()))
    counts = dict(measurement.counts)
    first = next(iter(counts))
    counts[first] += 1
    short = dataclasses.replace(
        report,
        measurements={**report.measurements, mid: dataclasses.replace(measurement, counts=counts)},
    )
    with pytest.raises(CheckError, match="sum to"):
        check_sample(op, model, short, {})

    moved = dict(measurement.counts)
    largest = max(moved, key=moved.get)
    other = next(o for o in moved if o != largest)
    moved[largest] -= 1
    moved[other] += 1
    shuffled = dataclasses.replace(
        report,
        measurements={**report.measurements, mid: dataclasses.replace(measurement, counts=moved)},
    )
    check_sample(op, model, shuffled, {})
    with pytest.raises(CheckError, match="changed"):
        check_sample(op, model, shuffled, seen)
    with pytest.raises(CheckError, match="did not pass"):
        check_sample(op, model, dataclasses.replace(report, passed=False), {})
