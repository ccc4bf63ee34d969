"""Output checks: every op's result is verified, so a fast wrong answer fails.

A check raises CheckError with a one-line reason; the runner counts it as
a failed op and carries on.  ``seen`` maps an op key to the digest of its
first output, so a repeated input must reproduce its output exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

from workloads import REFUSAL_THRESHOLD, Op

#: Survivor counts the README states for the contradiction lines.
_CONTRADICTION_COUNTS = {None: 0, "r0,r1,r2": 64}
_FINE_VARIABLES = 16


class CheckError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _same_as_before(seen: dict[str, str], key: str, payload: bytes) -> None:
    digest = hashlib.sha256(payload).hexdigest()
    first = seen.setdefault(key, digest)
    _require(first == digest, f"output of repeated input {key!r} changed")


def _check_model(op: Op, exit_code: int, results: dict[str, Any]) -> None:
    k = int(op.argv[1])
    ch = results.get("ch")
    if "chsh" in op.props and ch is not None:
        _require(
            math.isclose(ch["max_abs"], op.props["chsh"], rel_tol=0.0, abs_tol=1e-9),
            f"ch.max_abs {ch['max_abs']!r} != independent |S| {op.props['chsh']!r}",
        )
    if exit_code == 3:
        fine = results["fine"]
        _require(fine["status"] == "infeasible", "refusal without an infeasible verdict")
        _require(
            len(fine.get("certificate", ())) == _FINE_VARIABLES + 1,
            "refusal without a Farkas certificate",
        )
        return
    _require(results["statistics"]["passed"] is True, "model statistics did not pass")
    _require(results["hidden_states"] == (64 if k == 1 else 256), "wrong hidden-state count")
    _require(abs(results["probability_sum"] - 1.0) <= 1e-9, "probabilities do not sum to 1")
    if k != 1:
        _require(results["fine"]["status"] == "feasible", "model built without a feasible joint")


def _check_sample(op: Op, exit_code: int, results: dict[str, Any]) -> None:
    shots = results["shots"]
    _require(shots == int(op.argv[op.argv.index("--shots") + 1]), "shots echo is wrong")
    for mid, measurement in results["measurements"].items():
        total = sum(measurement["counts"].values())
        _require(total == shots, f"{mid} counts sum to {total}, not {shots}")


def _check_contradiction(op: Op, exit_code: int, results: dict[str, Any]) -> None:
    constraints = (
        op.argv[op.argv.index("--constraints") + 1] if "--constraints" in op.argv else None
    )
    expected = _CONTRADICTION_COUNTS.get(constraints)
    _require(results["count"] == len(results["survivors"]), "count != survivors listed")
    if expected is not None:
        _require(results["count"] == expected, f"{results['count']} survivors, expected {expected}")


def _check_ch(op: Op, exit_code: int, results: dict[str, Any]) -> None:
    _require(
        results["violated"] == (results["max_abs"] > REFUSAL_THRESHOLD),
        "violation flag disagrees with max_abs",
    )


_RESULT_CHECKS = {
    "model": _check_model,
    "sample": _check_sample,
    "contradiction": _check_contradiction,
    "ch": _check_ch,
}


def check_cli(op: Op, exit_code: int, stdout: bytes | str, seen: dict[str, str]) -> None:
    """Check one `pmsquare ... --json` run against what its input implies."""
    from pmsquare.reports import validate_envelope

    payload = stdout.encode() if isinstance(stdout, str) else stdout
    _require(
        exit_code == op.expected_exit, f"exit code {exit_code}, expected {op.expected_exit}"
    )
    try:
        document = json.loads(payload)
        validate_envelope(document)
    except ValueError as exc:
        raise CheckError(f"stdout is not a valid report: {exc}") from None
    _require(document["command"] == op.argv[0], f"report is for {document['command']!r}")
    _require(document["pass"] is (op.expected_exit == 0), f"pass is {document['pass']}")
    check = _RESULT_CHECKS.get(op.argv[0])
    if check is not None:
        try:
            check(op, exit_code, document["results"])
        except (KeyError, TypeError) as exc:
            raise CheckError(f"report results are malformed: {exc!r}") from None
    _same_as_before(seen, op.key, payload)


def check_sample(op: Op, model: Any, report: Any, seen: dict[str, str]) -> None:
    """Check one sample_model result: echo, count totals, pass flag, repeatability."""
    shots = op.props["shots"]
    _require(report.shots == shots and report.seed == op.props["seed"], "shots/seed echo is wrong")
    _require(
        set(report.measurements) == set(model.measurement_ids),
        "sampled measurements differ from the model's",
    )
    for mid, measurement in report.measurements.items():
        total = sum(measurement.counts.values())
        _require(total == shots, f"{mid} counts sum to {total}, not {shots}")
    _require(report.passed is True, "total-variation check did not pass")
    counts = sorted((mid, sorted(m.counts.items())) for mid, m in report.measurements.items())
    _same_as_before(seen, op.key, repr(counts).encode())
