"""Command-line front end.

Subcommands: verify | contradiction | realization | model | sample | ch.
Each run checks its report's envelope, then prints the report (text, or
canonical JSON with --json); the exit code is 0 when it passes, 3 when it
is a refusal (Fine status "infeasible") and 1 when another check failed.
A failed internal cross-check exits 1 and a usage error 2, each with one
stderr line and no report; a reader that closes stdout early gets exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from .errors import InfeasibleModelError, InternalConsistencyError
from .reports import Report, render_json, render_text, validate_envelope
from .square import (
    CONTEXTS,
    Context,
    checked_eigentable,
    commutation_relation,
    context_from_name,
    context_operator_product,
    eigentable,
    expected_context_sign,
    search_assignments,
    third_column_product_counts,
)

if TYPE_CHECKING:  # each command imports the numeric layers it runs, so these load on demand
    import numpy as np
    from . import hvmodels

#: Expected requirement verdicts per realization: (unique ok, simultaneity ok).
_EXPECTED_VERDICTS = {1: (True, False), 2: (False, True), 3: (False, False)}


class UsageError(ValueError):
    pass


# --- state specification -----------------------------------------------------


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def resolve_state(spec: str, *, normalize: bool = False) -> tuple[np.ndarray, dict[str, Any]]:
    """Resolve a named state or a state file into a ket plus an input echo."""
    from .qm import ket
    from .square import NAMED_STATES
    if spec == "chsh-max":
        from .hvmodels import chsh_max_state
        return chsh_max_state(), {"name": spec}
    if spec in NAMED_STATES:
        return NAMED_STATES[spec].copy(), {"name": spec}
    try:
        document = json.loads(Path(spec).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UsageError(
            f"{spec!r} is neither a known state name nor an existing file; "
            f"known names: chsh-max, {', '.join(sorted(NAMED_STATES))}"
        ) from None
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers invalid UTF-8, invalid JSON and a NUL in the path;
        # RecursionError a document nested too deeply to decode
        raise UsageError(f"cannot read state file {spec!r}: {exc}") from None
    if not isinstance(document, dict):
        raise UsageError(f"state file {spec!r} must hold an object")
    unknown = [key for key in document if key not in ("name", "amplitudes")]
    if unknown:
        raise UsageError(f"state file {spec!r}: unknown field {unknown[0]!r}")
    if "name" in document and "amplitudes" in document:
        raise UsageError(f"state file {spec!r} must hold 'name' or 'amplitudes', not both")
    if "name" in document:
        name = document["name"]
        if not isinstance(name, str):
            raise UsageError(f"state file {spec!r}: 'name' must be a JSON string")
        if name != "chsh-max" and name not in NAMED_STATES:
            raise UsageError(f"state file {spec!r}: {name!r} is not a known state name")
        return resolve_state(name, normalize=normalize)
    if "amplitudes" not in document:
        raise UsageError(f"state file {spec!r} needs a 'name' or an 'amplitudes' field")
    pairs = document["amplitudes"]
    if not isinstance(pairs, list) or len(pairs) != 4:
        raise UsageError("'amplitudes' must list four [re, im] pairs")
    for index, pair in enumerate(pairs):
        # bools and strings are not JSON numbers, though float() takes them
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))):
            raise UsageError(f"bad amplitude entry {index}: expected [re, im], two JSON numbers")
    try:
        components = [complex(float(re), float(im)) for re, im in pairs]
    except OverflowError as exc:
        raise UsageError(f"bad amplitude entry: {exc}") from None
    try:
        state = ket(components, normalize=normalize)
    except ValueError as exc:
        hint = "" if normalize else " (did you mean --normalize?)"
        raise UsageError(f"bad state in {spec!r}: {exc}{hint}") from None
    echo = {
        "amplitudes": [[float(a.real), float(a.imag)] for a in components],
        "normalized": bool(normalize),
    }
    return state, echo


# --- document helpers ---------------------------------------------------------


def _outcome_doc(values: dict[int, Any]) -> dict[str, Any]:
    return {str(outcome): value for outcome, value in values.items()}


def _ch_doc(report: hvmodels.CHReport) -> dict[str, Any]:
    return {
        "correlators": {f"{s}{t}": float(v) for (s, t), v in report.correlators.items()},
        "chsh_values": [float(v) for v in report.chsh_values],
        "max_abs": float(report.max_abs),
        "violated": bool(report.violated),
    }


def _joint_doc(joint: Mapping[tuple[int, int, int, int], float]) -> dict[str, float]:
    return {",".join(f"{v:+d}" for v in key): float(p) for key, p in joint.items()}


def _fine_doc(fine: hvmodels.FineResult) -> dict[str, Any]:
    doc: dict[str, Any] = {"status": fine.status, "ch": _ch_doc(fine.ch)}
    if fine.joint is not None:
        doc["joint"] = _joint_doc(fine.joint)
    if fine.certificate is not None:
        doc["certificate"] = [float(v) for v in fine.certificate]
    if fine.mixing > 0.0:
        doc["mixing"] = float(fine.mixing)
    return doc


def _witness_docs(
    model: hvmodels.HVModel, blocks: tuple[hvmodels.WitnessBlock, ...], cap: int
) -> list[dict[str, Any]]:
    """The first ``cap`` witnesses of each context or cell, in scan order.

    Docs of one block share its ``cell`` and ``measurements`` lists, and docs
    of one hidden state share one ``outcomes`` dict; they are only rendered.
    """
    taken: dict[object, int] = {}
    outcomes: dict[int, dict[str, int]] = {}
    docs = []
    for block in blocks:
        states = block.states[: max(cap - taken.get(block.group, 0), 0)]
        taken[block.group] = taken.get(block.group, 0) + len(states)
        if isinstance(block.group, Context):  # a Context is a tuple too, so test it first
            group, key = {"context": block.group.name}, "triple"
        else:
            group, key = {"cell": list(block.group)}, "values"
        group["measurements"] = list(block.measurement_ids)
        rows = model.outcomes[states].tolist()
        values = block.values[: len(states)].tolist()
        weights = model.probabilities[states].tolist()
        for state, row, value, weight in zip(states.tolist(), rows, values, weights):
            if state not in outcomes:
                outcomes[state] = dict(zip(model.measurement_ids, row))
            docs.append(
                {
                    **group,
                    key: value,
                    "state_index": state,
                    "outcomes": outcomes[state],
                    "probability": weight,
                }
            )
    return docs


def _model_or_refusal(
    args: argparse.Namespace, state: np.ndarray, inputs: dict[str, Any]
) -> hvmodels.HVModel | Report:
    """Model ``args.index`` of ``state``, or the failing report of Fine's refusal.

    The refusal report holds the error, the Fine block with its certificate
    and the CHSH block; its Fine status "infeasible" makes the exit code 3.
    """
    from . import hvmodels
    try:
        if args.index == 1:
            return hvmodels.build_model1(state)
        return hvmodels.build_model23(state, realization_index=args.index)
    except InfeasibleModelError as exc:
        fine = exc.fine_result
        results = {"error": str(exc), "fine": _fine_doc(fine), "ch": _ch_doc(fine.ch)}
        return Report(args.command, inputs, results, False)


# --- commands ------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> Report:
    results: dict[str, Any] = {}
    pairs = commutation_relation()
    results["commutation"] = {
        "pairs_checked": len(pairs),
        "pairs": [
            {"cells": [list(c1), list(c2)], "commute": bool(flag)}
            for (c1, c2), flag in pairs.items()
        ],
    }
    tables_doc: dict[str, Any] = {}
    for context in CONTEXTS:
        entries, (eigen_residual, ortho_residual) = checked_eigentable(context)
        tables_doc[context.name] = {
            "entries": [{"label": e.label, "values": list(e.values)} for e in entries],
            "max_eigen_residual": eigen_residual,
            "max_orthonormality_residual": ortho_residual,
        }
    results["eigentables"] = tables_doc
    results["context_products"] = {
        context.name: context_operator_product(context) for context in CONTEXTS
    }
    results["checks"] = {
        "commutation_pairs": len(pairs),
        "eigenvector_checks": sum(len(eigentable(c)) for c in CONTEXTS),
        "product_signs": len(CONTEXTS),
    }
    return Report("verify", {}, results, True)


def cmd_contradiction(args: argparse.Namespace) -> Report:
    if args.constraints is None:
        active = list(CONTEXTS)
        echo = ["all"]
    else:
        echo = [part.strip() for part in args.constraints.split(",") if part.strip()]
        if not echo:
            raise UsageError("--constraints must name at least one context")
        try:
            active = [context_from_name(name) for name in echo]
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    survivors = search_assignments(active)
    results: dict[str, Any] = {
        "active_constraints": [c.name for c in active],
        "count": len(survivors),
        "survivors": [list(a) for a in survivors],
    }
    col2 = context_from_name("col2")
    if col2 not in active:
        results["third_column_products"] = {
            f"{sign:+d}": count
            for sign, count in third_column_product_counts(survivors).items()
        }
    if set(active) == set(CONTEXTS):
        # the parity view of the emptiness: the other five constraints force
        # the third-column product to +1 while column 2 demands -1
        relaxed = search_assignments([c for c in CONTEXTS if c != col2])
        counts = third_column_product_counts(relaxed)
        results["parity"] = {
            "without_col2_count": len(relaxed),
            "third_column_products": {f"{sign:+d}": n for sign, n in counts.items()},
            "required_by_col2": expected_context_sign(col2),
        }
        passed = len(survivors) == 0
    else:
        passed = True
    return Report("contradiction", {"constraints": echo}, results, passed)


def cmd_realization(args: argparse.Namespace) -> Report:
    from .realizations import build_realization, check_requirements
    realization = build_realization(args.index)
    report = check_requirements(realization)
    expected_unique, expected_simultaneous = _EXPECTED_VERDICTS[args.index]
    results = {
        "cell_map": {
            f"{cell[0]},{cell[1]}": list(ids)
            for cell, ids in sorted(realization.cell_map.items())
        },
        "physical_measurements": sorted(realization.physicals),
        "identifications": [sorted(group) for group in realization.identifications],
        "requirements": {
            "unique_realization_ok": report.unique_realization_ok,
            "multiply_realized_cells": [
                {"cell": list(cell), "measurements": list(ids)}
                for cell, ids in report.multiply_realized_cells
            ],
            "simultaneity_ok": report.simultaneity_ok,
            "broken_contexts": [
                {"context": context.name, "pair": list(pair)}
                for context, pair in report.broken_contexts
            ],
        },
        "expected": {
            "unique_realization_ok": expected_unique,
            "simultaneity_ok": expected_simultaneous,
        },
    }
    passed = (
        report.unique_realization_ok == expected_unique
        and report.simultaneity_ok == expected_simultaneous
    )
    return Report("realization", {"index": args.index}, results, passed)


def cmd_model(args: argparse.Namespace) -> Report:
    if args.max_witnesses < 0:
        raise UsageError("--max-witnesses must be nonnegative")
    state, echo = resolve_state(args.state, normalize=args.normalize)
    inputs = {"index": args.index, "state": echo, "max_witnesses": args.max_witnesses}
    model = _model_or_refusal(args, state, inputs)
    if isinstance(model, Report):
        return model
    from . import hvmodels
    from .realizations import build_realization
    realization = build_realization(args.index)
    stats = hvmodels.reproduce_statistics(model, state)
    noncontextual = hvmodels.audit_noncontextuality(model, realization)
    witnesses = hvmodels.violation_witnesses(model, realization)

    # at most max_witnesses per context and per cell, so that each stays represented
    context_docs = _witness_docs(model, witnesses.context_blocks, args.max_witnesses)
    cell_docs = _witness_docs(model, witnesses.cell_blocks, args.max_witnesses)
    results: dict[str, Any] = {
        "realization": args.index,
        "hidden_states": len(model.probabilities),
        "probability_sum": float(stats.probability_sum),
        "statistics": stats._asdict(),
        "noncontextual": noncontextual,
        "witnesses": {
            "context_count": witnesses.context_count,
            "cell_count": witnesses.cell_count,
            "simultaneous_violation_count": witnesses.simultaneous_violation_count,
            "simultaneous_choices_checked": witnesses.simultaneous_choices_checked,
            "context": context_docs,
            "context_truncated": len(context_docs) < witnesses.context_count,
            "cell": cell_docs,
            "cell_truncated": len(cell_docs) < witnesses.cell_count,
        },
    }
    if model.fine is not None:
        results["fine"] = _fine_doc(model.fine)
        results["ch"] = _ch_doc(model.fine.ch)
    passed = stats.passed and noncontextual and not witnesses.simultaneous_violation_count
    return Report("model", inputs, results, passed)


def cmd_sample(args: argparse.Namespace) -> Report:
    if args.shots <= 0:
        raise UsageError("--shots must be positive")
    if not 0 <= args.seed < 2**64:
        raise UsageError("--seed must be in [0, 2**64)")
    state, echo = resolve_state(args.state, normalize=args.normalize)
    inputs = {"index": args.index, "state": echo, "shots": args.shots, "seed": args.seed}
    model = _model_or_refusal(args, state, inputs)
    if isinstance(model, Report):
        return model
    from . import hvmodels
    sample = hvmodels.sample_model(model, state, args.shots, args.seed)
    results = {
        "realization": args.index,
        "rng": "numpy-philox",
        "shots": sample.shots,
        "seed": sample.seed,
        "tv_bound": float(sample.tv_bound),
        "measurements": {
            mid: {
                "counts": _outcome_doc(ms.counts),
                "frequencies": _outcome_doc(ms.frequencies),
                "born": _outcome_doc(ms.born),
                "tv_distance": float(ms.tv_distance),
            }
            for mid, ms in sample.measurements.items()
        },
    }
    return Report("sample", inputs, results, sample.passed)


def cmd_ch(args: argparse.Namespace) -> Report:
    from . import hvmodels
    state, echo = resolve_state(args.state, normalize=args.normalize)
    report = hvmodels.ch_report(state)
    return Report("ch", {"state": echo}, _ch_doc(report), True)


# --- argument parsing -----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never changes it.

    It is the one list of the subcommands: each binds its ``cmd_*`` function
    as ``run`` and names its arguments in --help order, then --json.
    """
    parser = argparse.ArgumentParser(
        prog="pmsquare",
        description=(
            "Verify the two-qubit operator square, search for consistent value "
            "assignments, inspect the three photon-pair realizations, and build "
            "and test their hidden-variable models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    arguments: dict[str, dict[str, Any]] = {
        "index": {"type": int, "choices": (1, 2, 3)},
        "--constraints": {
            "help": "comma-separated contexts (r0..r2,c0..c2 or row0..col2); default: all six"
        },
        "--state": {"required": True, "help": "state name or state file"},
        "--shots": {"type": int, "required": True},
        "--seed": {"type": int, "required": True},
        "--normalize": {"action": "store_true", "help": "rescale explicit amplitudes"},
        "--max-witnesses": {"type": int, "default": 12, "help": "witness list cap per kind"},
        "--json": {"action": "store_true", "help": "emit the canonical JSON report"},
    }
    commands = (
        ("verify", cmd_verify, "check commutation structure, eigentables, products", ""),
        ("contradiction", cmd_contradiction, "enumerate +/-1 assignments under constraints",
         "--constraints"),
        ("realization", cmd_realization, "requirement report for a realization", "index"),
        ("model", cmd_model, "build a hidden-variable model and test it",
         "index --state --normalize --max-witnesses"),
        ("sample", cmd_sample, "seeded Monte Carlo sampling of a model",
         "index --state --shots --seed --normalize"),
        ("ch", cmd_ch, "CHSH correlator report for a state", "--state --normalize"),
    )
    for name, run, help_text, names in commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for argument in names.split() + ["--json"]:
            p.add_argument(argument, **arguments[argument])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.run(args)
    except UsageError as exc:
        print(f"pmsquare: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"pmsquare: internal consistency error: {exc}", file=sys.stderr)
        return 1

    validate_envelope(report.to_document())
    try:
        print(render_json(report) if args.json else render_text(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; devnull keeps the flush at exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    if report.passed:
        return 0
    return 3 if report.results.get("fine", {}).get("status") == "infeasible" else 1


if __name__ == "__main__":
    sys.exit(main())
