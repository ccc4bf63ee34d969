import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmsquare import cli
from pmsquare.reports import Report, render_json, render_text, validate_envelope

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_render_json_sorts_keys_and_round_trips():
    report = Report("ch", {"b": 1, "a": 2}, {"z": [1, 2.5], "m": {"y": True, "x": None}}, True)
    text = render_json(report)
    assert text.index('"inputs"') < text.index('"pass"') < text.index('"results"')
    assert text.index('"a"') < text.index('"b"')
    parsed = json.loads(text)
    assert parsed["pass"] is True
    assert parsed["results"]["m"] == {"y": True, "x": None}


def test_render_json_floats_carry_17_significant_digits():
    value = 1.0 / 3.0
    report = Report("ch", {}, {"v": value}, True)
    text = render_json(report)
    assert format(value, ".17g") in text
    assert json.loads(text)["results"]["v"] == value  # round-trip exact


class _Label(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        np.float64(0.5),
        np.float64("nan"),
        np.float32("-inf"),
        np.int64(3),
        np.bool_(True),
        _Label("x"),
    ],
    ids=["float64", "float64-nan", "float32-inf", "int64", "bool_", "str-subclass"],
)
def test_renderers_refuse_numpy_scalars_and_subclasses(value):
    # exact JSON types only: a numpy scalar or a subclass is refused by type, even a NaN
    for render in (render_json, render_text):
        with pytest.raises(TypeError):
            render(Report("ch", {}, {"v": value}, True))
        with pytest.raises(TypeError):
            render(Report("ch", {}, {"v": [value]}, True))


def test_importing_the_reports_module_loads_no_numpy():
    script = (
        "import sys, pmsquare.reports\n"
        "print(sorted(n for n in sys.modules"
        " if n.startswith('pmsquare.') or n in ('numpy', 'dataclasses')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "['pmsquare.reports']\n"


def test_render_json_rejects_non_finite_and_odd_types():
    with pytest.raises(ValueError):
        render_json(Report("ch", {}, {"v": float("nan")}, True))
    with pytest.raises(TypeError):
        render_json(Report("ch", {}, {"v": object()}, True))
    with pytest.raises(TypeError):
        render_json(Report("ch", {}, {1: "non-string key"}, True))


def test_render_json_is_deterministic():
    report = Report("verify", {}, {"values": [0.1, 0.2, {"k": 1 / 7}]}, False)
    assert render_json(report) == render_json(report)


def test_render_text_mentions_pass_and_command():
    text = render_text(Report("verify", {}, {"ok": True}, True))
    assert text.startswith("command: verify")
    assert text.endswith("pass: true")


def test_validate_envelope():
    good = Report("verify", {}, {}, True).to_document()
    validate_envelope(good)
    with pytest.raises(ValueError):
        validate_envelope({"command": "verify", "inputs": {}, "results": {}})
    with pytest.raises(ValueError):
        validate_envelope({**good, "pass": "yes"})
    with pytest.raises(ValueError):
        validate_envelope({**good, "extra": 1})


# --- the exact-type renderer against the isinstance-chain renderer it replaced ---------


def _reference_render(value, pieces):
    if isinstance(value, dict):
        pieces.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if i:
                pieces.append(",")
            pieces.append(json.dumps(key))
            pieces.append(":")
            _reference_render(value[key], pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(",")
            _reference_render(item, pieces)
        pieces.append("]")
    elif isinstance(value, bool):
        pieces.append("true" if value else "false")
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, float):
        if not np.isfinite(value):
            raise ValueError(f"reports must not contain non-finite numbers, got {value!r}")
        pieces.append(format(value, ".17g"))
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif value is None:
        pieces.append("null")
    else:
        raise TypeError(f"cannot render {type(value).__name__} in a report")


def _reference_json(report):
    pieces = []
    _reference_render(report.to_document(), pieces)
    return "".join(pieces)


# every code point, lone surrogates and control characters included
_TEXT = st.text(st.characters(codec=None, categories=None), max_size=12)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FINITE,
    _TEXT,
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5),
    ),
    max_leaves=25,
)


@given(_DOCUMENTS, st.dictionaries(_TEXT, _DOCUMENTS, max_size=4))
@settings(max_examples=150, deadline=None)
def test_render_json_matches_the_isinstance_chain_renderer(results, inputs):
    report = Report("ch", inputs, {"v": results}, True)
    assert render_json(report) == _reference_json(report)


_BAD = [
    ({1: "x"}, TypeError),
    ({None: "x"}, TypeError),
    ({("a",): "x"}, TypeError),
    ({np.str_("a"): 1, 2: "x"}, TypeError),
    (float("nan"), ValueError),
    (float("inf"), ValueError),
    (-float("inf"), ValueError),
    (np.array([1.0, 2.0]), TypeError),
    ({1, 2}, TypeError),
    ([1, {"k": float("inf")}], ValueError),
    ({"k": object()}, TypeError),
]


@pytest.mark.parametrize("bad, error", _BAD)
def test_render_json_errors_match_the_isinstance_chain_renderer(bad, error):
    report = Report("ch", {}, {"v": bad}, True)
    with pytest.raises(error):
        _reference_json(report)
    with pytest.raises(error):
        render_json(report)


@pytest.mark.parametrize("bad, error", _BAD)
def test_render_text_refuses_what_render_json_refuses(bad, error):
    # a repr in the text form would print a memory address, so no run could repeat it
    report = Report("ch", {}, {"v": bad, "w": [bad]}, True)
    with pytest.raises(error):
        render_text(report)


def test_shared_sub_objects_render_in_every_place():
    # the CLI's witness docs share their lists and dicts, so no renderer may skip a repeat
    shared_list = [1, 2.5, "x", {"k": None}]
    shared_dict = {"b": shared_list, "a": 7}
    results = {
        "l1": shared_list,
        "l2": shared_list,
        "docs": [shared_dict, shared_dict, {"inner": shared_dict}],
        "t": (shared_list, shared_dict),
    }
    report = Report("model", {"same": shared_dict}, results, True)
    text = render_json(report)
    assert text == _reference_json(report)
    assert text.count('"k":null') == 8


@given(_DOCUMENTS)
@settings(max_examples=50, deadline=None)
def test_a_repeated_document_renders_like_the_isinstance_chain_renderer(document):
    report = Report("ch", {"d": document}, {"v": [document, {"w": document}, (document,)]}, True)
    assert render_json(report) == _reference_json(report)


def _traced_render(report, render=render_json):
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = render(report)
        return text, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "index, cap", [(2, 100_000), (3, 12)], ids=["model-2-haar-uncapped", "model-3-haar"]
)
def test_rendering_a_model_report_holds_at_most_four_times_its_output(monkeypatch, index, cap):
    monkeypatch.chdir(GOLDEN)
    argv = ["model", str(index), "--state", "haar_state.json", "--max-witnesses", str(cap)]
    report = cli.cmd_model(cli.build_parser().parse_args(argv))
    text, peak = _traced_render(report)
    if cap == 12:
        assert text + "\n" == (GOLDEN / "model-3-haar.json").read_text(encoding="utf-8")
    assert peak <= 4 * len(text), (peak, len(text))


def test_rendering_the_uncapped_model_report_as_text_holds_at_most_three_times_its_output(
    monkeypatch,
):
    # one piece per line held about five times the output
    monkeypatch.chdir(GOLDEN)
    argv = ["model", "2", "--state", "haar_state.json", "--max-witnesses", "100000"]
    report = cli.cmd_model(cli.build_parser().parse_args(argv))
    text, peak = _traced_render(report, render_text)
    assert len(text) == 591_801
    assert peak <= 3 * len(text), (peak, len(text))
