"""Report envelope shared by the CLI commands, plus deterministic renderers.

Every run produces one document ``{"command", "inputs", "results",
"pass"}`` of exact JSON types: ``dict`` with ``str`` keys, ``list``,
``tuple``, ``str``, ``int``, ``float``, ``bool`` and ``None``.  Both
renderers raise ``TypeError`` on any other key or value, a numpy scalar or
a subclass among them.  The JSON renderer sorts keys at every level and
prints floats with 17 significant digits, so identical runs emit
byte-identical text; the schema lives in docs/report-schema.json.

Rendering makes one piece per dict entry and per list item, and joins a
container that is a list item, such as a witness doc, into one piece, so it
holds about 2-3 times the output's size, not a piece per brace and comma or,
in the text form, per line.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, NamedTuple


class Report(NamedTuple):
    command: str
    inputs: dict[str, Any]
    results: dict[str, Any]
    passed: bool

    def to_document(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "pass": self.passed,
        }


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"reports must not contain non-finite numbers, got {value!r}")
    return format(value, ".17g")


def _render(value: Any, pieces: list[str], prefix: str = "") -> None:
    """Append ``value``'s JSON text to ``pieces``, ``prefix`` starting its first piece."""
    kind = type(value)
    if kind is dict:
        sep = prefix + "{"
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"report keys must be strings, got {key!r}")
            item = value[key]
            kind = type(item)
            if kind is int:
                pieces.append(f"{sep}{_quote(key)}:{item}")
            elif kind is str:
                pieces.append(f"{sep}{_quote(key)}:{_quote(item)}")
            else:
                _render(item, pieces, f"{sep}{_quote(key)}:")
            sep = ","
        pieces.append("}" if sep == "," else sep + "}")
    elif kind is list or kind is tuple:
        sep = prefix + "["
        for item in value:
            kind = type(item)
            if kind is int:
                pieces.append(f"{sep}{item}")
            elif kind is str:
                pieces.append(sep + _quote(item))
            else:
                joined: list[str] = []
                _render(item, joined, sep)
                pieces.append("".join(joined))
            sep = ","
        pieces.append("]" if sep == "," else sep + "]")
    elif kind is str:
        pieces.append(prefix + _quote(value))
    elif kind is float:
        pieces.append(prefix + _format_float(value))
    elif kind is bool:
        pieces.append(prefix + ("true" if value else "false"))
    elif kind is int:
        pieces.append(f"{prefix}{value}")
    elif value is None:
        pieces.append(prefix + "null")
    else:
        raise TypeError(f"cannot render {kind.__name__} in a report")


def render_json(report: Report) -> str:
    pieces: list[str] = []
    _render(report.to_document(), pieces)
    return "".join(pieces)


def _render_text(value: Any, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if type(value) is dict:
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"report keys must be strings, got {key!r}")
            item = value[key]
            if type(item) in (dict, list, tuple) and item:
                lines.append(f"{pad}{key}:")
                _render_text(item, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_scalar_text(item)}")
    elif type(value) in (list, tuple):
        for item in value:
            if type(item) in (dict, list, tuple) and item:
                joined = [f"{pad}-"]
                _render_text(item, indent + 1, joined)
                lines.append("\n".join(joined))
            else:
                lines.append(f"{pad}- {_scalar_text(item)}")
    else:
        lines.append(f"{pad}{_scalar_text(value)}")


def _scalar_text(value: Any) -> str:
    """A scalar's or an empty container's text: its JSON text, but bare for a str or None."""
    if type(value) is str or value is None:
        return str(value)
    pieces: list[str] = []
    _render(value, pieces)
    return "".join(pieces)


def render_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    if report.inputs:
        lines.append("inputs:")
        _render_text(report.inputs, 1, lines)
    lines.append("results:")
    _render_text(report.results, 1, lines)
    lines.append(f"pass: {'true' if report.passed else 'false'}")
    return "\n".join(lines)


def validate_envelope(document: dict[str, Any]) -> None:
    """Structural self-check mirroring docs/report-schema.json."""
    expected = {"command", "inputs", "results", "pass"}
    if set(document) != expected:
        raise ValueError(f"report fields {sorted(document)} != {sorted(expected)}")
    if not isinstance(document["command"], str):
        raise ValueError("report command must be a string")
    if not isinstance(document["inputs"], dict) or not isinstance(document["results"], dict):
        raise ValueError("report inputs/results must be objects")
    if not isinstance(document["pass"], bool):
        raise ValueError("report pass must be a boolean")
