"""Reports of fixed command lines, compared byte for byte.

``golden/cases.json`` lists each command line with its expected exit code
and the file holding its expected stdout.  The ``--json`` lines are the
README examples, ``verify``, ``ch``, every realization, models 1/2/3 on
``psi1`` and ``chsh-max``, and models 2/3 plus samples 2/3 on a fixed Haar
state with |S| < 2 (``golden/haar_state.json``), whose 256 hidden states
are mostly of positive weight.  The text lines (``.txt`` files) are the
README examples as written, ``verify`` and models 2/3 on the Haar state.
``python tests/test_golden.py`` rewrites the files from the current code;
a report change that needs this is stated in CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from pmsquare.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
README = GOLDEN.parents[1] / "README.md"


@pytest.mark.parametrize("case", CASES, ids=[case["file"] for case in CASES])
def test_report_matches_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)  # state files in argv are relative to golden/
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / case["file"]).read_bytes()


def test_every_readme_example_is_a_golden_case():
    text = README.read_text(encoding="utf-8")
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert lines and all(words[:1] == ["pmsquare"] for words in lines)
    argvs = [case["argv"] for case in CASES]
    for words in lines:
        assert words[1:] in argvs, " ".join(words)
        assert words[1:] + ["--json"] in argvs, " ".join(words)


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for case in CASES:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(case["argv"])
        if code != case["exit"]:
            sys.exit(f"{case['file']}: exit {code}, expected {case['exit']}")
        Path(case["file"]).write_bytes(buffer.getvalue().encode("utf-8"))
