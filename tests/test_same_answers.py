"""Same answers: a fixed matrix of CLI requests against pinned reports.

Each request's report, minus its mult_count, must hash to the pinned digest,
and its mult_count must not exceed the pinned one; an error exit must give
the pinned error object.  polar is left out: its floats depend on numpy.

Regenerate the table with `PYTHONPATH=src python tests/test_same_answers.py`
(see pinned_answers.py for when that is allowed).
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from bbgroups.cli import dispatch

from pinned_answers import PINNED

SL2_8_GENS = [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 0], [0, 5]]]
SPECS = {
    "S4": {"backend": "perm", "degree": 4, "generators": [[[1, 2]], [[1, 2, 3, 4]]]},
    "A5": {"backend": "perm", "degree": 5, "generators": [[[1, 2, 3, 4, 5]], [[1, 2, 3]]]},
    "D8": {"backend": "perm", "degree": 4, "generators": [[[1, 2, 3, 4]], [[2, 4]]]},
    "moebius(2)": {"backend": "moebius", "n": 2},
    "moebius(3)": {"backend": "moebius", "n": 3},
    "moebius(3) exponent": {"backend": "moebius", "n": 3, "exponent": 126},
    "SL2(3)": {
        "backend": "matrix", "dim": 2, "field": {"p": 3}, "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
    },
    "SL2(8)": {"backend": "matrix", "dim": 2, "field": {"p": 2, "k": 3}, "generators": SL2_8_GENS},
    "SL2(8) exponent": {
        "backend": "matrix", "dim": 2, "field": {"p": 2, "k": 3}, "generators": SL2_8_GENS, "exponent": 126,
    },
}
# Per group: an element of largest order, an even-order element (of order > 2
# where there is one), an involution i, an involution j with o(ij) odd, and
# t, r, s with o(tr) and o(rs) odd (i itself where no other fits).
MOEBIUS3 = dict(
    order="(1 9 5 2 8 3 7 4 6)", even="(2 3)(4 6)(5 9)(7 8)", i="(2 3)(4 6)(5 9)(7 8)",
    j="(1 2)(4 9)(5 8)(6 7)", t="(2 3)(4 6)(5 9)(7 8)", r="(1 2)(4 9)(5 8)(6 7)", s="(2 4)(3 6)(5 7)(8 9)",
)
A5 = dict(
    order="(1 5 3 2 4)", even="(2 3)(4 5)", i="(2 3)(4 5)", j="(1 2)(4 5)",
    t="(2 3)(4 5)", r="(1 2)(4 5)", s="(2 4)(3 5)",
)
SL2_8 = dict(
    order="[[7, 7], [7, 3]]", even="[[0, 1], [1, 0]]", i="[[0, 1], [1, 0]]", j="[[0, 2], [5, 0]]",
    t="[[0, 1], [1, 0]]", r="[[0, 2], [5, 0]]", s="[[0, 3], [6, 0]]",
)
ELEMENTS = {
    "S4": dict(order="(1 4 2 3)", even="(1 4 2 3)", i="(3 4)", j="(2 3)", t="(3 4)", r="(2 3)", s="(2 4)"),
    "A5": A5,
    "D8": dict(order="(1 4 3 2)", even="(1 4 3 2)", i="(2 4)", j="(2 4)", t="(2 4)", r="(2 4)", s="(2 4)"),
    "moebius(2)": A5,
    "moebius(3)": MOEBIUS3,
    "moebius(3) exponent": MOEBIUS3,
    "SL2(3)": dict(
        order="[[2, 2], [0, 2]]", even="[[2, 2], [2, 1]]", i="[[2, 0], [0, 2]]", j="[[2, 0], [0, 2]]",
        t="[[2, 0], [0, 2]]", r="[[2, 0], [0, 2]]", s="[[2, 0], [0, 2]]",
    ),
    "SL2(8)": SL2_8,
    "SL2(8) exponent": SL2_8,
}


def requests(e):
    return {
        "enumerate --elements": ["enumerate", "--elements"],
        "order": ["order", "--element", e["order"]],
        "involution": ["involution", "--element", e["even"]],
        "centralizer --seed 1": ["centralizer", "--involution", e["i"], "--seed", "1"],
        "zeta-audit": ["zeta-audit", "--involution", e["i"]],
        "tricks sqrt": ["tricks", "--op", "sqrt", "--i", e["i"], "--j", e["j"]],
        "tricks double": ["tricks", "--op", "double", "--t", e["t"], "--r", e["r"], "--s", e["s"]],
        "burnside": ["burnside"],
    }


CASES = [(group, name) for group in SPECS for name in requests(ELEMENTS[group])]


def answer(run, tmp_path, group, name):
    """(sha256 of the report without mult_count, mult_count), or of the error
    object with mult_count None; run(argv) gives (exit code, stdout, stderr)."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPECS[group]))
    code, out, err = run(requests(ELEMENTS[group])[name] + ["--input", str(path)])
    report = json.loads(out if code == 0 else err)
    mult = report.pop("mult_count", None)
    text = json.dumps({"exit": code, "report": report}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest(), mult


@pytest.mark.parametrize("group, name", CASES, ids=[f"{g}: {n}" for g, n in CASES])
def test_same_answer_no_more_muls(capsys, tmp_path, group, name):
    digest, mult = answer(lambda argv: (dispatch(argv), *capsys.readouterr()), tmp_path, group, name)
    pinned_digest, pinned_mult = PINNED[group, name]
    assert digest == pinned_digest
    if pinned_mult is None:
        assert mult is None
    else:
        assert mult <= pinned_mult


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for group, name in CASES:
            digest, mult = answer(_run_captured, Path(tmp), group, name)
            print(f"    ({group!r}, {name!r}): ({digest!r}, {mult!r}),")
