import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bbgroups.cli import build_parser, dispatch
from bbgroups.oracle import MAX_DEGREE, GroupOracle, build_backend

from test_same_answers import CASES, ELEMENTS, SPECS, requests

S4 = {"backend": "perm", "degree": 4, "generators": [[[1, 2]], [[1, 2, 3, 4]]]}
SL2_3 = {"backend": "matrix", "dim": 2, "field": {"p": 3, "k": 1}, "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}


@pytest.fixture()
def s4_file(tmp_path):
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(S4))
    return str(path)


@pytest.fixture()
def moebius2_file(tmp_path):
    path = tmp_path / "moebius2.json"
    path.write_text(json.dumps({"backend": "moebius", "n": 2}))
    return str(path)


@pytest.fixture()
def sl2_3_file(tmp_path):
    path = tmp_path / "sl2_3.json"
    path.write_text(json.dumps(SL2_3))
    return str(path)


def run_cli(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate(capsys, moebius2_file):
    code, out, err = run_cli(capsys, ["enumerate", "--input", moebius2_file])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["order"] == 60
    assert "mult_count" in report


def test_enumerate_with_elements(capsys, s4_file):
    code, out, _ = run_cli(capsys, ["enumerate", "--input", s4_file, "--elements"])
    report = json.loads(out)
    assert report["order"] == 24
    assert len(report["elements"]) == 24
    assert "()" in report["elements"]


def test_enumerate_cap_exceeded(capsys, s4_file):
    code, out, err = run_cli(capsys, ["enumerate", "--input", s4_file, "--cap", "4"])
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"]["type"] == "EnumerationCapExceeded"


def test_order(capsys, s4_file):
    code, out, _ = run_cli(capsys, ["order", "--input", s4_file, "--element", "(1 2 3)"])
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 3
    assert report["odd"] is True


def test_involution(capsys, s4_file):
    code, out, _ = run_cli(
        capsys, ["involution", "--input", s4_file, "--element", "(1 2 3 4)"]
    )
    assert code == 0
    assert json.loads(out)["involution"] == "(1 3)(2 4)"


def test_involution_odd_order_is_domain_error(capsys, s4_file):
    code, out, err = run_cli(
        capsys, ["involution", "--input", s4_file, "--element", "(1 2 3)"]
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "OddOrderInput"


def test_centralizer(capsys, s4_file):
    code, out, _ = run_cli(
        capsys,
        [
            "centralizer",
            "--input",
            s4_file,
            "--involution",
            "(1 2)(3 4)",
            "--seed",
            "7",
            "--samples",
            "20",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is True
    assert report["generated_order"] == 8 == report["true_order"]
    assert len(report["samples"]) == 20
    assert report["mult_count"] > 0


def test_zeta_audit(capsys, s4_file):
    code, out, _ = run_cli(
        capsys, ["zeta-audit", "--input", s4_file, "--involution", "(1 2)(3 4)"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["zeta1_constant"] is True
    assert report["zeta0_class_constant"] is True
    assert report["centralizer_order"] == 8
    assert sum(report["zeta1_counts"].values()) == report["odd_domain_size"]


def test_tricks_sqrt(capsys, s4_file):
    code, out, _ = run_cli(
        capsys,
        ["tricks", "--input", s4_file, "--op", "sqrt", "--i", "(1 2)", "--j", "(2 3)"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["conjugator"] == "(1 2 3)"
    assert report["verified"] is True


def test_tricks_double(capsys, s4_file):
    code, out, _ = run_cli(
        capsys,
        [
            "tricks",
            "--input",
            s4_file,
            "--op",
            "double",
            "--t",
            "(1 2)",
            "--r",
            "(2 3)",
            "--s",
            "(1 3)",
        ],
    )
    assert code == 0
    assert json.loads(out)["conjugator"] == "(1 3 2)"


def test_tricks_even_case_exit_1(capsys, s4_file):
    code, out, err = run_cli(
        capsys,
        ["tricks", "--input", s4_file, "--op", "sqrt", "--i", "(1 2)", "--j", "(3 4)"],
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "EvenOrderInput"


def test_burnside_moebius2(capsys, moebius2_file):
    code, out, _ = run_cli(capsys, ["burnside", "--input", moebius2_file])
    assert code == 0
    report = json.loads(out)
    assert report["order_formula_holds"] is True
    assert report["branch"] == "single_class"
    assert report["three_transitive"] is True
    assert report["mu"] == 3


def test_burnside_moebius4(capsys, tmp_path):
    path = tmp_path / "moebius4.json"
    path.write_text(json.dumps({"backend": "moebius", "n": 4}))
    code, out, _ = run_cli(capsys, ["burnside", "--input", str(path), "--n-hint", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["branch"] == "single_class"
    assert report["n"] == 4 and not report["n_hint_mismatch"]
    assert report["normalizer_order"] == 240
    assert report["mu"] == 15
    assert report["three_transitive"] is True


def test_polar(capsys):
    code, out, _ = run_cli(capsys, ["polar", "--matrix", "[[2, 0], [0, 0.5]]"])
    assert code == 0
    report = json.loads(out)
    assert report["z"] == [[1.0, 0.0], [0.0, 1.0]]
    assert report["orthogonality_residual"] <= 1e-10


def test_polar_path_wrong_component(capsys):
    code, out, err = run_cli(capsys, ["polar", "--matrix", "[[1, 0], [0, -1]]", "--path"])
    assert code == 1
    assert json.loads(err)["error"]["type"] == "WrongComponent"


def test_polar_path(capsys):
    code, out, _ = run_cli(
        capsys, ["polar", "--matrix", "[[-1, 0], [0, -1]]", "--path", "--steps", "8"]
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["path"]) == 9


@pytest.mark.parametrize(
    "matrix",
    [
        pytest.param("[[oops", id="truncated-json"),
        pytest.param("[[1,2],[3]]", id="ragged"),
        pytest.param('"abc"', id="string"),
        pytest.param('[[1,2],[3,"x"]]', id="string-entry"),
        pytest.param("9" * 5000, id="5000-digit-literal"),
        pytest.param("[[[1]]]", id="three-dimensional"),
        pytest.param('{"a":1}', id="object"),
        pytest.param("null", id="null"),
        pytest.param("[" * 100_000, id="deep-nesting"),
    ],
)
def test_polar_bad_matrix_json(capsys, matrix):
    code, out, err = run_cli(capsys, ["polar", "--matrix", matrix])
    assert code == 1 and out == ""
    assert "error" in json.loads(err)


def test_determinism_byte_identical(capsys, s4_file):
    argv = [
        "centralizer",
        "--input",
        s4_file,
        "--involution",
        "(1 2)(3 4)",
        "--seed",
        "9",
        "--samples",
        "12",
    ]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_output_file_sink(capsys, tmp_path, moebius2_file):
    sink = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, ["enumerate", "--input", moebius2_file, "--output", str(sink)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(sink.read_text())["order"] == 60


def test_usage_errors_exit_2(capsys, s4_file):
    with pytest.raises(SystemExit) as exc:
        dispatch(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["enumerate"])  # missing --input
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["enumerate", "--input", s4_file, "--cap", "many"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["tricks", "--input", s4_file, "--op", "sqrt", "--i", "(1 2)"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["tricks", "--input", s4_file, "--op", "double", "--t", "(1 2)", "--r", "(2 3)"])
    assert exc.value.code == 2


def test_parser_built_once_keeps_no_request_state(capsys, s4_file):
    assert build_parser() is build_parser()
    code, out, _ = run_cli(capsys, ["enumerate", "--input", s4_file, "--elements"])
    assert code == 0 and "elements" in json.loads(out)
    code, out, _ = run_cli(capsys, ["enumerate", "--input", s4_file])
    assert code == 0 and "elements" not in json.loads(out)
    centralizer = ["centralizer", "--input", s4_file, "--involution", "(1 2)"]
    default = run_cli(capsys, centralizer)[1]
    assert run_cli(capsys, centralizer + ["--seed", "5"])[1] != default
    assert run_cli(capsys, centralizer)[1] == default  # --seed 5 did not stick


def test_missing_input_file_is_domain_error(capsys):
    code, _, err = run_cli(capsys, ["enumerate", "--input", "/nonexistent.json"])
    assert code == 1


def test_console_entry_point(tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(
        json.dumps({"backend": "perm", "degree": 3, "generators": [[[1, 2]], [[1, 2, 3]]]})
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "bbgroups.cli", "enumerate", "--input", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 6


PUBLIC_NAMES = """
BurnsideReport ClosureReport DEFAULT_ENUM_CAP Element ExponentData FieldSpec GroupError
GroupOracle IsolationCertificate MatrixOracle PermOracle ReplacementCell TISubgroup
ZetaDistributionReport ZetaOutcome build_backend burnside_audit cartan_zeta
centralizer_closure_check centralizer_sample conjugate_by_sqrt connectedness_path
double_conjugation draw element_order extract_involution has_odd_order is_orthogonal is_spd
is_symmetric isolated_zeta load_group_spec moebius_oracle normalizer_map polar_decompose power
seed_cell spd_sqrt split_exponent sqrt_odd strongly_isolated_check sylow2_normalizer_generators
ti_subgroup zeta zeta_distribution_audit
""".split()

IMPORT_PROBE = """
import contextlib, io, json, sys
import bbgroups, bbgroups.cli
out = {"all": bbgroups.__all__, "unresolved": [n for n in bbgroups.__all__ if not hasattr(bbgroups, n)]}
with contextlib.redirect_stdout(io.StringIO()):
    out["order_code"] = bbgroups.cli.dispatch(["order", "--input", sys.argv[1], "--element", "(1 2 3)"])
out["numpy_after_order"] = "numpy" in sys.modules
out["cartan_after_order"] = "bbgroups.cartan" in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as polar:
    out["polar_code"] = bbgroups.cli.dispatch(["polar", "--matrix", "[[2, 1], [0, 1]]"])
out["polar_residual"] = json.loads(polar.getvalue())["orthogonality_residual"]
out["numpy_after_polar"] = "numpy" in sys.modules
print(json.dumps(out))
"""


def test_numpy_is_loaded_only_by_real_matrix_requests(s4_file):
    """A fresh process runs group requests without importing numpy; the
    benchmark's tracer still finds bbgroups.cartan in sys.modules."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, s4_file], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["all"] == PUBLIC_NAMES and out["unresolved"] == []
    assert out["order_code"] == 0
    assert out["numpy_after_order"] is False and out["cartan_after_order"] is True
    assert out["polar_code"] == 0 and out["polar_residual"] < 1e-10
    assert out["numpy_after_polar"] is True


@pytest.mark.parametrize(
    "spec, command",
    [
        (dict(SL2_3, field={"p": "3"}), ["enumerate"]),
        (dict(SL2_3, field={"p": 3, "k": "1"}), ["enumerate"]),
        (dict(S4, generators=[[["a"]]]), ["enumerate"]),
        ({"backend": "moebius", "n": 2, "field": {"poly": "x"}}, ["enumerate"]),
        (dict(S4, generators=[5]), ["enumerate"]),
        (dict(SL2_3, generators=[5]), ["enumerate"]),
        ({"backend": "moebius", "n": 2, "field": [1]}, ["enumerate"]),
        (S4, ["order", "--element", "(1 a)"]),
        (SL2_3, ["order", "--element", "5"]),
        (dict(S4, degree=True, generators=[[]]), ["enumerate"]),
        (dict(SL2_3, dim=True, generators=[[[1]]]), ["enumerate"]),
        ({"backend": "moebius", "n": True}, ["enumerate"]),
        (dict(S4, degree=MAX_DEGREE + 1), ["enumerate"]),
        (dict(S4, generators=[[[1.9, "2"]]]), ["enumerate"]),
        (dict(S4, generators=[[[True, 2]]]), ["enumerate"]),
        (dict(SL2_3, generators=[[[1.7, 1], [0, 1]]]), ["enumerate"]),
        (dict(SL2_3, generators=[[[True, 1], [0, 1]]]), ["enumerate"]),
        # json refuses integer literals past 4,300 digits with a plain ValueError
        pytest.param(
            b'{"backend": "perm", "degree": ' + b"9" * 5000 + b', "generators": []}',
            ["enumerate"],
            id="5000-digit-degree",
        ),
        pytest.param(b'{"backend": "perm", "degree": \xff}', ["enumerate"], id="bad-utf8"),
        pytest.param(b"[" * 100_000, ["enumerate"], id="deep-nesting"),
        pytest.param(
            SL2_3, ["order", "--element", "[[1" + "0" * 5000 + ", 0], [0, 1]]"], id="5001-digit-element"
        ),
        pytest.param(SL2_3, ["order", "--element", "[" * 100_000], id="deep-nesting-element"),
        pytest.param(SL2_3, ["order", "--element", "[[0, 0], [0, 0]]"], id="singular-element"),
    ],
)
def test_malformed_input_is_an_error_object(capsys, tmp_path, spec, command):
    path = tmp_path / "spec.json"
    path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
    code, out, err = run_cli(capsys, command + ["--input", str(path)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "InvalidBackendSpec"


@pytest.mark.parametrize(
    "spec, command",
    [
        pytest.param(SL2_3, ["order", "--element", "[" * 100_000], id="deep-nesting-element"),
        pytest.param(S4, ["order", "--element", "(" + "1" * 100_000 + " 2)"], id="100000-digit-point"),
        pytest.param(S4, ["order", "--element", "(1 2)" * 20_000 + " x"], id="long-trailing-text"),
        pytest.param(
            S4, ["order", "--element", "(" + " ".join(map(str, range(1, 20_000))) + " 1)"], id="long-repeated-element"
        ),
        pytest.param(
            dict(S4, generators=[[list(range(1, 20_000)) + [1]]]), ["enumerate"], id="long-repeated-cycle"
        ),
        pytest.param(dict(S4, generators=[[["1"] * 20_000]]), ["enumerate"], id="long-string-cycle"),
        pytest.param(dict(SL2_3, generators=[[list(range(20_000))]]), ["enumerate"], id="long-matrix-row"),
        pytest.param(dict(SL2_3, generators=[[[1, 1], [0, "x" * 20_000]]]), ["enumerate"], id="long-matrix-entry"),
        pytest.param(dict(SL2_3, field={"p": 3, "k": 1, "poly": ["x"] * 20_000}), ["enumerate"], id="long-poly"),
        pytest.param(dict(S4, exponent="9" * 20_000), ["enumerate"], id="long-exponent"),
        pytest.param(dict(S4, backend="x" * 20_000), ["enumerate"], id="long-backend"),
    ],
)
def test_error_object_is_bounded_for_huge_input(capsys, tmp_path, spec, command):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, command + ["--input", str(path)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "InvalidBackendSpec"
    assert len(err.encode()) < 1000


@pytest.mark.parametrize(
    "spec",
    [
        dict(SL2_3, field={"p": 2, "k": 1_000_000}),
        dict(SL2_3, field={"p": 2**61 - 1, "k": 1}),
        {"backend": "moebius", "n": 1_000_000},
    ],
)
def test_oversized_field_is_an_error_object(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, ["enumerate", "--input", str(path)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "InvalidField"


GROUP_ARGS = {
    "enumerate": ["enumerate"],
    "enumerate --elements": ["enumerate", "--elements"],
    "order": ["order", "--element", "(1 2 3)"],
    "involution": ["involution", "--element", "(1 2 3 4)"],
    "centralizer": ["centralizer", "--involution", "(1 2)(3 4)", "--seed", "3", "--samples", "4"],
    "zeta-audit": ["zeta-audit", "--involution", "(1 2)(3 4)"],
    "tricks sqrt": ["tricks", "--op", "sqrt", "--i", "(1 2)", "--j", "(2 3)"],
    "tricks double": ["tricks", "--op", "double", "--t", "(1 2)", "--r", "(2 3)", "--s", "(1 3)"],
    "burnside": ["burnside"],
}
ZETA_AUDIT_KEYS = {
    "involution", "group_order", "centralizer_order", "odd_domain_size", "even_domain_size",
    "zeta1_counts", "zeta1_constant", "zeta0_counts", "zeta0_class_constant", "involution_classes",
}
BURNSIDE_KEYS = {
    "group_order", "hypothesis_holds", "branch", "involution_count", "involution_class_count",
    "centralizer_elementary_abelian", "centralizer_orders", "n", "sylow_order", "sylow_normal",
    "n_hint_mismatch", "sylow_ti", "fusion_controlled", "normalizer_order", "mu",
    "order_formula_holds", "three_transitive",
}
# Exact key set of each report (mult_count aside) and the keys holding elements.
REPORT_SHAPES = {
    "enumerate": ({"backend", "order", "exponent_bound"}, set()),
    "enumerate --elements": ({"backend", "order", "exponent_bound", "elements"}, {"elements"}),
    "order": ({"element", "order", "odd"}, {"element"}),
    "involution": ({"element", "involution"}, {"element", "involution"}),
    "centralizer": (
        {"generated_order", "true_order", "equal", "involution", "samples"},
        {"involution", "samples"},
    ),
    "zeta-audit": (ZETA_AUDIT_KEYS, {"involution", "zeta1_counts", "zeta0_counts", "involution_classes"}),
    "tricks sqrt": ({"op", "i", "j", "conjugator", "verified"}, {"i", "j", "conjugator"}),
    "tricks double": ({"op", "t", "r", "s", "conjugator", "verified"}, {"t", "r", "s", "conjugator"}),
    "burnside": (BURNSIDE_KEYS, set()),
}


def _element_texts(value):
    if isinstance(value, str):
        return [value]
    if isinstance(value, dict):
        return list(value)
    return [text for item in value for text in _element_texts(item)]


@pytest.mark.parametrize("name", sorted(GROUP_ARGS))
def test_report_shape(capsys, s4_file, name):
    code, out, _ = run_cli(capsys, GROUP_ARGS[name] + ["--input", s4_file])
    assert code == 0
    report = json.loads(out)
    keys, element_keys = REPORT_SHAPES[name]
    assert set(report) == keys | {"mult_count"}
    assert isinstance(report["mult_count"], int)
    s4 = build_backend(S4)
    for key in element_keys:
        texts = _element_texts(report[key])
        assert texts
        for text in texts:
            assert text.startswith("(") and s4.element_str(s4.parse_element(text)) == text


def test_report_matrix_notation(capsys, sl2_3_file):
    code, out, _ = run_cli(
        capsys, ["zeta-audit", "--input", sl2_3_file, "--involution", "[[2, 0], [0, 2]]"]
    )
    assert code == 0
    report = json.loads(out)
    sl2_3 = build_backend(SL2_3)
    texts = [report["involution"], *report["zeta1_counts"], *_element_texts(report["involution_classes"])]
    for text in texts:
        assert text.startswith("[[") and sl2_3.element_str(sl2_3.parse_element(text)) == text


def test_mult_count_is_the_number_of_mul_calls(capsys, tmp_path, monkeypatch):
    # A tracer wraps GroupOracle.mul on the class and counts its calls; each
    # counted product must be one such call, so the counts agree.
    calls = [0]
    mul = GroupOracle.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(GroupOracle, "mul", counted)
    path = tmp_path / "spec.json"
    reports = 0
    for group, name in CASES:
        path.write_text(json.dumps(SPECS[group]))
        calls[0] = 0
        code, out, _ = run_cli(capsys, requests(ELEMENTS[group])[name] + ["--input", str(path)])
        if code == 0:
            assert json.loads(out)["mult_count"] == calls[0], (group, name)
            reports += 1
    assert reports > 60
