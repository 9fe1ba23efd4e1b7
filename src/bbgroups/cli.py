"""Command-line front end: JSON in, JSON out, deterministic under --seed.

Exit codes: 0 success, 1 domain error (error object on stderr), 2 usage
error (argparse).  Every group-backed report embeds the oracle's running
multiplication count so complexity claims can be checked from the shell.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .bray import centralizer_closure_check, centralizer_sample, zeta_distribution_audit
from .cartan import _as_square, connectedness_path, polar_decompose, polar_residuals
from .errors import GroupError
from .oracle import DEFAULT_ENUM_CAP, Element, GroupOracle, load_group_spec
from .powertools import element_order, extract_involution
from .sampler import DEFAULT_BURN_IN, DEFAULT_CELL_SIZE, seed_cell
from .tricks import burnside_audit, conjugate_by_sqrt, double_conjugation


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="group-specification JSON file")
    parser.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, help="enumeration cap")
    parser.add_argument("--output", default=None, help="write the report to this file instead of stdout")


def _load(args: argparse.Namespace) -> GroupOracle:
    return load_group_spec(args.input, args.cap)


def _report(oracle: GroupOracle, result: object | None = None, **extra) -> dict:
    """The fields of a result dataclass, then extra keys, then the oracle's
    running mult_count, with every element in the backend's notation."""
    fields = dataclasses.fields(result) if result is not None else ()
    report = {f.name: getattr(result, f.name) for f in fields}
    report.update(extra)
    report["mult_count"] = oracle.mult_counter.total
    return _notation(oracle, report)


def _notation(oracle: GroupOracle, value):
    """value with every Element, dict key included, written by element_str."""
    if isinstance(value, Element):
        return oracle.element_str(value)
    if isinstance(value, dict):
        return {_notation(oracle, k): _notation(oracle, v) for k, v in value.items()}
    if isinstance(value, list):
        return [_notation(oracle, v) for v in value]
    return value


def _cmd_enumerate(args: argparse.Namespace) -> dict:
    oracle = _load(args)
    elems = oracle.enumerate(args.cap)
    extra = {"elements": elems} if args.elements else {}
    return _report(
        oracle, backend=oracle.backend_id, order=len(elems), exponent_bound=oracle.exponent_bound, **extra
    )


def _cmd_order(args: argparse.Namespace) -> dict:
    oracle = _load(args)
    x = oracle.parse_element(args.element)
    order = element_order(oracle, x, args.cap)
    return _report(oracle, element=x, order=order, odd=order % 2 == 1)


def _cmd_involution(args: argparse.Namespace) -> dict:
    oracle = _load(args)
    x = oracle.parse_element(args.element)
    return _report(oracle, element=x, involution=extract_involution(oracle, x))


def _cmd_centralizer(args: argparse.Namespace) -> dict:
    oracle = _load(args)
    i = oracle.parse_element(args.involution)
    cell = seed_cell(oracle, args.cell_size, args.burn_in, args.seed)
    samples = centralizer_sample(oracle, i, cell, args.samples)
    closure = centralizer_closure_check(oracle, i, samples, args.cap)
    return _report(oracle, closure, involution=i, samples=samples)


def _cmd_zeta_audit(args: argparse.Namespace) -> dict:
    oracle = _load(args)
    i = oracle.parse_element(args.involution)
    return _report(oracle, zeta_distribution_audit(oracle, i, cap=args.cap))


def _cmd_tricks(args: argparse.Namespace) -> dict:
    oracle = _load(args)
    if args.op == "sqrt":
        i = oracle.parse_element(args.i)
        j = oracle.parse_element(args.j)
        y = conjugate_by_sqrt(oracle, i, j)
        return _report(oracle, op="sqrt", i=i, j=j, conjugator=y, verified=True)
    t = oracle.parse_element(args.t)
    r = oracle.parse_element(args.r)
    s = oracle.parse_element(args.s)
    b = double_conjugation(oracle, t, r, s)
    return _report(oracle, op="double", t=t, r=r, s=s, conjugator=b, verified=True)


def _cmd_burnside(args: argparse.Namespace) -> dict:
    oracle = _load(args)
    return _report(oracle, burnside_audit(oracle, args.n_hint, args.cap))


def _matrix_to_lists(m) -> list[list[float]]:
    return [[float(x) for x in row] for row in m]


def _cmd_polar(args: argparse.Namespace) -> dict:
    try:  # bad JSON, an over-long integer, too deep a nesting, or non-numbers
        x = _as_square(json.loads(args.matrix))
    except (ValueError, TypeError, RecursionError) as e:
        raise GroupError(f"could not parse matrix: {e}") from e
    report: dict = {"matrix": _matrix_to_lists(x), "mult_count": 0}
    if args.path:
        path = connectedness_path(x, args.steps, args.tol)
        report["path"] = [_matrix_to_lists(m) for m in path]
        report["steps"] = args.steps
        return report
    z, p = polar_decompose(x, args.tol)
    report["z"] = _matrix_to_lists(z)
    report["p"] = _matrix_to_lists(p)
    report["orthogonality_residual"], report["reconstruction_residual"] = polar_residuals(x, z, p)
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The bbgroups argument parser, built once per process: building it costs
    more than a small request, and parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bbgroups",
        description="Black-box group computations with JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate a group and report its order")
    _add_common(p)
    p.add_argument("--elements", action="store_true", help="include the element list")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("order", help="order of one element by brute force")
    _add_common(p)
    p.add_argument("--element", required=True, help="element in the backend's notation")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("involution", help="involution from the squaring chain of an even-order element")
    _add_common(p)
    p.add_argument("--element", required=True)
    p.set_defaults(func=_cmd_involution)

    p = sub.add_parser("centralizer", help="sample centralizer generators and compare closures")
    _add_common(p)
    p.add_argument("--involution", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--cell-size", type=int, default=DEFAULT_CELL_SIZE, dest="cell_size")
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN, dest="burn_in")
    p.set_defaults(func=_cmd_centralizer)

    p = sub.add_parser("zeta-audit", help="exhaustive zeta count tables")
    _add_common(p)
    p.add_argument("--involution", required=True)
    p.set_defaults(func=_cmd_zeta_audit)

    p = sub.add_parser("tricks", help="conjugation by square root / double conjugation")
    _add_common(p)
    p.add_argument("--op", choices=("sqrt", "double"), required=True)
    p.add_argument("--i", default=None)
    p.add_argument("--j", default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--r", default=None)
    p.add_argument("--s", default=None)
    p.set_defaults(func=_cmd_tricks)

    p = sub.add_parser("burnside", help="structure audit for elementary abelian involution centralizers")
    _add_common(p)
    p.add_argument("--n-hint", type=int, default=None, dest="n_hint")
    p.set_defaults(func=_cmd_burnside)

    p = sub.add_parser("polar", help="polar decomposition of a real matrix")
    p.add_argument("--matrix", required=True, help="JSON array of rows")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--path", action="store_true", help="emit a connectedness path instead")
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_polar)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "op", None) == "sqrt" and (args.i is None or args.j is None):
        parser.error("op 'sqrt' needs --i and --j")
    if getattr(args, "op", None) == "double" and None in (args.t, args.r, args.s):
        parser.error("op 'double' needs --t, --r and --s")
    try:
        report = args.func(args)
    except GroupError as e:
        error = {"error": {"type": type(e).__name__, "message": str(e)}}
        sys.stderr.write(json.dumps(error, indent=2, sort_keys=True) + "\n")
        return 1
    _emit(report, args.output)
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
