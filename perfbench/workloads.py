"""The benchmark's workloads.

Each workload builds its inputs from (seed, task index) only, runs one task
against the library (the timed part), and checks the task's outputs with the
reference arithmetic in ref.py (untimed).  The library is reached only
through its public entry points, looked up at call time on the bbgroups
package or its submodules, so the span wrappers in tracing.py see every
call.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import ref

# GF(2^8) and GF(2^10) are past bbgroups' DEFAULT_POLYS, so the benchmark
# carries its own irreducible polynomials (ascending coefficients).
POLY8 = (1, 0, 1, 1, 1, 0, 0, 0, 1)  # x^8 + x^4 + x^3 + x^2 + 1
POLY10 = (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)  # x^10 + x^3 + 1
POLYS = ((8, POLY8), (10, POLY10))

# Exponent of SL2(q), q = 2^n: lcm(2, q - 1, q + 1) = 2 (q^2 - 1).
EXP_SL2_256 = 131070
EXP_SL2_1024 = 2097150


class CheckFailed(Exception):
    """An output disagreed with the reference arithmetic."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Workload:
    name = ""
    min_tasks = 100  # tasks every run completes; muls_per_task is their mean
    trace_tasks = 100  # tasks a traced run records
    cycle = 1  # a run ends on a multiple of this many tasks
    setup_reps = 3
    rank = 0  # generators a task's group needs, where bray.useful_sample_ratio applies

    def __init__(self, bb, seed: int, workdir: Path):
        self.bb = bb
        self.seed = seed
        self.workdir = workdir

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def setup(self) -> None:
        """Build the workload's fields and oracles (timed as setup_s)."""

    def check_setup(self) -> None:
        """Check what setup built against the reference model (untimed)."""

    def inputs(self, k: int):
        raise NotImplementedError

    def run(self, inp):
        """One task: library calls only."""
        raise NotImplementedError

    def check(self, inp, out) -> int:
        """Verify one task's outputs; return its oracle multiplications."""
        raise NotImplementedError


class BBCentralizer(Workload):
    """Centralizer of a random involution of SL2(256) (|G| = 16,776,960,
    moebius action on 257 points) from zeta values, by closure to the known
    order |C(i)| = 256, never enumerating G."""

    name = "bb_centralizer"
    min_tasks = 300
    rank = 8
    c_order = 256
    first_draws = rank + 2
    more_draws = 2
    max_draws = 64

    def __init__(self, bb, seed, workdir):
        super().__init__(bb, seed, workdir)
        self.model = ref.MoebiusModel(ref.GF2n(8, list(POLY8)))
        self.i0 = self.model.gens[0]  # z -> z + 1

    def setup(self):
        self.oracle = self.bb.moebius_oracle(8, POLY8, exponent=EXP_SL2_256)

    def check_setup(self):
        got = [g.payload for g in self.oracle.generators]
        _require(got == self.model.gens, "moebius generators differ from the reference action")

    def inputs(self, k):
        rng = self.rng(k)
        return self.model.random(rng), rng.getrandbits(32)

    def run(self, inp):
        g, cell_seed = inp
        bb, o = self.bb, self.oracle
        before = o.mult_counter.total
        i = o.conjugate(bb.Element(o.backend_id, self.i0), bb.Element(o.backend_id, g))
        cell = bb.seed_cell(o, seed=cell_seed)
        values = []
        target = self.first_draws
        while True:
            while len(values) < target:
                values.append(bb.zeta(o, i, bb.draw(cell)).value)
            group = bb.subgroups.closure(o, values)
            if len(group) >= self.c_order or target >= self.max_draws:
                break
            target += self.more_draws
        return i, values, group, o.mult_counter.total - before

    def check(self, inp, out):
        g, _ = inp
        i, values, group, muls = out
        m = self.model
        want = ref.conj(m, self.i0, g)
        _require(i.payload == want, "i != i0^g")
        for v in values:
            p = v.payload
            _require(ref.compose(p, want) == ref.compose(want, p), "zeta value does not commute with i")
        payloads = {e.payload for e in group}
        _require(len(group) == self.c_order, f"closure order {len(group)} != {self.c_order}")
        _require(len(payloads) == self.c_order and m.identity in payloads, "closure is not a set with 1")
        return muls


class BBTricks(Workload):
    """i^sqrt(ij) = j and double conjugation on random conjugates of a
    transvection of SL2(1024), 2x2 matrices (|G| ~ 1.07e9)."""

    name = "bb_tricks"
    min_tasks = 200
    trace_tasks = 200
    setup_reps = 9

    def __init__(self, bb, seed, workdir):
        super().__init__(bb, seed, workdir)
        F = ref.GF2n(10, list(POLY10))
        w = F.primitive()
        self.model = ref.MatrixModel(F, [(1, 1, 0, 1), (1, 0, 1, 1), (w, 0, 0, F.inv(w))])
        self.t0 = (1, 1, 0, 1)

    def setup(self):
        bb = self.bb
        field = bb.FieldSpec(2, 10, POLY10)
        gens = [[[a, b], [c, d]] for a, b, c, d in self.model.gens]
        self.oracle = bb.MatrixOracle(field, 2, gens, exponent=EXP_SL2_1024)

    def check_setup(self):
        got = [g.payload for g in self.oracle.generators]
        _require(got == self.model.gens, "matrix generators differ from the reference")

    def inputs(self, k):
        rng = self.rng(k)
        return [ref.random_sl2(self.model.field, rng) for _ in range(4)]

    def run(self, gs):
        bb, o = self.bb, self.oracle
        even = bb.errors.EvenOrderInput
        before = o.mult_counter.total
        t0 = bb.Element(o.backend_id, self.t0)
        i, j, r, s = (o.conjugate(t0, bb.Element(o.backend_id, g)) for g in gs)
        try:
            y = bb.conjugate_by_sqrt(o, i, j)
        except even:
            y = None
        try:
            b = bb.double_conjugation(o, i, r, s)
        except even:
            b = None
        return (i, j, r, s), y, b, o.mult_counter.total - before

    def _even(self, a, b) -> bool:
        z = self.model.mul(a, b)
        return z != self.model.identity and self.model.mul(z, z) == self.model.identity

    def check(self, gs, out):
        (i, j, r, s), y, b, muls = out
        m = self.model
        want = [ref.conj(m, self.t0, g) for g in gs]
        _require([e.payload for e in (i, j, r, s)] == want, "conjugates differ from the reference")
        wi, wj, wr, ws = want
        if y is None:
            _require(self._even(wi, wj), "EvenOrderInput on an odd-order product ij")
        else:
            _require(ref.conj(m, wi, y.payload) == wj, "i^y != j")
        if b is None:
            _require(self._even(wi, wr) or self._even(wr, ws), "EvenOrderInput on odd-order ir and rs")
        else:
            _require(ref.conj(m, wi, b.payload) == ws, "i^b != s")
        return muls


# --- the CLI audit --------------------------------------------------------------


def _perm_gens(degree: int, cycles: list[str]) -> list[tuple]:
    return [ref.parse_cycles(c, degree) for c in cycles]


class _Group:
    """One spec file with the reference model the checks use."""

    def __init__(self, spec: dict, model, order: int, exponent: int, burnside: dict):
        self.spec = spec
        self.model = model
        self.order = order
        self.exponent = spec.get("exponent", exponent)
        self.burnside = burnside
        self.elems = ref.elements(model)
        _require(len(self.elems) == order, f"reference group order {len(self.elems)} != {order}")
        self.orders = {x: ref.order(model, x) for x in self.elems}
        _require(math.lcm(*self.orders.values()) == exponent, "reference exponent mismatch")
        self.invs = [x for x in self.elems if self.orders[x] == 2]
        self.even = [x for x in self.elems if self.orders[x] % 2 == 0]
        self._cent: dict = {}

    def centralizer_order(self, i) -> int:
        if i not in self._cent:
            m = self.model
            self._cent[i] = sum(m.mul(x, i) == m.mul(i, x) for x in self.elems)
        return self._cent[i]

    def odd_product(self, a, b) -> bool:
        return self.orders[self.model.mul(a, b)] % 2 == 1


def _groups() -> dict[str, _Group]:
    gf4, gf8 = ref.GF2n(2, [1, 1, 1]), ref.GF2n(3, [1, 1, 0, 1])
    fail = {"branch": "fail", "hypothesis_holds": False}

    def single(n):
        return {"branch": "single_class", "n": n, "normalizer_order": 2**n * (2**n - 1),
                "sylow_ti": True, "fusion_controlled": True, "order_formula_holds": True,
                "three_transitive": True}

    sl28 = [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 0], [0, 5]]]
    sl28_model = ref.MatrixModel(gf8, [(1, 1, 0, 1), (1, 0, 1, 1), (2, 0, 0, 5)])
    m3_model = ref.MoebiusModel(gf8)
    return {
        "s4": _Group({"backend": "perm", "degree": 4, "generators": [[[1, 2]], [[1, 2, 3, 4]]]},
                     ref.PermModel(4, _perm_gens(4, ["(1 2)", "(1 2 3 4)"])), 24, 12, fail),
        "a5": _Group({"backend": "perm", "degree": 5, "generators": [[[1, 2, 3, 4, 5]], [[1, 2, 3]]]},
                     ref.PermModel(5, _perm_gens(5, ["(1 2 3 4 5)", "(1 2 3)"])), 60, 30, single(2)),
        "m2": _Group({"backend": "moebius", "n": 2}, ref.MoebiusModel(gf4), 60, 30, single(2)),
        "m3": _Group({"backend": "moebius", "n": 3}, m3_model, 504, 126, single(3)),
        "m3e": _Group({"backend": "moebius", "n": 3, "exponent": 126}, m3_model, 504, 126, single(3)),
        "sl23": _Group({"backend": "matrix", "dim": 2, "field": {"p": 3, "k": 1},
                        "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]},
                       ref.MatrixModel(ref.GFp(3), [(1, 1, 0, 1), (1, 0, 1, 1)]), 24, 12, fail),
        "sl28": _Group({"backend": "matrix", "dim": 2, "field": {"p": 2, "k": 3}, "generators": sl28},
                       sl28_model, 504, 126, single(3)),
        "sl28e": _Group({"backend": "matrix", "dim": 2, "field": {"p": 2, "k": 3}, "generators": sl28,
                         "exponent": 126}, sl28_model, 504, 126, single(3)),
    }


# One cycle of CLI requests, in order.  Sorted by latency they fall in three
# groups: ten light requests (under 5 ms at nominal speed), five exhaustive
# zeta audits on A5-sized groups (about 6 ms), and ten heavier requests.  The
# median (0.5 * 25 = 12.5) then lands mid-way through the audit block and the
# 90th percentile (0.9 * 25 = 22.5) mid-way through the block of zeta-audit
# on SL2(8), the third slowest type after burnside on moebius(3) and SL2(8),
# so neither lands on the gap between two request types.  The polar slot
# asks for a connectedness path instead on odd cycles.
MIX = (
    ("order", "s4"), ("enumerate", "s4"), ("sqrt", "s4"), ("burnside", "s4"),
    ("enumerate", "sl23"), ("involution", "a5"), ("double", "a5"),
    ("involution", "m3e"), ("double", "sl28e"), ("polar", None),
    ("zeta-audit", "a5"), ("zeta-audit", "m2"), ("zeta-audit", "a5"), ("zeta-audit", "m2"),
    ("zeta-audit", "a5"),
    ("centralizer", "a5"), ("burnside", "sl23"), ("burnside", "m2"), ("enumerate", "m3"),
    ("sqrt", "m3"), ("centralizer", "m3e"), ("enumerate", "sl28"), ("zeta-audit", "sl28"),
    ("burnside", "m3e"), ("burnside", "sl28"),
)


class CLIAudit(Workload):
    """In-process bbgroups.cli.dispatch requests over desk-scale spec files,
    every subcommand, each report read back and checked.

    Centralizer requests use the CLI's default of 20 zeta samples on A5 and
    moebius(3), where 300 of 300 seeds generated the whole centralizer.  S4
    has none: for a double transposition (centralizer D8) 20 samples
    generated only a Klein four-group for 11 of 300 seeds, an honest
    "equal": false that would count as a failed task."""

    name = "cli_audit"
    cycle = len(MIX)
    min_tasks = 4 * len(MIX)
    trace_tasks = len(MIX)

    def __init__(self, bb, seed, workdir):
        super().__init__(bb, seed, workdir)
        self.groups = _groups()
        self.paths = {}
        for key, grp in self.groups.items():
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(grp.spec), encoding="utf-8")
            self.paths[key] = str(path)
        self.out = workdir / "report.json"

    def _dispatch(self, argv: list[str]) -> int:
        return self.bb.cli.dispatch(argv + ["--output", str(self.out)])

    def setup(self):
        for key in self.groups:
            _require(self._dispatch(["enumerate", "--input", self.paths[key]]) == 0, f"enumerate {key} failed")

    def inputs(self, k):
        rng = self.rng(k)
        op, key = MIX[k % len(MIX)]
        if key is None:
            return op, key, self._polar_input(rng, k // len(MIX) % 2 == 1), None
        grp = self.groups[key]
        fmt = grp.model.fmt
        argv = ["--input", self.paths[key]]
        if op == "enumerate":
            return op, key, ["enumerate"] + argv, None
        if op == "order":
            x = rng.choice(grp.elems)
            return op, key, ["order"] + argv + ["--element", fmt(x)], x
        if op == "involution":
            x = rng.choice(grp.even)
            return op, key, ["involution"] + argv + ["--element", fmt(x)], x
        if op in ("centralizer", "zeta-audit"):
            i = rng.choice(grp.invs)
            extra = ["--seed", str(rng.getrandbits(31))] if op == "centralizer" else []
            return op, key, [op] + argv + ["--involution", fmt(i)] + extra, i
        if op == "sqrt":
            while True:
                i, j = rng.choice(grp.invs), rng.choice(grp.invs)
                if grp.odd_product(i, j):
                    break
            return op, key, ["tricks"] + argv + ["--op", "sqrt", "--i", fmt(i), "--j", fmt(j)], (i, j)
        if op == "double":
            while True:
                t, r, s = (rng.choice(grp.invs) for _ in range(3))
                if grp.odd_product(t, r) and grp.odd_product(r, s):
                    break
            args = ["--op", "double", "--t", fmt(t), "--r", fmt(r), "--s", fmt(s)]
            return op, key, ["tricks"] + argv + args, (t, s)
        return op, key, ["burnside"] + argv, None

    @staticmethod
    def _polar_input(rng, path: bool) -> list[str]:
        if path:
            th = rng.uniform(-3.0, 3.0)
            x = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
            return ["polar", "--matrix", json.dumps(x), "--path", "--steps", "8"]
        x = [[rng.uniform(-1.0, 1.0) + (2.0 if a == b else 0.0) for b in range(3)] for a in range(3)]
        return ["polar", "--matrix", json.dumps(x)]

    def run(self, inp):
        return self._dispatch(inp[2])

    def check(self, inp, rc):
        op, key, argv, arg = inp
        _require(rc == 0, f"{' '.join(argv[:2])}: exit code {rc}")
        rep = json.loads(self.out.read_text(encoding="utf-8"))
        if key is None:
            self._check_polar(argv, rep)
            return rep["mult_count"]
        grp = self.groups[key]
        m = grp.model
        if op == "enumerate":
            _require(rep["order"] == grp.order, f"{key}: order {rep['order']} != {grp.order}")
            _require(rep["exponent_bound"] == grp.exponent, f"{key}: exponent {rep['exponent_bound']}")
        elif op == "order":
            _require(rep["order"] == grp.orders[arg] and rep["odd"] == (grp.orders[arg] % 2 == 1), f"{key}: order")
        elif op == "involution":
            want = ref.power(m, arg, grp.orders[arg] // 2)
            _require(m.parse(rep["involution"]) == want, f"{key}: involution of <x>")
        elif op == "centralizer":
            c = grp.centralizer_order(arg)
            _require(rep["equal"] is True and rep["true_order"] == c and rep["generated_order"] == c,
                     f"{key}: centralizer {rep['generated_order']}/{rep['true_order']} != {c}")
            for text in rep["samples"]:
                y = m.parse(text)
                _require(m.mul(y, arg) == m.mul(arg, y), f"{key}: sample does not commute with i")
        elif op == "zeta-audit":
            c = grp.centralizer_order(arg)
            _require(rep["group_order"] == grp.order and rep["centralizer_order"] == c, f"{key}: audit orders")
            _require(rep["zeta1_constant"] is True and rep["zeta0_class_constant"] is True, f"{key}: zeta counts")
            _require(rep["odd_domain_size"] + rep["even_domain_size"] == grp.order, f"{key}: audit domains")
            _require(len(rep["zeta1_counts"]) == c and sum(rep["zeta1_counts"].values()) == rep["odd_domain_size"],
                     f"{key}: zeta1 table")
        elif op in ("sqrt", "double"):
            a, b = arg
            y = m.parse(rep["conjugator"])
            _require(ref.conj(m, a, y) == b, f"{key}: {op} conjugator does not conjugate")
        else:
            _require(rep["group_order"] == grp.order, f"{key}: burnside order")
            for field, want in grp.burnside.items():
                _require(rep[field] == want, f"{key}: burnside {field} = {rep[field]!r}, want {want!r}")
        return rep["mult_count"]

    @staticmethod
    def _check_polar(argv, rep):
        x = json.loads(argv[2])
        n = len(x)
        nx = ref.frob(x)
        if "--path" in argv:
            path = rep["path"]
            steps = int(argv[argv.index("--steps") + 1])
            _require(len(path) == steps + 1, "polar path length")
            for z in path:
                _require(ref.frob(ref.diff(ref.real_mul(ref.transpose(z), z), ref.eye(n))) <= 1e-10,
                         "path matrix not orthogonal")
            _require(ref.frob(ref.diff(path[0], ref.eye(n))) <= 1e-9, "path does not start at I")
            _require(ref.frob(ref.diff(path[-1], x)) <= 1e-9 * nx, "path does not end at x")
            bound = 2.0 * math.pi * n / steps
            _require(all(ref.frob(ref.diff(a, b)) <= bound for a, b in zip(path, path[1:])), "path step")
            return
        z, p = rep["z"], rep["p"]
        _require(rep["orthogonality_residual"] <= 1e-10 and rep["reconstruction_residual"] <= 1e-9,
                 "reported polar residuals above tolerance")
        _require(ref.frob(ref.diff(ref.real_mul(ref.transpose(z), z), ref.eye(n))) <= 1e-10, "z not orthogonal")
        _require(ref.frob(ref.diff(ref.real_mul(z, p), x)) <= 1e-9 * nx, "z p != x")
        _require(ref.frob(ref.diff(p, ref.transpose(p))) <= 1e-12 * ref.frob(p), "p not symmetric")


WORKLOADS = {w.name: w for w in (BBCentralizer, BBTricks, CLIAudit)}
