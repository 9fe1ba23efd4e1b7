"""Span tracing of the bbgroups layers, installed from the benchmark's files.

A span records a name, a start, an end (perf_counter_ns), its parent span,
the task it belongs to, and a small result tag.  Spans are kept in memory in
typed arrays and written out when the run ends.

Wrappers go where the names are looked up:
  * oracle and field methods on the classes every instance resolves them
    through.  Oracles built inside cli.dispatch run their contract checks
    and exact-exponent enumeration inside the constructor, so a wrapper set
    on an instance afterwards would miss those calls;
  * module functions on every bbgroups module attribute that holds them.
    bray, tricks, subgroups, cartan and cli import their helpers by name, so
    patching only the defining module would silently miss those calls.

A process that never calls install() runs the library untouched.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# Span tags.
RAISED = -1
ZETA_ODD = 1
ZETA_EVEN = 2

ROOT = "bench.task"
SETUP = "bench.setup"

# Class methods traced as "<layer>.<method>"; __init__ spans ("init") are
# constructions.
_METHODS = {
    "oracle": ("GroupOracle", ("mul", "inv", "is_identity", "identity", "conjugate", "commutes",
                               "enumerate", "order", "contains", "__init__")),
    "gf": ("FieldSpec", ("mul", "add", "sub", "inv", "__init__")),
}
_SUBCLASS_INITS = ("PermOracle", "MatrixOracle")

# Layer modules whose public functions are traced, and notation helpers that
# are not layer work (their time stays with the caller).
_MODULES = ("gf", "oracle", "powertools", "sampler", "bray", "tricks", "subgroups", "cartan")
_SKIP = {"parse_cycles", "cycles_to_images", "images_to_cycles", "format_cycles"}


def _zeta_tag(result) -> int:
    return ZETA_ODD if result.branch == "odd" else ZETA_EVEN


_TAGGERS = {"bray.zeta": _zeta_tag}


class Tracer:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tag = array("b")
        self.stack = [-1]
        self.current = [-1]  # task id of the spans being recorded
        self._undo: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """fn wrapped in a span called name."""
        nid = self.intern(name)
        tagger = _TAGGERS.get(name)
        add_name, add_parent, add_task = self.name.append, self.parent.append, self.task.append
        add_start, add_end, add_tag = self.start.append, self.end.append, self.tag.append
        ends, tags, stack, current = self.end, self.tag, self.stack, self.current
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_task(current[0])
            add_tag(0)
            add_end(0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tags[idx] = RAISED
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if tagger is not None:
                tags[idx] = tagger(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def child_cost_ns(self, reps: int = 20000, trials: int = 7) -> float:
        """Time one traced call adds to its caller outside the callee's own
        span: wrapper entry, the six appends, the stack and the return.
        Measured as (caller loop time - time inside callee spans - empty loop
        time) per call, median over trials, on a scratch tracer."""
        clock = time.perf_counter_ns
        costs = []
        for _ in range(trials):
            scratch = Tracer()
            leaf = scratch.wrap("leaf", lambda: None)
            t0 = clock()
            for _ in range(reps):
                pass
            t1 = clock()
            for _ in range(reps):
                leaf()
            t2 = clock()
            inside = sum(scratch.end) - sum(scratch.start)
            costs.append(((t2 - t1) - inside - (t1 - t0)) / reps)
        return max(0.0, sorted(costs)[trials // 2])

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span (for the benchmark's own roots)."""
        return self.wrap(name, fn)(*args)

    # --- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def install(self, bb) -> None:
        """Wrap every layer entry point of the imported bbgroups package."""
        mods = {name: sys.modules[f"{bb.__name__}.{name}"] for name in _MODULES}
        for layer, (cls_name, methods) in _METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for attr in methods:
                self._set(cls, attr, self.wrap(f"{layer}.{attr.strip('_')}", cls.__dict__[attr]))
        for cls_name in _SUBCLASS_INITS:
            cls = getattr(mods["oracle"], cls_name)
            self._set(cls, "__init__", self.wrap("oracle.init", cls.__dict__["__init__"]))
        cli = sys.modules[f"{bb.__name__}.cli"]
        self._set(cli, "dispatch", self.wrap("cli.dispatch", cli.dispatch))
        originals = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in _SKIP
                ):
                    originals[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        holders = [m for n, m in sys.modules.items() if n == bb.__name__ or n.startswith(bb.__name__ + ".")]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- output ------------------------------------------------------------

    def write(self, path: Path, meta: dict) -> None:
        """Spans as one binary file of columns plus a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = ("name", "parent", "task", "start", "end", "tag")
        header = dict(meta, spans=len(self.end), names=self.names,
                      columns=[(c, getattr(self, c).typecode) for c in cols])
        with open(path.with_suffix(".bin"), "wb") as fh:
            for c in cols:
                getattr(self, c).tofile(fh)
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")


# --- per-layer metrics -------------------------------------------------------

CONSTRUCT = ("oracle.init", "oracle.moebius_oracle", "oracle.build_backend")
BUILD = ("gf.init",)
ENUMERATE = ("oracle.enumerate",)
SCANS = tuple(
    f"subgroups.{f}" for f in ("centralizer", "conjugacy_class", "involution_classes", "normalizer_of_set", "sylow2")
)
POLAR = ("cartan.polar_decompose", "cartan.connectedness_path")
TRICKS = ("tricks.conjugate_by_sqrt", "tricks.double_conjugation")
GF_OPS = ("gf.mul", "gf.add", "gf.sub", "gf.inv")
_GROUPS = (CONSTRUCT, BUILD, ENUMERATE, SCANS, POLAR)


class Summary:
    """Per-name totals over the spans of tasks (task id >= 0), per-task mul
    counts, and outermost-span totals for the groups above.

    Each traced call costs its caller child_ns of wrapper time outside the
    callee's span.  That time is moved from the caller's self time to
    trace_ns (never below zero), so self times estimate the untraced ones
    and still add up, with trace_ns, to the task time."""

    def __init__(self, tr: Tracer, child_ns: float):
        names = tr.names
        ids = {nm: k for k, nm in enumerate(names)}
        get = lambda nm: ids.get(nm, -1)  # noqa: E731
        n = len(tr.end)
        kinds = len(names)
        self.count = [0] * kinds
        self.incl = [0] * kinds
        self.self_ns = [0] * kinds
        self.muls = [0] * kinds
        self.raised = [0] * kinds
        self.odd = [0] * kinds
        self.task_muls: dict[int, int] = {}
        self.cli = {"load": 0, "load_muls": 0, "op": 0, "op_muls": 0}
        self.trace_ns = 0.0
        child = array("q", bytes(8 * n))
        kids = array("I", bytes(4 * n))
        muls = array("I", bytes(4 * n))
        mul_id, root_id = get("oracle.mul"), get(ROOT)
        dispatch_id, load_id = get("cli.dispatch"), get("oracle.load_group_spec")
        grouped = {get(nm) for grp in _GROUPS for nm in grp} - {-1}
        hits: list[int] = []
        name, parent, task, start, end, tag = tr.name, tr.parent, tr.task, tr.start, tr.end, tr.tag
        # Children start after their parent, so a reverse pass sees every
        # child before its parent and can push durations and muls upwards.
        for idx in range(n - 1, -1, -1):
            k = name[idx]
            d = end[idx] - start[idx]
            m = muls[idx] + (k == mul_id)
            p = parent[idx]
            if p >= 0:
                child[p] += d
                kids[p] += 1
                muls[p] += m
            if k in grouped:
                hits.append(idx)
            if task[idx] < 0:
                continue
            if p >= 0 and name[p] == dispatch_id:
                key = "load" if k == load_id else "op"
                self.cli[key] += d
                self.cli[key + "_muls"] += m
            own = d - child[idx]
            cost = min(own, kids[idx] * child_ns)
            self.trace_ns += cost
            self.count[k] += 1
            self.incl[k] += d
            self.self_ns[k] += own - cost
            self.muls[k] += m
            t = tag[idx]
            if t == RAISED:
                self.raised[k] += 1
            elif t == ZETA_ODD:
                self.odd[k] += 1
            if k == root_id:
                self.task_muls[task[idx]] = m
        self.ids = ids
        self.names = names
        self.roots = self.count[root_id] if root_id >= 0 else 0
        # Outermost spans of each group: no ancestor from the same group.
        self.outer: dict[tuple, list[tuple[int, int]]] = {grp: [] for grp in _GROUPS}
        for grp in _GROUPS:
            gids = {get(nm) for nm in grp}
            for idx in hits:
                if name[idx] not in gids:
                    continue
                p = parent[idx]
                while p >= 0 and name[p] not in gids:
                    p = parent[p]
                if p < 0:
                    self.outer[grp].append((task[idx], end[idx] - start[idx]))

    def total(self, field: str, *names_: str) -> int:
        arr = getattr(self, field)
        return sum(arr[self.ids[nm]] for nm in names_ if nm in self.ids)

    def layer_self(self, layer: str) -> int:
        return sum(v for nm, v in zip(self.names, self.self_ns) if nm.split(".")[0] == layer)

    def outer_ns(self, grp: tuple, tasks_only: bool = True) -> tuple[int, int]:
        """(span count, summed ns) of the group's outermost spans."""
        spans = [d for t, d in self.outer[grp] if t >= 0 or not tasks_only]
        return len(spans), sum(spans)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


LAYERS = ("gf", "oracle", "powertools", "sampler", "bray", "tricks", "subgroups", "cartan", "cli", "bench")


def layer_metrics(s: Summary, speed: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per traced task unless the name says otherwise;
    times are multiplied by speed."""
    T = s.roots
    ms = lambda ns: _ratio(ns, T) / 1e6 * speed  # noqa: E731  per-task milliseconds
    per = lambda x: _ratio(x, T)  # noqa: E731
    built, build_ns = s.outer_ns(BUILD, tasks_only=False)
    made, made_ns = s.outer_ns(CONSTRUCT, tasks_only=False)
    polars, polar_ns = s.outer_ns(POLAR)
    zetas = s.total("count", "bray.zeta")
    tricks = s.total("count", *TRICKS)
    mul_calls = s.total("count", "oracle.mul")
    powers = s.total("count", "powertools.power")
    out = {
        "gf.build_s": (_ratio(build_ns, built) / 1e9 * speed, "s"),
        "gf.calls": (per(s.total("count", *GF_OPS)), "count"),
        "oracle.mul_self_us": (_ratio(s.total("self_ns", "oracle.mul"), mul_calls) / 1e3 * speed, "us"),
        "oracle.mul_self_ms": (ms(s.total("self_ns", "oracle.mul")), "ms"),
        "oracle.inv_calls": (per(s.total("count", "oracle.inv")), "count"),
        "oracle.identity_tests": (per(s.total("count", "oracle.is_identity")), "count"),
        "oracle.construct_s": (_ratio(made_ns, made) / 1e9 * speed, "s"),
        "oracle.enumerate_ms": (ms(s.outer_ns(ENUMERATE)[1]), "ms"),
        "sampler.draws": (per(s.total("count", "sampler.draw")), "count"),
        "powertools.power_calls": (per(powers), "count"),
        "powertools.muls_per_power": (_ratio(s.total("muls", "powertools.power"), powers), "count"),
        "bray.zeta_calls": (per(zetas), "count"),
        "bray.muls_per_zeta": (_ratio(s.total("muls", "bray.zeta"), zetas), "count"),
        "bray.odd_branch_ratio": (_ratio(s.total("odd", "bray.zeta"), zetas), "ratio"),
        "bray.zeta_audit_ms": (ms(s.total("incl", "bray.zeta_distribution_audit")), "ms"),
        "tricks.muls_per_sqrt": (_ratio(s.total("muls", TRICKS[0]), s.total("count", TRICKS[0])), "count"),
        "tricks.muls_per_double": (_ratio(s.total("muls", TRICKS[1]), s.total("count", TRICKS[1])), "count"),
        "tricks.defined_ratio": (_ratio(tricks - s.total("raised", *TRICKS), tricks), "ratio"),
        "tricks.burnside_ms": (ms(s.total("incl", "tricks.burnside_audit")), "ms"),
        "subgroups.closure_calls": (per(s.total("count", "subgroups.closure")), "count"),
        "subgroups.closure_muls": (per(s.total("muls", "subgroups.closure")), "count"),
        "subgroups.closure_ms": (ms(s.total("incl", "subgroups.closure")), "ms"),
        "subgroups.scan_ms": (ms(s.outer_ns(SCANS)[1]), "ms"),
        "cli.load_ms": (ms(s.cli["load"]), "ms"),
        "cli.construct_muls": (per(s.cli["load_muls"]), "count"),
        "cli.op_ms": (ms(s.cli["op"]), "ms"),
        "cli.op_muls": (per(s.cli["op_muls"]), "count"),
        "cli.other_ms": (ms(s.layer_self("cli")), "ms"),
        "cartan.polar_ms": (_ratio(polar_ns, polars) / 1e6 * speed, "ms"),
        "trace.task_ms": (ms(s.total("incl", ROOT)), "ms"),
        "trace.self_ms": (ms(s.trace_ns), "ms"),
    }
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.self_ms"] = (ms(s.layer_self(layer)), "ms")
    return out
