"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces every public function of every gridshock
module with a wrapper at each module binding that refers to it, so a call
is seen whichever module makes it (``gridshock.attack.solve_dcopf`` as
well as ``gridshock.dcopf.solve_dcopf``).  Module globals are looked up at
call time, so calls inside a module go through the wrappers too.  Each
span records its name, start, end, parent and a few values read from the
call's arguments and return value; spans stay in memory until the
benchmark writes them out.  ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import statistics
import time
import types

import numpy as np

MODULES = ("network", "simplex", "milp", "dcopf", "kkt", "attack",
           "scenarios", "reporting", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.info: dict = {}


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._args: list[tuple] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        mods = [importlib.import_module("gridshock")]
        mods += [importlib.import_module(f"gridshock.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in mods:
            for attr, fn in list(vars(mod).items()):
                if not (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__.startswith("gridshock.")):
                    continue
                if id(fn) not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[id(fn)] = self._wrap(f"{layer}.{fn.__name__}", fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def reset(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self._args.append(args)
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                span.info["error"] = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
                self._probe(span, args, kwargs, result)
                return result
            finally:
                self._stack.pop()
                self._args.pop()
        return traced

    def _parent_args(self) -> tuple:
        """Arguments of the caller's span (the last entry is the current call)."""
        return self._args[-2] if len(self._args) > 1 else ()

    def _probe(self, span: Span, args: tuple, kwargs: dict, result) -> None:
        """Read counts from the call's arguments and return value only."""
        info = span.info
        parent = self.spans[span.parent].name if span.parent >= 0 else ""
        if span.name == "simplex.solve_lp":
            info["iters"] = result.iterations
            info["status"] = result.status
            if parent == "dcopf.solve_dcopf":
                p = args[0]
                info["key"] = _digest(p.c, p.A, p.row_lb, p.row_ub, p.lb, p.ub)
            elif parent == "milp.solve_milp" and args[0] is self._parent_args()[0].lp:
                info["root"] = True
        elif span.name == "dcopf.solve_dcopf":
            net, demand, season, hour = args[:4]
            sizes = (net.num_generators, net.num_edges, net.num_edges)
            given = list(args[4:7]) + [None] * (7 - len(args[:7]))
            zs = []
            for pos, name in enumerate(("zg", "zf", "zt")):
                z = kwargs.get(name, given[pos])
                # no attack and an all-zero attack give the same dispatch LP
                zs.append(np.zeros(sizes[pos]) if z is None
                          else np.asarray(z, dtype=float) + 0.0)
            info["key"] = _digest(demand.demand[season][hour],
                                  demand.voll[season][hour], *zs)
        elif span.name == "milp.solve_milp":
            info["nodes"] = result.node_count
            info["gap"] = result.bound_gap
        elif span.name == "attack.solve_hourly_attack":
            info["nodes"] = result.nodes
            info["status"] = result.status
        elif span.name == "reporting.export_results":
            info["bytes"] = sum(e.stat().st_size for e in os.scandir(args[1])
                                if e.is_file())


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced workload iteration."""
    own = self_times(spans)
    names = [s.name for s in spans]

    def dur(i: int) -> float:
        return spans[i].end - spans[i].start

    def ids(name: str) -> list[int]:
        return [i for i, n in enumerate(names) if n == name]

    def outer(name: str) -> list[int]:
        """Calls of ``name`` not nested inside another call of it."""
        out = []
        for i in ids(name):
            p = spans[i].parent
            while p >= 0 and names[p] != name:
                p = spans[p].parent
            if p < 0:
                out.append(i)
        return out

    def within(i: int, name: str) -> bool:
        p = spans[i].parent
        while p >= 0:
            if names[p] == name:
                return True
            p = spans[p].parent
        return False

    def layer_self(layer: str) -> float:
        return sum(own[i] for i, n in enumerate(names) if n.startswith(layer + "."))

    lp = ids("simplex.solve_lp")
    parent_name = {i: names[spans[i].parent] if spans[i].parent >= 0 else "" for i in lp}
    disp = [i for i in lp if parent_name[i] == "dcopf.solve_dcopf"]
    mlp = [i for i in lp if parent_name[i] == "milp.solve_milp"]
    root = [i for i in mlp if spans[i].info.get("root")]
    disp_ms = [1e3 * dur(i) for i in disp]
    mlp_ms = [1e3 * dur(i) for i in mlp]
    opf = ids("dcopf.solve_dcopf")
    milp = ids("milp.solve_milp")
    hourly = ids("attack.solve_hourly_attack")
    hourly_s = [dur(i) for i in hourly]
    greedy = ids("attack.greedy_attack")
    refine = outer("attack.refine_budget_allocation")
    nodes = sum(spans[i].info["nodes"] for i in milp)
    milp_self = layer_self("milp")

    def distinct(idx: list[int]) -> int:
        return len({spans[i].info["key"] for i in idx})

    m = {
        "simplex.dispatch.calls": len(disp),
        "simplex.dispatch.s": sum(disp_ms) / 1e3,
        "simplex.dispatch.p50_ms": _quantile(disp_ms, 0.5),
        "simplex.dispatch.p90_ms": _quantile(disp_ms, 0.9),
        "simplex.dispatch.iters_per_solve":
            sum(spans[i].info["iters"] for i in disp) / max(len(disp), 1),
        "simplex.dispatch.distinct_frac": distinct(disp) / max(len(disp), 1),
        "simplex.milp.calls": len(mlp),
        "simplex.milp.s": sum(mlp_ms) / 1e3,
        "simplex.milp.p50_ms": _quantile(mlp_ms, 0.5),
        "simplex.milp.iters_per_solve":
            sum(spans[i].info["iters"] for i in mlp) / max(len(mlp), 1),
        "simplex.milp_root.s": sum(dur(i) for i in root),
        "simplex.milp_root.iters": sum(spans[i].info["iters"] for i in root),
        "simplex.errors": sum(1 for i in lp if "error" in spans[i].info),
        "milp.calls": len(milp),
        "milp.nodes": nodes,
        "milp.self_s": milp_self,
        "milp.nodes_per_s": nodes / sum(dur(i) for i in milp) if milp else 0.0,
        "milp.bound_gap": max((spans[i].info["gap"] for i in milp), default=0.0),
        "dcopf.calls": len(opf),
        "dcopf.self_s": layer_self("dcopf"),
        "dcopf.repeat_frac": 1.0 - distinct(opf) / len(opf) if opf else 0.0,
        "kkt.calls": len(ids("kkt.kkt_residuals")),
        "kkt.s": sum(dur(i) for i in outer("kkt.kkt_residuals")),
        "reporting.export.s": sum(dur(i) for i in ids("reporting.export_results")),
        "reporting.export.bytes":
            sum(spans[i].info["bytes"] for i in ids("reporting.export_results")),
        "cli.verify.s": sum(dur(i) for i in ids("cli.cmd_verify")),
        "attack.hourly.calls": len(hourly),
        "attack.hourly.p50_s": _quantile(hourly_s, 0.5),
        "attack.hourly.p90_s": _quantile(hourly_s, 0.9),
        "attack.greedy.calls": len(greedy),
        "attack.greedy.self_s": sum(own[i] for i in greedy),
        "attack.decompose.s": sum(dur(i) for i in outer("attack.decompose_attack")),
        "attack.refine.s": sum(dur(i) for i in refine),
        "attack.refine.hourly_evals":
            sum(1 for i in hourly if within(i, "attack.refine_budget_allocation")),
        "scenarios.run.s": sum(dur(i) for i in outer("scenarios.run_scenario")),
        "scenarios.sweep.s": sum(dur(i) for i in ids("scenarios.beta_sweep")),
        "scenarios.reruns": len(ids("attack.attack_with_allocation")),
    }
    return {k: float(v) for k, v in m.items()}


COUNT_METRICS = (
    "simplex.dispatch.calls", "simplex.dispatch.iters_per_solve",
    "simplex.dispatch.distinct_frac", "simplex.milp.calls",
    "simplex.milp.iters_per_solve", "simplex.milp_root.iters", "simplex.errors",
    "milp.calls", "milp.nodes", "milp.bound_gap", "dcopf.calls", "dcopf.repeat_frac",
    "kkt.calls", "reporting.export.bytes", "attack.hourly.calls", "attack.greedy.calls",
    "attack.refine.hourly_evals", "scenarios.reruns",
)


def unit(name: str) -> str:
    if name.endswith("nodes_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_frac", "gap")):
        return "frac"
    return "count"


def write_spans(path: str, iterations: list[list[Span]]) -> None:
    with open(path, "w") as fh:
        for it, spans in enumerate(iterations):
            for i, s in enumerate(spans):
                rec = {"iter": it, "id": i, "name": s.name, "start": s.start,
                       "end": s.end, "parent": s.parent}
                rec.update({k: v for k, v in s.info.items() if k != "key"})
                fh.write(json.dumps(rec) + "\n")
