"""In-memory spans around the public functions of fracgaussiso modules.

The wrappers live in the benchmark, so the library is measured as shipped.
``rebind`` replaces a function object under every name that holds it in the
loaded fracgaussiso modules (``from .x import f`` makes one binding per
importing module) or, for a name that is wrapped only where one module
binds it, under that module's name alone.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = ["Span", "Tracer", "NameStats", "rebind", "unbind", "layer_stats"]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fracgaussiso" or name.startswith("fracgaussiso."))]


def rebind(module, attr: str, make_wrapper, everywhere: bool = True) -> list:
    """Replace ``module.attr`` by ``make_wrapper(original)``; return the undo list.

    With ``everywhere`` the wrapper also replaces every other binding of the
    same object in the package, so calls through any module see it.
    """
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    undo = []
    for mod in (_package_modules() if everywhere else [module]):
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, original))
                setattr(mod, key, wrapper)
    return undo


def unbind(undo: list) -> None:
    for mod, key, original in reversed(undo):
        setattr(mod, key, original)


# What each span records beyond its timing: work done as counts, or a key
# whose distinct values measure repeated work.
def _mehler_points(args, kwargs, result):
    return {"points": int(np.size(result))}


def _crossings(args, kwargs, result):
    rec, _budget = result
    return {"crossings": len(rec.set.finite_endpoints)}


def _steps(position):
    def note(args, kwargs, result):
        return {"steps": int(args[position])}
    return note


def _coeff_key(args, kwargs, result):
    E, K = args[0], args[1]
    return {"key": f"{E}|{K}"}


def _system_size(args, kwargs, result):
    A = args[0]
    return {"unknowns": int(A.shape[0]), "nnz": int(A.nnz)}


# (span name, module, attribute, every binding?, note).  The kernels and
# the sparse solvers are wrapped where spectral and pde bind them, so the
# spans show which caller spent the time.
TARGETS = (
    ("extension.mehler_extension", "fracgaussiso.extension", "mehler_extension", True, _mehler_points),
    ("extension.level_set_with_budget", "fracgaussiso.extension", "level_set_with_budget", True, _crossings),
    ("extension.extension_field", "fracgaussiso.extension", "extension_field", True, None),
    ("backend.coeff_antideriv_table", "fracgaussiso.spectral", "coeff_antideriv_table", False, _steps(1)),
    ("backend.halfspace_series_sum", "fracgaussiso.spectral", "halfspace_series_sum", False, _steps(2)),
    ("spectral.perimeter_spectral", "fracgaussiso.spectral", "perimeter_spectral", True, None),
    ("spectral.coeff_table", "fracgaussiso.spectral", "coeff_table", True, _coeff_key),
    ("spectral.halfspace_series", "fracgaussiso.spectral", "halfspace_series", True, None),
    ("spectral.halfline_perimeter_reference", "fracgaussiso.spectral", "halfline_perimeter_reference", True, None),
    ("spectral.asymptotic_series_value", "fracgaussiso.spectral", "asymptotic_series_value", True, None),
    ("inequality.verify_main", "fracgaussiso.inequality", "verify_main", True, None),
    ("inequality.verify_levelset_closeness", "fracgaussiso.inequality", "verify_levelset_closeness", True, None),
    ("inequality.verify_levelset_bounds", "fracgaussiso.inequality", "verify_levelset_bounds", True, None),
    ("inequality.closeness_z_max", "fracgaussiso.inequality", "closeness_z_max", True, None),
    ("inequality.z_thresholds", "fracgaussiso.inequality", "z_thresholds", True, None),
    ("sets.asymmetry", "fracgaussiso.sets", "asymmetry", True, None),
    ("sets.ehrhard_symmetrize", "fracgaussiso.sets", "ehrhard_symmetrize", True, None),
    ("cli.main", "fracgaussiso.cli", "main", True, None),
    ("pde.pde_energy", "fracgaussiso.pde", "pde_energy", True, None),
    ("pde.pde_energy_cylinder", "fracgaussiso.pde", "pde_energy_cylinder", True, None),
    ("pde.spsolve", "fracgaussiso.pde", "spsolve", False, _system_size),
    ("pde.cg", "fracgaussiso.pde", "cg", False, _system_size),
)

# Called once per mesh node, so it is counted without a span.
COUNTED = (("gauss_core.phi.calls", "fracgaussiso.pde", "phi"),)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    case: int
    note: dict


class Tracer:
    """Records spans while installed; ``case`` is the current case id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.case = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list = []

    def _span(self, name, note, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            result, done = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                extra = note(args, kwargs, result) if (done and note) else {}
                if not done:
                    extra["raised"] = True
                self.spans.append(Span(sid, name, start, end, parent, self.case, extra))
        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for name, modname, attr, everywhere, note in TARGETS:
            module = importlib.import_module(modname)
            self._undo += rebind(module, attr, functools.partial(self._span, name, note),
                                 everywhere)
        for name, modname, attr in COUNTED:
            module = importlib.import_module(modname)
            self._undo += rebind(module, attr, functools.partial(self._counter, name),
                                 everywhere=False)

    def remove(self) -> None:
        unbind(self._undo)
        self._undo = []

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in sorted(self.spans, key=lambda sp: sp.id):
                fh.write(json.dumps({"id": sp.id, "name": sp.name, "start": sp.start,
                                     "end": sp.end, "parent": sp.parent, "case": sp.case,
                                     **sp.note}) + "\n")


@dataclass
class NameStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def layer_stats(spans: list[Span]) -> dict[str, NameStats]:
    """Calls, busy time and self time per span name.

    Self time is a span's duration minus the durations of its child spans;
    children of one span run one after another, so their sum is the time
    they cover.  No span calls a span of its own name, so busy time is the
    plain sum of durations.
    """
    child_s: Counter = Counter()
    for sp in spans:
        if sp.parent is not None:
            child_s[sp.parent] += sp.end - sp.start
    stats: dict[str, NameStats] = {}
    for sp in spans:
        st = stats.setdefault(sp.name, NameStats())
        dur = sp.end - sp.start
        st.calls += 1
        st.busy_s += dur
        st.self_s += dur - child_s[sp.id]
    return stats
