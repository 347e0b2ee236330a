"""Spans around the library's public functions, and per-layer totals.

The traced run wraps every public function of the seven layer modules
(``linalg``, ``states``, ``povm``, ``schemes``, ``analysis``, ``verify``
and ``cli``) on each module attribute that names it, so that a call
through ``qelim.povm.eig_hermitian`` or ``qelim.verify.validate`` lands
in the wrapper. Nothing inside ``src/qelim`` changes. Spans are kept in
memory while the run lasts; a span is ``(name, start, end, parent, job,
work)``, where parent is the index of the enclosing span (-1 at the top
of a job) and work holds the counts computed from the call's arguments
or result.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "states", "povm", "schemes", "analysis", "verify", "cli")

_GROUPS = {
    "linalg.eigh_jacobi": "linalg.eig",
    "linalg.eig_hermitian": "linalg.eig",
    "linalg.min_eigenvalue": "linalg.eig",
    "linalg.kron": "linalg.kron",
    "linalg.kron_all": "linalg.kron",
    "povm.validate": "povm.validate",
    "povm.outcome_probabilities": "povm.probs",
    "povm.average_eliminated": "povm.probs",
    "verify.certify_one": "verify.certify",
    "verify.certify_two": "verify.certify",
    "verify.audit_bound": "verify.audit",
    "verify.monte_carlo": "verify.mc",
    "cli.main": "cli.main",
}
# Functions not listed above count toward their layer's default group.
_LAYER_GROUPS = {
    "linalg": "linalg.other",
    "states": "states.ensemble",
    "schemes": "schemes.build",
    "analysis": "analysis",
    "verify": "verify.other",
}


def group_of(name: str) -> str:
    """The per-layer group a function's spans count toward."""
    return _GROUPS.get(name) or _LAYER_GROUPS.get(name.split(".", 1)[0], name)


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _eig_elems(args, kwargs, result):
    return {"linalg.eig.elems": int(np.shape(_arg(args, kwargs, 0, "a"))[0]) ** 2}


def _validate_clicks(args, kwargs, result):
    m = _arg(args, kwargs, 0, "povm")
    return {"povm.clicks": sum(e.excludes.size for e in m.effects)}


def _probs_clicks(args, kwargs, result):
    m, ens = _arg(args, kwargs, 0, "povm"), _arg(args, kwargs, 1, "ensemble")
    return {"povm.clicks": len(m.effects) * ens.size}


def _effects(args, kwargs, result):
    return {"schemes.build.effects": len(result.effects)}


def grid_points(params: dict) -> int:
    """Objective evaluations a grid certifier made, from its report's params.

    certify_one scans grid_steps**3 points and then tries six coordinate
    steps per refinement round; certify_two scans grid_steps**2 points
    in each zoom round. A report without these params counts zero.
    """
    steps = params.get("grid_steps", 0)
    if "zoom_rounds" in params:
        return params["zoom_rounds"] * steps ** 2
    if "refine_iters" in params:
        return steps ** 3 + 6 * params["refine_iters"]
    return 0


def _certify_points(args, kwargs, result):
    return {"verify.certify.grid_points": grid_points(result.params)}


def _mc_shots(block_size):
    def measure(args, kwargs, result):
        shots = _arg(args, kwargs, 2, "shots")
        return {"verify.mc.shots": shots, "verify.mc.blocks": math.ceil(shots / block_size)}
    return measure


def _emitted_bytes(args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    if "--out" not in argv:
        return {}
    return {"cli.emit_bytes": os.path.getsize(argv[argv.index("--out") + 1])}


class Tracer:
    """Installs span-recording wrappers on the qelim package's modules.

    Spans are recorded only while ``job`` is set, so the benchmark's own
    checks, which call the same functions between jobs, leave no spans.
    """

    def __init__(self, package):
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []
        self._modules = [package] + [getattr(package, layer) for layer in LAYERS]
        self._measures = {
            "linalg.eigh_jacobi": _eig_elems,
            "linalg.eig_hermitian": _eig_elems,
            "linalg.min_eigenvalue": _eig_elems,
            "povm.validate": _validate_clicks,
            "povm.outcome_probabilities": _probs_clicks,
            "povm.average_eliminated": _probs_clicks,
            "verify.certify_one": _certify_points,
            "verify.certify_two": _certify_points,
            "verify.monte_carlo": _mc_shots(package.verify.BLOCK_SIZE),
            "cli.main": _emitted_bytes,
        }
        for fname in public_functions(package.schemes):
            self._measures[fname] = _effects

    def install(self) -> None:
        wrappers = {}
        for mod in self._modules[1:]:
            for qualname, fn in public_functions(mod).items():
                wrappers[fn] = self._wrap(qualname, fn, self._measures.get(qualname))
        for mod in self._modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, qualname, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (qualname, start, end, parent, tracer.job, None)
            if measure is not None:
                spans[idx] = (qualname, start, end, parent, tracer.job,
                              measure(args, kwargs, result))
            return result

        return wrapper


def public_functions(module) -> dict:
    """``{"layer.name": function}`` for the public functions a module defines."""
    layer = module.__name__.rsplit(".", 1)[-1]
    return {
        f"{layer}.{name}": obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], start), min(spans[c][2], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_totals(spans, selfs, indices) -> dict:
    """Per-group call counts, self times and work counts over some spans.

    indices selects the spans to total (say, those of one cycle); parent
    indices in a span refer to the whole list. A call is a span whose
    parent lies in another group, so an eigen-solve that goes
    eig_hermitian -> eigh_jacobi counts once, and work counts are summed
    over those outermost spans only. Self times are summed over every
    span, per group and per function.
    """
    out = defaultdict(float)
    for i in indices:
        name, _, _, parent, _, work = spans[i]
        group = group_of(name)
        out[f"{group}.self_s"] += selfs[i]
        if name != group:
            out[f"{name}.self_s"] += selfs[i]
        if parent < 0 or group_of(spans[parent][0]) != group:
            out[f"{group}.calls"] += 1
            for key, value in (work or {}).items():
                out[key] += value
    return dict(out)
