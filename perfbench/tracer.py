"""Spans around the program's public functions, installed from outside.

The package imports functions by name (pf.transition is sde.transition,
mlpf.batch_cpf_run is cpf.batch_cpf_run, cli.batch_pf_run is
pf.batch_pf_run, ...), so a wrapper replaces every attribute of every
unbiasedpf module that is the original function object. Methods and the
lazily built generator of RngStream are replaced on their classes. Nothing
under src/ changes.

Each span records its name, thread, parent span, start, end and a work
quantity (particles, Euler steps or the (l, p) cell of a draw). Spans stay
in memory until the run ends. A span's self time is its duration minus the
part of it that its child spans cover. The parent of a span is the
innermost open span of its own thread or, for an outermost span of a
worker thread, the innermost open span of the main thread (the call that
started the pool).
"""

import functools
import importlib
import sys
import threading
import time

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(x):
    x = np.asarray(x)
    return x.shape[0] if x.ndim == 2 else 1


def _steps(args, kwargs):
    return _rows(_arg(args, kwargs, 1, "x")) * _arg(args, kwargs, 2, "level").steps_per_unit


def _coupled_steps(args, kwargs):
    s = _arg(args, kwargs, 3, "level").steps_per_unit
    return _rows(_arg(args, kwargs, 1, "x_fine")) * (s + s // 2)


def _cell(args, kwargs):
    return CELL * int(_arg(args, kwargs, 3, "l")) + int(_arg(args, kwargs, 4, "p"))


CELL = 64  # draw_xi quantity: CELL * l + p

# (span name, module, attribute path, work quantity of one call)
TARGETS = (
    ("rng.gen_init", "rng", "RngStream.gen", None),
    ("sde.transition", "sde", "transition", _steps),
    ("sde.coupled_transition", "sde", "coupled_transition", _coupled_steps),
    ("observation.log_g", "observation", "ObservationModel.log_g",
     lambda a, k: _rows(_arg(a, k, 1, "x"))),
    ("pf.normalized_weights", "pf", "normalized_weights", None),
    ("pf.multinomial_indices", "pf", "multinomial_indices",
     lambda a, k: int(_arg(a, k, 2, "size"))),
    ("pf.pf_step", "pf", "pf_step", None),
    ("pf.batch_pf_run", "pf", "batch_pf_run", None),
    ("cpf.wasserstein_resample", "cpf", "wasserstein_resample",
     lambda a, k: int(_arg(a, k, 5, "size"))),
    ("cpf.cpf_step", "cpf", "cpf_step", None),
    ("cpf.batch_cpf_run", "cpf", "batch_cpf_run", None),
    ("randomization.draw_xi", "randomization", "draw_xi", _cell),
    ("randomization.estimate", "randomization", "unbiased_estimate", None),
    ("mlpf.mlpf_estimate", "mlpf", "mlpf_estimate", None),
    ("cli.main", "cli", "main", None),
)
NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """Installs the wrappers on demand and keeps every span they record."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []  # one span list per thread, in order of first span
        self._originals = []
        self._main_stack = self._state()[1]

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], [])
            self._threads.append(st[0])
        return st

    def _span(self, nid, qty, fn, args, kwargs):
        spans, stack = self._state()
        parent = stack[-1] if stack else -1
        xparent = -1
        if parent < 0 and stack is not self._main_stack and self._main_stack:
            xparent = self._main_stack[-1]
        rec = [nid, parent, xparent, 0.0, 0.0, qty(args, kwargs) if qty else 0]
        stack.append(len(spans))
        spans.append(rec)
        rec[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            stack.pop()

    def _wrap(self, nid, qty, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(nid, qty, fn, args, kwargs)
        return wrapper

    def install(self):
        """Replace every traced function in every loaded unbiasedpf module."""
        owners = [importlib.import_module("unbiasedpf." + t[1]) for t in TARGETS]
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "unbiasedpf" or k.startswith("unbiasedpf."))]
        for nid, ((_, _, path, qty), owner) in enumerate(zip(TARGETS, owners)):
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, property):
                    new = property(self._lazy_getter(nid, orig.fget))
                else:
                    new = self._wrap(nid, qty, orig)
                self._originals.append((cls, attr, orig))
                setattr(cls, attr, new)
                continue
            orig = getattr(owner, path)
            new = self._wrap(nid, qty, orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._originals.append((m, name, orig))
                        setattr(m, name, new)

    def _lazy_getter(self, nid, fget):
        # RngStream.gen builds its generator on first use only; only that
        # first call is a span.
        def getter(obj):
            if obj._gen is not None:
                return obj._gen
            return self._span(nid, None, fget, (obj,), {})
        return getter

    def uninstall(self):
        for owner, name, orig in reversed(self._originals):
            setattr(owner, name, orig)
        self._originals.clear()

    def spans(self):
        """All spans as arrays: name, thread, parent, t0, t1, qty, self_s.

        parent is a global index (-1 for none); self_s subtracts the union
        of each span's child intervals from its duration.
        """
        rows, thread, parent = [], [], []
        base = 0
        for t, spans in enumerate(self._threads):
            for rec in spans:
                rows.append(rec)
                thread.append(t)
                # The main thread's spans come first, so a cross-thread
                # parent index is already global.
                parent.append(base + rec[1] if rec[1] >= 0 else rec[2])
            base += len(spans)
        arr = np.array([r[:1] + r[3:] for r in rows], dtype=float).reshape(-1, 4)
        out = {
            "name": arr[:, 0].astype(np.int16),
            "thread": np.array(thread, dtype=np.int32),
            "parent": np.array(parent, dtype=np.int64),
            "t0": arr[:, 1],
            "t1": arr[:, 2],
            "qty": arr[:, 3].astype(np.int64),
        }
        out["self_s"] = _self_times(out)
        return out


def _self_times(sp):
    dur = sp["t1"] - sp["t0"]
    covered = np.zeros_like(dur)
    par = sp["parent"]
    has = par >= 0
    same = has.copy()
    same[has] = sp["thread"][par[has]] == sp["thread"][has]
    np.add.at(covered, par[same], dur[same])
    # Children in other threads may overlap each other: cover their union.
    cross = np.flatnonzero(has & ~same)
    for p in np.unique(par[cross]):
        kids = cross[par[cross] == p]
        lo = np.maximum(sp["t0"][kids], sp["t0"][p])
        hi = np.minimum(sp["t1"][kids], sp["t1"][p])
        order = np.argsort(lo)
        end = -np.inf
        total = 0.0
        for a, b in zip(lo[order], hi[order]):
            a = max(a, end)
            if b > a:
                total += b - a
                end = b
        covered[p] += total
    return dur - covered


def summarize(sp):
    """Per span name: calls, self seconds, inclusive seconds, work quantity."""
    dur = sp["t1"] - sp["t0"]
    out = {}
    for nid, name in enumerate(NAMES):
        sel = sp["name"] == nid
        out[name] = {
            "count": int(sel.sum()),
            "self_s": float(sp["self_s"][sel].sum()),
            "incl_s": float(dur[sel].sum()),
            "qty": int(sp["qty"][sel].sum()),
        }
    return out


def draw_cells(sp):
    """Mean inclusive microseconds per draw_xi call for each (l, p) cell."""
    sel = sp["name"] == NAMES.index("randomization.draw_xi")
    dur = (sp["t1"] - sp["t0"])[sel]
    cells = sp["qty"][sel]
    return {
        (int(c) // CELL, int(c) % CELL): (int((cells == c).sum()), float(dur[cells == c].mean() * 1e6))
        for c in np.unique(cells)
    }
