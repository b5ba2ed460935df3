"""Spans around calls into the package's layers, recorded from outside.

Every public function of a layer module is wrapped in each package module
namespace that holds a reference to it: ``perturbation`` imports
``assemble_Mn`` by name, and ``master``, ``langevin`` and ``timedomain``
import ``ensure_valid`` by name, so patching only the defining module would
silently miss those calls.  Spans are kept in typed arrays in memory, each
with its parent span and the operating-point id, and written out when the
run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "floqheat"
LAYERS = ("model", "blocktri", "master", "langevin", "timedomain",
          "perturbation", "scenarios")


def _dense_lu_flops(args, kwargs, result):
    # complex LU of an n x n operator: 8/3 n^3 real flops
    n = result.shape[0]
    return 8.0 / 3.0 * n**3


def _thomas_flops(args, kwargs, result):
    # per block row: two block LUs (elimination and back substitution),
    # one block solve with b right-hand sides and one block product
    diag = args[0]
    b = diag[0].shape[0]
    return len(diag) * (2.0 * 8.0 / 3.0 + 16.0) * b**3


# values taken from a call's arguments or result, by span name
HOOKS = {
    "blocktri.assemble_dense": _dense_lu_flops,
    "blocktri.solve_thomas": _thomas_flops,
    "master.converged_power_matrix": lambda a, k, r: r[1],
    "timedomain.evolve_to_cycle": lambda a, k, r: (r.periods_used, len(r.t) - 1),
}


class Tracer:
    """Records spans between ``install`` and ``uninstall``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.point = array("q")
        self.start = array("d")
        self.end = array("d")
        self.values = []            # (span index, hook value)
        self.point_id = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.point.append(self.point_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                self.values.append((idx, hook(args, kwargs, result)))
            return result

        return traced

    def install(self):
        """Replace every public layer function in every package namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            targets += [(f"{layer}.{attr}", fn) for attr, fn in vars(mod).items()
                        if not attr.startswith("_") and callable(fn)
                        and not inspect.isclass(fn)
                        and getattr(fn, "__module__", None) == mod.__name__]
        for name, fn in targets:
            traced = self._wrap(name, fn)
            for ns in modules:
                for key in [k for k, v in vars(ns).items() if v is fn]:
                    self._patches.append((ns, key, fn))
                    setattr(ns, key, traced)

    def uninstall(self):
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches = []

    def __len__(self):
        return len(self.start)

    def table(self, lo, hi):
        """Spans [lo, hi) as arrays (name, parent name, duration, self time).

        Top-level spans have the parent name ''.  Self time is a span's
        duration minus the durations of its direct children.
        """
        ids = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)[lo:hi]
        dur = (np.array(self.end, dtype=np.float64)[lo:hi]
               - np.array(self.start, dtype=np.float64)[lo:hi])
        child = parent >= lo
        self_time = dur - np.bincount(parent[child] - lo, weights=dur[child],
                                      minlength=len(dur))
        names = np.array(self.names + [""])
        pid = np.where(parent >= 0, ids[np.maximum(parent, 0)], len(self.names))
        return names[ids[lo:hi]], names[pid], dur, self_time

    def hook_values(self, name, lo, hi):
        nid = self._ids.get(name)
        return [v for idx, v in self.values
                if lo <= idx < hi and self.name_id[idx] == nid]

    def write(self, path):
        """All spans as compressed arrays: names, name_id, parent, point, start, end."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            point=np.array(self.point, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64))
