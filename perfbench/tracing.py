"""Span tracer wrapped around polaron_lab's layer boundaries from the outside.

``Tracer.install`` replaces, by identity, every reference to a traced
callable: the public functions of each ``polaron_lab`` module, a few private
layer entry points (``pekar._spectral_gap``, ``fock_sim.Propagator``), and the
numpy/scipy FFT, LAPACK ``eigh``/``svd``, ARPACK ``eigsh`` and
``expm_multiply`` entry points. It patches the library module attributes and
every ``polaron_lab`` namespace that imported one of those names (``npolaron``
binds ``minimize_pekar`` at import, ``fock_sim`` binds ``eigh``), so calls made
either way are seen. ``uninstall`` restores the originals. No program file is
changed.

Spans live in memory as ``(name, start, end, parent, pass_id, size)`` tuples;
``size`` carries one count per span (FFT points, minimizer iterations). The
stack is process-global, so a traced process must run its work on one thread
(the benchmark pins ``POLARON_LAB_THREADS=1``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

_FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn", "fft2", "ifft2")


def _points(args, kwargs, result):
    return int(np.size(args[0])) if args else 0


def _iterations(args, kwargs, result):
    return len(result.energy_history) - 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                count = size(args, kwargs, result) if size is not None and result is not None else 0
                spans[index] = (name, start, end, parent, self.pass_id, count)

        return traced

    def _targets(self):
        """(owner, attribute, span name, size) for every traced callable."""
        import numpy.fft
        import numpy.linalg
        import scipy.fft
        import scipy.linalg
        import scipy.sparse.linalg

        import polaron_lab

        targets = []
        for lib in (numpy.fft, scipy.fft):
            targets += [(lib, n, "fft", _points) for n in _FFT_NAMES if hasattr(lib, n)]
        # np.linalg.norm(ord=2) reaches LAPACK through the private module's svd
        np_linalg_impl = sys.modules.get("numpy.linalg._linalg") or sys.modules.get(
            "numpy.linalg.linalg"
        )
        for owner in filter(None, (numpy.linalg, scipy.linalg, np_linalg_impl)):
            targets += [(owner, "eigh", "lapack.eigh", None), (owner, "svd", "lapack.svd", None)]
        targets += [
            (scipy.sparse.linalg, "eigsh", "arpack.eigsh", None),
            (scipy.sparse.linalg, "expm_multiply", "expm_multiply", None),
        ]
        modules = [polaron_lab] + [
            importlib.import_module(f"polaron_lab.{info.name}")
            for info in pkgutil.iter_modules(polaron_lab.__path__)
        ]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    size = _iterations if (short, name) == ("pekar", "minimize_pekar") else None
                    targets.append((mod, name, f"{short}.{name}", size))
        from polaron_lab import fock_sim, pekar

        targets += [
            (pekar, "_spectral_gap", "pekar.gap", None),
            (fock_sim.Propagator, "__init__", "fock_sim.propagator.init", None),
            (fock_sim.Propagator, "apply", "fock_sim.propagator.apply", None),
        ]
        return targets, modules

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets, modules = self._targets()
        wrappers = {}  # id(original) -> (original, wrapper); holding the original keeps ids unique
        for owner, attr, name, size in targets:
            original = vars(owner).get(attr)
            if original is None:
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = (original, self.wrap(name, original, size))
            self._patch(owner, attr, wrappers[id(original)][1])
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)][1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as JSON lines; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "pass", "size")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
        return path


def self_times(spans):
    """Duration of each span minus the time covered by its direct children."""
    out = [end - start for (_, start, end, *_rest) in spans]
    for _, start, end, parent, *_rest in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans):
    """Per-layer metrics (name -> (value, unit)) from one traced pass plus its set-up."""
    own = self_times(spans)
    names = [s[0] for s in spans]
    under_step = []
    for i, span in enumerate(spans):
        parent = span[3]
        under_step.append(names[i] == "lp_dynamics.step" or (parent >= 0 and under_step[parent]))

    def pick(name):
        return [i for i, n in enumerate(names) if n == name]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total_s(*span_names):
        return sum(dur(i) for n in span_names for i in pick(n))

    fft = pick("fft")
    steps = pick("lp_dynamics.step")
    dense = pick("lapack.eigh") + pick("lapack.svd")
    mini = pick("pekar.minimize_pekar")
    applies = pick("fock_sim.propagator.apply")
    weyl = pick("fock_sim.weyl_apply")
    expm = pick("expm_multiply")
    step_fft = sum(1 for i in fft if under_step[i])
    return {
        "spectral_core.fft.calls": (len(fft), "count"),
        "spectral_core.fft.points": (sum(spans[i][5] for i in fft), "count"),
        "spectral_core.fft.s": (sum(dur(i) for i in fft), "s"),
        "pekar.minimize_pekar.calls": (len(mini), "count"),
        "pekar.minimize_pekar.iterations": (sum(spans[i][5] for i in mini), "count"),
        "pekar.minimize_pekar.self_s": (sum(own[i] for i in mini), "s"),
        "pekar.gap.s": (total_s("pekar.gap"), "s"),
        "npolaron.minimize_pt.calls": (len(pick("npolaron.minimize_pt")), "count"),
        "npolaron.binding_scan.s": (total_s("npolaron.binding_scan"), "s"),
        "lp_dynamics.step.calls": (len(steps), "count"),
        "lp_dynamics.step.ms.p50": (_percentile([dur(i) * 1e3 for i in steps], 50), "ms"),
        "lp_dynamics.step.ms.p99": (_percentile([dur(i) * 1e3 for i in steps], 99), "ms"),
        "lp_dynamics.step.fft_per_step": (step_fft / len(steps) if steps else 0.0, "count"),
        "lp_dynamics.step.self_ms": (_percentile([own[i] * 1e3 for i in steps], 50), "ms"),
        "lp_dynamics.df_energy.s": (total_s("lp_dynamics.df_energy"), "s"),
        "fock_sim.assemble.calls": (len(pick("fock_sim.assemble")), "count"),
        "fock_sim.assemble.s": (total_s("fock_sim.assemble"), "s"),
        "fock_sim.propagator.init.s": (total_s("fock_sim.propagator.init"), "s"),
        "fock_sim.propagator.apply.calls": (len(applies), "count"),
        "fock_sim.propagator.apply.ms.p50": (_percentile([dur(i) * 1e3 for i in applies], 50), "ms"),
        "fock_sim.weyl_apply.calls": (len(weyl), "count"),
        "fock_sim.weyl_apply.ms.p50": (_percentile([dur(i) * 1e3 for i in weyl], 50), "ms"),
        "fock_sim.expm_multiply.calls": (len(expm), "count"),
        "fock_sim.expm_multiply.s": (sum(dur(i) for i in expm), "s"),
        "fock_sim.dense_eig.calls": (len(dense), "count"),
        "fock_sim.dense_eig.s": (sum(dur(i) for i in dense), "s"),
        "fock_sim.eigsh.s": (total_s("arpack.eigsh"), "s"),
        "fock_sim.ground_state.s": (total_s("fock_sim.ground_state"), "s"),
        "fock_sim.inequality_suite.s": (total_s("fock_sim.inequality_suite"), "s"),
        "runner.run.self_s": (sum(own[i] for i in pick("runner.run")), "s"),
        "io.save_field.s": (total_s("io.save_field"), "s"),
        "io.load_field.s": (total_s("io.load_field"), "s"),
    }
