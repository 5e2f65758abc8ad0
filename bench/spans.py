"""In-memory span recorder and the hooks that feed it.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (or -1).  Hooks are installed by rebinding the public names a
module calls through (``cli.sweep``, ``moment_systems.eigenvalues``, ...), so
the package itself is never edited.  A name that a later refactor removes is
skipped: its layer then reports zero calls instead of failing the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: (calling module, public name it calls through, span name).
HOOKS = (
    ("cli", "run_ensemble", "trajectory.run_ensemble"),
    ("cli", "sweep", "phase_diagram.sweep"),
    ("cli", "export_phase_csv", "phase_diagram.export"),
    ("cli", "evolve", "moment_systems.evolve"),
    ("cli", "build_moment_system", "moment_systems.build"),
    ("cli", "steady_state", "moment_systems.steady_state"),
    ("cli", "lowpass_cascade", "filters.build"),
    ("cli", "bandpass", "filters.build"),
    ("cli", "kernel_filter", "filters.build"),
    ("trajectory", "lowpass_cascade", "filters.build"),
    ("trajectory", "bandpass", "filters.build"),
    ("phase_diagram", "build_moment_system", "moment_systems.build"),
    ("phase_diagram", "steady_state", "moment_systems.steady_state"),
    ("moment_systems", "integrate_affine", "numerics.integrate"),
    ("moment_systems", "eigenvalues", "numerics.eig"),
    ("moment_systems", "solve_linear", "numerics.solve"),
)


class Recorder:
    """Spans kept in memory, plus what a few hooks note about results."""

    def __init__(self):
        self.spans = []
        self.values = {}
        self.records = []  # TrajectoryRecords returned inside spans
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name):
        entry = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(entry)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            entry[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result)`` runs outside it."""
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out
        return traced

    def hook(self, name, fn):
        """``wrap`` plus the capture of what ``run_ensemble`` returns."""
        after = self.records.append if name == "trajectory.run_ensemble" else None
        return self.wrap(name, fn, after)

    # -- installing and removing hooks --------------------------------------

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, pkg):
        """Hook the package's modules (``pkg`` is the imported ``filtercool``)."""
        for mod_name, attr, span_name in HOOKS:
            mod = getattr(pkg, mod_name, None)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._rebind(mod, attr, self.hook(span_name, fn))

        # phase_diagram reaches the closed forms through its private table.
        table = getattr(pkg.phase_diagram, "_ENERGY_FN", None) or {}
        for kind, fn in list(table.items()):
            self._undo.append((table, kind, fn))
            table[kind] = self.wrap("analytics.energy", fn)

        # phase_diagram calls numpy.linalg.eigvals through its own ``np``.
        np_mod = getattr(pkg.phase_diagram, "np", None)
        if np_mod is not None:
            linalg = _Proxy(np_mod.linalg, eigvals=self.wrap("numerics.eig", np_mod.linalg.eigvals))
            self._rebind(pkg.phase_diagram, "np", _Proxy(np_mod, linalg=linalg))

        noise = getattr(pkg.numerics, "NoiseStream", None)
        for attr in ("normal", "generator"):
            fn = getattr(noise, attr, None)
            if fn is not None:
                after = self._note_block if attr == "normal" else None
                self._rebind(noise, attr, self.wrap("numerics.noise", fn, after))

    def _note_block(self, out):
        key = "numerics.noise_max_block_bytes"
        self.values[key] = max(self.values.get(key, 0), getattr(out, "nbytes", 0))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- reading the spans ---------------------------------------------------

    def _has_ancestor(self, idx, name):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def totals(self, window_start):
        """Per span name: outermost calls, their total and self seconds.

        A span nested in a span of the same name (``NoiseStream.normal``
        calling ``generator``) is folded into the outer one.  Self time is a
        span's duration minus that of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if start < window_start or self._has_ancestor(idx, name):
                continue
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_s + end - start - child_time[idx])
        roots = sum(end - start for _, start, end, parent in self.spans
                    if parent < 0 and start >= window_start)
        return out, roots

    def count_within(self, name, ancestor):
        return sum(1 for idx, span in enumerate(self.spans)
                   if span[0] == name and self._has_ancestor(idx, ancestor))


class _Proxy:
    """Forwards attribute reads to ``target`` except for the overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)
