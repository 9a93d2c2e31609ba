"""In-memory span tracer that wraps majorlens functions from outside.

``Tracer.install()`` replaces each traced function by a wrapper that records
a span (name, start, end, parent). Every module-level alias inside the
``majorlens`` package is rebound too, since modules import functions by name
(``scan`` and ``criteria`` call their own ``conditional_from_spectra`` and
``eigenvalues`` bindings). Self time, a span's duration minus the time its
child spans cover, is accumulated as spans close; the spans themselves stay
in compact arrays until ``save`` writes them out.
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# Layer boundaries: (module, attribute path) of every traced callable. A
# dotted path names a method; ``__post_init__`` is reported as ``init``.
TRACED = (
    ("cli", "run"),
    ("scan", "grid_scan"),
    ("scan", "classify_point"),
    ("scan", "bisect_threshold"),
    ("scan", "area_fractions"),
    ("scan", "scan_csv_lines"),
    ("scan", "RaySpec.spec_at"),
    ("criteria", "majorization_compare"),
    ("criteria", "disorder_check"),
    ("criteria", "peres_check"),
    ("criteria", "tsallis_sweep"),
    ("criteria", "tsallis_sweep_spectra"),
    ("criteria", "peaked_search"),
    ("criteria", "peaked_search_spectra"),
    ("criteria", "recommended_alphas"),
    ("entropy", "conditional_from_spectra"),
    ("entropy", "conditional"),
    ("entropy", "entropy"),
    ("families", "analytic_spectrum"),
    ("families", "analytic_reduced"),
    ("families", "family_partial_sums"),
    ("families", "violation_predictor"),
    ("families", "pt_min_eigenvalue"),
    ("families", "build"),
    ("families", "separability_witness"),
    ("hermitian", "eigenvalues"),
    ("hermitian", "Spectrum.from_values"),
    ("hermitian", "HermitianOperator.__post_init__"),
    ("bipartite", "partial_trace"),
    ("bipartite", "partial_transpose"),
    ("bipartite", "BipartiteDensity.__post_init__"),
    ("bipartite", "BipartiteDensity.from_json_dict"),
)


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__post_init__', 'init')}"


SPAN_NAMES = tuple(span_name(m, p) for m, p in TRACED)


class Tracer:
    """Span recorder; ``install`` and ``uninstall`` may alternate, the
    wrappers and the accumulated spans persist across them."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._bindings: list | None = None  # (owner, attribute, original, wrapper)

    def _wrap(self, nid: int, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                s_start[idx] = t0
                s_end[idx] = t1
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        return traced

    def _plan(self) -> list:
        """Every binding to replace; a TRACED callable that does not exist is
        skipped and reads 0 calls."""
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "majorlens" or n.startswith("majorlens."))]
        bindings = []
        for nid, (module_name, path) in enumerate(TRACED):
            module = sys.modules.get(f"majorlens.{module_name}")
            if module is None:
                raise RuntimeError(f"majorlens.{module_name} is not imported")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    bindings.append((cls, attr, raw, classmethod(self._wrap(nid, raw.__func__))))
                else:
                    bindings.append((cls, attr, raw, self._wrap(nid, raw)))
                continue
            fn = getattr(module, path, None)
            if fn is None:
                continue
            wrapper = self._wrap(nid, fn)
            for mod in package:
                bindings.extend((mod, attr, fn, wrapper)
                                for attr, value in vars(mod).items() if value is fn)
        return bindings

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._plan()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings or ()):
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        return {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_s)}

    def child_calls(self, parent: str, child: str) -> int:
        """Spans named ``child`` whose direct parent span is named ``parent``."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        pid, cid = self.names.index(parent), self.names.index(child)
        mask = (names == cid) & (parents >= 0)
        return int(np.count_nonzero(names[parents[mask]] == pid))

    def save(self, path) -> None:
        """Write every span as arrays: name id, parent index, start, end."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
            span_start=np.frombuffer(self.span_start, dtype=np.float64),
            span_end=np.frombuffer(self.span_end, dtype=np.float64),
        )
