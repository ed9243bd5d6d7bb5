"""Tracing for the benchmark's traced mode.

Wrappers are installed from outside quiltlab, on the module attributes (and
``AnalyticMap`` methods) that the calling modules look up at call time, so
``quiltlab.catalog.log_f`` and ``quiltlab.analysis.log_f`` (the name
``boundary_modulus`` and ``f_eval`` use) are both traced.  Each call records
one span (name, start, end, parent) in flat in-memory arrays; the per-layer
metrics are derived from the spans when the run ends, and the spans are
written out as one ``.npz`` file.  Nothing is installed unless
``Tracer.install`` is called, and ``Tracer.uninstall`` restores every
original attribute.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from quiltlab import analysis, catalog, cli, floer, moment_figure, verify
from quiltlab.quadrature import BudgetExceededError

_ANALYSIS = ("log_f", "f_and_derivative", "boundary_modulus")
_GEOMETRY_IN_VERIFY = ("correspondence_residual_rows",
                       "lagrangian_residual_rows", "homogeneous_density",
                       "_unit_rows", "_fs_distance_rows")
_GEOMETRY_IN_FIGURE = ("moment_cp2_rows", "moment_cp1_lift_rows")
_VERIFY = ("seam_residual_profile", "boundary_residual_profile",
           "patch_area", "cr_residual_profile", "verify_quilt",
           "sweep_family")


def _sites():
    """(owner, attribute, span name) for every traced call site."""
    sites = []
    for owner in (catalog, analysis):
        for fn in _ANALYSIS:
            sites.append((owner, fn, f"analysis.{fn}"))
    for fn in ("integrate_line", "integrate_interval"):
        sites.append((verify, fn, f"quadrature.{fn}"))
    for meth in ("values", "values_and_derivs", "seam_rows"):
        sites.append((catalog.AnalyticMap, meth, f"catalog.{meth}"))
    for fn in _VERIFY:
        sites.append((verify, fn, f"verify.{fn}"))
    sites.append((verify, "_const_limit_diagnostics",
                  "verify.limit_diagnostics"))
    sites.append((verify, "_maslov1_limit_diagnostics",
                  "verify.limit_diagnostics"))
    for fn in _GEOMETRY_IN_VERIFY:
        sites.append((verify, fn, f"geometry.{fn}"))
    for fn in _GEOMETRY_IN_FIGURE:
        sites.append((moment_figure, fn, f"geometry.{fn}"))
    sites.append((floer, "build_complex", "floer.build_complex"))
    sites.append((cli, "emit_moment_figure",
                  "moment_figure.emit_moment_figure"))
    sites.append((cli, "write_figure_csvs", "moment_figure.write"))
    sites.append((cli, "figure_svg", "moment_figure.write"))
    sites.append((cli, "main", "cli.main"))
    return sites


class Tracer:
    """Span recorder.  Spans are appended in call order, so a span's index
    is larger than its parent's."""

    def __init__(self):
        self.names: list[str] = []
        self.site_of: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # counters gathered at the span boundaries, zero until called
        self.counts: dict[str, float] = dict.fromkeys(
            ("catalog.values.points", "catalog.values_and_derivs.points",
             "catalog.seam_rows.points", "quadrature.integrate_line.evals",
             "quadrature.integrate_interval.evals", "geometry.rows"), 0)
        self.unconverged = 0
        self.keys: set = set()
        self.keyed_calls = 0
        self._saved: list = []
        # time spent in the wrappers' own bookkeeping, outside the spans
        self._overhead = [0.0]

    # -- recording ---------------------------------------------------------
    def _wrap(self, fn, name: str, site: str, note=None):
        nid = len(self.names)
        self.names.append(name)
        self.site_of.append(site)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack
        overhead = self._overhead
        now = time.perf_counter

        def traced(*args, **kwargs):
            entered = now()
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = returned = now()
                stack.pop()
            if note is not None:
                note(args, kwargs, result)
            overhead[0] += (start[i] - entered) + (now() - returned)
            return result

        traced.__wrapped__ = fn
        return traced

    def _note_for(self, span: str):
        if span in ("analysis.log_f", "analysis.f_and_derivative"):
            def note(args, kwargs, result):
                sol = args[0]
                self.keys.add((span, sol.h, sol.settings, complex(args[1])))
                self.keyed_calls += 1
            return note
        if span.startswith("catalog."):
            key = span + ".points"

            def note(args, kwargs, result):
                self.counts[key] += np.size(args[1])
            return note
        if span.startswith("geometry."):
            rows_arg = 1 if span == "geometry.lagrangian_residual_rows" \
                else 0

            def note(args, kwargs, result):
                self.counts["geometry.rows"] += \
                    np.atleast_2d(np.asarray(args[rows_arg])).shape[0]
            return note
        if span.startswith("quadrature."):
            key = span + ".evals"

            def note(args, kwargs, result):
                self.counts[key] += result.evaluations
            return note
        return None

    def _boundary_modulus(self, fn):
        """Ask for the extrapolation details, record convergence and the
        argument, and hand the caller what it asked for."""
        def with_details(sol, x, details=False):
            value, info = fn(sol, x, details=True)
            if not info["converged"]:
                self.unconverged += 1
            self.keys.add(("analysis.boundary_modulus", sol.h, sol.settings,
                           float(x)))
            self.keyed_calls += 1
            return (value, info) if details else value
        return with_details

    def _quadrature(self, fn, span: str):
        key = span + ".evals"

        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BudgetExceededError as exc:
                self.counts[key] += exc.best.evaluations
                raise
        return counted

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, span in _sites():
            original = owner.__dict__[attr]
            fn = original
            if span == "analysis.boundary_modulus":
                fn = self._boundary_modulus(fn)
            elif span.startswith("quadrature."):
                fn = self._quadrature(fn, span)
            site = (f"{owner.__module__}.{owner.__name__}.{attr}"
                    if isinstance(owner, type)
                    else f"{owner.__name__}.{attr}")
            setattr(owner, attr,
                    self._wrap(fn, span, site, self._note_for(span)))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def arrays(self):
        return (np.array(self.names),
                np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=float),
                np.frombuffer(self.end, dtype=float))

    def save(self, path) -> None:
        names, nid, par, st, en = self.arrays()
        np.savez_compressed(path, names=names, sites=np.array(self.site_of),
                            name_id=nid, parent=par, start=st, end=en)

    def layer_metrics(self) -> dict[str, float]:
        """Per-span-name calls, self time, inclusive time and median
        duration, plus the counters gathered at the same boundaries."""
        names, nid, par, st, en = self.arrays()
        span_name = names[nid]
        dur = en - st
        child = np.zeros(dur.size)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        self_time = dur - child
        out: dict[str, float] = {}
        for name in sorted(set(self.names)):
            mask = span_name == name
            out[f"{name}.calls"] = int(np.count_nonzero(mask))
            out[f"{name}.self_s"] = float(np.sum(self_time[mask]))
            # no wrapped function calls itself, so summed durations are
            # inclusive times without double counting
            out[f"{name}.s"] = float(np.sum(dur[mask]))
            out[f"{name}.p50_ms"] = \
                float(np.median(dur[mask]) * 1e3) if mask.any() else 0.0
        out.update(self.counts)
        out["analysis.boundary_modulus.unconverged"] = self.unconverged
        out["analysis.distinct_share"] = \
            len(self.keys) / self.keyed_calls if self.keyed_calls else 0.0
        geometry = [n for n in set(self.names) if n.startswith("geometry.")]
        out["geometry.self_s"] = sum(out[f"{n}.self_s"] for n in geometry)
        out["moment_figure.write_s"] = out["moment_figure.write.s"]
        out["trace.overhead_s"] = self._overhead[0]
        return out
