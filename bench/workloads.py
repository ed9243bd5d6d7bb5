"""The benchmark workloads: seeded inputs, the operations of each round, and
the checks that apply to each operation's output.

A workload object is built in the set-up phase.  ``once()`` lists the
operations run once per run, ``round_ops(r)`` the operations of round r
(every round has the same make-up), ``execute`` runs one operation through
quiltlab's public API and returns its raw output, and ``check`` returns the
problems found in that output.  ``references`` computes what the checks
need beyond the output itself, outside the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

from quiltlab import analysis, catalog, cli, verify

import checks

HALF_PI = math.pi / 2.0


class Sweep:
    """One operation is the criterion-8 job at one height:
    ``sweep_family("all", [h], limit_checks=False)``; the limit diagnostics
    run once per run.  Heights are seeded in a narrow band around h = 0.5
    because one height costs 31 s to 52 s across [0.15, 1.4] and a run has
    time for one of them."""

    name = "sweep"
    main_kind = "height"
    H_BAND = (0.45, 0.55)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def once(self):
        return [("diagnostics", None)]

    def round_ops(self, r: int):
        rng = random.Random(f"sweep:{self.seed}:{r}")
        return [("height", rng.uniform(*self.H_BAND))]

    def execute(self, op):
        kind, h = op
        if kind == "diagnostics":
            return verify.sweep_family("all", [])
        return verify.sweep_family("all", [h], limit_checks=False)

    def references(self, ops):
        return {}

    def check(self, op, output, refs):
        kind, h = op
        if kind == "diagnostics":
            return checks.check_sweep_diagnostics(output)
        return checks.check_sweep_height(h, output)


class Points:
    """One operation at one (h, x, y): log_f at z = x + iy, f_and_derivative
    at z, f_eval on the bottom edge at x and boundary_modulus at x.  Every
    argument is new, so no call repeats; one point in five sits at
    h = pi/2, where f = exp(z) + 1 is known in closed form.

    A point's cost grows with x (about 15 ms at x = -20 and 30 ms to 55 ms
    at x = 20 on 2 shared vCPUs), so plain uniform draws would let the
    share of costly points, and with it the median, differ from run to run.
    Each round therefore draws h and x stratified: the 16 points below
    h = pi/2 take one of 16 equal h strata and one of 16 equal x strata, and
    the 4 at h = pi/2 one of 4 x strata, each stratum paired at random."""

    name = "points"
    main_kind = "point"
    PER_ROUND = 20
    FULL_HEIGHT_EVERY = 5
    H_RANGE = (0.1, HALF_PI)
    X_RANGE = (-20.0, 20.0)
    REFERENCE_ROUNDS = 4     # rounds whose flagged point gets an mpmath check

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.settings = analysis.QuadratureSettings()

    def once(self):
        return []

    @staticmethod
    def _stratified(rng, lo, hi, n):
        """One uniform draw from each of n equal strata of [lo, hi], in
        random order."""
        width = (hi - lo) / n
        return [lo + width * (j + rng.random())
                for j in rng.sample(range(n), n)]

    def round_ops(self, r: int):
        rng = random.Random(f"points:{self.seed}:{r}")
        full = [k for k in range(self.PER_ROUND)
                if k % self.FULL_HEIGHT_EVERY == 0]
        inner = [k for k in range(self.PER_ROUND) if k not in full]
        # one point per round, never at h = pi/2, gets the mpmath check
        flagged = rng.choice(inner)
        h_of = dict(zip(inner, self._stratified(rng, *self.H_RANGE,
                                                len(inner))))
        h_of.update(dict.fromkeys(full, HALF_PI))
        x_of = dict(zip(inner, self._stratified(rng, *self.X_RANGE,
                                                len(inner))))
        x_of.update(zip(full, self._stratified(rng, *self.X_RANGE,
                                               len(full))))
        ops = []
        for k in range(self.PER_ROUND):
            h, x = h_of[k], x_of[k]
            sol = analysis.PoissonSolution(h, +1, self.settings)
            y = h * rng.uniform(0.05, 0.95)
            ops.append(("point", (r, k, sol, x, y, k == flagged)))
        return ops

    def execute(self, op):
        _, (r, k, sol, x, y, flagged) = op
        z = complex(x, y)
        return (analysis.log_f(sol, z), analysis.f_and_derivative(sol, z),
                analysis.f_eval(sol, complex(x, 0.0)),
                analysis.boundary_modulus(sol, x))

    def references(self, ops):
        refs = {}
        for _, (r, k, sol, x, y, flagged) in ops:
            if flagged and r < self.REFERENCE_ROUNDS and (r, k) not in refs:
                refs[(r, k)] = checks.reference_log_f(sol.h, complex(x, y))
        return refs

    def check(self, op, output, refs):
        _, (r, k, sol, x, y, flagged) = op
        return checks.check_point(sol.h, x, y, self.settings.abs_tol, output,
                                  refs.get((r, k)))


class ClosedForm:
    """One operation is one round of the closed-form checks: verify_quilt
    on both explicit quilted half-planes and on the four const quilts at a
    seeded height, patch_area on the 20 rigid strips, and the CLI's
    ``floer`` and ``moment-plot`` commands.  No Herglotz integral runs."""

    name = "closed_form"
    main_kind = "round"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"closed_form:{seed}")
        self.h = rng.uniform(0.15, 1.4)
        self.acw = [catalog.make_acw_quilt(+1), catalog.make_acw_quilt(-1)]
        self.const = [catalog.make_const_projection_quilt(self.h, s1, s2)
                      for s1 in (+1, -1) for s2 in (+1, -1)]
        self.strips = catalog.all_floer_strips()
        self.workdir = workdir
        self.first_csvs = None

    def once(self):
        return []

    def round_ops(self, r: int):
        return [("round", r)]

    def execute(self, op):
        figdir = self.workdir / "figure"
        floer_report = self.workdir / "floer.json"
        out = {
            "acw": [verify.verify_quilt(q) for q in self.acw],
            "const": [verify.verify_quilt(q) for q in self.const],
            "strips": [(s.label, *verify.patch_area(s))
                       for s in self.strips],
        }
        with contextlib.redirect_stdout(io.StringIO()):
            floer_code = cli.main(["floer", "--report", str(floer_report)])
            figure_code = cli.main(["moment-plot", "--out", str(figdir)])
        out["floer"] = (floer_code, json.loads(floer_report.read_text()))
        files = {p.name: p.read_bytes() for p in sorted(figdir.glob("*.csv"))}
        if self.first_csvs is None:
            self.first_csvs = files
        elif files == self.first_csvs:
            files = self.first_csvs     # one copy, so memory stays flat
        out["figure"] = (figure_code, files)
        return out

    def references(self, ops):
        return {}

    def check(self, op, output, refs):
        problems = []
        for rep in output["acw"]:
            problems += checks.check_quilt_report(
                rep, checks.ACW_AREAS, checks.ACW_AREA_TOL)
        for rep in output["const"]:
            problems += checks.check_quilt_report(
                rep, None, verify.STRICT_PROFILE.area_tol)
        problems += checks.check_strip_areas(output["strips"])
        problems += checks.check_floer(*output["floer"])
        code, files = output["figure"]
        problems += checks.check_moment_csvs(code, files, self.first_csvs)
        return problems


WORKLOADS = {w.name: w for w in (Sweep, Points, ClosedForm)}
