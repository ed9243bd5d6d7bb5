"""Command-line front end: catalog browsing, verification runs, moduli
sweeps, chain-complex checks, and moment-figure emission.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad usage or
configuration.  Numeric work is deterministic for a fixed configuration;
CSV and JSON artifacts are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import catalog as cat
from . import floer
from .moment_figure import (emit_moment_figure, figure_svg, write_figure_csvs)
from .verify import (SWEEP_FAMILIES, ToleranceProfile, default_profile,
                     patch_area, sweep_family, verify_quilt)

# the positive-integer keys; every other config-file value is a string,
# except h and h_grid, which from_namespace parses as heights
_COUNTS = ("samples", "grid")


@dataclass
class RunConfig:
    command: str = ""
    quilt: str | None = None
    family: str = "all"
    h: float | None = None
    h_grid: tuple[float, ...] = (0.15, 0.5, 1.0, 1.4)
    samples: int | None = None
    out: str | None = None
    report: str | None = None
    tamper: str | None = None
    side: str = "both"
    grid: int = 200

    @classmethod
    def from_namespace(cls, ns: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        file_values = {}
        if getattr(ns, "config", None):
            try:
                file_values = json.loads(Path(ns.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read config file: {exc}")
            unknown = set(file_values) - {f.name for f in fields(cls)}
            if unknown:
                raise UsageError(f"unknown config keys: {sorted(unknown)}")
            for name, value in file_values.items():
                kind = int if name in _COUNTS else str
                if name in ("h", "h_grid") or \
                        (value is None and getattr(cfg, name) is None):
                    continue
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise UsageError(f"config key {name} must be of type "
                                     f"{kind.__name__}, got {value!r}")
        for f in fields(cls):
            if f.name in file_values:
                setattr(cfg, f.name, file_values[f.name])
            ns_val = getattr(ns, f.name, None)
            if ns_val is not None:
                setattr(cfg, f.name, ns_val)
        grid = cfg.h_grid.split(",") if isinstance(cfg.h_grid, str) \
            else cfg.h_grid
        try:
            cfg.h_grid = tuple(float(v) for v in grid)
            if cfg.h is not None:
                cfg.h = float(cfg.h)
        except (TypeError, ValueError):
            raise UsageError(f"heights must be numbers: h={cfg.h!r}, "
                             f"h_grid={cfg.h_grid!r}")
        for h in cfg.h_grid + ((cfg.h,) if cfg.h is not None else ()):
            if not (0.0 < h < cat.HALF_PI):
                raise UsageError(f"height {h} outside (0, pi/2)")
        for name in _COUNTS:
            value = getattr(cfg, name)
            if value is not None and value < 1:
                raise UsageError(f"{name} must be a positive integer, got "
                                 f"{value}")
        if cfg.family not in SWEEP_FAMILIES:
            raise UsageError(f"unknown sweep family {cfg.family!r}")
        return cfg


class UsageError(ValueError):
    pass


def _profile_for(cfg: RunConfig, quilt: cat.Quilt) -> ToleranceProfile:
    tol = default_profile(quilt)
    return tol if cfg.samples is None else replace(tol, samples=cfg.samples)


def _parse_tamper(text: str | None):
    if not text:
        return None
    for key in ("seam", "boundary"):
        if text.startswith(key):
            try:
                return (key, float(text[len(key):]))
            except ValueError:
                break
    raise UsageError(f"cannot parse tamper spec {text!r} "
                     "(expected e.g. seam+0.01)")


def _write_report(report_dict: dict, cfg: RunConfig) -> None:
    if cfg.report:
        text = json.dumps(report_dict, indent=2, sort_keys=True)
        Path(cfg.report).parent.mkdir(parents=True, exist_ok=True)
        Path(cfg.report).write_text(text + "\n")


def cmd_catalog(cfg: RunConfig) -> int:
    for name in cat.catalog_ids(cfg.h):
        print(name)
    return 0


def _resolve(cfg: RunConfig):
    if not cfg.quilt:
        raise UsageError(f"{cfg.command} needs --quilt <catalog id>")
    try:
        return cat.resolve(cfg.quilt, h=cfg.h)
    except KeyError as exc:
        raise UsageError(f"unknown catalog id: {exc}")


def cmd_verify(cfg: RunConfig) -> int:
    obj = _resolve(cfg)
    if isinstance(obj, cat.AnalyticMap):
        raise UsageError(f"{cfg.quilt} is a bare strip; use `area` for "
                         "strips or pick a quilt id")
    tol = _profile_for(cfg, obj)
    report = verify_quilt(obj, tol, tamper=_parse_tamper(cfg.tamper))
    _write_report(report.to_dict(), cfg)
    print(report.to_json())
    return 0 if report.passed else 1


def cmd_area(cfg: RunConfig) -> int:
    obj = _resolve(cfg)
    entries = []
    for patch in [obj] if isinstance(obj, cat.AnalyticMap) else obj.patches:
        value, err = patch_area(patch)
        entries.append({"patch": patch.label, "value": value, "err": err})
    payload = {"id": cfg.quilt, "areas": entries,
               "total": sum(e["value"] for e in entries)}
    _write_report(payload, cfg)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    result = sweep_family(cfg.family, list(cfg.h_grid))
    payload = result.to_dict()
    _write_report(payload, cfg)
    for h, reports in result.reports.items():
        for rep in reports:
            status = "pass" if rep.passed else "FAIL"
            print(f"h={h:<6g} {rep.label:<44s} {status} "
                  f"total_area={rep.total_area:.6f}")
    for fam, diag in result.diagnostics.items():
        for key, value in diag.items():
            print(f"diagnostic {fam}.{key} = {value:.3e}")
    print("sweep:", "pass" if result.passed else "FAIL")
    return 0 if result.passed else 1


def cmd_floer(cfg: RunConfig) -> int:
    sides = {"cp1": [floer.FloerSide.CP1_GAMMA],
             "cp2": [floer.FloerSide.CP2_RP2],
             "both": [floer.FloerSide.CP1_GAMMA, floer.FloerSide.CP2_RP2]}
    if cfg.side not in sides:
        raise UsageError("--side must be cp1, cp2, or both")
    ok = True
    payload = {}
    for side in sides[cfg.side]:
        cx = floer.build_complex(side)
        sq = floer.differential_square(cx)
        name = side.value
        print(f"[{name}] differential (columns = source generators):")
        print(floer.format_matrix(cx.matrix()))
        print(f"[{name}] differential squared:")
        print(floer.format_matrix(sq))
        print(floer.format_provenance(cx))
        n_strips = sum(len(v) for v in cx.provenance.values())
        if side is floer.FloerSide.CP2_RP2:
            side_ok = bool((sq == np.eye(4, dtype=int)).all()) \
                and n_strips == 12
            print(f"[{name}] squares to identity with 12 strips: {side_ok}")
        else:
            side_ok = not sq.any() and n_strips == 8
            print(f"[{name}] squares to zero with 8 strips: {side_ok}")
        payload[name] = {"differential": cx.matrix().tolist(),
                         "square": sq.tolist(), "strips": n_strips,
                         "ok": side_ok}
        ok &= side_ok
    _write_report(payload, cfg)
    return 0 if ok else 1


def cmd_moment_plot(cfg: RunConfig) -> int:
    fig = emit_moment_figure(grid=cfg.grid)
    violation = fig.max_triangle_violation()
    worst_residual = max(
        float(np.max(np.abs(fig.u2_right_edge[:, 2]))),
        float(np.max(np.abs(fig.u2_bottom_edge[:, 2]))),
        float(np.max(np.abs(fig.u2_top_edge[:, 2]))),
        float(np.max(np.abs(fig.u1_segment[:, 2]))))
    sym = float(np.max(np.abs(fig.symmetry_pairs[:, :2]
                              - fig.symmetry_pairs[:, 2:])))
    outdir = Path(cfg.out or "moment_figure_out")
    paths = write_figure_csvs(fig, outdir)
    svg_path = outdir / "figure.svg"
    svg_path.write_text(figure_svg(fig))
    for p in paths + [svg_path]:
        print("wrote", p)
    print(f"triangle violation {violation:.3e}, worst layer residual "
          f"{worst_residual:.3e}, mirror asymmetry {sym:.3e}")
    ok = violation <= 1e-12 and worst_residual <= 1e-10 and sym <= 1e-12
    return 0 if ok else 1


def cmd_eight(cfg: RunConfig) -> int:
    ok = True
    for ident in ("quilt.acw.plus", "quilt.acw.minus"):
        quilt = cat.resolve(ident)
        report = verify_quilt(quilt, _profile_for(cfg, quilt))
        areas = ", ".join(f"{a['patch']}={a['value']:.8f}"
                          for a in report.areas)
        print(f"{ident}: pass={report.passed} total={report.total_area:.8f} "
              f"({areas})")
        ok &= report.passed
    return 0 if ok else 1


_COMMANDS = {
    "catalog": cmd_catalog,
    "verify": cmd_verify,
    "area": cmd_area,
    "sweep": cmd_sweep,
    "floer": cmd_floer,
    "moment-plot": cmd_moment_plot,
    "eight": cmd_eight,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiltlab",
        description="construct and verify the explicit holomorphic quilted "
                    "strips for the circle reduction of CP^2")
    parser.add_argument("--config", help="JSON file with RunConfig keys; "
                                         "flags override file values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list catalog identifiers")
    p.add_argument("--h", type=float, help="instantiate fibered families")

    for name, text in (("verify", "verify one quilt"),
                       ("area", "patch areas for a catalog object")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--quilt", required=False)
        p.add_argument("--h", type=float)
        p.add_argument("--report")
        if name == "verify":
            p.add_argument("--samples", type=int,
                           help="samples per seam and boundary edge")
            p.add_argument("--tamper", help="negative-control hook, "
                                            "e.g. seam+0.01")

    p = sub.add_parser("sweep", help="verify the fibered families over a "
                                     "height grid")
    p.add_argument("--family", choices=tuple(SWEEP_FAMILIES))
    p.add_argument("--h-grid", dest="h_grid",
                   help="comma-separated heights in (0, pi/2)")
    p.add_argument("--report")

    p = sub.add_parser("floer", help="print the mod-2 differentials and "
                                     "their squares")
    p.add_argument("--side", choices=("cp1", "cp2", "both"))
    p.add_argument("--report")

    p = sub.add_parser("moment-plot", help="emit moment-triangle figure "
                                           "data (CSV + SVG)")
    p.add_argument("--grid", type=int)
    p.add_argument("--out")

    sub.add_parser("eight", help="verify both explicit quilted half-planes")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig.from_namespace(ns)
        cfg.command = ns.command
        return _COMMANDS[ns.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
