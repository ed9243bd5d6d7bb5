"""Command-line front end: catalog browsing, verification runs, moduli
sweeps, chain-complex checks, and moment-figure emission.

argparse parses every value once: each flag's ``type=`` and ``choices=``
check it.  A ``--config`` JSON file supplies the chosen command's defaults,
keyed by its flag names (``h_grid`` for ``--h-grid``), and each value passes
through the same flag's type and choices, so flags override the file.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad usage or
configuration.  Numeric work is deterministic for a given command line;
CSV and JSON artifacts are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import catalog as cat
from . import floer
from .moment_figure import (emit_moment_figure, figure_svg, write_figure_csvs)
from .verify import (SWEEP_FAMILIES, json_text, patch_area, sweep_family,
                     verify_quilt)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a parse error as one ``UsageError`` line instead of usage
    text and an exit."""

    def error(self, message):
        raise UsageError(message)


def _height(text: str) -> float:
    try:
        h = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"height must be a number, got "
                                         f"{text!r}")
    if not 0.0 < h < cat.HALF_PI:
        raise argparse.ArgumentTypeError(f"height {h} outside (0, pi/2)")
    return h


def _heights(text: str) -> tuple[float, ...]:
    return tuple(_height(v) for v in text.split(","))


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got "
                                         f"{text!r}")
    return n


def _parse_tamper(text: str) -> tuple[str, float]:
    for key in ("seam", "boundary"):
        if text.startswith(key):
            try:
                return (key, float(text[len(key):]))
            except ValueError:
                break
    raise argparse.ArgumentTypeError(f"cannot parse tamper spec {text!r} "
                                     "(expected e.g. seam+0.01)")


def _apply_config(command: argparse.ArgumentParser, path: str) -> None:
    """Make the config file's values the command's defaults.  Each value is
    parsed as its flag's text: a JSON number stands for its decimal text and
    a list for its comma-joined items, and a flag that parses to a string
    takes only a JSON string.  null leaves the flag unset."""
    try:
        values = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    if not isinstance(values, dict):
        raise UsageError("config file must hold a JSON object")
    flags = vars(command.parse_args([]))
    unknown = set(values) - set(flags)
    if unknown:
        raise UsageError(f"unknown config keys for {command.prog}: "
                         f"{sorted(unknown)}")
    for key, value in values.items():
        if value is None:
            continue
        text = ",".join(map(str, value)) if isinstance(value, list) \
            else str(value)
        flag = "--" + key.replace("_", "-")
        parsed = getattr(command.parse_args([f"{flag}={text}"]), key)
        kinds = (str,) if isinstance(parsed, str) else \
            (list, str) if isinstance(parsed, tuple) else (int, float, str)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise UsageError(f"config key {key} takes "
                             f"{' or '.join(k.__name__ for k in kinds)}, "
                             f"got {value!r}")
        command.set_defaults(**{key: parsed})


def _write_report(report_dict: dict, path: str | None) -> None:
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json_text(report_dict) + "\n")


def cmd_catalog(args: argparse.Namespace) -> int:
    for name in cat.catalog_ids(args.h):
        print(name)
    return 0


def _resolve(args: argparse.Namespace):
    if not args.quilt:
        raise UsageError(f"{args.command} needs --quilt <catalog id>")
    try:
        return cat.resolve(args.quilt, h=args.h)
    except KeyError as exc:
        raise UsageError(f"unknown catalog id: {exc}")


def cmd_verify(args: argparse.Namespace) -> int:
    obj = _resolve(args)
    if isinstance(obj, cat.AnalyticMap):
        raise UsageError(f"{args.quilt} is a bare strip; use `area` for "
                         "strips or pick a quilt id")
    report = verify_quilt(obj, tamper=args.tamper)
    _write_report(report.to_dict(), args.report)
    print(report.to_json())
    return 0 if report.passed else 1


def cmd_area(args: argparse.Namespace) -> int:
    obj = _resolve(args)
    entries = []
    for patch in [obj] if isinstance(obj, cat.AnalyticMap) else obj.patches:
        value, err = patch_area(patch)
        entries.append({"patch": patch.label, "value": value, "err": err})
    payload = {"id": args.quilt, "areas": entries,
               "total": sum(e["value"] for e in entries)}
    _write_report(payload, args.report)
    print(json_text(payload))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    result = sweep_family(args.family, list(args.h_grid))
    payload = result.to_dict()
    _write_report(payload, args.report)
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


_SIDES = {"cp1": [floer.FloerSide.CP1_GAMMA],
          "cp2": [floer.FloerSide.CP2_RP2],
          "both": [floer.FloerSide.CP1_GAMMA, floer.FloerSide.CP2_RP2]}


def cmd_floer(args: argparse.Namespace) -> int:
    ok = True
    payload = {}
    for side in _SIDES[args.side]:
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
    _write_report(payload, args.report)
    return 0 if ok else 1


def cmd_moment_plot(args: argparse.Namespace) -> int:
    fig = emit_moment_figure(grid=args.grid)
    violation = fig.max_triangle_violation()
    worst_residual = max(
        float(np.max(np.abs(fig.u2_right_edge[:, 2]))),
        float(np.max(np.abs(fig.u2_bottom_edge[:, 2]))),
        float(np.max(np.abs(fig.u2_top_edge[:, 2]))),
        float(np.max(np.abs(fig.u1_segment[:, 2]))))
    sym = float(np.max(np.abs(fig.symmetry_pairs[:, :2]
                              - fig.symmetry_pairs[:, 2:])))
    outdir = Path(args.out)
    paths = write_figure_csvs(fig, outdir)
    svg_path = outdir / "figure.svg"
    svg_path.write_text(figure_svg(fig))
    for p in paths + [svg_path]:
        print("wrote", p)
    print(f"triangle violation {violation:.3e}, worst layer residual "
          f"{worst_residual:.3e}, mirror asymmetry {sym:.3e}")
    ok = violation <= 1e-12 and worst_residual <= 1e-10 and sym <= 1e-12
    return 0 if ok else 1


def cmd_eight(args: argparse.Namespace) -> int:
    ok = True
    for ident in ("quilt.acw.plus", "quilt.acw.minus"):
        report = verify_quilt(cat.resolve(ident))
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


def build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The top-level parser and the subparsers action that holds one
    parser per command in its ``choices``."""
    parser = _Parser(
        prog="quiltlab",
        description="construct and verify the explicit holomorphic quilted "
                    "strips for the circle reduction of CP^2")
    parser.add_argument("--config", help="JSON file of the command's flag "
                                         "values; flags override the file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list catalog identifiers")
    p.add_argument("--h", type=_height, help="instantiate fibered families")

    for name, text in (("verify", "verify one quilt"),
                       ("area", "patch areas for a catalog object")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--quilt")
        p.add_argument("--h", type=_height)
        p.add_argument("--report")
        if name == "verify":
            p.add_argument("--tamper", type=_parse_tamper,
                           help="negative-control hook, e.g. seam+0.01")

    p = sub.add_parser("sweep", help="verify the fibered families over a "
                                     "height grid")
    p.add_argument("--family", choices=tuple(SWEEP_FAMILIES), default="all")
    p.add_argument("--h-grid", dest="h_grid", type=_heights,
                   default=(0.15, 0.5, 1.0, 1.4),
                   help="comma-separated heights in (0, pi/2)")
    p.add_argument("--report")

    p = sub.add_parser("floer", help="print the mod-2 differentials and "
                                     "their squares")
    p.add_argument("--side", choices=tuple(_SIDES), default="both")
    p.add_argument("--report")

    p = sub.add_parser("moment-plot", help="emit moment-triangle figure "
                                           "data (CSV + SVG)")
    p.add_argument("--grid", type=_positive_int, default=200)
    p.add_argument("--out", default="moment_figure_out")

    sub.add_parser("eight", help="verify both explicit quilted half-planes")
    return parser, sub


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(commands.choices[args.command], args.config)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:       # --help
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
