"""Command-line front end.

Subcommands: count, fit, types, mobius, bounds, verify.  Exit codes:
0 success, 1 verification failure, 2 usage or input error, 3 capacity or
budget error.  With --format json, errors are emitted as JSON too.

Each command compiles only the route it runs.  Importing this module loads
what parsing and error reporting use (``errors``, ``geometry`` and the
``linalg`` it needs); each ``cmd_*`` imports its own route when it starts:
brute-force ``count`` the enumerator (``counting``, ``kernel``), ``fit``
and ``types`` that and ``quasipoly``, ``bounds`` the period chain
(``bounds``, ``flatpolytope``, ``arrangement``, ``lattice``), ``mobius``
the semilattice (``arrangement``, ``lattice``), ``count --method
reconstruction`` the Mobius route (``arrangement``, ``symbolic`` and all
they import: of the period chain only ``flatpolytope``, not ``bounds``),
and ``verify`` everything.  Without a bytecode cache
(``PYTHONDONTWRITEBYTECODE``) each module a process imports is compiled
from source, so a module the command does not run is start-up spent for
nothing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from math import factorial

from .errors import (
    DEFAULT_BUDGET,
    DEFAULT_MINOR_BUDGET,
    DEFAULT_SYSTEM_BUDGET,
    CapacityError,
    RiderPolyError,
)
from .geometry import board_from_text, piece_from_text


def _load_on_first_use(*names: str) -> None:
    """Put the package's route modules ``names`` in ``sys.modules`` unrun.

    perfbench/trace_job.py looks every layer it wraps up in ``sys.modules``
    right after ``import riderpoly.cli``.  A registered module is compiled
    and run at its first attribute access, which an import of it makes (a
    command's, a route module's, or the tracer's ``getattr``), so a route
    compiles as a whole when its command imports it.  One already imported
    is left as it is.  The package gets the module as its attribute, as an
    import of it would set, so ``from . import name`` binds it unrun: route
    code imports names from a route module, which runs it.
    """
    for name in names:
        fullname = f"{__package__}.{name}"
        if fullname not in sys.modules:
            spec = importlib.util.find_spec(fullname)
            spec.loader = importlib.util.LazyLoader(spec.loader)
            module = importlib.util.module_from_spec(spec)
            sys.modules[fullname] = module
            setattr(sys.modules[__package__], name, module)
            spec.loader.exec_module(module)


_load_on_first_use("kernel", "counting", "arrangement", "bounds", "quasipoly",
                   "symbolic")


def _parse_range(option: str, text: str) -> tuple[int, int]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError:
        raise RiderPolyError(f"{option} must be n or a:b, got {text!r}") from None


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


def _emit(args, data: dict, pretty_lines) -> None:
    if args.format == "json":
        print(_dump(data))
    else:
        for line in pretty_lines:
            print(line)


def cmd_count(args) -> int:
    from .counting import check_range, count_series
    if args.method == "reconstruction":
        # Both before the closure, so the route compiles before it allocates.
        from .arrangement import intersection_semilattice
        from .symbolic import reconstruction_series
    ms = piece_from_text(args.piece)
    board = board_from_text(args.board)
    n_from, n_to = _parse_range("--n", args.n)
    check_range(n_from, n_to)   # before the closure is built
    if args.method == "reconstruction":
        sl = intersection_semilattice(ms, args.q)
        table = reconstruction_series(sl, board, n_from, n_to,
                                      budget=args.budget)
    else:
        table = count_series(ms, board, args.q, n_from, n_to,
                             budget=args.budget)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    elif args.format == "json":
        print(_dump(table.to_json_dict()))
    else:
        print(f"{ms.label} on {board.as_text()}, q={args.q} [{table.method}]")
        for n in table.ns():
            lab, unlab = table.row(n)
            print(f"  n={n:<4d} unlabelled={unlab}  labelled={lab}")
    return 0


def _check_options(args) -> None:
    """Refuse a numeric option below 1, before any work."""
    for name in ("period", "p_max", "denominator_bound", "budget",
                 "system_budget", "minor_budget", "observe_period_n"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            option = "--" + name.replace("_", "-")
            raise RiderPolyError(f"{option} must be at least 1, got {value}")


def _fit_table(args, table):
    from .quasipoly import check_ehrhart, detect_period, fit
    if args.period is not None:
        return fit(table, args.period)
    fitted = detect_period(table, args.p_max,
                           denominator_bound=args.denominator_bound)
    check_ehrhart(fitted, table.q, table.board.area)
    return fitted


def cmd_fit(args) -> int:
    from .quasipoly import fit_values, pretty
    from .counting import count_series
    ms = piece_from_text(args.piece)
    board = board_from_text(args.board)
    n_from, n_to = _parse_range("--n", args.n)
    table = count_series(ms, board, args.q, n_from, n_to,
                         budget=args.budget)
    fitted = _fit_table(args, table)
    if args.column == "labelled":
        fitted = fit_values({n: table.row(n)[0] for n in table.ns()},
                            fitted.period, fitted.degree)
    label = f"empirically verified on n in [{n_from},{n_to}]"
    data = {
        "piece": ms.label,
        "board": board.as_text(),
        "q": args.q,
        "column": args.column,
        "period": fitted.period,
        "degree": fitted.degree,
        "quasipolynomial": fitted.to_json_dict(),
        "verified_on": [n_from, n_to],
        "label": label,
    }
    _emit(args, data, [
        f"{ms.label} on {board.as_text()}, q={args.q}, column {args.column}",
        f"period {fitted.period}, degree {fitted.degree}   ({label})",
        pretty(fitted),
    ])
    return 0


def cmd_types(args) -> int:
    from .quasipoly import types_count
    from .counting import census_types, count_series
    if args.census:
        c_from, c_to = _parse_range("--census", args.census)
        if c_from > c_to:
            raise RiderPolyError(
                f"--census must be n or a:b with a <= b, got {args.census!r}")
    ms = piece_from_text(args.piece)
    board = board_from_text(args.board)
    n_from, n_to = _parse_range("--n", args.n)
    table = count_series(ms, board, args.q, n_from, n_to,
                         budget=args.budget)
    found = (census_types(ms, board, args.q, c_from, c_to, budget=args.budget)
             if args.census else {})
    census = [{"n": n, "labelled_types": str(lab), "unlabelled_types": str(unlab)}
              for n, (lab, unlab) in found.items()]
    if args.format != "json":
        # Printed before the fit, which can fail; the census does not need it.
        print(f"{ms.label} on {board.as_text()}, q={args.q}")
        for row in census:
            print(f"  census n={row['n']}: unlabelled {row['unlabelled_types']} "
                  f"labelled {row['labelled_types']}")
    fitted = _fit_table(args, table)
    unlabelled_types = types_count(fitted)
    data = {
        "piece": ms.label,
        "board": board.as_text(),
        "q": args.q,
        "census": census,
        "types": {
            "unlabelled": str(unlabelled_types),
            "labelled": str(factorial(args.q) * unlabelled_types),
            "from": f"fit at n=-1 (period {fitted.period}, degree "
                    f"{fitted.degree}, verified on n in [{n_from},{n_to}])",
        },
    }
    _emit(args, data, [
        f"  types from fit at n=-1: unlabelled {unlabelled_types}, "
        f"labelled {data['types']['labelled']}"])
    return 0


def cmd_mobius(args) -> int:
    from .arrangement import intersection_semilattice, semilattice_report
    ms = piece_from_text(args.piece)
    sl = intersection_semilattice(ms, args.q)
    report = semilattice_report(sl)
    if args.format == "json":
        print(_dump(report))
    else:
        print(f"{ms.label}, q={args.q}: {report['hyperplane_count']} hyperplanes, "
              f"{report['flat_count']} flats, "
              f"{len(report['iso_classes'])} isomorphism classes")
        for cls in report["iso_classes"]:
            print(f"  class {cls['id']}: kappa={cls['kappa']} codim={cls['codim']} "
                  f"mu={cls['mobius']} |Aut|={cls['aut']} size={cls['size']}")
    return 0


def cmd_bounds(args) -> int:
    from .bounds import bounds_report
    ms = piece_from_text(args.piece)
    board = board_from_text(args.board)
    report = bounds_report(
        ms, board, args.q, system_budget=args.system_budget,
        minor_budget=args.minor_budget)
    if args.observe_period_n is not None:
        from .quasipoly import detect_period
        from .counting import count_series
        table = count_series(ms, board, args.q, 1, args.observe_period_n,
                             budget=args.budget)
        report["period_observed"] = detect_period(
            table, args.p_max,
            denominator_bound=report["denominator"]).period
        report["method"]["period"] = "table fit"
    _emit(args, report, [
        f"{ms.label} on {board.as_text()}, q={args.q}",
        f"  period observed : {report['period_observed']}",
        f"  denominator     : {report['denominator']}",
        f"  lcmd(A')        : {report['lcmd']}",
        f"  lcmd closed form: {report['lcmd_closed_form']}",
        f"  exhaustive      : {report['exhaustive']}",
        *(f"  note: {note}" for note in report["notes"]),
    ])
    return 0


def cmd_verify(args) -> int:
    if args.suite != "paper":
        raise RiderPolyError(f"unknown suite {args.suite!r}")
    from .verify import run_paper_suite
    return run_paper_suite()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riderpoly",
        description="Exact nonattacking-rider counting on dilated boards")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("pretty", "json")):
        p.add_argument("--piece", required=True,
                       help="preset name or c1,d1;c2,d2;...")
        p.add_argument("--board", default="square",
                       help="square | rect:a,b | poly:a,b,beta;...")
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--format", choices=formats, default="pretty")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="elementary attack-test budget")

    p_count = sub.add_parser("count", help="exact count table")
    common(p_count, formats=("pretty", "json", "csv"))
    p_count.add_argument("--n", required=True, help="n or a:b")
    p_count.add_argument("--method", choices=("brute", "reconstruction"),
                         default="brute")
    p_count.set_defaults(func=cmd_count)

    def fit_options(p):
        p.add_argument("--n", required=True, help="table range a:b")
        p.add_argument("--period", type=int, default=None,
                       help="fix the period instead of detecting it")
        p.add_argument("--p-max", type=int, default=8)
        p.add_argument("--denominator-bound", type=int, default=None)

    p_fit = sub.add_parser("fit", help="fit the counting quasipolynomial")
    common(p_fit)
    fit_options(p_fit)
    p_fit.add_argument("--column", choices=("unlabelled", "labelled"),
                       default="unlabelled")
    p_fit.set_defaults(func=cmd_fit)

    p_types = sub.add_parser("types", help="configuration-type counts")
    common(p_types)
    fit_options(p_types)
    p_types.add_argument("--census", default=None,
                         help="also census types at these board sizes (a:b)")
    p_types.set_defaults(func=cmd_types)

    p_mob = sub.add_parser("mobius", help="semilattice report")
    p_mob.add_argument("--piece", required=True)
    p_mob.add_argument("--q", type=int, required=True)
    p_mob.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p_mob.set_defaults(func=cmd_mobius)

    p_bounds = sub.add_parser("bounds", help="period bound chain")
    common(p_bounds)
    p_bounds.add_argument("--system-budget", type=int,
                          default=DEFAULT_SYSTEM_BUDGET)
    p_bounds.add_argument("--minor-budget", type=int,
                          default=DEFAULT_MINOR_BUDGET)
    p_bounds.add_argument("--observe-period-n", type=int, default=None,
                          help="brute-force table length for period detection")
    p_bounds.add_argument("--p-max", type=int, default=8)
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run the reproduction battery")
    p_verify.add_argument("--suite", default="paper")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except CapacityError as exc:
        _error(args, exc)
        return 3
    except (RiderPolyError, ValueError) as exc:
        _error(args, exc)
        return 2


def _error(args, exc) -> None:
    if getattr(args, "format", "pretty") == "json":
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        context = getattr(exc, "context", None)
        if context:
            payload["error"]["context"] = {k: str(v) for k, v in context.items()}
        print(_dump(payload))
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
