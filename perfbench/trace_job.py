"""Run one riderpoly CLI job with spans recorded at each layer boundary.

    python perfbench/trace_job.py OUT.json JOB_ID <cli arguments...>

The functions in SPANNED are replaced, in every riderpoly module that
holds a reference to them (so ``from .x import f`` names are covered
too), by wrappers that record a span (name, start, end, parent) and the
layer's work counters.  The hot linear-algebra helpers in COUNTED only
get a call counter, because a span around each of their ~10^5 calls
would cost more than the work they do.  Spans and counters stay in
memory and are written to OUT.json when the job ends; the process exits
with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

import riderpoly.cli

spans: list[list] = []     # [name, start, end, parent index or -1]
stack: list[int] = []
counts: Counter = Counter()
alpha_keys: set = set()


def _innermost() -> str | None:
    return spans[stack[-1]][0] if stack else None


def _count_kernel(result, keys, q):
    counts["kernel.count_nonattacking_subsets.cells"] += len(keys[0]) if keys else 0


def _count_semilattice(sl, *args, **kwargs):
    counts["arrangement.intersection_semilattice.flats"] += len(sl.flats)
    counts["arrangement.intersection_semilattice.iso_classes"] += len(sl.iso_classes)


def _count_alpha(result, sl, flat, board, n, *args, **kwargs):
    alpha_keys.add((id(sl), flat.iso_key, board, n))


def _count_fit(result, values, period, degree):
    for k in range(period):
        rows = sum(1 for n in values if n % period == k)
        counts["quasipoly.fit_values.held_out_rows"] += max(0, rows - degree - 1)


# module -> {function name: counter called with (result, *args, **kwargs)}
SPANNED = {
    "riderpoly.kernel": {"count_nonattacking_subsets": _count_kernel},
    "riderpoly.counting": {"census_types": None, "count_nonattacking": None},
    "riderpoly.geometry": {"interior_lattice_points": None},
    "riderpoly.arrangement": {"intersection_semilattice": _count_semilattice,
                              "alpha": _count_alpha},
    "riderpoly.symbolic": {"flat_polytope_denominator": None,
                           "alpha_qp": None,
                           "reconstruction_quasipolynomials": None},
    "riderpoly.bounds": {"denominator": None,
                         "scan_vertices": None,
                         "lcmd_direct": None},
    "riderpoly.quasipoly": {"fit_values": _count_fit, "detect_period": None},
    "riderpoly.cli": {"main": None},
}

# Call counters only; a call made directly under the named span is also
# counted under that span's key.
COUNTED = {
    "riderpoly.linalg": {
        "canonical_int_rows": ("arrangement.intersection_semilattice",
                               "arrangement.intersection_semilattice.canonical_calls"),
        "in_row_space": None,
        "bareiss_determinant": ("bounds.lcmd_direct", "bounds.lcmd_direct.minors"),
    },
}


def _span_wrapper(name, fn, counter):
    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else -1
        counts[name + ".calls"] += 1
        record = [name, perf_counter(), 0.0, parent]
        stack.append(len(spans))
        spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()
        if counter is not None:
            counter(result, *args, **kwargs)
        return result
    return wrapper


def _eager(gen_fn, name):
    # scan_vertices is a generator; both callers consume it fully, so the
    # span covers the whole scan only if it is drained inside the wrapper.
    # Its feasibility test runs once per nonsingular system solved; those
    # are counted under the calling span, as bounds.denominator.systems or
    # symbolic.flat_polytope_denominator.systems.
    def drained(forced, optional, ncols, feasible):
        parent = spans[stack[-1]][3]
        key = (spans[parent][0] if parent >= 0 else name) + ".systems"

        def counted(point):
            counts[key] += 1
            return feasible(point)

        points = list(gen_fn(forced, optional, ncols, counted))
        counts[name + ".vertices"] += len(points)
        return iter(points)
    return drained


def _count_wrapper(name, fn, under):
    def wrapper(*args, **kwargs):
        counts[name + ".calls"] += 1
        if under is not None and _innermost() == under[0]:
            counts[under[1]] += 1
        return fn(*args, **kwargs)
    return wrapper


def _replace_everywhere(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "riderpoly" or modname.startswith("riderpoly."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> None:
    for modname, functions in SPANNED.items():
        module = sys.modules[modname]
        for func, counter in functions.items():
            name = f"{modname.split('.', 1)[1]}.{func}"
            original = getattr(module, func)
            target = _eager(original, name) if func == "scan_vertices" else original
            _replace_everywhere(original, _span_wrapper(name, target, counter))
    for modname, functions in COUNTED.items():
        module = sys.modules[modname]
        for func, under in functions.items():
            name = f"{modname.split('.', 1)[1]}.{func}"
            original = getattr(module, func)
            _replace_everywhere(original, _count_wrapper(name, original, under))


def main() -> int:
    out_path, job = sys.argv[1], sys.argv[2]
    install()
    code = 1
    try:
        code = riderpoly.cli.main(sys.argv[3:])
    finally:
        counts["arrangement.alpha.evaluations"] = len(alpha_keys)
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"job": job, "exit": code, "spans": spans,
                       "counts": dict(counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
