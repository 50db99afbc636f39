"""Per-layer tracing of ``serendipity`` by wrapping its functions from outside.

``install()`` replaces every public function of each module of the
package (its ``__all__``), plus the ``Polynomial`` and ``RationalMatrix``
methods the metrics need, with a timing wrapper.  The wrapper is bound
under every name that refers to the original in any module namespace,
so ``dofs.face_moment`` and ``cubegeom.face_moment`` both count.  Each
call records one span; a span's self time is its duration minus the
spans it encloses.  Nothing is written until ``snapshot()``.

Run as a script, it traces one ``serendipity`` CLI invocation:

    python3 bench/tracer.py STATS.json verify --n 2 --r 3

and writes the raw statistics to STATS.json; ``layer_metrics()`` turns
the merged statistics of one or more processes into per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

LAYERS = ("exactpoly", "cubegeom", "spaces", "dofs", "decomp", "assembly", "cli")
ARITH = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__")
METHODS = {
    "exactpoly": ("Polynomial", ARITH + ("evaluate",)),
    "dofs": ("RationalMatrix", ("rank", "solve")),
}
# O(1) leaf helpers called inside the hottest loops (sort keys, per-axis
# moments); wrapping them would multiply the cost of tracing while their
# time is already part of their callers' self time.
LEAVES = {"exactpoly.grlex_key", "exactpoly.superlinear_degree", "exactpoly.axis_moment"}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, list] = {}  # key -> [calls, inclusive_s, self_s]
        self.counters = {"terms_built": 0, "rank_entries": 0, "solve_entries": 0}
        self.maxima = {"max_dim": 0, "max_coeff_bits": 0}
        self._child = [0.0]
        self._depth: dict[str, int] = {}

    def wrap(self, key: str, fn, after=None, split=None):
        calls, child, depth = self.calls, self._child, self._depth

        def wrapper(*args, **kwargs):
            k = split(key, args, kwargs) if split else key
            rec = calls.get(k)
            if rec is None:
                rec = calls[k] = [0, 0.0, 0.0]
            level = depth.get(k, 0)
            depth[k] = level + 1
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[k] = level
                inner = child.pop()
                child[-1] += dt
                rec[0] += 1
                rec[2] += dt - inner
                if not level:
                    rec[1] += dt
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        package = importlib.import_module("serendipity")
        modules = {name: importlib.import_module(f"serendipity.{name}") for name in LAYERS}
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                key = f"{layer}.{name}"
                if isinstance(obj, type) or not callable(obj) or key in LEAVES:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                replacements[id(obj)] = self.wrap(key, obj, *self._hooks(key))
        for namespace in (package, *modules.values()):
            for name, value in list(vars(namespace).items()):
                if id(value) in replacements:
                    setattr(namespace, name, replacements[id(value)])
        for layer, (cls_name, names) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for name in names:
                original = cls.__dict__[name]
                wrapped = self.wrap(f"{layer}.{cls_name}.{name}", original, *self._hooks(name))
                for alias, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, alias, wrapped)

    def _hooks(self, key: str):
        c, m = self.counters, self.maxima

        def terms(args, result):
            if result is not NotImplemented:
                c["terms_built"] += len(result)

        def rank(args, result):
            c["rank_entries"] += args[0].rows * args[0].cols

        def solve(args, result):
            c["solve_entries"] += args[0].rows * (args[0].cols + args[1].cols)
            bits = max(
                (max(v.numerator.bit_length(), v.denominator.bit_length())
                 for row in result.to_lists() for v in row),
                default=0,
            )
            m["max_coeff_bits"] = max(m["max_coeff_bits"], bits)

        def dim(args, result):
            m["max_dim"] = max(m["max_dim"], result.dim)

        def method(key, args, kwargs):
            return f"{key}.{kwargs.get('method', args[2] if len(args) > 2 else 'solve')}"

        if key in ARITH:
            return terms, None
        if key == "rank":
            return rank, None
        if key == "solve":
            return solve, None
        if key in ("spaces.basis_S", "spaces.basis_P", "spaces.basis_Q"):
            return dim, None
        if key == "decomp.decompose":
            return None, method
        return None, None

    def snapshot(self) -> dict:
        caches = {}
        for layer in ("spaces", "dofs", "decomp"):
            module = sys.modules[f"serendipity.{layer}"]
            hits = misses = 0
            for value in vars(module).values():
                if not hasattr(value, "cache_info"):
                    value = getattr(value, "__wrapped__", None)
                if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                    info = value.cache_info()
                    hits, misses = hits + info.hits, misses + info.misses
            caches[layer] = [hits, misses]
        return {"calls": self.calls, "counters": self.counters, "maxima": self.maxima,
                "caches": caches}


def merge(snapshots: list[dict]) -> dict:
    out = {"calls": {}, "counters": {}, "maxima": {}, "caches": {}}
    for snap in snapshots:
        for key, rec in snap["calls"].items():
            acc = out["calls"].setdefault(key, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for key, v in snap["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + v
        for key, v in snap["maxima"].items():
            out["maxima"][key] = max(out["maxima"].get(key, 0), v)
        for key, (h, mi) in snap["caches"].items():
            acc = out["caches"].setdefault(key, [0, 0])
            acc[0] += h
            acc[1] += mi
    return out


def layer_metrics(stats: dict, output_bytes: int, overhead_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from merged statistics."""
    calls = stats["calls"]

    def n(*keys):
        return sum(calls.get(k, (0, 0, 0))[0] for k in keys)

    def incl(*keys):
        return sum(calls.get(k, (0, 0.0, 0.0))[1] for k in keys)

    def self_s(prefix):
        return sum((rec[2] for k, rec in calls.items() if k.startswith(prefix)), 0.0)

    def ratio(layer):
        hits, misses = stats["caches"].get(layer, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    poly = "exactpoly.Polynomial."
    mat = "dofs.RationalMatrix."
    values = {
        "exactpoly.add_calls": (n(poly + "__add__"), "count"),
        "exactpoly.mul_calls": (n(poly + "__mul__"), "count"),
        "exactpoly.arith_s": (sum(calls.get(poly + a, (0, 0.0, 0.0))[2] for a in ARITH), "s"),
        "exactpoly.terms_built": (stats["counters"].get("terms_built", 0), "terms"),
        "exactpoly.evaluate_calls": (n(poly + "evaluate"), "count"),
        "exactpoly.evaluate_s": (incl(poly + "evaluate"), "s"),
        "cubegeom.face_moment_calls": (n("cubegeom.face_moment"), "count"),
        "cubegeom.restrict_calls": (n("cubegeom.restrict_to_face"), "count"),
        "cubegeom.restrict_s": (incl("cubegeom.restrict_to_face"), "s"),
        "spaces.basis_s": (incl("spaces.basis_S", "spaces.basis_P", "spaces.basis_Q"), "s"),
        "spaces.max_dim": (stats["maxima"].get("max_dim", 0), "count"),
        "dofs.dof_matrix_s": (incl("dofs.dof_matrix"), "s"),
        "dofs.rank_s": (incl(mat + "rank"), "s"),
        "dofs.rank_calls": (n(mat + "rank"), "count"),
        "dofs.rank_entries": (stats["counters"].get("rank_entries", 0), "entries"),
        "dofs.solve_s": (incl(mat + "solve"), "s"),
        "dofs.solve_entries": (stats["counters"].get("solve_entries", 0), "entries"),
        "dofs.nodal_s": (incl("dofs.nodal_basis"), "s"),
        "dofs.max_coeff_bits": (stats["maxima"].get("max_coeff_bits", 0), "bits"),
        "decomp.facet_kernel_s": (incl("decomp.facet_kernel_check"), "s"),
        "decomp.direct_sum_s": (incl("decomp.verify_direct_sum"), "s"),
        "decomp.component_matrix_s": (incl("decomp.component_matrix"), "s"),
        "decomp.decompose_solve_s": (incl("decomp.decompose.solve"), "s"),
        "decomp.decompose_construct_s": (incl("decomp.decompose.construct"), "s"),
        "decomp.expand_monomial_calls": (n("decomp.expand_monomial"), "count"),
        "assembly.interpolate_calls": (n("assembly.interpolate"), "count"),
        "assembly.interpolate_s": (incl("assembly.interpolate"), "s"),
        "assembly.continuity_s": (incl("assembly.check_continuity"), "s"),
        "assembly.shared_pairs_s": (incl("assembly.shared_dof_pairs"), "s"),
        "cli.self_s": (self_s("cli."), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "spaces.cache_hit_ratio": (ratio("spaces"), "hits/lookup"),
        "dofs.cache_hit_ratio": (ratio("dofs"), "hits/lookup"),
        "decomp.cache_hit_ratio": (ratio("decomp"), "hits/lookup"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from serendipity import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(stats_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
