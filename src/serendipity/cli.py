"""Command line front end for the serendipity element toolkit.

Commands: table1, dims, basis, dofs, verify, decompose, continuity,
export.  Exit status is 0 on success, 1 when a verification command
found a failing property, 2 on usage errors and unusable input.

Supported ranges are hard-capped at n <= 6 and r <= 12; the expensive
commands (verify at n = 3 with large r, or anything at n >= 4) can take
minutes because all arithmetic is exact.  Axes in flags and reports are
1-based, matching the serialized face convention; the Python API is
0-based throughout.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from csv import writer as csv_writer
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from .assembly import check_continuity
from .cubegeom import all_faces, full_cube
from .decomp import decompose, facet_kernel_check, recompose, verify_direct_sum
from .dofs import check_unisolvence, dof_layout, dofs_Q, dofs_S, nodal_basis
from .exactpoly import Polynomial
from .spaces import (
    basis_P,
    basis_Q,
    basis_S,
    check_inclusions,
    dim_P,
    dim_Q,
    dim_S_formula,
)

__all__ = ["RunConfig", "build_parser", "main"]

HARD_MAX_N = 6
HARD_MAX_R = 12
DEFAULT_TRIALS = 25
VERIFY_CHECKS = (
    "dimension",
    "inclusion",
    "unisolvence",
    "direct-sum",
    "facet-kernel",
    "continuity",
)
EXPORT_FAMILIES = {
    "basis": ("S", "Q", "P"),
    "dofs": ("S", "Q"),
    "nodal": ("S",),
    "decomposition": ("S",),
    "evalgrid": ("S",),
}


class InputError(Exception):
    """Input the command cannot use; main reports it in one line, exit 2."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation needs, validated and frozen."""

    command: str
    n_values: tuple[int, ...]
    r_values: tuple[int, ...]
    fmt: str = "text"
    out: Optional[Path] = None
    seed: int = 0
    trials: int = DEFAULT_TRIALS
    jobs: int = 1
    family: str = "S"
    axis: int = 0
    checks: tuple[str, ...] = VERIFY_CHECKS
    method: str = "both"
    alpha: Optional[tuple[int, ...]] = None
    poly_path: Optional[Path] = None
    what: str = "basis"
    points: int = 11


# -- rendering helpers ------------------------------------------------


def _text_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _csv_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    w = csv_writer(buf, lineterminator="\n")
    w.writerow(headers)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(config: RunConfig, text: str) -> None:
    if config.out is not None:
        try:
            config.out.write_text(text)
        except OSError as err:
            raise InputError(f"cannot write --out {config.out}: {err.strerror}") from None
    else:
        sys.stdout.write(text)


def _tabular(
    config: RunConfig,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    payload: dict,
) -> None:
    if config.fmt == "json":
        _emit(config, _json_text(payload))
    elif config.fmt == "csv":
        _emit(config, _csv_table(headers, rows))
    else:
        _emit(config, _text_table(headers, rows))


def _face_label(face) -> str:
    if not face.fixed:
        return "interior"
    return ";".join(f"x{i + 1}={'+1' if s > 0 else '-1'}" for i, s in face.fixed)


# -- commands ---------------------------------------------------------


def cmd_table1(config: RunConfig) -> int:
    """Dimension of the serendipity space over an (n, r) grid."""
    headers = ["n"] + [f"r={r}" for r in config.r_values]
    rows = [
        [n] + [dim_S_formula(n, r) for r in config.r_values]
        for n in config.n_values
    ]
    payload = {
        "command": "table1",
        "seed": config.seed,
        "r_values": list(config.r_values),
        "rows": [
            {"n": n, "dims": [dim_S_formula(n, r) for r in config.r_values]}
            for n in config.n_values
        ],
    }
    _tabular(config, headers, rows, payload)
    return 0


def cmd_dims(config: RunConfig) -> int:
    """Compare the three family dimensions cell by cell."""
    headers = ["n", "r", "dim_P", "dim_S", "dim_Q"]
    rows = []
    records = []
    for n in config.n_values:
        for r in config.r_values:
            p, s, q = dim_P(n, r), dim_S_formula(n, r), dim_Q(n, r)
            rows.append([n, r, p, s, q])
            records.append({"n": n, "r": r, "dim_P": p, "dim_S": s, "dim_Q": q})
    payload = {"command": "dims", "seed": config.seed, "rows": records}
    _tabular(config, headers, rows, payload)
    return 0


def _resolve_basis(config: RunConfig, n: int, r: int):
    if config.family == "S":
        return basis_S(n, r)
    if config.family == "Q":
        return basis_Q(n, r)
    return basis_P(full_cube(n), r)


def cmd_basis(config: RunConfig) -> int:
    """List the monomial basis for one family at one (n, r)."""
    n, r = config.n_values[0], config.r_values[0]
    basis = _resolve_basis(config, n, r)
    headers = ["index"] + [f"e{i + 1}" for i in range(n)] + ["monomial"]
    rows = [
        [k] + list(m.exponents) + [str(m)] for k, m in enumerate(basis.monomials)
    ]
    payload = {"command": "basis", "seed": config.seed, "basis": basis.to_json_obj()}
    _tabular(config, headers, rows, payload)
    return 0


def cmd_dofs(config: RunConfig) -> int:
    """DOF layout (counts per face dimension) plus the functional list."""
    n, r = config.n_values[0], config.r_values[0]
    layout = dof_layout(n, r, config.family)
    functionals = dofs_S(n, r) if config.family == "S" else dofs_Q(n, r)
    headers = ["face_dim", "faces", "dofs_per_face", "subtotal"]
    rows = [
        [row.face_dim, row.face_count, row.per_face, row.subtotal]
        for row in layout.rows
    ]
    if config.fmt == "text":
        table = _text_table(headers, rows)
        lines = [table, f"total: {layout.total}\n"]
        for L in functionals:
            weight = str(L.weight.monomials()[0]) if L.weight else "0"
            lines.append(f"dof {L.index}: {_face_label(L.face)} weight {weight}\n")
        _emit(config, "".join(lines))
    else:
        payload = {
            "command": "dofs",
            "seed": config.seed,
            "layout": layout.to_json_obj(),
            "functionals": [L.to_json_obj() for L in functionals],
        }
        _tabular(config, headers, rows, payload)
    return 0


def _run_verify_cell(item: tuple[int, int, str, int, int]) -> dict:
    """One (n, r, check) verification cell; must stay importable for pools."""
    n, r, check, trials, seed = item
    if check == "dimension":
        dim = basis_S(n, r).dim
        formula = dim_S_formula(n, r)
        ok = dim == formula
        detail = f"enumerated {dim}, formula {formula}"
    elif check == "inclusion":
        report = check_inclusions(n, r)
        ok = report.ok
        detail = f"dims P/S/Q = {report.dim_P_r}/{report.dim_S_r}/{report.dim_Q_r}"
    elif check == "unisolvence":
        result = check_unisolvence(n, r)
        ok = result.unisolvent
        detail = f"rank {result.rank} of {result.dim}, facet kernel ok={result.facet_factor_ok}"
    elif check == "direct-sum":
        result = verify_direct_sum(n, r)
        ok = result.ok
        detail = f"{result.component_count} components, rank {result.rank} of {result.space_dim}"
    elif check == "facet-kernel":
        result = facet_kernel_check(n, r)
        ok = result.ok
        detail = f"kernel dim {result.kernel_dim}, expected {result.expected_dim}"
    elif check == "continuity":
        report = check_continuity(n, r, axis=0, trials=trials, seed=seed)
        ok = report.ok
        detail = (
            f"{sum(report.trial_traces_equal)}/{report.trials} trials equal, "
            f"{sum(report.perturbations_detected)}/{len(report.perturbations_detected)} "
            "perturbations detected"
        )
    else:
        raise ValueError(f"unknown check {check!r}")
    return {"n": n, "r": r, "check": check, "ok": ok, "detail": detail}


def cmd_verify(config: RunConfig) -> int:
    """Run the selected property checks over the (n, r) grid."""
    items = [
        (n, r, check, config.trials, config.seed)
        for n in config.n_values
        for r in config.r_values
        for check in config.checks
    ]
    if config.jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_run_verify_cell, items))
    else:
        results = [_run_verify_cell(item) for item in items]
    all_ok = all(res["ok"] for res in results)
    headers = ["n", "r", "check", "status", "detail"]
    rows = [
        [res["n"], res["r"], res["check"], "pass" if res["ok"] else "FAIL", res["detail"]]
        for res in results
    ]
    payload = {
        "command": "verify",
        "seed": config.seed,
        "trials": config.trials,
        "checks": list(config.checks),
        "results": results,
        "all_ok": all_ok,
    }
    if config.fmt == "text":
        text = _text_table(headers, rows)
        text += f"result: {'all checks passed' if all_ok else 'FAILURES PRESENT'}\n"
        _emit(config, text)
    else:
        _tabular(config, headers, rows, payload)
    return 0 if all_ok else 1


def _load_input_polynomial(config: RunConfig, n: int, r: int) -> Polynomial:
    if config.poly_path is not None:
        try:
            return Polynomial.from_json_obj(n, json.loads(config.poly_path.read_text()))
        except OSError as err:
            raise InputError(f"cannot read --poly {config.poly_path}: {err.strerror}") from None
        except (ValueError, ZeroDivisionError, KeyError, TypeError) as err:
            raise InputError(f"bad polynomial in {config.poly_path}: {err!r}") from None
    if config.alpha is not None:
        if len(config.alpha) != n:
            raise ValueError(f"--alpha needs {n} exponents")
        return Polynomial.from_monomial(config.alpha)
    # default: a small generic member, the sum of all basis monomials
    total = Polynomial.zero(n)
    for m in basis_S(n, r).monomials:
        total = total + m.as_polynomial()
    return total


def _decomposition_payload(config: RunConfig, n: int, r: int) -> tuple[dict, bool]:
    p = _load_input_polynomial(config, n, r)
    methods = ["solve", "construct"] if config.method == "both" else [config.method]
    try:
        per_method = {m: decompose(p, r, method=m) for m in methods}
    except ValueError as err:  # the input lies outside S_r
        raise InputError(str(err)) from None
    agree = True
    if len(per_method) == 2:
        a, b = per_method["solve"], per_method["construct"]
        agree = set(a) == set(b) and all(
            a[f].coefficient == b[f].coefficient for f in a
        )
    chosen = per_method[methods[0]]
    face_order = {face: i for i, face in enumerate(all_faces(n))}
    ordered = sorted(chosen.items(), key=lambda kv: face_order[kv[0]])
    sum_matches = recompose(chosen, n) == p
    payload = {
        "command": "decompose",
        "seed": config.seed,
        "n": n,
        "r": r,
        "method": config.method,
        "input": p.to_json_obj(),
        "components": [fc.to_json_obj() for _, fc in ordered],
        "sum_matches": sum_matches,
        "methods_agree": agree,
    }
    return payload, sum_matches and agree


def cmd_decompose(config: RunConfig) -> int:
    """Face-by-face splitting of one polynomial, with exact round-trip."""
    n, r = config.n_values[0], config.r_values[0]
    payload, ok = _decomposition_payload(config, n, r)
    if config.fmt == "json":
        _emit(config, _json_text(payload))
    else:
        lines = [f"decomposition over faces (n={n}, r={r}, method={config.method})\n"]
        for comp in payload["components"]:
            fixed = comp["face"]["fixed"]
            label = (
                "interior"
                if not fixed
                else ";".join(f"x{f['index']}={f['sign']:+d}" for f in fixed)
            )
            terms = ", ".join(
                f"{t['coeff']}*x^{tuple(t['exponents'])}" for t in comp["coefficient"]
            )
            lines.append(f"  {label}: {terms}\n")
        lines.append(f"sum matches input: {payload['sum_matches']}\n")
        lines.append(f"methods agree: {payload['methods_agree']}\n")
        _emit(config, "".join(lines))
    return 0 if ok else 1


def cmd_continuity(config: RunConfig) -> int:
    """Two-element trace equality trials with perturbation controls."""
    n, r = config.n_values[0], config.r_values[0]
    report = check_continuity(
        n, r, axis=config.axis, trials=config.trials, seed=config.seed
    )
    if config.fmt == "json":
        payload = {"command": "continuity", **report.to_json_obj()}
        _emit(config, _json_text(payload))
    else:
        text = (
            f"continuity n={n} r={r} axis={config.axis + 1} "
            f"seed={report.seed} trials={report.trials}\n"
            f"shared DOFs: {report.shared_count}\n"
            f"trials with equal traces: {sum(report.trial_traces_equal)}"
            f"/{report.trials}\n"
            f"perturbations detected: {sum(report.perturbations_detected)}"
            f"/{len(report.perturbations_detected)}\n"
            f"result: {'pass' if report.ok else 'FAIL'}\n"
        )
        _emit(config, text)
    return 0 if report.ok else 1


def _nodal_payload(config: RunConfig, n: int, r: int) -> dict:
    return {
        "command": "export",
        "what": "nodal",
        "seed": config.seed,
        "n": n,
        "r": r,
        "family": "S",
        "functionals": [L.to_json_obj() for L in dofs_S(n, r)],
        "polynomials": [phi.to_json_obj() for phi in nodal_basis(n, r)],
    }


def _evalgrid_payload(config: RunConfig, n: int, r: int) -> dict:
    k = config.points
    grid = [-1.0 + 2.0 * i / (k - 1) for i in range(k)]
    values = []
    for phi in nodal_basis(n, r):
        samples = [
            phi.evaluate(point)
            for point in itertools.product(grid, repeat=n)
        ]
        values.append(samples)
    return {
        "command": "export",
        "what": "evalgrid",
        "seed": config.seed,
        "n": n,
        "r": r,
        "points_per_axis": k,
        "grid": grid,
        "point_order": "itertools.product over axes, axis 1 slowest",
        "values": values,
    }


def cmd_export(config: RunConfig) -> int:
    """Write one of the JSON artifacts (basis, dofs, nodal, ...)."""
    n, r = config.n_values[0], config.r_values[0]
    if config.family not in EXPORT_FAMILIES[config.what]:
        raise InputError(
            f"--what {config.what} takes --family {' or '.join(EXPORT_FAMILIES[config.what])}"
        )
    if config.what == "basis":
        payload = {
            "command": "export",
            "what": "basis",
            "seed": config.seed,
            "basis": _resolve_basis(config, n, r).to_json_obj(),
        }
        ok = True
    elif config.what == "dofs":
        functionals = dofs_S(n, r) if config.family == "S" else dofs_Q(n, r)
        payload = {
            "command": "export",
            "what": "dofs",
            "seed": config.seed,
            "layout": dof_layout(n, r, config.family).to_json_obj(),
            "functionals": [L.to_json_obj() for L in functionals],
        }
        ok = True
    elif config.what == "nodal":
        payload = _nodal_payload(config, n, r)
        ok = True
    elif config.what == "decomposition":
        payload, ok = _decomposition_payload(config, n, r)
        payload["what"] = "decomposition"
    elif config.what == "evalgrid":
        payload = _evalgrid_payload(config, n, r)
        ok = True
    else:
        raise ValueError(f"unknown export target {config.what!r}")
    _emit(config, _json_text(payload))
    return 0 if ok else 1


# -- argument handling ------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serendipity",
        description=(
            "Exact construction, verification, and export of serendipity "
            "finite elements on [-1,1]^n."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, fmt_default: str = "text") -> None:
        p.add_argument("--n", type=int, default=None, help="single n, or range start with --n-max")
        p.add_argument("--n-max", type=int, default=None, help="range end for n (range starts at --n or 1)")
        p.add_argument("--r", type=int, default=None, help="single r, or range start with --r-max")
        p.add_argument("--r-max", type=int, default=None, help="range end for r")
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("text", "json", "csv"),
            default=fmt_default,
            help="output format (text table, JSON, or CSV)",
        )
        p.add_argument("--out", type=Path, default=None, help="write output to this file instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in reports and used for random trials")

    p = sub.add_parser("table1", help="serendipity dimension table over an (n, r) grid")
    add_common(p)

    p = sub.add_parser("dims", help="dimensions of the P, S, Q families per (n, r)")
    add_common(p)

    p = sub.add_parser("basis", help="monomial basis at one (n, r)")
    add_common(p)
    p.add_argument("--family", choices=("S", "Q", "P"), default="S")

    p = sub.add_parser("dofs", help="degree-of-freedom layout and functional list")
    add_common(p)
    p.add_argument("--family", choices=("S", "Q"), default="S")

    p = sub.add_parser("verify", help="run exact property checks over a grid")
    add_common(p)
    p.add_argument(
        "--checks",
        default=",".join(VERIFY_CHECKS),
        help="comma-separated subset of: " + ", ".join(VERIFY_CHECKS),
    )
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--jobs", type=int, default=0, help="worker processes (0 = auto)")

    p = sub.add_parser("decompose", help="split a polynomial into face components")
    add_common(p, fmt_default="json")
    p.add_argument("--alpha", default=None, help="monomial exponents, e.g. 2,3")
    p.add_argument("--poly", dest="poly_path", type=Path, default=None, help="JSON file with polynomial terms")
    p.add_argument("--method", choices=("solve", "construct", "both"), default="both")

    p = sub.add_parser("continuity", help="two-element trace equality trials")
    add_common(p)
    p.add_argument("--axis", type=int, default=1, help="glue axis, 1-based")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)

    p = sub.add_parser("export", help="write a JSON artifact")
    add_common(p, fmt_default="json")
    p.add_argument(
        "--what",
        choices=("basis", "dofs", "nodal", "decomposition", "evalgrid"),
        default="basis",
    )
    p.add_argument("--family", choices=("S", "Q", "P"), default="S")
    p.add_argument("--alpha", default=None, help="monomial exponents for decomposition export")
    p.add_argument("--poly", dest="poly_path", type=Path, default=None)
    p.add_argument("--method", choices=("solve", "construct", "both"), default="both")
    p.add_argument("--points", type=int, default=11, help="grid points per axis for evalgrid")

    return parser


def _resolve_range(
    parser: argparse.ArgumentParser,
    single: Optional[int],
    maximum: Optional[int],
    default: tuple[int, ...],
    cap: int,
    label: str,
) -> tuple[int, ...]:
    if single is not None and maximum is not None:
        values: tuple[int, ...] = tuple(range(single, maximum + 1))
    elif single is not None:
        values = (single,)
    elif maximum is not None:
        values = tuple(range(1, maximum + 1))
    else:
        values = default
    if not values:
        parser.error(f"empty {label} range")
    for v in values:
        if not 1 <= v <= cap:
            parser.error(f"{label}={v} outside the supported range 1..{cap}")
    return values


def _config_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> RunConfig:
    command = args.command
    grid_defaults = {
        "table1": (tuple(range(1, 6)), tuple(range(1, 9))),
        "dims": (tuple(range(1, 6)), tuple(range(1, 9))),
        "verify": (tuple(range(1, 3)), tuple(range(1, 5))),
    }
    if command in grid_defaults:
        n_default, r_default = grid_defaults[command]
    else:
        if args.n is None or args.r is None:
            parser.error(f"{command} requires --n and --r")
        n_default = r_default = ()
    n_values = _resolve_range(parser, args.n, args.n_max, n_default, HARD_MAX_N, "n")
    r_values = _resolve_range(parser, args.r, args.r_max, r_default, HARD_MAX_R, "r")

    checks: tuple[str, ...] = VERIFY_CHECKS
    if command == "verify":
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
        for c in checks:
            if c not in VERIFY_CHECKS:
                parser.error(f"unknown check {c!r}")
        if not checks:
            parser.error("no checks selected")

    jobs = 1
    if command == "verify":
        jobs = args.jobs if args.jobs > 0 else min(4, os.cpu_count() or 1)

    axis = 0
    if command == "continuity":
        if not 1 <= args.axis <= n_values[0]:
            parser.error(f"axis must be in 1..{n_values[0]}")
        axis = args.axis - 1

    trials = getattr(args, "trials", DEFAULT_TRIALS)
    if trials < 1:
        parser.error("trials must be >= 1")

    alpha: Optional[tuple[int, ...]] = None
    raw_alpha = getattr(args, "alpha", None)
    if raw_alpha is not None:
        try:
            alpha = tuple(int(part) for part in raw_alpha.split(","))
        except ValueError:
            parser.error(f"cannot parse exponents from {raw_alpha!r}")
        if len(alpha) != n_values[0] or any(a < 0 for a in alpha):
            parser.error("--alpha needs one non-negative exponent per variable")

    points = getattr(args, "points", 11)
    if command == "export" and getattr(args, "what", "") == "evalgrid" and points < 2:
        parser.error("evalgrid needs at least 2 points per axis")

    return RunConfig(
        command=command,
        n_values=n_values,
        r_values=r_values,
        fmt=args.fmt,
        out=args.out,
        seed=args.seed,
        trials=trials,
        jobs=jobs,
        family=getattr(args, "family", "S"),
        axis=axis,
        checks=checks,
        method=getattr(args, "method", "both"),
        alpha=alpha,
        poly_path=getattr(args, "poly_path", None),
        what=getattr(args, "what", "basis"),
        points=points,
    )


_HANDLERS: dict[str, Callable[[RunConfig], int]] = {
    "table1": cmd_table1,
    "dims": cmd_dims,
    "basis": cmd_basis,
    "dofs": cmd_dofs,
    "verify": cmd_verify,
    "decompose": cmd_decompose,
    "continuity": cmd_continuity,
    "export": cmd_export,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(parser, args)
    try:
        return _HANDLERS[config.command](config)
    except InputError as err:
        sys.stderr.write(f"{parser.prog} {config.command}: error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
