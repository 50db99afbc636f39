"""Command line front end for the serendipity element toolkit.

Commands: table1, dims, basis, dofs, verify, decompose, continuity,
export.  Exit status is 0 on success, 1 when a verification command
found a failing property or the pairing a command solves over could not
be certified (one stderr line names the culprit), 2 on usage errors,
unusable input and output that cannot be written (a full disk, or a
reader that closed the pipe).

Each JSON artifact has one builder: ``export --what basis|dofs|decomposition``
writes the payload of ``basis``, ``dofs`` or ``decompose --format json``
with ``what`` set and ``command`` set to ``export`` (``decompose`` kept).

Supported ranges are hard-capped at n <= 6 and r <= 12, and --trials
at 10^6 (a JSON report holds one boolean per trial).  The
unisolvence, direct-sum and facet-kernel checks are certified and reach
the caps; whatever solves over the pairing, by per-axis passes in the
orthogonal coordinates (decompose, nodal, decomposition and evalgrid
exports), grows with the space dimension, because all arithmetic is
exact.  Term lists and basis rows are written straight to JSON text
and the nodal functions one at a time, each image's text picked term
by term from rows formed once per cube symmetry.  Continuity reads its
report off the pairing and trace certificates, so it builds no nodal
basis and traces nothing: its trials and controls are certified, not
sampled.  Every ``verify`` check runs in this one process and reads
the index and the certificates, so none builds a basis.  The evalgrid
export runs each nodal function's float Horner scheme as straight-line code
compiled once per exponent shape, which the images of a run share, and
bound to the function's own coefficients; a point costs one call, one
power per distinct axis and exponent step above 1.  It writes at most
10^6 values (points^n times dim S), since its time grows with the grid.
A DOF listing (``dofs`` as text or json, ``export --what dofs``) builds
at most 10^6 functionals, which only the Q family's
(r+1)^n can pass; ``dofs --format csv`` prints the layout alone.  Axes
in flags and reports are 1-based, matching the serialized face
convention; the Python API is 0-based.  README's "Command line"
section gives measured times.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import stat
import sys
from argparse import Namespace
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path

from .assembly import check_continuity
from .cubegeom import full_cube
from .decomp import (
    FaceComponent,
    certify_pairing,
    decompose,
    facet_kernel_check,
    index_count,
    recompose,
    verify_direct_sum,
)
from .dofs import (
    DofFunctional,
    SingularMatrixError,
    _nodal_images,
    check_unisolvence,
    dof_layout,
    dofs_Q,
    dofs_S,
    nodal_functions,
)
from .exactpoly import Polynomial, _ratio, monomial_str
from .spaces import (
    basis_P,
    basis_Q,
    basis_S,
    check_inclusions,
    dim_P,
    dim_Q,
    dim_S_formula,
)

__all__ = ["build_parser", "main"]

HARD_MAX_N = 6
HARD_MAX_R = 12
DEFAULT_TRIALS = 25
MAX_TRIALS = 10**6
MAX_EVALGRID_VALUES = 10**6
MAX_DOF_FUNCTIONALS = 10**6
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
    from csv import writer as csv_writer  # only the csv format needs it
    buf = io.StringIO()
    w = csv_writer(buf, lineterminator="\n")
    w.writerow(headers)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _json_chunks(payload: dict, level: int = 0) -> Iterator[str]:
    """The payload's JSON text at depth level, as ``json.JSONEncoder(indent=2,
    sort_keys=True)`` writes it, in pieces, so that it is never held whole;
    at depth 0 a newline ends it.  A value that is an iterator yields its
    own text at depth level + 1 (``_list_chunks``, or this function's for
    a dict); the encoder writes the others."""
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    indent = "\n" + "  " * (level + 1)
    sep = "{" + indent
    for key in sorted(payload):
        yield f'{sep}"{key}": '
        sep = "," + indent
        value = payload[key]
        if isinstance(value, Iterator):
            yield from value
        else:
            for chunk in encoder.iterencode(value):
                yield chunk.replace("\n", indent)
    yield "\n" + "  " * level + "}" + ("" if level else "\n")


def _dumps(obj: object, level: int) -> str:
    """A small object's JSON text at depth level."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)


_ROW_SEP = ",\n" + "  " * 3
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_row(row: list[float]) -> str:
    """A list of floats as its JSON text at depth 2: each value's
    ``float.__repr__``, with json's spellings of the non-finite values."""
    text = _ROW_SEP.join(map(float.__repr__, row))
    if "n" in text:  # no finite repr holds an n
        text = _ROW_SEP.join(_JSON_SPECIAL.get(v, v) for v in map(float.__repr__, row))
    return "[\n" + "  " * 3 + text + "\n" + "  " * 2 + "]" if row else "[]"


def _list_chunks(items: Iterable[str], level: int) -> Iterator[str]:
    """A JSON list at depth level, item by item: each item is its own JSON
    text at depth level + 1."""
    indent = "\n" + "  " * (level + 1)
    sep = "[" + indent
    for item in items:
        yield sep + item
        sep = "," + indent
    yield "[]" if sep[0] == "[" else "\n" + "  " * level + "]"


def _int_list(values: Sequence[int], level: int) -> str:
    """A list of ints as its JSON text at depth level."""
    indent, end = "\n" + "  " * (level + 1), "\n" + "  " * level + "]"
    return "[" + indent + ("," + indent).join(map(str, values)) + end if values else "[]"


def _term_text(level: int, cache: bool = True) -> tuple[Callable, Callable]:
    """(item, join) for term lists at depth level, the JSON text of
    ``Polynomial.to_json_obj()``: item(e, coeff) is one term's object, its
    coefficient text given, and join(items) the list of such objects.  The
    text after each coefficient is cached per exponent tuple unless cache
    is false (a DOF listing's weights rarely repeat)."""
    i0, i1, i2 = ("\n" + "  " * (level + k) for k in range(3))
    head, tails = "{" + i2 + '"coeff": "', {}

    def tail(e: tuple) -> str:
        text = f'",{i2}"exponents": {_int_list(e, level + 2)}{i1}}}'
        if cache:
            tails[e] = text
        return text

    def item(e: tuple, coeff: str) -> str:
        return f"{head}{coeff}{tails.get(e) or tail(e)}"

    def join(items: list[str]) -> str:
        return "[" + i1 + ("," + i1).join(items) + i0 + "]" if items else "[]"

    return item, join


def _term_writer(level: int, cache: bool = True) -> Callable[[Polynomial], str]:
    """A writer of a polynomial's term list at depth level (``_term_text``),
    one f-string per term of ``Polynomial._text_terms()``."""
    item, join = _term_text(level, cache)
    return lambda p: join([item(e, text) for e, text in p._text_terms()])


def _functional_items(functionals: Iterable[DofFunctional]) -> Iterator[str]:
    """Each DOF's JSON object at depth 2, its face's text written once."""
    (item, join), faces = _term_text(3, cache=False), {}
    for L in functionals:
        face = faces.get(L.face)
        if face is None:
            face = faces[L.face] = f'{{\n      "face": {_dumps(L.face.to_json_obj(), 3)},\n      "index": '
        yield f'{face}{L.index},\n      "weight": {join([item(L.exponents, "1/1")])}\n    }}'


def _emit(args: Namespace, chunks: Iterable[str]) -> None:
    """Write the chunks to stdout, or to --out atomically: a temporary file
    beside the target, symlinks followed, replaces it only once fully
    written, with the target's permission bits if it exists.  The replace
    is a new file under the target's name: other hard links to the target
    keep the old bytes, and owner and group become the writer's.  An
    existing target that is not a regular file, a device or a FIFO, is
    written in place, since a replace would swap it for a regular file."""
    if args.out is None:
        try:
            for chunk in chunks:
                sys.stdout.write(chunk)
            sys.stdout.flush()
        except BrokenPipeError as err:
            # the reader has gone: what is still buffered goes to devnull at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise InputError(f"cannot write to stdout: {err.strerror}") from None
        return
    target = Path(os.path.realpath(args.out))  # a link stays a link
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        mode = os.stat(target).st_mode if os.path.lexists(target) else None
        in_place = mode is not None and not stat.S_ISREG(mode)
        if in_place:
            fd = os.open(target, os.O_WRONLY)
        else:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as err:
        raise InputError(f"cannot write --out {args.out}: {err.strerror}") from None
    try:
        with os.fdopen(fd, "w") as fh:
            if mode is not None and not in_place:
                os.fchmod(fd, stat.S_IMODE(mode))
            for chunk in chunks:
                fh.write(chunk)
        if not in_place:
            os.replace(tmp, target)
    except OSError as err:
        raise InputError(f"cannot write --out {args.out}: {err.strerror}") from None
    finally:
        if not in_place:
            tmp.unlink(missing_ok=True)


def _tabular(
    args: Namespace,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    payload: dict | None = None,
) -> None:
    if args.fmt == "json":
        _emit(args, _json_chunks(payload))
    elif args.fmt == "csv":
        _emit(args, [_csv_table(headers, rows)])
    else:
        _emit(args, [_text_table(headers, rows)])


def _face_label(face) -> str:
    if not face.fixed:
        return "interior"
    return ";".join(f"x{i + 1}={'+1' if s > 0 else '-1'}" for i, s in face.fixed)


# -- JSON artifacts: one builder each ---------------------------------


def _resolve_basis(args: Namespace):
    if args.family == "P":
        return basis_P(full_cube(args.n), args.r)
    return (basis_S if args.family == "S" else basis_Q)(args.n, args.r)


def _resolve_dofs(args: Namespace):
    return dofs_S(args.n, args.r) if args.family == "S" else dofs_Q(args.n, args.r)


def _basis_payload(args: Namespace) -> tuple[dict, bool]:
    """The basis object at depth 1, its monomial rows written as text."""
    basis = _resolve_basis(args).to_json_obj()
    basis["monomials"] = _list_chunks((_int_list(m, 3) for m in basis["monomials"]), 2)
    return {"seed": args.seed, "basis": _json_chunks(basis, 1)}, True


def _dofs_payload(args: Namespace) -> tuple[dict, bool]:
    return {
        "seed": args.seed,
        "layout": dof_layout(args.n, args.r, args.family).to_json_obj(),
        "functionals": _list_chunks(_functional_items(_resolve_dofs(args)), 1),
    }, True


def _nodal_payload(args: Namespace) -> tuple[dict, bool]:
    item, join = _term_text(2)
    # solved here, before any output; each term's text per sign once per perm
    images = _nodal_images(args.n, args.r, lambda e, c, scale: item(e, _ratio(c, scale)))
    return {
        "seed": args.seed,
        "n": args.n,
        "r": args.r,
        "family": "S",
        "functionals": _list_chunks(_functional_items(dofs_S(args.n, args.r)), 1),
        "polynomials": _list_chunks((join(texts) for _, texts, _ in images), 1),
    }, True


def _load_input_polynomial(args: Namespace) -> Polynomial:
    if args.poly_path is not None:
        try:
            return Polynomial.from_json_obj(args.n, json.loads(args.poly_path.read_text()))
        except OSError as err:
            raise InputError(f"cannot read --poly {args.poly_path}: {err.strerror}") from None
        # json.loads raises RecursionError on deeply nested arrays
        except (ValueError, ZeroDivisionError, KeyError, TypeError, RecursionError) as err:
            raise InputError(f"bad polynomial in {args.poly_path}: {err!r}") from None
    if args.alpha is not None:
        return Polynomial.from_monomial(args.alpha)
    # default: a small generic member, the sum of all basis monomials
    return Polynomial(args.n, dict.fromkeys(basis_S(args.n, args.r).monomials, 1))


def _decomposition(args: Namespace) -> tuple[Polynomial, list[FaceComponent], bool, bool]:
    """The input, its components in face order, whether they sum to it and
    whether the two methods agree (True for one method)."""
    n, r = args.n, args.r
    p = _load_input_polynomial(args)
    methods = ["solve", "construct"] if args.method == "both" else [args.method]
    try:
        per_method = {m: decompose(p, r, method=m) for m in methods}
    except ValueError as err:  # the input lies outside S_r
        raise InputError(str(err)) from None
    agree = len(per_method) == 1 or per_method["solve"] == per_method["construct"]
    chosen = per_method[methods[0]]
    return p, list(chosen.values()), recompose(chosen, n) == p, agree


def _component_items(components: Iterable[FaceComponent]) -> Iterator[str]:
    """Each component's JSON object at depth 2."""
    terms = _term_writer(3)
    for fc in components:
        yield (
            f'{{\n      "coefficient": {terms(fc.coefficient)},'
            f'\n      "component": {terms(fc.component)},'
            f'\n      "face": {_dumps(fc.face.to_json_obj(), 3)}\n    }}'
        )


def _decomposition_payload(args: Namespace) -> tuple[dict, bool]:
    p, components, sum_matches, agree = _decomposition(args)
    payload = {
        "command": "decompose",
        "seed": args.seed,
        "n": args.n,
        "r": args.r,
        "method": args.method,
        "input": iter([_term_writer(1)(p)]),
        "components": _list_chunks(_component_items(components), 1),
        "sum_matches": sum_matches,
        "methods_agree": agree,
    }
    return payload, sum_matches and agree


def _evalgrid_payload(args: Namespace) -> tuple[dict, bool]:
    k = args.points
    grid = [-1.0 + 2.0 * i / (k - 1) for i in range(k)]
    points = list(itertools.product(grid, repeat=args.n))
    rows = ([phi.evaluate(x) for x in points] for phi in nodal_functions(args.n, args.r))
    return {
        "seed": args.seed,
        "n": args.n,
        "r": args.r,
        "points_per_axis": k,
        "grid": grid,
        "point_order": "itertools.product over axes, axis 1 slowest",
        "values": _list_chunks(map(_float_row, rows), 1),
    }, True


_ARTIFACTS = {
    "basis": _basis_payload,
    "dofs": _dofs_payload,
    "nodal": _nodal_payload,
    "decomposition": _decomposition_payload,
    "evalgrid": _evalgrid_payload,
}


def _emit_artifact(args: Namespace, what: str) -> int:
    """Write an artifact's JSON payload.  ``command`` is the running command
    unless the builder set it; under export, ``what`` names the artifact."""
    payload, ok = _ARTIFACTS[what](args)
    payload.setdefault("command", args.command)
    if args.command == "export":
        payload["what"] = what
    _emit(args, _json_chunks(payload))
    return 0 if ok else 1


# -- commands ---------------------------------------------------------


def cmd_table1(args: Namespace) -> int:
    """Dimension of the serendipity space over an (n, r) grid."""
    dims = {n: [dim_S_formula(n, r) for r in args.r_values] for n in args.n_values}
    headers = ["n"] + [f"r={r}" for r in args.r_values]
    payload = {
        "command": "table1",
        "seed": args.seed,
        "r_values": list(args.r_values),
        "rows": [{"n": n, "dims": row} for n, row in dims.items()],
    }
    _tabular(args, headers, [[n, *row] for n, row in dims.items()], payload)
    return 0


def cmd_dims(args: Namespace) -> int:
    """Compare the three family dimensions cell by cell."""
    headers = ["n", "r", "dim_P", "dim_S", "dim_Q"]
    records = [
        dict(zip(headers, (n, r, dim_P(n, r), dim_S_formula(n, r), dim_Q(n, r))))
        for n in args.n_values
        for r in args.r_values
    ]
    payload = {"command": "dims", "seed": args.seed, "rows": records}
    _tabular(args, headers, [list(rec.values()) for rec in records], payload)
    return 0


def cmd_basis(args: Namespace) -> int:
    """List the monomial basis for one family at one (n, r)."""
    if args.fmt == "json":
        return _emit_artifact(args, "basis")
    headers = ["index"] + [f"e{i + 1}" for i in range(args.n)] + ["monomial"]
    monomials = _resolve_basis(args).monomials
    _tabular(args, headers, [[k, *m, monomial_str(m)] for k, m in enumerate(monomials)])
    return 0


def cmd_dofs(args: Namespace) -> int:
    """DOF layout (counts per face dimension) plus the functional list."""
    if args.fmt == "json":
        return _emit_artifact(args, "dofs")
    layout = dof_layout(args.n, args.r, args.family)
    headers = ["face_dim", "faces", "dofs_per_face", "subtotal"]
    rows = [
        [row.face_dim, row.face_count, row.per_face, row.subtotal]
        for row in layout.rows
    ]
    if args.fmt == "csv":
        _emit(args, [_csv_table(headers, rows)])
        return 0
    lines = (
        f"dof {L.index}: {_face_label(L.face)} weight {monomial_str(L.exponents)}\n"
        for L in _resolve_dofs(args)
    )
    _emit(args, itertools.chain([_text_table(headers, rows), f"total: {layout.total}\n"], lines))
    return 0


def _run_verify_cell(n: int, r: int, check: str, trials: int, seed: int) -> dict:
    """One (n, r, check) verification cell.

    A check that raises is a failing cell: its row names the exception
    and the traceback goes to stderr, so the other cells still report.
    An uncertified pairing names its culprit and needs no traceback.
    """
    try:
        ok, detail = _verify_check(n, r, check, trials, seed)
    except SingularMatrixError as err:
        ok, detail = False, f"raised SingularMatrixError: {err}"
    except Exception as err:
        import traceback  # only a failing cell needs it
        traceback.print_exc()
        ok, detail = False, f"raised {type(err).__name__}: {err}"
    return {"n": n, "r": r, "check": check, "ok": ok, "detail": detail}


def _verify_check(n: int, r: int, check: str, trials: int, seed: int) -> tuple[bool, str]:
    culprit = None
    if check == "dimension":
        # the index count is dim S_r by the certificate, whose part (i) is the formula
        dim, formula, culprit = index_count(n, r), dim_S_formula(n, r), certify_pairing(n, r)
        ok = culprit is None
        detail = f"enumerated {dim}, formula {formula}"
    elif check == "inclusion":
        report = check_inclusions(n, r)
        ok, culprit = report.ok, report.culprit
        detail = f"dims P/S/Q = {report.dim_P_r}/{report.dim_S_r}/{report.dim_Q_r}"
    elif check == "unisolvence":
        result = check_unisolvence(n, r)
        ok, culprit = result.unisolvent, result.culprit
        detail = f"rank {result.rank} of {result.dim}, facet kernel ok={result.facet_factor_ok}"
    elif check == "direct-sum":
        result = verify_direct_sum(n, r)
        ok, culprit = result.ok, result.culprit
        detail = f"{result.component_count} components, rank {result.rank} of {result.space_dim}"
    elif check == "facet-kernel":
        result = facet_kernel_check(n, r)
        ok, culprit = result.ok, result.culprit
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
    if culprit is not None:
        detail += f"; pairing certificate failed at {culprit}"
    return ok, detail


def cmd_verify(args: Namespace) -> int:
    """Run the selected property checks over the (n, r) grid."""
    results = [
        _run_verify_cell(n, r, check, args.trials, args.seed)
        for n in args.n_values
        for r in args.r_values
        for check in args.checks
    ]
    all_ok = all(res["ok"] for res in results)
    headers = ["n", "r", "check", "status", "detail"]
    rows = [
        [res["n"], res["r"], res["check"], "pass" if res["ok"] else "FAIL", res["detail"]]
        for res in results
    ]
    payload = {
        "command": "verify",
        "seed": args.seed,
        "trials": args.trials,
        "checks": list(args.checks),
        "results": results,
        "all_ok": all_ok,
    }
    if args.fmt == "text":
        text = _text_table(headers, rows)
        text += f"result: {'all checks passed' if all_ok else 'FAILURES PRESENT'}\n"
        _emit(args, [text])
    else:
        _tabular(args, headers, rows, payload)
    return 0 if all_ok else 1


def cmd_decompose(args: Namespace) -> int:
    """Face-by-face splitting of one polynomial, with exact round-trip."""
    if args.fmt == "json":
        return _emit_artifact(args, "decomposition")
    _, components, sum_matches, agree = _decomposition(args)
    lines = [f"decomposition over faces (n={args.n}, r={args.r}, method={args.method})\n"]
    for fc in components:
        terms = ", ".join(f"{text}*x^{e}" for e, text in fc.coefficient._text_terms())
        lines.append(f"  {_face_label(fc.face)}: {terms}\n")
    lines.append(f"sum matches input: {sum_matches}\n")
    lines.append(f"methods agree: {agree}\n")
    _emit(args, lines)
    return 0 if sum_matches and agree else 1


def cmd_continuity(args: Namespace) -> int:
    """Two-element trace equality: certified trials and perturbation controls."""
    report = check_continuity(
        args.n, args.r, axis=args.axis - 1, trials=args.trials, seed=args.seed
    )
    if args.fmt == "json":
        payload = {"command": "continuity", **report.to_json_obj()}
        _emit(args, _json_chunks(payload))
    else:
        text = (
            f"continuity n={args.n} r={args.r} axis={args.axis} "
            f"seed={report.seed} trials={report.trials}\n"
            f"shared DOFs: {report.shared_count}\n"
            f"trials with equal traces: {sum(report.trial_traces_equal)}"
            f"/{report.trials}\n"
            f"perturbations detected: {sum(report.perturbations_detected)}"
            f"/{len(report.perturbations_detected)}\n"
            f"result: {'pass' if report.ok else 'FAIL'}\n"
        )
        _emit(args, [text])
    return 0 if report.ok else 1


def cmd_export(args: Namespace) -> int:
    """Write one of the JSON artifacts (basis, dofs, nodal, ...)."""
    if args.family not in EXPORT_FAMILIES[args.what]:
        raise InputError(
            f"--what {args.what} takes --family {' or '.join(EXPORT_FAMILIES[args.what])}"
        )
    return _emit_artifact(args, args.what)


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

    def add_command(
        name: str,
        handler: Callable[[Namespace], int],
        help: str,
        formats: Sequence[str] = ("text", "json", "csv"),
        grid: bool = False,
        trials: bool = False,
    ) -> argparse.ArgumentParser:
        """A subcommand bound to its handler, with the flags every command
        shares; grid commands take (n, r) ranges, the others one cell, and
        only commands with trials use the seed.  The subcommand's own parser
        is kept as ``command_parser``, so usage errors found after parsing
        print its usage, as argparse's own errors do."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, command_parser=p)
        for v in ("n", "r"):
            if grid:
                one = f"single {v}, or range start with --{v}-max"
                end = f"range end for {v} (range starts at --{v} or 1)"
            else:
                one = f"the one {v} this command takes (required)"
                end = f"accepted only if equal to --{v}: one {v}, not a range"
            p.add_argument(f"--{v}", type=int, default=None, help=one)
            p.add_argument(f"--{v}-max", type=int, default=None, help=end)
        p.add_argument(
            "--format",
            dest="fmt",
            choices=formats,
            default=formats[0],
            help="output format: " + ", ".join(formats),
        )
        p.add_argument("--out", type=Path, default=None, help="write output to this file instead of stdout")
        seed = "seed recorded in reports" + ("; trials draw nothing" if trials else "")
        p.add_argument("--seed", type=int, default=0, help=seed)
        if trials:
            p.add_argument(
                "--trials", type=int, default=DEFAULT_TRIALS, help="number of trials reported, certified not sampled"
            )
        return p

    add_command("table1", cmd_table1, "serendipity dimension table over an (n, r) grid", grid=True)
    add_command("dims", cmd_dims, "dimensions of the P, S, Q families per (n, r)", grid=True)

    p = add_command("basis", cmd_basis, "monomial basis at one (n, r)")
    p.add_argument("--family", choices=("S", "Q", "P"), default="S")

    p = add_command("dofs", cmd_dofs, "degree-of-freedom layout and functional list")
    p.add_argument(
        "--family", choices=("S", "Q"), default="S",
        help="Q lists (r+1)^n functionals, at most 10^6 (csv prints the layout only)",
    )

    p = add_command(
        "verify", cmd_verify, "run exact property checks over a grid", grid=True, trials=True
    )
    p.add_argument(
        "--checks",
        default=",".join(VERIFY_CHECKS),
        help="comma-separated subset of: " + ", ".join(VERIFY_CHECKS),
    )
    p.add_argument("--jobs", type=int, default=0, help="accepted for compatibility; checks run in one process")

    p = add_command(
        "decompose", cmd_decompose, "split a polynomial into face components",
        formats=("json", "text"),
    )
    source = p.add_mutually_exclusive_group()
    source.add_argument("--alpha", default=None, help="monomial exponents, e.g. 2,3")
    source.add_argument("--poly", dest="poly_path", type=Path, default=None, help="JSON file with polynomial terms")
    p.add_argument("--method", choices=("solve", "construct", "both"), default="both")

    p = add_command(
        "continuity", cmd_continuity, "two-element trace equality, certified",
        formats=("text", "json"), trials=True,
    )
    p.add_argument("--axis", type=int, default=1, help="glue axis, 1-based")

    p = add_command("export", cmd_export, "write a JSON artifact", formats=("json",))
    p.add_argument("--what", choices=tuple(EXPORT_FAMILIES), default="basis")
    p.add_argument(
        "--family", choices=("S", "Q", "P"), default="S",
        help="dofs of Q list (r+1)^n functionals, at most 10^6",
    )
    source = p.add_mutually_exclusive_group()
    source.add_argument("--alpha", default=None, help="monomial exponents for decomposition export")
    source.add_argument("--poly", dest="poly_path", type=Path, default=None)
    p.add_argument("--method", choices=("solve", "construct", "both"), default="both")
    p.add_argument(
        "--points", type=int, default=11,
        help="grid points per axis for evalgrid; points^n * dim S values at most 10^6",
    )

    return parser


def _resolve_range(
    parser: argparse.ArgumentParser,
    single: int | None,
    maximum: int | None,
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


def _config_from_args(parser: argparse.ArgumentParser, args: Namespace) -> None:
    """Validate the parsed arguments in place: add n_values and r_values,
    and parse --checks and --alpha."""
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
    args.n_values = _resolve_range(parser, args.n, args.n_max, n_default, HARD_MAX_N, "n")
    args.r_values = _resolve_range(parser, args.r, args.r_max, r_default, HARD_MAX_R, "r")
    if command not in grid_defaults and len(args.n_values) * len(args.r_values) > 1:
        parser.error(f"{command} takes one n and one r, not a range")

    if command == "verify":
        args.checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
        for c in args.checks:
            if c not in VERIFY_CHECKS:
                parser.error(f"unknown check {c!r}")
        if not args.checks:
            parser.error("no checks selected")
        if args.jobs < 0:
            parser.error("jobs must be >= 0")

    if command == "continuity" and not 1 <= args.axis <= args.n:
        parser.error(f"axis must be in 1..{args.n}")

    trials = getattr(args, "trials", DEFAULT_TRIALS)
    if trials < 1:
        parser.error("trials must be >= 1")
    if trials > MAX_TRIALS:
        parser.error(f"trials must be <= {MAX_TRIALS}")

    raw_alpha = getattr(args, "alpha", None)
    if raw_alpha is not None:
        try:
            args.alpha = tuple(int(part) for part in raw_alpha.split(","))
        except ValueError:
            parser.error(f"cannot parse exponents from {raw_alpha!r}")
        if len(args.alpha) != args.n or any(a < 0 for a in args.alpha):
            parser.error("--alpha needs one non-negative exponent per variable")

    if (command == "dofs" and args.fmt != "csv") or (command == "export" and args.what == "dofs"):
        count = (dim_Q if args.family == "Q" else dim_S_formula)(args.n, args.r)
        if count > MAX_DOF_FUNCTIONALS:
            parser.error(
                f"the {args.family} DOF listing would build {count} functionals, "
                f"more than the cap of {MAX_DOF_FUNCTIONALS}"
            )

    if command == "export" and args.what == "evalgrid":
        if args.points < 2:
            parser.error("evalgrid needs at least 2 points per axis")
        values = args.points**args.n * dim_S_formula(args.n, args.r)
        if values > MAX_EVALGRID_VALUES:
            parser.error(
                f"evalgrid would write points^n * dim S = {values} values, "
                f"more than the cap of {MAX_EVALGRID_VALUES}"
            )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _config_from_args(args.command_parser, args)
    try:
        return args.handler(args)
    except InputError as err:
        sys.stderr.write(f"{parser.prog} {args.command}: error: {err}\n")
        return 2
    except SingularMatrixError as err:  # a property failed: the certificate
        sys.stderr.write(f"{parser.prog} {args.command}: failed: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
