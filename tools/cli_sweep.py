"""Compare the serendipity command line of two source trees byte for byte.

    python tools/cli_sweep.py PARENT_ROOT CHANGE_ROOT

Byte-compiles each tree's ``src/`` with ``compileall`` first, so that
no child's time includes compiling, then runs a fixed list of
invocations as ``python -m serendipity.cli ...`` with each tree's
``src/`` on ``PYTHONPATH``, each in a fresh interpreter (two at a time),
and compares stdout (by its SHA-256), stderr and exit code.  The list
covers every command and format over n <= 3, r <= 5; every export
artifact and family; the nodal, decomposition and evalgrid exports at
(3, 6) and (3, 8), the evalgrid export also at its default 11 points per
axis there and at 2 points at (4, 6), (5, 6) and (6, 6), where the images
of each run share their exponent shapes, and so one compiled Horner
program per shape; ``decompose --method solve`` at (4, 6), (5, 6),
(6, 4) and (4, 10), the last with the largest multiplier denominators
among them, at (1, 12), (2, 12) and (6, 6), where the DOF values'
per-axis pass meets the largest moment scale and the most faces, and at
(4, 12), (5, 12), (6, 8) and (6, 12), where the per-axis passes of the
pairing solve carry the most parts and the largest integers;
``decompose --method both`` of x1^3 x2 x3^2 at (3, 6), odd on two axes;
``decompose --method construct`` and
``--method both`` at (4, 8) and (5, 6), and the construct decomposition
export at (4, 6), which split the default member one axis at a time;
``decompose --method construct`` at (6, 12) and ``--method both`` at
(5, 12) as JSON, and ``--method both`` as text at (5, 8), where the
term writers format the most coefficients from their stored integers;
the nodal export at (4, 8), which prints every
coefficient of the solves at n = 4, at (5, 4) and (6, 4), where the
cube symmetry maps the solved functions beyond n = 4, at (5, 8),
where its streamed term lists reach 60 MB, and at (6, 6), 109 MB of
image rows; the evalgrid export at (4, 6) with 7 points per axis,
15 MB of float rows; the solve
decomposition export of x1^2 x2 x4 x5^2 at (5, 6), which substitutes
through five face dimensions; an n = 3 ``--poly`` member with mixed denominators
through ``decompose --method solve|both`` and the solve decomposition
export at (3, 6); the certified checks (unisolvence, direct sum, facet
kernel) at (4, 12), (5, 8) and (6, 6), unisolvence and facet kernel
as JSON over every cell n <= 6, r <= 12, direct sum and continuity
(its shared DOF count) as JSON over the same cells, and dimension and
inclusion, which read the index count and the pairing certificate, as
JSON and as text over the same cells; the S basis, which
is read off the element's (face, weight) index, as JSON at (4, 12),
(5, 12) and (6, 12) and as text at (6, 12), and the Q basis at (4, 12)
and the P basis at (6, 12) as JSON, whose monomial rows are written
as text as the S basis's are; the Q basis as JSON at (6, 9), its
(r+1)^n exactly the listing cap of 10^6 monomials, and at (6, 10), as
``basis`` and as ``export --what basis``, one past it (which trees
without a basis cap write out); the Q DOF
layout as csv at (5, 12), which no functional cap bounds, and the Q DOF
listing as JSON at (4, 12), whose 28,561 streamed functionals reuse
each face's text;
the decompose methods with default, ``--alpha`` and ``--poly`` input;
continuity on every axis, through ``verify`` at (4, 8) and (5, 6), on
the last axis at (4, 6) and (5, 6), and on axis 6 at (6, 3) and axis 3
at (6, 4), which read the mirror pairing beyond n = 4 and off axis 1,
and on axis 1 at (5, 8) and (6, 8), which the certificates reach without
a nodal basis, and at the cap cell (6, 12) on axes 1 and 6 as text and on
axis 3 as JSON, where the trace certificate once walked the most
monomials; ``verify`` with ``--jobs 1`` and ``--jobs 2``, which runs
every check in one process all the same; usage errors, among them
``--trials`` above its cap of 10^6, an evalgrid one grid point past its
cap of 10^6 values (which trees without that cap write out), and
``--poly`` files nested too deep for the JSON reader or with a
coefficient in exponent notation; and every
``--help``.  An invocation that runs past two minutes on either tree is
stopped and counts as a difference, also when both trees time out.
Prints each difference and a total, with each tree's summed child wall
time (both trees run under the same contention, so a drift in start-up
shows there), and exits 1 if any invocation differs.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = ("table1", "dims", "basis", "dofs", "verify", "decompose", "continuity", "export")
CELLS = [(n, r) for n in range(1, 4) for r in range(1, 6)]


def cell(n: int, r: int) -> list[str]:
    return ["--n", str(n), "--r", str(r)]


def invocations(inputs: Path) -> list[list[str]]:
    """The fixed sweep; ``inputs`` holds the --poly files it names."""
    runs: list[list[str]] = [["--help"]] + [[c, "--help"] for c in COMMANDS]
    for command in ("table1", "dims"):
        for fmt in ("text", "json", "csv"):
            for grid in ([], ["--n", "2", "--n-max", "3", "--r", "4", "--r-max", "5"],
                         ["--n-max", "3", "--r-max", "5"], cell(3, 5), ["--seed", "7"]):
                runs.append([command, *grid, "--format", fmt])
    for n, r in CELLS:
        for fmt in ("text", "json", "csv"):
            runs += [["basis", *cell(n, r), "--family", f, "--format", fmt] for f in "SQP"]
            runs += [["dofs", *cell(n, r), "--family", f, "--format", fmt] for f in "SQ"]
            runs.append(["verify", *cell(n, r), "--jobs", "1", "--format", fmt])
        for fmt in ("json", "text"):
            runs += [["decompose", *cell(n, r), "--method", m, "--format", fmt]
                     for m in ("solve", "construct", "both")]
            runs += [["continuity", *cell(n, r), "--axis", str(a), "--format", fmt]
                     for a in range(1, n + 1)]
        runs.append(["decompose", *cell(n, r), "--alpha", ",".join(["1"] * n)])
        runs += [["export", "--what", "basis", *cell(n, r), "--family", f] for f in "SQP"]
        runs += [["export", "--what", "dofs", *cell(n, r), "--family", f] for f in "SQ"]
        runs.append(["export", "--what", "nodal", *cell(n, r)])
        runs += [["export", "--what", "decomposition", *cell(n, r), "--method", m]
                 for m in ("solve", "construct", "both")]
        runs.append(["export", "--what", "evalgrid", *cell(n, r), "--points", "3"])
    for jobs in ("1", "2"):
        for fmt in ("text", "json", "csv"):
            runs.append(["verify", "--n-max", "3", "--r-max", "5", "--jobs", jobs, "--format", fmt])
        runs.append(["verify", "--jobs", jobs])
        runs.append(["verify", "--n", "2", "--r", "3", "--checks", "continuity,dimension",
                     "--seed", "5", "--trials", "3", "--jobs", jobs])
    # larger cells, where the nodal basis maps most functions by the cube symmetry
    for n, r in ((3, 6), (3, 8)):
        runs += [["export", "--what", what, *cell(n, r)] for what in ("nodal", "decomposition")]
        runs.append(["export", "--what", "evalgrid", *cell(n, r), "--points", "3"])
        runs.append(["export", "--what", "evalgrid", *cell(n, r)])
    # evalgrid where many images share one compiled exponent shape
    runs += [["export", "--what", "evalgrid", *cell(n, r), "--points", "2"]
             for n, r in ((4, 6), (5, 6), (6, 6))]
    runs += [["decompose", *cell(n, r), "--method", "solve"]
             for n, r in ((4, 6), (5, 6), (6, 4), (4, 10), (1, 12), (2, 12), (6, 6),
                          (4, 12), (5, 12), (6, 8), (6, 12))]
    # odd exponents on two axes: the moments' parity rule on every face
    runs.append(["decompose", *cell(3, 6), "--method", "both", "--alpha", "3,1,2"])
    # the construct method's per-axis passes on the default member
    runs += [["decompose", *cell(n, r), "--method", m]
             for n, r in ((4, 8), (5, 6)) for m in ("construct", "both")]
    # the JSON and text term writers at the largest construct and both cells
    runs += [["decompose", *cell(6, 12), "--method", "construct"],
             ["decompose", *cell(5, 12), "--method", "both"],
             ["decompose", *cell(5, 8), "--method", "both", "--format", "text"]]
    runs.append(["export", "--what", "decomposition", *cell(4, 6), "--method", "construct"])
    runs += [["export", "--what", "nodal", *cell(n, r)]
             for n, r in ((4, 8), (5, 4), (6, 4), (5, 8), (6, 6))]
    runs.append(["export", "--what", "evalgrid", *cell(4, 6), "--points", "7"])
    runs.append(["export", "--what", "decomposition", *cell(5, 6), "--method", "solve",
                 "--alpha", "2,1,0,1,2"])
    # the certified checks near the caps, where they need no dense rank
    runs += [["verify", *cell(n, r), "--checks", "unisolvence,direct-sum,facet-kernel",
              "--jobs", "1"] for n, r in ((4, 12), (5, 8), (6, 6))]
    runs += [["verify", "--n-max", "6", "--r-max", "12", "--checks", checks, "--format", "json"]
             for checks in ("unisolvence,facet-kernel", "direct-sum,continuity")]
    # the dimension and inclusion rows, read off the index count and the certificate
    runs += [["verify", "--n-max", "6", "--r-max", "12", "--checks", "dimension,inclusion", "--format", fmt]
             for fmt in ("json", "text")]
    # the S basis at r = 12, read off the (face, weight) index
    runs += [["basis", *cell(n, 12), "--format", "json"] for n in (4, 5, 6)]
    runs.append(["basis", *cell(6, 12)])
    runs += [["basis", *cell(n, 12), "--family", f, "--format", "json"] for n, f in ((4, "Q"), (6, "P"))]
    # the Q basis at its listing cap of 10^6 monomials, and one past it
    runs += [["basis", *cell(6, r), "--family", "Q", "--format", "json"] for r in (9, 10)]
    runs.append(["export", "--what", "basis", *cell(6, 10), "--family", "Q"])
    # the Q layout alone, which no functional cap bounds
    runs.append(["dofs", *cell(5, 12), "--family", "Q", "--format", "csv"])
    runs.append(["dofs", *cell(4, 12), "--family", "Q", "--format", "json"])
    # continuity past the small cells, on the first, the last and a middle axis
    runs += [["verify", *cell(n, r), "--checks", "continuity", "--jobs", "1"]
             for n, r in ((4, 8), (5, 6))]
    runs += [["continuity", *cell(n, r), "--axis", str(a)]
             for n, r, a in ((4, 6, 4), (5, 6, 5), (6, 3, 6), (6, 4, 3), (5, 8, 1), (6, 8, 1),
                             (6, 12, 1), (6, 12, 6))]
    runs.append(["continuity", *cell(6, 12), "--axis", "3", "--format", "json"])
    runs += [
        ["continuity", *cell(3, 4), "--axis", "2", "--seed", "9", "--trials", "4"],
        ["decompose", *cell(2, 3), "--alpha", "1,3", "--method", "both"],
        ["export", "--what", "decomposition", *cell(3, 4), "--alpha", "2,1,0"],
        ["export", "--what", "evalgrid", *cell(2, 2), "--points", "11"],
    ]
    for name in sorted(p.name for p in inputs.iterdir()):
        runs.append(["decompose", *cell(2, 2), "--poly", str(inputs / name)])
        runs.append(["export", "--what", "decomposition", *cell(2, 2), "--poly", str(inputs / name)])
    mixed = str(inputs / "mixed_n3.json")
    runs += [["decompose", *cell(3, 6), "--method", m, "--poly", mixed] for m in ("solve", "both")]
    runs.append(["export", "--what", "decomposition", *cell(3, 6), "--method", "solve", "--poly", mixed])
    runs += [
        [],
        ["nosuch"],
        ["table1", "--n", "0"],
        ["table1", "--n", "7"],
        ["table1", "--r", "13"],
        ["table1", "--n", "3", "--n-max", "2"],
        ["table1", "--format", "xml"],
        ["basis"],
        ["basis", "--n", "2"],
        ["basis", *cell(2, 2), "--n-max", "3"],
        ["basis", *cell(2, 2), "--family", "R"],
        ["dofs", *cell(2, 2), "--family", "P"],
        ["verify", "--checks", "bogus"],
        ["verify", "--checks", ","],
        ["verify", "--jobs", "-1"],
        ["verify", "--trials", "0"],
        ["verify", *cell(2, 2), "--checks", "continuity", "--jobs", "1", "--trials", "1000001"],
        ["continuity", *cell(2, 2), "--trials", "1000001"],
        ["continuity", *cell(2, 2), "--axis", "3"],
        ["continuity", *cell(2, 2), "--axis", "0"],
        ["continuity", *cell(2, 2), "--format", "csv"],
        ["decompose", *cell(2, 2), "--alpha", "1,x"],
        ["decompose", *cell(2, 2), "--alpha", "1,2,3"],
        ["decompose", *cell(2, 2), "--alpha", "3,0"],
        ["decompose", *cell(2, 2), "--alpha", "1,1", "--poly", str(inputs / "ints.json")],
        ["decompose", *cell(2, 2), "--poly", str(inputs / "absent.json")],
        ["decompose", *cell(2, 2), "--format", "csv"],
        ["export", "--what", "basis", *cell(2, 2), "--format", "csv"],
        ["export", "--what", "dofs", *cell(2, 2), "--family", "P"],
        ["export", "--what", "nodal", *cell(2, 2), "--family", "Q"],
        ["export", "--what", "evalgrid", *cell(2, 2), "--points", "1"],
        ["export", "--what", "evalgrid", *cell(1, 1), "--points", "500001"],
        ["export", "--what", "decomposition", *cell(2, 2), "--family", "P"],
        ["export", "--what", "nosuch", *cell(2, 2)],
        ["table1", "--out", str(inputs / "absent" / "table.txt")],
    ]
    return runs


def write_inputs(inputs: Path) -> None:
    """--poly files: readable members of S_2 in n = 2, and unusable ones."""
    files = {
        "ints.json": [{"exponents": [1, 1], "coeff": 3}, {"exponents": [0, 0], "coeff": -1}],
        "fractions.json": [{"exponents": [2, 0], "coeff": "2/3"}, {"exponents": [0, 1], "coeff": "-1/7"}],
        "decimal.json": [{"exponents": [1, 0], "coeff": "0.25"}],
        "outside.json": [{"exponents": [3, 0], "coeff": "1"}],
        "arity.json": [{"exponents": [1, 0, 0], "coeff": "1"}],
        "zero_denominator.json": [{"exponents": [1, 0], "coeff": "1/0"}],
        "missing_key.json": [{"exponents": [1, 0]}],
        # rejected; trees without that check read 0.1 as its binary fraction, true as 1
        "float.json": [{"exponents": [1, 0], "coeff": 0.1}],
        "bool.json": [{"exponents": [1, 0], "coeff": True}],
        # a member of S_6 in n = 3 whose moments carry mixed denominators
        "mixed_n3.json": [
            {"exponents": e, "coeff": c}
            for e, c in (([0, 0, 0], "1/3"), ([2, 1, 0], "-5/7"), ([4, 1, 2], "3/11"),
                         ([1, 1, 1], 4), ([0, 6, 0], "-2/9"), ([2, 2, 2], "13/6"))
        ],
    }
    for name, terms in files.items():
        (inputs / name).write_text(json.dumps(terms))
    (inputs / "malformed.json").write_text("[{")
    # rejected; trees without those checks print a traceback, or build 10^999999999
    (inputs / "nested.json").write_text("[" * 200_000)
    (inputs / "exponent.json").write_text(json.dumps([{"exponents": [1, 0], "coeff": "1e999999999"}]))


TIMEOUT_S = 120


def run(root: Path, argv: list[str], workdir: Path) -> tuple[str, str, int | None, float]:
    """The SHA-256 of stdout, stderr, exit code (None on a timeout) and wall
    seconds.  stdout goes to a temporary file and is hashed from there, so
    no output of a hundred megabytes is held in memory."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), COLUMNS="80")
    start = time.perf_counter()
    with tempfile.TemporaryFile(dir=workdir) as out:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "serendipity.cli", *argv],
                cwd=workdir, env=env, stdout=out, stderr=subprocess.PIPE, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "", f"timed out after {TIMEOUT_S} s", None, time.perf_counter() - start
        out.seek(0)
        digest = hashlib.sha256()
        for block in iter(lambda: out.read(1 << 20), b""):
            digest.update(block)
    # a traceback names the tree's own files
    stderr = proc.stderr.replace(str(root), "ROOT")
    return digest.hexdigest(), stderr, proc.returncode, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the reference tree")
    parser.add_argument("change", type=Path, help="root of the tree under test")
    args = parser.parse_args(argv)
    roots = [args.parent.resolve(), args.change.resolve()]
    for root in roots:
        if not (root / "src" / "serendipity" / "cli.py").is_file():
            parser.error(f"{root} has no src/serendipity/cli.py")
    for root in roots:
        compileall.compile_dir(root / "src", quiet=1)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        inputs = workdir / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        runs = invocations(inputs)
        with ThreadPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(
                lambda job: run(job[0], job[1], workdir),
                [(root, run_argv) for run_argv in runs for root in roots],
            ))
        differ = 0
        for k, run_argv in enumerate(runs):
            before, after = outcomes[2 * k], outcomes[2 * k + 1]
            fields = [name for name, a, b in zip(("stdout", "stderr", "exit"), before, after) if a != b]
            if None in (before[2], after[2]) and "exit" not in fields:
                # timed out on both sides: nothing was compared
                fields.append("exit")
            if fields:
                differ += 1
                print(f"DIFF serendipity {' '.join(run_argv)}: {', '.join(fields)}")
                if "exit" in fields:
                    print(f"  exit {before[2]} -> {after[2]}")
                if "stderr" in fields:
                    print(f"  stderr {before[1]!r} -> {after[1]!r}")
        parent_s, change_s = (sum(outcome[3] for outcome in outcomes[k::2]) for k in (0, 1))
        print(f"{len(runs)} invocations, {differ} differ; both trees' src/ byte-compiled; "
              f"child wall time parent {parent_s:.1f} s, change {change_s:.1f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
