"""Benchmark of the serendipity package: three workloads, checked outputs.

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each was chosen):

* ``verify-grid``: one ``serendipity verify`` process over the paper's
  certification grid n <= 3, r <= 6, all six checks, ``--jobs 1``;
* ``large-cell``: one ``verify`` of unisolvence and direct sum at
  (4, 6), then one ``export --what nodal`` at (3, 8);
* ``element-queries``: one process builds the (3, 6) element cold and
  runs three fixed-size batches of queries on it (``queries.py``).

Every step is a fixed amount of work; ``--seconds`` only sets how many
rounds of it a run makes, ``max(1, round(seconds / ROUND_S))``.  All
processes run one after another.  Outputs are checked against
``oracles`` outside the timed region.  The last line printed is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the run makes the same steps untraced and then traced
(``tracer.py``) and reports the per-layer metrics and the difference in
wall time as ``trace.overhead_s``.  ``--smoke`` shrinks every cell for a
quick functional check.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import oracles
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench-out"

# Nominal wall time of one round on a shared 2-vCPU virtual machine, Python 3.11.
ROUND_S = {"verify-grid": 25.0, "large-cell": 37.0, "element-queries": 1.4}
CLI_SETUPS = 9
ELEMENT_SETUPS = 3
CHILD_TIMEOUT_S = 170
NODAL_SAMPLE = 8
CHECKS = ("dimension", "inclusion", "unisolvence", "direct-sum", "facet-kernel", "continuity")
TRIALS = 25  # the CLI's default number of continuity trials

SIZES = {
    False: {"grid": (3, 6), "large": (4, 6), "export": (3, 8), "element": (3, 6)},
    True: {"grid": (2, 3), "large": (2, 4), "export": (2, 3), "element": (2, 4)},
}


class Run:
    """What one benchmark run has attempted, measured and found wrong."""

    def __init__(self, args, tmp: Path) -> None:
        self.seed, self.trace, self.tmp = args.seed, args.trace, tmp
        self.sizes = SIZES[args.smoke]
        self.rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup: list[float] = []
        self.work: list[float] = []
        self.rss_mb = 0.0
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.snapshots: list[dict] = []
        self.output_bytes = 0
        self._files = 0

    def path(self, suffix: str) -> Path:
        self._files += 1
        return self.tmp / f"{self._files}{suffix}"

    def child(self, cmd: list[str]) -> tuple[float, int, str]:
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return perf_counter() - t0, -1, "timed out"
        return perf_counter() - t0, proc.returncode, proc.stderr[-2000:]

    def cli_step(self, args: list[str], traced: bool) -> tuple[float, int, Path]:
        """One CLI process writing to a file; its wall time includes output."""
        out = self.path(".out")
        if traced:
            stats = self.path(".stats.json")
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(stats), *args, "--out", str(out)]
        else:
            cmd = [sys.executable, "-m", "serendipity.cli", *args, "--out", str(out)]
        seconds, code, err = self.child(cmd)
        if code not in (0, 1):
            print(f"{' '.join(args[:1])} exited {code}: {err}", file=sys.stderr)
        if traced:
            self.traced_s += seconds
            if stats.exists():
                self.snapshots.append(json.loads(stats.read_text()))
            if out.exists():
                self.output_bytes += out.stat().st_size
        else:
            self.untraced_s += seconds
            self.rss_mb = max(self.rss_mb, _children_rss_mb())
        return seconds, code, out

    def cli_setup(self) -> None:
        if self.trace:
            return
        for _ in range(CLI_SETUPS):
            seconds, code, err = self.child([sys.executable, "-m", "serendipity.cli", "--help"])
            self.attempted += 1
            if code:
                self.failed += 1
            else:
                self.setup.append(seconds)

    def result(self) -> dict:
        if self.trace:
            overhead = self.traced_s - self.untraced_s
            metrics = tracer.layer_metrics(tracer.merge(self.snapshots), self.output_bytes,
                                           overhead)
        else:
            metrics = {
                "setup_s": {"value": statistics.median(self.setup), "unit": "s"},
                "work_s": {"value": statistics.median(self.work), "unit": "s"},
                "peak_rss_mb": {"value": self.rss_mb, "unit": "MB"},
            }
        for e in self.errors[:20]:
            print(f"check failed: {e}", file=sys.stderr)
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def child_env() -> dict:
    """The environment of every child: the package comes from ``src/``."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def _children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _passes(run: Run) -> tuple[bool, ...]:
    return (False, True) if run.trace else (False,)


# -- verify ----------------------------------------------------------------


def _verify(run: Run, args: list[str], cells: list[tuple[int, int]], checks, traced: bool) -> float:
    argv = ["verify", *args, "--checks", ",".join(checks), "--jobs", "1",
            "--format", "json", "--seed", str(run.seed)]
    seconds, code, out = run.cli_step(argv, traced)
    expected = {(n, r, c) for n, r in cells for c in checks}
    run.attempted += len(expected)
    try:
        payload = json.loads(out.read_text())
    except (OSError, ValueError):
        run.failed += len(expected)
        return seconds
    seen = set()
    for row in payload["results"]:
        key = (row["n"], row["r"], row["check"])
        seen.add(key)
        if not row["ok"]:
            run.failed += 1
            continue
        problem = _check_verify_row(*key, row["detail"])
        if problem:
            run.errors.append(f"verify {key}: {problem}: {row['detail']}")
    run.failed += len(expected - seen)
    if code != (0 if seen == expected and payload["all_ok"] else 1):
        run.errors.append(f"verify exit code {code} does not match its rows")
    return seconds


def _check_verify_row(n: int, r: int, check: str, detail: str) -> str | None:
    """Compare a passing row's numbers with the oracles."""
    dim = oracles.dim_S(n, r)
    numbers = [int(x) for x in re.findall(r"\d+", detail)]
    expected = {
        "dimension": [dim, dim],
        "inclusion": [oracles.dim_P(n, r), dim, (r + 1) ** n],
        "unisolvence": [dim, dim],
        "direct-sum": [dim, dim, dim],
        "facet-kernel": [oracles.dim_P(n, r - 2 * n)] * 2,
        "continuity": [TRIALS, TRIALS] + [oracles.dim_S(n - 1, r)] * 2,
    }[check]
    if check == "unisolvence" and not detail.endswith("ok=True"):
        return "facet kernel check failed"
    return None if numbers == expected else f"expected {expected}"


def verify_grid(run: Run) -> None:
    n_max, r_max = run.sizes["grid"]
    cells = [(n, r) for n in range(1, n_max + 1) for r in range(1, r_max + 1)]
    grid = ["--n", "1", "--n-max", str(n_max), "--r", "1", "--r-max", str(r_max)]
    run.cli_setup()
    for traced in _passes(run):
        for _ in range(run.rounds):
            seconds = _verify(run, grid, cells, CHECKS, traced)
            if not traced:
                run.work.append(seconds)


# -- large cell ------------------------------------------------------------


def _export_nodal(run: Run, n: int, r: int, traced: bool) -> float:
    argv = ["export", "--what", "nodal", "--n", str(n), "--r", str(r),
            "--seed", str(run.seed)]
    seconds, code, out = run.cli_step(argv, traced)
    run.attempted += 1
    try:
        payload = json.loads(out.read_text())
    except (OSError, ValueError):
        payload = None
    if code or payload is None:
        run.failed += 1
        return seconds
    run.errors.extend(f"nodal export ({n},{r}): {e}"
                      for e in _check_nodal(payload, n, r, random.Random(run.seed)))
    return seconds


def _check_nodal(payload: dict, n: int, r: int, rng: random.Random) -> list[str]:
    """DOF set and count, superlinear degree, and the delta property on a
    seeded sample of nodal functions, all by the oracles."""
    dim = oracles.dim_S(n, r)
    dofs = [(oracles.face_from_json(f["face"]), tuple(f["weight"][0]["exponents"]))
            for f in payload["functionals"]]
    polys = [oracles.from_json(p) for p in payload["polynomials"]]
    errors = []
    if len(dofs) != dim or len(polys) != dim:
        errors.append(f"{len(dofs)} functionals, {len(polys)} polynomials, dim {dim}")
    if set(dofs) != oracles.dof_set(n, r) or len(set(dofs)) != len(dofs):
        errors.append("functionals differ from the face-moment DOF set")
    if any(oracles.superlinear_degree(e) > r for p in polys for e in p):
        errors.append(f"a monomial has superlinear degree above {r}")
    if errors:
        return errors
    exps = oracles.s_exponents(n, r)
    column = {e: k for k, e in enumerate(exps)}
    moments = oracles.moment_matrix(dofs, exps)
    for j in rng.sample(range(dim), min(NODAL_SAMPLE, dim)):
        delta = [int(i == j) for i in range(dim)]
        if oracles.apply_dofs(moments, column, polys[j]) != delta:
            errors.append(f"nodal function {j} is not dual to the DOFs")
    return errors


def large_cell(run: Run) -> None:
    n, r = run.sizes["large"]
    export_n, export_r = run.sizes["export"]
    run.cli_setup()
    for traced in _passes(run):
        for _ in range(run.rounds):
            seconds = _verify(run, ["--n", str(n), "--r", str(r)], [(n, r)],
                              ("unisolvence", "direct-sum"), traced)
            seconds += _export_nodal(run, export_n, export_r, traced)
            if not traced:
                run.work.append(seconds)


# -- element queries -------------------------------------------------------


def _queries(run: Run, rounds: int, traced: bool) -> None:
    """One fresh element process; its set-up ends when it prints ``ready``."""
    n, r = run.sizes["element"]
    cmd = [sys.executable, str(BENCH / "queries.py"), "--n", str(n), "--r", str(r),
           "--seed", str(run.seed), "--rounds", str(rounds)]
    stats = run.path(".stats.json")
    if traced:
        cmd += ["--stats", str(stats)]
    run.attempted += 1
    t0 = perf_counter()
    with subprocess.Popen(cmd, env=run.env, cwd=BENCH, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
    wall = perf_counter() - t0
    if ready.strip() != "ready" or proc.returncode:
        print(f"queries exited {proc.returncode}: {err[-2000:]}", file=sys.stderr)
        run.failed += 1
        return
    if rounds == 0:
        run.setup.append(setup)
        return
    summary = json.loads(out.strip().splitlines()[-1])
    run.attempted += summary["operations"]
    run.errors.extend(summary["errors"])
    if traced:
        run.traced_s += wall
        run.snapshots.append(json.loads(stats.read_text()))
    else:
        run.untraced_s += wall
        run.setup.append(setup)
        run.work.append(sum(summary["batch_s"]) / rounds)
        run.rss_mb = max(run.rss_mb, summary["rss_mb"])


def element_queries(run: Run) -> None:
    if not run.trace:
        for _ in range(ELEMENT_SETUPS - 1):
            _queries(run, 0, False)
    for traced in _passes(run):
        _queries(run, run.rounds, traced)


WORKLOADS = {
    "verify-grid": verify_grid,
    "large-cell": large_cell,
    "element-queries": element_queries,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny cells, for tests")
    args = ap.parse_args(argv)
    if not (SRC / "serendipity" / "__init__.py").is_file():
        print(f"no package source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        run = Run(args, tmp)
        WORKLOADS[args.workload](run)
        print(json.dumps(run.result()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
