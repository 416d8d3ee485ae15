"""Interleaved parent/change pairs of benchmark workloads.

    python3 benchmarks/pairs.py --parent <rev> --workload write_small
    python3 benchmarks/pairs.py --parent <rev> --workload write_small,write_large
    make bench-pairs PARENT=<rev> WORKLOAD=all [PAIRS=10] [SEED=7] [OUT=BENCH_tcp.json]

The rule a performance claim has to meet on a small shared box
(``bench/README.md``): run the parent commit and the working tree in
pairs, alternating which side goes first so a slow phase of the machine
lands on both; report each side's median and quartiles per metric; call
it a gain only when the change wins at least nine tenths of the pairs
(ties count for neither side) *and* the medians differ by more than the
distance between the parent's own quartiles.

``--parent`` names a git revision, checked out into a temporary
``git worktree`` that is removed afterwards — or a directory that
already holds a checkout, used as it is. Each run is
``python3 bench/run.py --workload W --seed S --trace 0`` in a fresh
interpreter of the side's own tree, so each side is measured by its own
copy of ``bench/``; the metric names, directions and bounds come from
this tree's ``BENCHMARK.json``. Pure standard library; nothing here is
imported by the benchmark itself.

``--workload`` takes one name, a comma-separated list, or ``all`` (the
workloads ``BENCHMARK.json`` declares, in its order); each is a series
of its own, run one after the other against the same parent checkout.

``--out`` appends each series to a trajectory file (``BENCH_tcp.json``,
committed: one JSON row per line, one row per series) — the revision
measured, its parent, the machine, and per metric both sides' quartiles,
the win count and every run's value in the order made — so a regression
shows up as a row, not a memory. An uncommitted tree is named by its
commit plus a hash of what it changes in the code the benchmark runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parent.parent
#: Share of the pairs the change must win before a gain is called.
WIN_SHARE = 0.9


@contextlib.contextmanager
def parent_tree(parent: str) -> Iterator[Path]:
    """The parent's checkout: an existing directory, or a scratch worktree."""
    if Path(parent).is_dir():
        yield Path(parent).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as scratch:
        tree = Path(scratch) / "tree"
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", str(tree), parent],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        try:
            yield tree
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                check=True,
            )


def run_once(tree: Path, workload: str, seed: int, no_pycache: str) -> dict[str, Any]:
    """One untraced run of ``workload`` in ``tree``; its result object.

    Every run compiles its tree from source (``no_pycache`` is an empty
    directory named as the bytecode cache, and nothing is written to
    it): a checkout that happens to hold ``__pycache__`` reads
    ``cpu_ms_per_op`` up to a tenth apart from a fresh one on identical
    code (the A/A series of docs/PERFORMANCE.md §9).
    """
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPYCACHEPREFIX": no_pycache,
        },
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{tree}: no result (exit {done.returncode})\n{done.stderr}")
    return json.loads(lines[-1])


#: What a run executes of a tree: the part of a diff that names a dirty one.
MEASURED_PATHS = ("src", "bench")


def revision(tree: Path) -> str:
    """``tree``'s commit; ``<commit>+<diff hash>`` with uncommitted code edits.

    The hash is over ``git diff HEAD`` of :data:`MEASURED_PATHS`, so two
    series of the same uncommitted code carry the same name and an edit
    to it in between shows.
    """

    def git(*args: str) -> str:
        done = subprocess.run(
            ["git", "-C", str(tree), *args], capture_output=True, text=True
        )
        return done.stdout

    commit = git("rev-parse", "--short=7", "HEAD").strip() or "unknown"
    diff = git("diff", "HEAD", "--", *MEASURED_PATHS)
    if not diff:
        return commit
    return f"{commit}+{hashlib.sha256(diff.encode()).hexdigest()[:12]}"


def append_row(path: Path, row: dict[str, Any]) -> None:
    """Add ``row`` to the trajectory at ``path`` (a JSON list, a row a line)."""
    rows = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    rows.append(row)
    lines = ",\n".join(json.dumps(entry, sort_keys=True) for entry in rows)
    path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def shown(value: float) -> str:
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def summarise(
    declared: dict[str, Any], parent: list[float], change: list[float]
) -> dict[str, Any]:
    """One metric's row: spreads, wins per side, and the verdict."""
    lower_is_better = declared["better"] == "lower"
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower_is_better else (c < p) for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    better_by = (p_med - c_med) if lower_is_better else (c_med - p_med)
    if wins >= WIN_SHARE * len(parent) and better_by > p_q3 - p_q1:
        verdict = "gain"
    elif "bound" in declared and -better_by > declared["bound"] * p_med:
        verdict = "REGRESSED"
    else:
        verdict = "-"
    return {
        "metric": declared["name"],
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "runs": {"parent": parent, "change": change},
        "delta": (c_med - p_med) / p_med if p_med else 0.0,
        "wins": wins,
        "losses": losses,
        "verdict": verdict,
    }


def series(
    workload: str,
    args: argparse.Namespace,
    trees: dict[str, Path],
    revisions: dict[str, str],
    end_to_end: list[dict[str, Any]],
    no_pycache: str,
) -> None:
    """Run, print and (``--out``) record the pairs of one workload."""
    runs: dict[str, list[dict[str, Any]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], workload, args.seed, no_pycache)
            runs[side].append(result)
            values = "  ".join(
                f"{m['name']}={shown(result['metrics'][m['name']]['value'])}"
                for m in end_to_end
            )
            print(f"pair {pair + 1:>2} {side:<6} failed={result['failed']}  {values}", flush=True)

    print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs (lower quartile / median / upper quartile)")
    print(f"{'metric':<20}{'parent':>30}{'change':>30}{'delta':>9}{'wins':>9}  verdict")
    rows = {}
    for declared in end_to_end:
        values = {
            side: [run["metrics"][declared["name"]]["value"] for run in runs[side]]
            for side in runs
        }
        row = rows[declared["name"]] = summarise(
            declared, values["parent"], values["change"]
        )
        spreads = [" / ".join(map(shown, row[side])) for side in ("parent", "change")]
        print(
            f"{row['metric']:<20}{spreads[0]:>30}{spreads[1]:>30}{row['delta']:>+9.1%}"
            f"{row['wins']:>5}:{row['losses']:<3}  {row['verdict']}"
        )
    failed = {side: sum(run["failed"] for run in runs[side]) for side in runs}
    attempted = {side: sum(run["attempted"] for run in runs[side]) for side in runs}
    print(
        f"failed/attempted  parent {failed['parent']}/{attempted['parent']}  "
        f"change {failed['change']}/{attempted['change']}\n",
        flush=True,
    )
    if args.out:
        append_row(
            Path(args.out),
            {
                "rev": revisions["change"],
                "parent": revisions["parent"],
                "machine": {
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform(),
                },
                "workload": workload,
                "seed": args.seed,
                "pairs": args.pairs,
                "failed": failed,
                "attempted": attempted,
                "metrics": {
                    name: {
                        **{
                            side: [float(f"{value:.6g}") for value in row[side]]
                            for side in runs
                        },
                        "runs": {
                            side: [float(f"{value:.6g}") for value in row["runs"][side]]
                            for side in runs
                        },
                        "wins": row["wins"],
                        "losses": row["losses"],
                        "verdict": row["verdict"],
                    }
                    for name, row in rows.items()
                },
            },
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision, or a checkout directory")
    parser.add_argument(
        "--workload", required=True, help="a workload, a comma-separated list, or 'all'"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", help="append each series as one row to a trajectory file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [workload["name"] for workload in manifest["workloads"]]
    workloads = declared if args.workload == "all" else args.workload.split(",")
    if unknown := [name for name in workloads if name not in declared]:
        parser.error(f"unknown workload {unknown[0]!r} (declared: {', '.join(declared)})")

    with parent_tree(args.parent) as tree, tempfile.TemporaryDirectory(
        prefix="bench-no-pycache-"
    ) as no_pycache:
        trees = {"parent": tree, "change": ROOT}
        revisions = {side: revision(trees[side]) for side in trees}
        for workload in workloads:
            series(workload, args, trees, revisions, manifest["end_to_end"], no_pycache)
    return 0


if __name__ == "__main__":
    sys.exit(main())
