"""A/B one benchmark workload between two checkouts; append it to ``BENCH_<workload>.json``.

Usage, from the repository root:

    python3 tools/bench_ab.py --parent DIR --change DIR --workload toy-chat \\
        --seeds 100-109 --seconds 20

Each seed is one pair: both checkouts run ``perfbench/run.py`` on it with
tracing off, and the side that runs first alternates from pair to pair.  For
every end-to-end metric that ``BENCHMARK.json`` declares, the file records each
side's median and quartiles over the pairs, every run's value, how many
pairs the change won in the metric's better direction (ties count for
neither) and a verdict against the metric's bound (see ``verdict``).

The file is the workload's trajectory, ``{"workload": ..., "entries": [...]}``:
each A/B appends one entry, oldest first, so the file reads as the history of
the benchmark across commits.  The script exits 1 when any metric is
``worse``; it also exits 1, writing nothing, at the first run that is not
correct (a benchmark session failed) and, before any run, when the file
holds another workload's trajectory.  A checkout's commit is read with
``git rev-parse HEAD``; give it with ``--parent-commit``/``--change-commit``
for an exported tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"100-109"``, ``"7,9,11"`` or a mix of both."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def git_head(checkout: Path) -> str | None:
    """HEAD of a git checkout; ``None`` for a directory that is not one."""
    if not (checkout / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its last stdout line is the result object."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: seed {seed} printed no result: {done.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def verdict(spec: dict, parent: list[float], change: list[float]) -> tuple[str, int]:
    """One metric's verdict over paired runs, and the pairs the change won.

    Distances are relative to the parent's median, in the metric's better
    direction; ``bound`` is the metric's bound in ``BENCHMARK.json``.

    * ``gain``: the change wins at least nine tenths of the pairs (ties count
      for neither), and its median is better by more than the parent's
      interquartile range;
    * ``worse``: the change's median is worse by more than ``bound``;
    * ``unresolved``: otherwise, either side's interquartile range is wider
      than ``bound``, and not every change run is better than every parent run;
    * ``flat``: everything else.
    """
    sign = 1.0 if spec["better"] == "lower" else -1.0  # oriented: lower is better
    p, c = sign * np.asarray(parent, dtype=np.float64), sign * np.asarray(change, dtype=np.float64)
    (p1, pm, p3), (c1, cm, c3) = np.percentile(p, [25, 50, 75]), np.percentile(c, [25, 50, 75])
    wins = int(np.sum(c < p))

    def relative(delta: float) -> float:
        return delta / abs(pm) if pm else (0.0 if delta == 0 else np.inf)

    if 10 * wins >= 9 * len(p) and pm - cm > p3 - p1:
        return "gain", wins
    if relative(cm - pm) > spec["bound"]:
        return "worse", wins
    if relative(max(p3 - p1, c3 - c1)) > spec["bound"] and not c.max() < p.min():
        return "unresolved", wins
    return "flat", wins


def summarize(declared: list[dict], runs: dict[str, list[dict]]) -> dict:
    metrics = {}
    for spec in declared:
        name = spec["name"]
        values = {side: [run["metrics"][name]["value"] for run in side_runs]
                  for side, side_runs in runs.items()}
        judged, wins = verdict(spec, values["parent"], values["change"])
        metrics[name] = {"unit": spec["unit"], "better": spec["better"],
                         "bound": spec.get("bound"),
                         "parent": quartiles(values["parent"]),
                         "change": quartiles(values["change"]),
                         "change_wins": wins, "verdict": judged, "values": values}
    return metrics


def side_summary(commit: str | None, side_runs: list[dict]) -> dict:
    """The side's commit and its operation counts: attempted and failed."""
    return {"commit": commit,
            "attempted": sum(run["attempted"] for run in side_runs),
            "failed": sum(run["failed"] for run in side_runs)}


def read_trajectory(path: Path, workload: str) -> dict:
    """The workload's trajectory in ``path``; a new, empty one if there is no file."""
    if not path.exists():
        return {"workload": workload, "entries": []}
    trajectory = json.loads(path.read_text())
    if trajectory.get("workload") != workload:
        raise ValueError(f"{path} holds the trajectory of workload "
                         f"{trajectory.get('workload')!r}, not {workload!r}")
    if not isinstance(trajectory.get("entries"), list):
        raise ValueError(f"{path} is not a trajectory: it has no 'entries' list")
    return trajectory


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--parent-commit")
    parser.add_argument("--change-commit")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    try:
        trajectory = read_trajectory(out, args.workload)
    except ValueError as exc:
        print(f"{exc}; nothing run", file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair, seed in enumerate(args.seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            if not result["correct"]:  # a failed run reports no metrics
                print(f"{side} failed on seed {seed}: {result['failed']} of "
                      f"{result['attempted']} sessions failed; no file written",
                      file=sys.stderr)
                return 1
            runs[side].append(result)
            print(f"seed {seed} {side}: commonkv.decode_ms_p50 "
                  f"{result['metrics']['commonkv.decode_ms_p50']['value']:.4f} ms",
                  file=sys.stderr)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "pairs": len(args.seeds),
        "nproc": len(os.sched_getaffinity(0)),
        "parent": side_summary(args.parent_commit or git_head(args.parent), runs["parent"]),
        "change": side_summary(args.change_commit or git_head(args.change), runs["change"]),
        "metrics": summarize(declared, runs),
    }
    trajectory["entries"].append(report)
    out.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"appended entry {len(trajectory['entries'])} to {out}", file=sys.stderr)
    for name, m in report["metrics"].items():
        print(f"{m['verdict']:>10}  {name}", file=sys.stderr)
    return 1 if any(m["verdict"] == "worse" for m in report["metrics"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
