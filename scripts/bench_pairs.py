"""Run alternating parent/change perfbench pairs and write BENCH_<n>.json.

    python scripts/bench_pairs.py --out BENCH_9.json --workload attr-single-object \
        --seed 1 --pairs 10 [--parent HEAD] [--trace 0]

The change is this checkout as it stands, uncommitted edits included. The
parent is the commit ``--parent`` names, unpacked with ``git archive`` into a
temporary directory (under ``$TMPDIR``) that is removed afterwards. Each pair
runs ``perfbench/run.py`` once in each tree, each in a fresh process, for the
``run_seconds`` that BENCHMARK.json sets; the side that runs first alternates
from pair to pair, so drift in the machine's speed falls on both sides alike.

The output holds every run (the final JSON line of perfbench/run.py, plus the
speed factor and wall time) and, per workload and seed, each metric's median
and quartiles on each side, ``change_wins`` (pairs in which the change is
better, in the direction BENCHMARK.json gives, out of all pairs run) and
``rel_change`` (change median over parent median, minus one). A pair in which
either run gave no result (a crash or a timeout) is counted in
``incomplete_pairs``; it adds to the total of ``change_wins`` but never a win,
and no metric. The closing lines print, per group, every ``end_to_end``
metric of BENCHMARK.json with both medians, ``rel_change`` and
``change_wins``. Running the script again with the same output file adds runs
to it, provided both trees' sources are unchanged. Nothing under perfbench/ is
edited.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
FACTOR = re.compile(r"measured seconds times ([0-9.]+) give reference seconds")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, capture_output=True, text=True,
                          check=True).stdout.strip()


def unpack(sha: str, dest: Path) -> None:
    """The files of commit `sha`, as git archive gives them, under dest."""
    tar = subprocess.run(["git", "archive", sha], cwd=REPO, capture_output=True,
                         check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def fingerprint(tree: Path) -> str:
    """perfbench's own digest of the program and benchmark sources in a tree."""
    code = "import sys; sys.path.insert(0, 'perfbench'); import run; print(run.source_fingerprint())"
    return subprocess.run([sys.executable, "-c", code], cwd=tree, capture_output=True,
                          text=True, check=True).stdout.strip()


def machine() -> dict:
    cpu, mem_kb = platform.processor(), 0
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
        with open("/proc/meminfo", encoding="utf-8") as f:
            mem_kb = int(next(ln.split()[1] for ln in f if ln.startswith("MemTotal")))
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "memory_gb": round(mem_kb / 2**20, 1),
            "python": platform.python_version(),
            "os": f"{platform.system()} {platform.release()}"}


def run_once(tree: Path, args, seconds: str, side: str, pair: int, first: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", seconds, "--trace", str(args.trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    factor = FACTOR.search(done.stdout)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode or result is None:
        print(done.stderr[-2000:], file=sys.stderr)
    return {"side": side, "workload": args.workload, "seed": args.seed, "pair": pair,
            "first": first, "trace": args.trace,
            "speed_factor": float(factor.group(1)) if factor else None,
            "wall_s": round(wall, 1), "returncode": done.returncode, "result": result}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload, seed and trace mode: each metric side by side."""
    groups: dict[str, dict[int, dict[str, dict | None]]] = {}
    for r in runs:
        name = f"{r['workload']} seed {r['seed']}" + (" --trace 1" if r.get("trace") else "")
        groups.setdefault(name, {}).setdefault(r["pair"], {})[r["side"]] = r["result"]
    out = {}
    for name, pairs in sorted(groups.items()):
        whole = [p for _, p in sorted(pairs.items())
                 if len(p) == 2 and None not in p.values()]
        summary: dict = {"incomplete_pairs": len(pairs) - len(whole)}
        out[name] = summary
        if not whole:
            continue
        for metric in whole[0]["parent"]["metrics"]:
            par = [p["parent"]["metrics"][metric]["value"] for p in whole]
            chg = [p["change"]["metrics"][metric]["value"] for p in whole]
            entry = {"parent": quartiles(par), "change": quartiles(chg)}
            if metric in better:
                sign = 1 if better[metric] == "higher" else -1
                wins = sum(sign * (c - q) > 0 for q, c in zip(par, chg))
                entry["change_wins"] = f"{wins}/{len(pairs)}"
            med = entry["parent"]["median"]
            entry["rel_change"] = entry["change"]["median"] / med - 1 if med else None
            summary[metric] = entry
        for key in ("failed", "attempted"):
            summary[key] = {side: sum(p[side][key] for p in whole)
                            for side in ("parent", "change")}
    return out


def closing_lines(summary: dict, metrics: list[str]) -> list[str]:
    """Per group: its incomplete pairs, then each of `metrics` it has, with
    both medians, the relative change and the pairs the change won."""
    lines = []
    for name, group in summary.items():
        lines.append(f"{name} incomplete_pairs: {group['incomplete_pairs']}")
        for metric in metrics:
            if metric in group:
                e = group[metric]
                rel = "n/a" if e["rel_change"] is None else f"{e['rel_change']:+.1%}"
                lines.append(f"{name} {metric}: parent {e['parent']['median']:.4g} "
                             f"change {e['change']['median']:.4g} rel_change {rel} "
                             f"wins {e.get('change_wins')}")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = str(bench["run_seconds"])
    parent_sha = git("rev-parse", args.parent)

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp) / "parent"
        unpack(parent_sha, parent_tree)
        trees = {"parent": parent_tree, "change": REPO}
        prints = {side: fingerprint(tree) for side, tree in trees.items()}
        doc = {
            "what": "Final JSON line of every perfbench/run.py run, in alternating "
                    "parent/change pairs (the side that ran first alternates); "
                    "written by scripts/bench_pairs.py.",
            "commit": {"parent": parent_sha,
                       "change": "the source of the commit that last changed this "
                                 "file (source_fingerprint.change)",
                       "source_fingerprint": prints},
            "machine": machine(),
            "summary": {},
            "runs": [],
        }
        if args.out.exists():
            old = json.loads(args.out.read_text(encoding="utf-8"))
            if old["commit"]["source_fingerprint"] != prints:
                print(f"error: {args.out} holds runs of other sources "
                      f"{old['commit']['source_fingerprint']}; move it aside",
                      file=sys.stderr)
                return 2
            doc.update(old)  # its runs, and any notes kept beside them
        done = [r["pair"] for r in doc["runs"] if r["workload"] == args.workload
                and r["seed"] == args.seed and r.get("trace", 0) == args.trace]
        start = max(done) + 1 if done else 0
        for pair in range(start, start + args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], args, seconds, side, pair, order[0])
                doc["runs"].append(run)
                res = run["result"] or {}
                ops = res.get("metrics", {}).get("ops_per_s", {}).get("value")
                print(f"pair {pair} {side}: ops_per_s {ops}, failed {res.get('failed')}, "
                      f"wall {run['wall_s']} s", flush=True)
            doc["summary"] = summarize(doc["runs"], better)
            args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for line in closing_lines(doc["summary"], [m["name"] for m in bench["end_to_end"]]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
