#!/usr/bin/env python3
"""Compare a pipeline-benchmark run against the committed perf trajectory.
Stdlib only.

The trajectory is one file per workload at the repo root,
BENCH_<workload>.json: a JSON list of entries

    {"pr": <n>, "env": <run.py env line>, "result": <run.py last line>}

with the env line and the result line stored as run.py printed them.

    python3 perfbench/run.py --workload fleet-sweep --seed 1 --seconds 30 \\
        | python3 tools/bench_compare.py
    python3 tools/bench_compare.py run.txt --append --pr <n>

The run (a file, or stdin) must be a --trace 0 run. It is compared with
the last entry of the same seed:

- Quality: total_pulses, depth_pulses and pass_ratio must be equal, and
  so must tvd_mean when both ran on the same backend. A higher
  pipeline_version in the run excuses a difference (it is reported).
- Time and memory: wall_s, cpu_s, setup_s and peak_rss_mb are flagged
  when worse than the entry by more than BENCHMARK.json's bound. They
  are compared only when backend, nproc, compiler and compiler flags
  match; otherwise the script says they are not comparable. A flag is a
  report, not a failure.

--append adds the run as a new entry (refused when quality failed).

Exit status: 0 when quality holds, 1 when it does not (or the run's own
gates failed), 2 on unusable input.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Deterministic per seed: any difference is an output change.
QUALITY = ("total_pulses", "depth_pulses", "pass_ratio")
# Deterministic per seed and compute backend.
BACKEND_QUALITY = ("tvd_mean",)
# Machine-dependent: compared only under a matching stamp.
COST = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
STAMP = ("backend", "nproc", "compiler", "cxx_flags")


class InputError(Exception):
    pass


def read_run(text):
    """The env line and the result line of one run.py output."""
    env = None
    result = None
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if obj.get("kind") == "env":
            env = obj
        elif "correct" in obj and "metrics" in obj:
            result = obj
    if env is None or result is None:
        raise InputError("no env line and result line in the run output")
    missing = [m for m in QUALITY + BACKEND_QUALITY + COST
               if m not in result["metrics"]]
    if missing:
        raise InputError(f"no {', '.join(missing)} in the result line "
                         f"(a --trace 1 run?); use a --trace 0 run")
    return env, result


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def compare(last, env, result, bounds):
    """Print the comparison; returns True when quality holds."""
    old_env, old = last["env"], values(last["result"])
    new = values(result)
    bumped = env["pipeline_version"] > old_env["pipeline_version"]
    print(f"against pr {last['pr']} ({old_env['git_sha'][:12]}), "
          f"seed {env['seed']}")

    ok = True
    same_backend = env["backend"] == old_env["backend"]
    for name in QUALITY + BACKEND_QUALITY:
        if name in BACKEND_QUALITY and not same_backend:
            print(f"  {name}: not compared (backend {old_env['backend']} "
                  f"-> {env['backend']})")
            continue
        if new[name] == old[name]:
            print(f"  {name}: {new[name]} (equal)")
        elif bumped:
            print(f"  {name}: {old[name]} -> {new[name]} (pipeline_version "
                  f"{old_env['pipeline_version']} -> "
                  f"{env['pipeline_version']})")
        else:
            print(f"  FAIL {name}: {old[name]} -> {new[name]} with "
                  f"pipeline_version {env['pipeline_version']} unchanged")
            ok = False

    mismatched = [k for k in STAMP if env.get(k) != old_env.get(k)]
    if mismatched:
        for k in mismatched:
            print(f"  time metrics not comparable: {k} "
                  f"{old_env.get(k)!r} -> {env.get(k)!r}")
        return ok
    for name in COST:
        bound, better = bounds[name]
        change = (new[name] - old[name]) / old[name] if old[name] else 0.0
        worse = change > bound if better == "lower" else -change > bound
        mark = "REGRESSED" if worse else "ok"
        print(f"  {name}: {old[name]:.6g} -> {new[name]:.6g} "
              f"({change:+.1%}, bound {bound:.0%}) {mark}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run", nargs="?", default="-",
                        help="run.py output (default: stdin)")
    parser.add_argument("--append", action="store_true",
                        help="append the run as a new entry")
    parser.add_argument("--pr", type=int,
                        help="PR number of the appended entry")
    args = parser.parse_args()
    if args.append and args.pr is None:
        parser.error("--append needs --pr")

    try:
        text = (sys.stdin.read() if args.run == "-"
                else Path(args.run).read_text())
        env, result = read_run(text)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        bounds = {m["name"]: (m["bound"], m["better"])
                  for m in spec["end_to_end"]}
        path = ROOT / f"BENCH_{env['workload']}.json"
        entries = json.loads(path.read_text()) if path.exists() else []
    except (InputError, OSError, ValueError, KeyError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    ok = result["correct"] is True
    if not ok:
        print("  FAIL the run's own gates failed (correct is not true)")
    same_seed = [e for e in entries if e["env"]["seed"] == env["seed"]]
    if same_seed:
        ok = compare(same_seed[-1], env, result, bounds) and ok
    else:
        print(f"no entry for seed {env['seed']} in {path.name}; "
              f"nothing to compare")

    if args.append:
        if not ok:
            print(f"not appended to {path.name}: quality failed")
        else:
            entries.append({"pr": args.pr, "env": env, "result": result})
            path.write_text(json.dumps(entries, indent=1) + "\n")
            print(f"appended pr {args.pr} seed {env['seed']} to {path.name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
