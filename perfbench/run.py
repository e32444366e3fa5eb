#!/usr/bin/env python3
"""Pipeline benchmark: build the geyser_perfbench worker, run one workload,
check its outputs and print every metric by name.

    python3 perfbench/run.py --workload suite-cold|fleet-sweep|noise-stack \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The worker is built with CMake
into $CARGO_TARGET_DIR (default .bench_build) on first use.

Every workload is a closed-loop batch: one geyser_perfbench process at a
time, one calling thread, and the library's global pool (one worker per
hardware thread). --trace 0 measures the end-to-end metrics; --trace 1 runs one
untraced and one traced pass and reports the per-layer ledger, the
untraced pass's job latency percentiles, the tracing overhead, and
whether the traced pass reproduced the untraced outputs and stage times.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Lines before it carry the environment stamp and one row per circuit x
technique. Exit status is nonzero, with no result line, when the worker
cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = "geyser_perfbench"

# Hard ceiling on one invocation's measuring, so a run ends well inside
# 180 s; the first run in a checkout also pays for the build.
RUN_CEILING_S = 165.0
# The traced pass may differ from the untraced one by timing noise and
# tracing overhead, never by a missing or double-counted stage.
RECONCILE_LIMIT = 2.0


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def child_env():
    # A fixed footing: no host GEYSER_* knob (backend override, cache dir,
    # trajectory count) reaches the worker.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GEYSER_")}
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"geyser sources not found under {ROOT / 'src'}")
    out = build_root() / "perfbench"
    env = child_env()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(out), "--target", WORKER, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        raise BenchError("build failed")
    return out / WORKER


def run_worker(worker, workload, seed, trace, seconds, deadline):
    """Run one worker process; returns its protocol lines grouped by kind."""
    scratch = build_root() / "scratch"
    cmd = [str(worker), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--seconds", f"{seconds:.3f}",
           "--scratch", str(scratch)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a pass")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded the run ceiling")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    out = {}
    for text in proc.stdout.splitlines():
        if text.startswith("{"):
            obj = json.loads(text)
            out.setdefault(obj.pop("kind"), []).append(obj)
    for kind in ("setup", "pass", "digest", "env"):
        if kind not in out:
            raise BenchError(f"{workload} worker printed no {kind} line")
    return out


def source_digest():
    h = hashlib.sha256()
    for base in ("src", HERE.name):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def print_context(outs, args, runs):
    env = dict(outs[0]["env"][0])
    env.update(kind="env", git_sha=git_sha(), source_digest=source_digest(),
               seconds=args.seconds, worker_runs=runs)
    print(json.dumps(env))
    for row in outs[0].get("row", []):
        print(json.dumps(dict(kind="row", **row)))


def measure(worker, args, spec, deadline):
    """--trace 0: repeat fresh worker processes for --seconds."""
    outs = []
    if args.workload == "noise-stack":
        # Set-up compiles for seconds and the simulator keeps no warm
        # state, so two processes (set-up sampled twice) each repeat
        # passes for half the budget, set-up included.
        for _ in range(2):
            outs.append(run_worker(worker, args.workload, args.seed, False,
                                   args.seconds / 2.0, deadline))
    else:
        # A cold process per pass. Stop once another pass would end
        # more than a third of a pass past the budget, so a run lasts
        # about --seconds whatever the pass length; at least two passes.
        start = time.monotonic()
        spans = []
        while True:
            t0 = time.monotonic()
            outs.append(run_worker(worker, args.workload, args.seed, False,
                                   0.0, deadline))
            spans.append(time.monotonic() - t0)
            elapsed = time.monotonic() - start
            if (len(outs) >= 2 and
                    elapsed + median(spans) / 3.0 >= args.seconds):
                break
    passes = [p for o in outs for p in o["pass"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {d["value"] for o in outs for d in o["digest"]}
    if len(digests) != 1:
        log(f"outputs differ between passes of one seed: {sorted(digests)}")
        failed += 1

    metrics = {
        "wall_s": median(p["wall_s"] for p in passes),
        "cpu_s": median(p["cpu_s"] for p in passes),
        "setup_s": median(o["setup"][0]["setup_s"] for o in outs),
        "peak_rss_mb": median(max(p["peak_rss_mb"] for p in o["pass"])
                              for o in outs),
        "total_pulses": median(p["total_pulses"] for p in passes),
        "depth_pulses": median(p["depth_pulses"] for p in passes),
        "tvd_mean": median(p["tvd_mean"] for p in passes),
        "pass_ratio": 1.0 - failed / max(attempted, 1),
    }
    names = [m["name"] for m in spec["end_to_end"]]
    return outs, attempted, failed, {k: metrics[k] for k in names}, len(outs)


def reconcile(workload, plain, traced):
    """Worst ratio between a traced stage sum and the untraced
    CompileResult / FleetReport figure (>= 1; 1 is a perfect match, 0
    means a stage is missing)."""
    if workload == "suite-cold":
        pairs = [("transpile_ms", "transpile_ms"),
                 ("compose_ms", "compose_ms")]
        values = [(traced["pass"][0][a], plain["pass"][0][b])
                  for a, b in pairs]
    elif workload == "fleet-sweep":
        values = [(traced["pass"][0]["fleet_wall_ms"],
                   plain["pass"][0]["fleet_wall_ms"])]
    else:
        layers = traced["layers"][0]["metrics"]
        values = [(layers["sim.ideal_ms"] + layers["sim.trajectory_ms"],
                   plain["pass"][0]["rows_ms"])]
    worst = 1.0
    for t, p in values:
        if t <= 0 or p <= 0:
            return 0.0
        worst = max(worst, t / p, p / t)
    return worst


def measure_traced(worker, args, spec, deadline):
    """--trace 1: one untraced and one traced pass, compared."""
    plain = run_worker(worker, args.workload, args.seed, False, 0.0,
                       deadline)
    traced = run_worker(worker, args.workload, args.seed, True, 0.0,
                        deadline)
    if "layers" not in traced:
        raise BenchError("traced worker printed no layers line")
    passes = plain["pass"] + traced["pass"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if plain["digest"][0]["value"] != traced["digest"][0]["value"]:
        log("traced outputs differ from untraced outputs")
        failed += 1
    attempted += 1

    layers = dict(traced["layers"][0]["metrics"])
    # Job latency percentiles of the untraced pass. They carry no bound:
    # a suite-cold or noise-stack pass has only 10 or 27 jobs, and on a
    # shared host their median moved by up to a fifth between runs
    # whose wall time agreed.
    for name in ("job_p50_ms", "job_p99_ms"):
        layers[name] = plain["pass"][0][name]
    layers["trace.overhead_pct"] = 100.0 * (
        traced["pass"][0]["wall_s"] / plain["pass"][0]["wall_s"] - 1.0)
    layers["trace.reconcile_ratio"] = reconcile(args.workload, plain, traced)
    if not 1.0 <= layers["trace.reconcile_ratio"] <= RECONCILE_LIMIT:
        log(f"traced stage sums do not reconcile: "
            f"ratio {layers['trace.reconcile_ratio']:.3f}")
        failed += 1
    attempted += 1
    # Layers a workload never enters read 0 (cache.* on suite-cold, ...).
    metrics = {m["name"]: float(layers.get(m["name"], 0.0))
               for m in spec["per_layer"]}
    return [plain, traced], attempted, failed, metrics, 2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload}")
        worker = build()
        shutil.rmtree(build_root() / "scratch", ignore_errors=True)
        deadline = time.monotonic() + RUN_CEILING_S
        run = measure_traced if args.trace else measure
        outs, attempted, failed, metrics, runs = run(worker, args, spec,
                                                     deadline)
        shutil.rmtree(build_root() / "scratch", ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1

    print_context(outs, args, runs)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
