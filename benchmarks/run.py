"""Benchmark of lz78lab: time to a verified construction, set-up and memory.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all      # every workload in turn

Run from the root of a checkout.  Each round of a workload runs in a fresh
process (benchmarks/worker.py) that imports lz78lab from ./src and calls
``lz78lab.cli.main`` with the workload's flags.  A run makes at least two
rounds, and more until the next one would end after ``--seconds``.  Every
round gets its own PYTHONHASHSEED, and all rounds must report the same digest.
The first round's outputs are checked against computations made apart from
lz78lab.

With ``--trace 0`` the last line reports, as medians over the run:
  wall_s       wall time of the CLI command, after import
  setup_s      process start until lz78lab.cli and numpy are imported
  peak_rss_mb  peak resident memory when the command returns
With ``--trace 1`` every second round runs with spans around every public
function, and the last line reports the per-layer metrics of
benchmarks/tracing.py (medians over the traced rounds) plus trace.overhead_s,
the median traced wall time minus the median plain one.  With ``--workload
all`` the last line is one JSON object holding each workload's result under
its name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT, LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("catastrophe-k12", "general-n20-l10", "infinite-4m", "fuzz-short")
SETUP_PROBES = 4       # import-only processes per run, for setup_s
MIN_ROUNDS = 2         # however long a round takes (catastrophe-k12: ~14 s)
RUN_LIMIT_S = 170      # a run must end within 180 s
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RunError(Exception):
    pass


def hash_seed(seed: int, round_no: int) -> str:
    return str((seed * 7919 + round_no * 104729 + 1) % 4294967296)


def spawn(extra: list[str], started: float, hashseed: str = "0") -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--spawned", repr(t0), *extra],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, RUN_LIMIT_S - (t0 - started)))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {extra} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {extra} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    spawn(["--probe"], started)       # fills the bytecode cache; not timed
    setups = [] if trace else [spawn(["--probe"], started)["setup_s"]
                               for _ in range(SETUP_PROBES)]
    if trace:
        OUT.mkdir(exist_ok=True)
    rounds = []
    while True:
        r = len(rounds)
        traced = trace and r % 2 == 1   # traced rounds alternate with plain ones
        args = ["--workload", name, "--seed", str(seed)]
        if not any("failures" in x for x in rounds):   # check the first good round
            args.append("--check")
        if traced:
            args += ["--spans", str(OUT / f"spans-{name}-seed{seed}.jsonl")]
        res = spawn(args, started, hash_seed(seed, r))
        res["traced"] = traced
        rounds.append(res)
        status = res.get("error", "")
        if "failures" in res:
            status = "checks failed" if res["failures"] else "checks passed"
        print(f"{name} seed={seed} round {r}: hashseed={hash_seed(seed, r)} "
              f"traced={int(traced)} setup_s={res['setup_s']:.4f} "
              f"wall_s={res.get('wall_s', float('nan')):.4f} "
              f"peak_rss_mb={res.get('peak_rss_mb', float('nan')):.1f} "
              f"digest={res.get('digest', '-')[:16]} {status}", flush=True)
        if len(rounds) < MIN_ROUNDS:
            continue
        per_round = statistics.median(x["elapsed_s"] - x.get("check_s", 0.0)
                                      for x in rounds)
        if time.monotonic() - started + per_round > seconds:
            break
    return summarize(name, seed, rounds, setups, trace)


def summarize(name: str, seed: int, rounds: list[dict], setups: list[float],
              trace: bool) -> dict:
    ok = [x for x in rounds if "error" not in x]
    failures = [f for x in ok for f in x.get("failures", [])]
    failures += sorted({f"lz78lab exited with code {x['exit_code']}"
                        for x in ok if x["exit_code"] != 0})
    if len({x["digest"] for x in ok}) > 1:
        failures.append("the report digest differs between rounds with other hash seeds")
    plain = [x for x in ok if not x["traced"]]
    traced = [x for x in ok if x["traced"]]
    if not plain or (trace and not traced):
        raise RunError(f"{name}: no round finished")
    if trace:
        layers = [x["layers"] for x in traced]
        metrics = {key: statistics.median(lay[key] for lay in layers) for key in layers[0]}
        for key in EXACT:
            if len({lay[key] for lay in layers}) > 1:
                failures.append(f"{key} differs between traced rounds")
            metrics[key] = layers[0][key]
        metrics["trace.overhead_s"] = (statistics.median(x["wall_s"] for x in traced)
                                       - statistics.median(x["wall_s"] for x in plain))
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in metrics.items()}
    else:
        values = {
            "wall_s": statistics.median(x["wall_s"] for x in plain),
            "setup_s": statistics.median(setups + [x["setup_s"] for x in plain]),
            "peak_rss_mb": statistics.median(x["peak_rss_mb"] for x in plain),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    for f in failures:
        print(f"{name} seed={seed}: CHECK FAILED: {f}", flush=True)
    return {"correct": not failures, "attempted": len(rounds),
            "failed": len(rounds) - len(ok), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "lz78lab" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no lz78lab sources under src/", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        shown = ", ".join(f"{k}={m['value']:.6g} {m['unit']}"
                          for k, m in res["metrics"].items())
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}: {shown}")
    print(json.dumps(results if args.workload == "all" else results[args.workload],
                     sort_keys=True))
    return 0 if all(res["correct"] for res in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
