"""One round of one workload, in a fresh process; started by run.py.

Prints one JSON line: set-up time (from the parent's spawn timestamp until
lz78lab.cli is imported), wall time of the workload's CLI command, peak resident
memory when it returns, its exit code, a digest of the report it printed, and,
when asked, the output check failures and the per-layer metrics of a traced
run.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--probe", action="store_true", help="import only")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--check", action="store_true", help="check the outputs")
    ap.add_argument("--spans", help="trace the run and write its spans here")
    args = ap.parse_args(argv)

    if not (SRC / "lz78lab" / "__init__.py").is_file():
        print(f"error: no lz78lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lz78lab.cli  # what the lz78lab command imports
    setup_s = time.monotonic() - args.spawned
    if Path(lz78lab.__file__).resolve().parent != SRC / "lz78lab":
        print(f"error: imported lz78lab from {lz78lab.__file__}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import gc
    import hashlib
    import resource
    import traceback

    import tracing
    from workloads import WORKLOADS, run

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install()
    gc.collect()
    result = {"setup_s": setup_s}
    try:
        t0 = time.perf_counter()
        code, text, kept = run(wl, inputs)
        result["wall_s"] = time.perf_counter() - t0
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        result["error"] = traceback.format_exc(limit=1).strip().splitlines()[-1]
        print(json.dumps(result))
        return 0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["exit_code"] = code
    result["digest"] = hashlib.sha256(text.encode()).hexdigest()
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.write(args.spans)
    if args.check:
        t0 = time.perf_counter()
        try:
            result["failures"] = wl.check(inputs, json.loads(text), kept)
        except Exception:  # a check that cannot finish rejects the output
            traceback.print_exc()
            result["failures"] = ["check raised: " + traceback.format_exc(
                limit=1).strip().splitlines()[-1]]
        result["check_s"] = time.perf_counter() - t0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
