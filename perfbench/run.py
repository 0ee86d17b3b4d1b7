"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pipeline-stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it spawns the workload's
client three times: twice for set-up only and once for set-up plus the timed
stream, and reports the end-to-end metrics (``setup_s`` is the median of the
three set-ups).  Every end-to-end time is scaled to the reference speed of
``reference.py``: each block's request times by that block's speed factor,
``REFERENCE_S`` over the mean time of the fixed reference work timed after
each of its requests, and each set-up by a factor timed after it.  The
measured wall times and the factors are printed too.  With ``--trace 1``
it spawns one traced client and reports the per-layer metrics, unscaled.
Human-readable lines come first; the last stdout line is the JSON result.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import REFERENCE_S  # noqa: E402
from workloads import SIZE_BOUND, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def environment():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def spawn(args, mode, deadline):
    """Run one client to completion; returns (its result, spawn time)."""
    cmd = [sys.executable, str(HERE / "client.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} client exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    env = environment()
    print(f"# {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# numbers from different machines are not compared")

    if args.trace:
        res, _ = spawn(args, "trace", deadline)
        metrics = res["layers"]
        attempted, bad = res["attempted"], res["failures"]
        print(f"# traced {res['trace_requests']} requests ({res['blocks']} blocks) "
              f"untraced {res['untraced_wall_s']:.3f} s, traced "
              f"{res['traced_wall_s']:.3f} s, overhead "
              f"{metrics['trace.overhead_s']['value']:.3f} s")
        print(f"# payload_sha256 {res['payload_sha256'] or 'n/a (float payloads)'}")
        for c in res["checks"]:
            print(f"# check {'ok  ' if c['ok'] else 'FAIL'} {c['check']}: {c['value']}")
        print("# every layer is single-threaded with no queue: no wait-time metric")
    else:
        samples, speeds, attempted, bad = [], [], 0, []
        for i in range(SETUP_SAMPLES):
            res, started = spawn(args, "stream" if i == SETUP_SAMPLES - 1 else "setup",
                                 deadline)
            # time.monotonic() is one system-wide clock on Linux, so the
            # client's reading and the spawn time can be subtracted.
            samples.append(res["setup_done"] - started)
            speeds.append(res["setup_speed"])
            attempted += res["attempted"]
            bad += res["failures"]
        scaled, measured = res["scaled"], res["measured"]
        metrics = {
            "setup_s": {"value": statistics.median(
                s * f for s, f in zip(samples, speeds)), "unit": "s"},
            "latency_p50_s": {"value": scaled["latency_p50_s"], "unit": "s"},
            "latency_tail_s": {"value": scaled["latency_tail_s"], "unit": "s"},
            "requests_per_s": {"value": scaled["requests_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"# speed factors: set-up {', '.join(f'{f:.3f}' for f in speeds)}; "
              f"stream {res['stream_speed']:.3f} (reference {REFERENCE_S} s over "
              f"the mean probe time)")
        print(f"# measured setup {', '.join(f'{s:.3f}' for s in samples)} s; "
              f"import {res['import_s']:.3f} s")
        print(f"# measured stream {measured['samples']} requests in {res['blocks']} "
              f"blocks, {res['wall_s']:.3f} s; p50 {measured['latency_p50_s']:.4f} s, "
              f"tail {measured['latency_tail_s']:.4f} s, "
              f"{measured['requests_per_s']:.4f} 1/s; tail is "
              f"p{measured['tail_percentile']:.1f} of {measured['samples']} samples "
              f"(10 beyond it)")
        print(f"failed_share {len(bad) / attempted:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print("# inputs " + json.dumps(res["shares"], sort_keys=True)
          + f"; size bound {SIZE_BOUND}")
    for line in bad[:20]:
        print(f"# FAILED {line}")
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": len(bad), "metrics": metrics}))


if __name__ == "__main__":
    main()
