"""One workload in one fresh interpreter: a single closed-loop client.

Run by ``run.py``; the client starts no threads or processes.  It imports
``g2torsion.cli`` from the checkout's ``src``, sends one untimed warm-up
request of each kind, then sends requests through
``g2torsion.cli.main(argv + ["--format", "json"])`` with stdout and stderr
captured, one at a time, each after the previous one returned.  Answers are
checked against the workload's oracles after the timed stream, so checking
costs no measured time.  The last stdout line is one JSON object.

Modes:
  setup   import and warm up, then stop (one ``setup_s`` sample)
  stream  setup, then whole seeded blocks until ``--seconds`` of timed
          stream have passed and at least the workload's ``min_blocks`` ran
  trace   setup under the tracer, then a fixed number of blocks twice:
          untraced, then traced; reports per-layer numbers and the overhead

In ``setup`` and ``stream`` modes the client also times the fixed reference
work of ``reference.py``, off the clock: ``SETUP_PROBES`` times after the
warm-up, and once after every request of a timed stream.  ``REFERENCE_S``
over the mean probe time is the speed factor: of the set-up, and of each
block, whose request times it scales.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import REFERENCE_S, probe  # noqa: E402
from workloads import WORKLOADS, Outcome, verdict  # noqa: E402

#: Probes timed after the warm-up, for the set-up's speed factor.
SETUP_PROBES = 40


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv + ["--format", "json"])
        except SystemExit as exc:           # argparse usage errors exit 2
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:                   # the client must keep running
            code, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, error)


def run_all(cli, requests, tracer=None, probes=None):
    """Send the requests in order; returns (outcomes, the requests' seconds).

    With a tracer, each request's spans are tagged with a running number.
    With a `probes` list, the reference work is timed after every request,
    off the clock, and appended to it.
    """
    outcomes = []
    for req in requests:
        if tracer is not None:
            tracer.request += 1
        outcomes.append(call(cli, req.argv))
        if probes is not None:
            probes.append(probe())
    return outcomes, sum(o.seconds for o in outcomes)


def failures(requests, outcomes):
    bad = []
    for req, out in zip(requests, outcomes):
        reason = verdict(req, out)
        if reason is not None:
            bad.append(f"{req.kind} {' '.join(req.argv[1:])}: {reason}")
    return bad


def digest(outcomes):
    h = hashlib.sha256()
    for out in outcomes:
        h.update(out.stdout.encode())
    return h.hexdigest()


def shares(requests, outcomes):
    """Input-property shares of the requests actually sent."""
    n = len(requests)
    seen, repeats = set(), 0
    for r in requests:
        repeats += r.key in seen
        seen.add(r.key)
    det = [o.payload for r, o in zip(requests, outcomes)
           if r.kind == "det-e2" and o.code == 0 and o.stdout.strip()]
    out = {
        "cocalibrated_share": sum(r.props.get("cocalibrated", False) for r in requests) / n,
        "divergent_share": sum(r.props.get("divergent", False) for r in requests) / n,
        "repeat_share": repeats / n,
    }
    if det:
        out["det_e2_unchecked_share"] = sum(
            p.get("passed") is True and p.get("cross_checked") is False
            for p in det) / len(det)
        out["det_e2_requests"] = len(det)
    return out


def tail(latencies):
    """Highest percentile with at least ten samples above it: the 11th
    largest sample.  Returns (value, percentile, sample count)."""
    n = len(latencies)
    ordered = sorted(latencies)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def stream_stats(latencies):
    tail_s, tail_pct, n = tail(latencies)
    return {"latency_p50_s": statistics.median(latencies), "latency_tail_s": tail_s,
            "requests_per_s": n / sum(latencies), "tail_percentile": tail_pct,
            "samples": n}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "stream", "trace"), required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import g2torsion.cli as cli
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"g2torsion imported from {cli.__file__}, not {ROOT / 'src'}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    # Input files are named relative to a private working directory, so the
    # paths echoed in payloads, and hence the payload digest, do not vary.
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir)
    os.chdir(workdir)
    try:
        result = run_mode(cli, workload, args, ".", out_dir, import_s)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def run_mode(cli, workload, args, workdir, out_dir, import_s):
    warm = workload.warmup(workdir)
    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    warm_out, _ = run_all(cli, warm, tracer)
    setup_done = time.monotonic()
    if tracer:
        tracer.uninstall()
    bad = failures(warm, warm_out)
    result = {"setup_done": setup_done, "import_s": import_s,
              "attempted": len(warm), "failures": bad}
    if args.mode != "trace":
        result["setup_speed"] = REFERENCE_S / statistics.fmean(
            probe() for _ in range(SETUP_PROBES))
    if args.mode == "setup":
        return result

    rng = random.Random(args.seed)
    blocks = 0

    def next_block():
        nonlocal blocks
        blocks += 1
        return workload.block(rng, workdir, f"b{blocks}")

    if args.mode == "stream":
        requests, outcomes, scaled, probes, wall = [], [], [], [], 0.0
        while wall < args.seconds or blocks < workload.min_blocks:
            block = next_block()                  # files written off the clock
            block_probes = []
            block_out, block_wall = run_all(cli, block, probes=block_probes)
            speed = REFERENCE_S / statistics.fmean(block_probes)
            requests += block
            outcomes += block_out
            scaled += [o.seconds * speed for o in block_out]
            probes += block_probes
            wall += block_wall
        result.update(
            scaled=stream_stats(scaled),
            measured=stream_stats([o.seconds for o in outcomes]),
            stream_speed=REFERENCE_S / statistics.fmean(probes),
            wall_s=wall, blocks=blocks,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            shares=shares(requests, outcomes))
    else:
        # The first untraced pass primes the interpreter (heap growth, first
        # reads of the input files); the overhead compares the traced pass
        # with the second untraced pass, which runs after it.
        count = max(1, math.ceil(args.seconds / (4 * workload.trace_block_s)))
        requests = [r for _ in range(count) for r in next_block()]
        plain_out, _ = run_all(cli, requests)
        tracer.install()
        traced_out, traced_wall = run_all(cli, requests, tracer)
        tracer.uninstall()
        again_out, plain_wall = run_all(cli, requests)
        if workload.exact and not digest(plain_out) == digest(traced_out) == digest(again_out):
            bad.append("payloads differ between the untraced and traced passes")
        result["shares"] = shares(requests, plain_out)
        outcomes = plain_out + traced_out + again_out
        requests = requests * 3
        result.update(
            layers=layer_metrics(tracer, import_s, warm_out + traced_out,
                                 traced_wall - plain_wall),
            checks=isolation_checks(tracer, args.workload, len(warm)),
            payload_sha256=digest(plain_out) if workload.exact else None,
            trace_requests=len(plain_out), blocks=count,
            untraced_wall_s=plain_wall, traced_wall_s=traced_wall)
        tracer.save(out_dir / f"spans-{args.workload}.npz")
    bad += failures(requests, outcomes)
    result["attempted"] += len(requests)
    result["failures"] = bad
    return result


def layer_metrics(tracer, import_s, traced_outcomes, overhead_s):
    with open(ROOT / "BENCHMARK.json") as fh:
        per_layer = json.load(fh)["per_layer"]
    stats = tracer.span_stats()
    counts = dict(tracer.counts)
    det_calls = stats["classifier.det_e2"][0]
    counts["classifier.det_e2.cross_checked_ratio"] = (
        counts.get("classifier.det_e2.cross_checked", 0) / det_calls if det_calls else 0.0)
    counts["cli.import_s"] = import_s
    counts["cli.emit.bytes"] = sum(len(o.stdout.encode()) for o in traced_outcomes)
    counts["trace.overhead_s"] = overhead_s
    out = {}
    for metric in per_layer:
        name, unit = metric["name"], metric["unit"]
        span, stat = name.rsplit(".", 1)
        if stat == "calls":
            value = stats[span][0]
        elif stat == "self_s":
            value = stats[span][2]
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def isolation_checks(tracer, workload, first_request):
    """Does the workload exercise the layers it exists for?  The exact
    streams are judged on the traced pass (requests from `first_request`
    on); bundle-stream must not reach the exact layers even in its warm-up."""
    from spans import EXACT_LAYERS

    if workload == "bundle-stream":
        calls = sum(c for name, (c, _, _) in tracer.span_stats().items()
                    if name.split(".")[0] in EXACT_LAYERS)
        return [{"check": "exact-layer spans record zero calls",
                 "value": calls, "ok": calls == 0}]
    want = {"pipeline-stream": "liegroup.curvature",
            "classifier-stream": "spin.CliffordRep.operator"}[workload]
    below = tracer.first_below(("cli", "pipeline", "classifier"), first_request)
    total = sum(below.values())
    name = max(below, key=below.get)
    own = tracer.self_time_under(want, first_request)
    matmul = own.get("linalg.matmul", 0.0) / sum(own.values())
    return [
        {"check": f"largest span below the request handlers is {want}",
         "value": f"{name} ({below[name] / total:.1%} of the time below them)",
         "ok": name == want},
        {"check": f"linalg.matmul holds most self time under {want}",
         "value": f"{matmul:.1%}", "ok": matmul > 0.5},
    ]


if __name__ == "__main__":
    main()
