"""The polysmooth benchmark: fixed workloads of CLI queries, end to end.

    python3 bench/run.py --workload sieve-smooth --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all

Load model: a closed loop with one client.  A pass runs the workload's
queries one after another through `polysmooth.cli.main`, single-threaded,
in a fresh worker process, so root/lift caches and the rho series start
cold as they do for a CLI user.  Passes repeat until --seconds have gone by
(at least MIN_PASSES of each kind), and every pass's outputs are checked
against the pinned expectations; the first pass is also checked against the
library's oracles.

--trace 0 reports wall_s, peak_rss_mb and setup_s.  --trace 1 alternates
untraced and traced passes and reports the per-layer split of the traced
ones plus trace.overhead_s.  The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import COUNTS, LAYERS, PER_LAYER  # noqa: E402

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
WORKER_TIMEOUT_S = 150

# What setup_s times: a fresh interpreter importing the CLI and making the
# first rho(u > 2) call, which builds the Legendre series.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import polysmooth.cli; from polysmooth.dickman import rho; "
              "rho(2.5)")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env():
    env = dict(os.environ)
    env.pop("POLYSMOOTH_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def time_setup():
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          env=_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    dt = perf_counter() - t0
    if done.returncode != 0:
        raise BenchError(f"setup failed:\n{done.stderr}")
    return dt


def run_pass(queries, *, trace=False, oracle=False, spans_out=None):
    job = {"src": str(SRC), "queries": queries, "trace": trace,
           "oracle": oracle, "spans_out": spans_out}
    done = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=json.dumps(job), env=_env(),
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"worker failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def failure(q, r, expected):
    """Why query q failed in pass result r, or None."""
    if r["error"]:
        return r["error"].strip().splitlines()[-1]
    want = expected.get(q["key"])
    if want is None:
        return "no pinned expectation"
    if r["sha256"] != want:
        return "output differs from the pinned expectation"
    if r.get("oracle"):
        return "; ".join(r["oracle"])
    return None


def load_expected():
    return json.loads((BENCH / "expected.json").read_text())


def run_workload(name, seed, seconds, trace, *, scale="full", expected=None,
                 log=sys.stderr):
    """Passes over one workload; returns walls, RSS, counts and layers."""
    if expected is None:
        expected = load_expected()
    queries = workloads.queries(name, seed, scale)
    spans_out = str(workloads.OUT_DIR / f"spans-{name}.npz") if trace else None
    if trace:
        workloads.OUT_DIR.mkdir(exist_ok=True)
    walls, rss, setups, traced_walls, layers = [], [], [], [], []
    attempted = failed = 0
    if not trace:
        time_setup()  # compiles the bytecode; not kept
    deadline = perf_counter() + seconds
    k = 0
    while (perf_counter() < deadline or len(walls) < MIN_PASSES
           or (trace and len(traced_walls) < MIN_TRACED_PASSES)):
        traced = trace and k % 2 == 1
        if not trace and k % 2 == 0:
            # spread over the run, so a slow spell of the machine does not
            # land on all of them
            setups.append(time_setup())
        res = run_pass(queries, trace=traced, oracle=k == 0,
                       spans_out=spans_out if k == 1 else None)
        for q, r in zip(queries, res["queries"]):
            attempted += 1
            why = failure(q, r, expected)
            if why:
                failed += 1
                print(f"FAIL {name} seed={seed} pass={k}: {q['key'][:120]}: "
                      f"{why}", file=log)
        if traced:
            traced_walls.append(res["wall_s"])
            layers.append(res["layers"])
        else:
            walls.append(res["wall_s"])
            rss.append(res["peak_rss_mb"])
        k += 1
    return {"walls": walls, "rss": rss, "setups": setups,
            "traced_walls": traced_walls, "layers": layers,
            "attempted": attempted, "failed": failed}


def end_to_end(run):
    return {"wall_s": statistics.median(run["walls"]),
            "peak_rss_mb": statistics.median(run["rss"]),
            "setup_s": statistics.median(run["setups"])}


def per_layer(run):
    """Medians over the traced passes; counts from the first (they repeat
    exactly, see COUNTS)."""
    first = run["layers"][0]
    out = {}
    for key in PER_LAYER:
        if key == "trace.overhead_s":
            out[key] = (statistics.median(run["traced_walls"])
                        - statistics.median(run["walls"]))
        elif key in COUNTS:
            out[key] = first[key]
        else:
            out[key] = statistics.median(lay[key] for lay in run["layers"])
    return out


def unstable_counts(run):
    first = run["layers"][0]
    return sorted(k for lay in run["layers"][1:] for k in COUNTS
                  if lay[k] != first[k])


def summary(name, seed, run):
    q1, med, q3 = statistics.quantiles(run["walls"], n=4)
    line = (f"{name} seed={seed}: wall_s median {med:.4f} q1 {q1:.4f} "
            f"q3 {q3:.4f} (n={len(run['walls'])}); peak_rss_mb "
            f"{statistics.median(run['rss']):.1f}; error_rate "
            f"{run['failed']}/{run['attempted']} = "
            f"{run['failed'] / run['attempted']:g}")
    if run["setups"]:
        s1, smed, s3 = statistics.quantiles(run["setups"], n=4)
        line += (f"; setup_s median {smed:.4f} q1 {s1:.4f} q3 {s3:.4f} "
                 f"(n={len(run['setups'])})")
    lines = [line]
    if run["layers"]:
        lay = per_layer(run)
        selfs = {layer: lay[f"{layer}.self_s"] for layer in LAYERS}
        selfs["smoothsieve"] += lay["smoothsieve.eval_s"]
        total = sum(selfs.values()) or 1.0
        split = ", ".join(f"{k} {v / total:.1%}" for k, v in
                          sorted(selfs.items(), key=lambda kv: -kv[1]))
        lines.append(f"{name} traced self time {total:.3f} s: {split}; "
                     f"trace.overhead_s {lay['trace.overhead_s']:.3f} "
                     f"(n={len(run['traced_walls'])} traced)")
        bad = unstable_counts(run)
        if bad:
            lines.append(f"{name} WARNING: counts differ between traced "
                         f"passes: {', '.join(bad)}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                    help="toy is the self-test's scale")
    args = ap.parse_args(argv)

    if not (SRC / "polysmooth" / "cli.py").is_file():
        print(f"error: no polysmooth sources under {SRC}", file=sys.stderr)
        return 2
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    try:
        runs = {n: run_workload(n, args.seed, args.seconds, bool(args.trace),
                                scale=args.scale)
                for n in names}
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    metrics = {}
    for n, run in runs.items():
        for line in summary(n, args.seed, run):
            print(line)
        if args.trace:
            values, units = per_layer(run), PER_LAYER
        else:
            values, units = end_to_end(run), END_TO_END
        for key, v in values.items():
            shown = key if len(names) == 1 or key == "setup_s" else f"{n}.{key}"
            metrics[shown] = {"value": v, "unit": units[key]}
    if len(names) > 1 and not args.trace:
        metrics["setup_s"] = {"value": statistics.median(
            t for r in runs.values() for t in r["setups"]), "unit": "s"}
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
