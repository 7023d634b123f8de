"""One timed pass over a query list, in a fresh interpreter.

Reads a job as JSON on stdin and writes the result as JSON on stdout:

    {"src": <dir holding the polysmooth package>, "queries": [...],
     "trace": bool, "oracle": bool, "spans_out": <path> or null}

Each query is `polysmooth.cli.main(argv)` with stdout and stderr captured.
Only the loop over the queries is timed.  Output hashes, oracle checks and
the trace aggregation happen after it, and peak RSS is read before them.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def normalize(text):
    """JSON records without their `config` echo; any other output as is."""
    if not text.startswith("{"):
        return text
    recs = [json.loads(line) for line in text.splitlines()]
    for rec in recs:
        rec.pop("config", None)
    return "\n".join(json.dumps(rec, sort_keys=True) for rec in recs)


def run_pass(job):
    sys.path.insert(0, job["src"])
    import polysmooth.cli  # noqa: F401  (loads every traced module)

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    main = sys.modules["polysmooth.cli"].main

    queries = job["queries"]
    for q in queries:
        if "config" in q:
            path = Path(q["argv"][q["argv"].index("--config") + 1])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(q["config"]))

    outs = []
    t0 = perf_counter()
    for q in queries:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(q["argv"]))
            tb = None
        except Exception:
            rc, tb = None, traceback.format_exc()
        outs.append((rc, tb, out.getvalue(), err.getvalue()))
    wall = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = []
    for q, (rc, tb, text, err) in zip(queries, outs):
        norm = normalize(text) if rc == 0 and tb is None else ""
        results.append({
            "rc": rc,
            "error": tb if tb or rc == 0 else f"exit {rc}: {err.strip()}",
            "sha256": hashlib.sha256(norm.encode()).hexdigest(),
            "out_bytes": len(text.encode()),
        })
    if job["oracle"]:
        import oracles
        for q, res, (rc, tb, text, err) in zip(queries, results, outs):
            if "check" in q and rc == 0 and tb is None:
                res["oracle"] = oracles.check(q, text)

    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "queries": results}
    if tracer is not None:
        from spans import layer_metrics
        out_bytes = sum(r["out_bytes"] for r in results)
        result["layers"] = layer_metrics(tracer.aggregate(), out_bytes)
        if job.get("spans_out"):
            tracer.save(job["spans_out"])
    return result


if __name__ == "__main__":
    job = json.load(sys.stdin)
    result = run_pass(job)
    sys.stdout.write(json.dumps(result) + "\n")
