"""One fresh interpreter of the benchmark, started by run.py.

Reads one JSON job from stdin, imports the package and builds the job's
systems, prints ``READY`` (run.py times set-up up to that line), runs the
job and writes its JSON result to ``result_path``.  Jobs:

* ``setup``: stop after READY.
* ``session``: run library ops one at a time until the list ends or the
  monotonic deadline passes; the process-wide ``_tower_state`` cache is
  shared across the ops, as in a real session.
* ``cli``: call ``coupledsusy.cli.main(argv)`` once, with stdout and stderr
  captured (one cli-readme op in a traced run, with or without tracing).

With ``trace`` the package's public functions are wrapped (tracer.py) and
the spans are written to ``spans_path`` at the end.
"""

import json
import os
import sys
import time


def _session(job, modules, workloads, tracer):
    session = workloads.Session(modules, job["systems"])
    print("READY", flush=True)
    if job["mode"] == "setup":
        return {}
    results = []
    workloads.reference_kernel()  # the first run in a process is slower
    refs = [workloads.time_reference()]
    deadline = job.get("deadline")
    for index, op in enumerate(job["ops"]):
        if deadline is not None and time.monotonic() >= deadline:
            break
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            result, error, work = session.run(op)
        except Exception as exc:  # a failed op is recorded, the session goes on
            result, error, work = None, type(exc).__name__, {}
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        refs.append(workloads.time_reference())
        results.append({
            "latency_s": elapsed,
            "error": error,
            "digest": None if result is None else workloads.digest(result),
            "work": work,
        })
    for entry, ref in zip(results, workloads.local_references(refs)):
        entry.update(ref_s=ref, scale=workloads.KERNEL_REFERENCE_S / ref)
    return {"results": results}


def _cli(job, modules, workloads, tracer):
    import contextlib
    import io

    print("READY", flush=True)
    op = job["ops"][0]
    out_buf, err_buf = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op = 0
    with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
        try:
            code = modules.cli.main(op["argv"])
        except Exception as exc:  # the untraced CLI would print a traceback
            code = 1
            err_buf.write(f"Traceback\n{type(exc).__name__}: {exc}\n")
    if tracer is not None:
        tracer.op = None
    stdout, stderr = out_buf.getvalue().encode(), err_buf.getvalue().encode()
    out_bytes = workloads.read_out(op)
    error = workloads.check_cli(op, code, stdout, out_bytes, stderr,
                                modules.spectral.FD_DOCUMENTED_TOLERANCE)
    return {"results": [{"exit_code": code, "error": error,
                         "digest": workloads.cli_digest(op, stdout, out_bytes),
                         "work": {"report_bytes": len(out_bytes if op.get("out") else stdout)}}]}


def main():
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import coupledsusy

    if job["mode"] == "cli":
        import coupledsusy.cli
    import workloads

    tracer = None
    if job.get("trace"):
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
    modules = sys.modules["coupledsusy"]
    run = _cli if job["mode"] == "cli" else _session
    outcome = run(job, modules, workloads, tracer)
    if job["mode"] == "setup":
        return 0
    import resource

    # the tower cache is private; a package without it reports no lookups
    cache_info = getattr(getattr(modules.towers, "_tower_state", None), "cache_info", None)
    cache = cache_info() if cache_info else None
    outcome.update({
        "version": getattr(coupledsusy, "__version__", None),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cache_hits": cache.hits if cache else 0,
        "cache_misses": cache.misses if cache else 0,
    })
    if tracer is not None:
        outcome["trace"] = tracer.aggregate()
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    with open(job["result_path"], "w") as handle:
        json.dump(outcome, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
