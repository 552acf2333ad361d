"""Benchmark of the coupledsusy workbench, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload cli-readme --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one client, one op at a time):

* ``cli-readme``: one cold ``python -m coupledsusy.cli`` process per op,
  cycling through the seven README command shapes at README scale.
* ``exact-session``: exact library calls (verify, towers, Gram matrices,
  half-lowering lemma, samples, uncertainty products) in a fresh
  interpreter per repetition, the tower cache shared within it.

With ``--trace 0`` the run measures for ``--seconds``, and on until the
first ``workloads.METRIC_OPS`` ops have finished, and prints the
end-to-end metrics, taken over those ops and scaled to the reference speed
(``workloads.KERNEL_REFERENCE_S``, ``workloads.PROCESS_REFERENCE_S``); with
``--trace 1`` it runs a fixed prefix of the same ops untraced and then
traced, and prints the per-layer metrics (self time and work counts of
each module's public functions, import times from ``-X importtime``) and
the tracing overhead.  Either way the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the full record
(inputs, per-op latencies, digests, work counts, failures, the defect
probe and provenance) goes to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import select
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join("perfbench", "out")
#: Whole-run limit; the contract allows 180 s.
TIME_LIMIT_S = 170.0
#: The fixed op prefix of a traced run (so its counts repeat exactly).
TRACE_CLI_CYCLES = 2
TRACE_REPETITIONS = 1
#: A latency percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
IMPORT_PACKAGES = ("numpy", "scipy", "mpmath", "coupledsusy")

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchTimeout(Exception):
    pass


class WorkerError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _read(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def git_commit(root):
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref:"):
        return head
    ref = head[4:].strip()
    direct = _read(os.path.join(root, ".git", ref))
    if direct:
        return direct.strip()
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest(root):
    """sha256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(root, args):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    init = _read(os.path.join(root, "src", "coupledsusy", "__init__.py")) or ""
    match = re.search(r"^__version__\s*=\s*['\"]([^'\"]+)", init, re.M)
    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "package_version": match.group(1) if match else None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def fd_tolerance(root):
    """spectral.FD_DOCUMENTED_TOLERANCE, read from the source without importing it."""
    with open(os.path.join(root, "src", "coupledsusy", "spectral.py")) as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(getattr(t, "id", None) == "FD_DOCUMENTED_TOLERANCE" for t in targets):
            return ast.literal_eval(node.value)
    raise LookupError("spectral.FD_DOCUMENTED_TOLERANCE not found")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Reference:
    """Process-reference samples taken between the timed items of a sequence.

    Each item gets ``ref_s``, the median of the samples just before and
    after it (see workloads.local_references), and ``scale``, the factor
    that brings its wall time to the reference speed.
    """

    def __init__(self, sample):
        self.sample = sample
        self.refs = [sample()]
        self.items = []

    def after(self, item):
        self.refs.append(self.sample())
        self.items.append(item)
        return item

    def close(self):
        for item, ref in zip(self.items, wl.local_references(self.refs)):
            item.update(ref_s=ref, scale=wl.PROCESS_REFERENCE_S / ref)


class Bench:
    def __init__(self, root, args):
        self.root = root
        self.workload = args.workload
        self.seed = args.seed
        self.cli = args.workload == "cli-readme"
        self.limit = time.monotonic() + TIME_LIMIT_S
        self.children = []
        paths = [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.tmp = os.path.join(root, OUT_DIR, "tmp")
        self.spans_dir = os.path.join(root, OUT_DIR, "spans")
        os.makedirs(self.tmp, exist_ok=True)
        os.makedirs(self.spans_dir, exist_ok=True)
        self.fd_tolerance = fd_tolerance(root) if self.cli else None

    def remaining(self):
        left = self.limit - time.monotonic()
        if left <= 0:
            raise BenchTimeout(f"run exceeded {TIME_LIMIT_S:.0f} s")
        return left

    def stop_children(self):
        for proc in self.children:
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()

    def _spawn(self, argv, stdin, stdout, stderr):
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=stdin, stdout=stdout, stderr=stderr)
        self.children.append(proc)
        return proc

    def _reap(self, proc):
        """Wait for exit within the run's limit; returns the child's rusage."""
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], self.remaining())[0]:
                raise BenchTimeout(f"process {proc.args[:4]} still running at the time limit")
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return usage

    def process_reference(self):
        """Seconds for one cold interpreter running workloads.PROCESS_REFERENCE."""
        start = time.perf_counter()
        proc = self._spawn([sys.executable, "-c", wl.PROCESS_REFERENCE],
                           subprocess.DEVNULL, subprocess.DEVNULL, subprocess.DEVNULL)
        self._reap(proc)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise WorkerError(f"reference process exited {proc.returncode}")
        return elapsed

    def worker(self, job, importtime=False):
        """Run one worker.py job; returns set-up and total wall time, its result and stderr."""
        job = dict(job, root=self.root, result_path=os.path.join(self.tmp, "worker-result.json"))
        argv = [sys.executable] + (["-X", "importtime"] if importtime else [])
        argv.append(os.path.join(HERE, "worker.py"))
        err_path = os.path.join(self.tmp, "worker-stderr.txt")
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = self._spawn(argv, subprocess.PIPE, subprocess.PIPE, err)
            proc.stdin.write(json.dumps(job).encode())
            proc.stdin.close()
            fd = proc.stdout.fileno()
            if not select.select([fd], [], [], self.remaining())[0]:
                raise BenchTimeout("worker did not start before the time limit")
            ready = os.read(fd, 64)
            setup = time.perf_counter() - start
            self._reap(proc)
            wall = time.perf_counter() - start
            proc.stdout.close()
        stderr = _read(err_path) or ""
        if not ready.startswith(b"READY") or proc.returncode != 0:
            raise WorkerError(f"worker exited {proc.returncode} ({ready!r}):\n{stderr[-3000:]}")
        result = {}
        if job["mode"] != "setup":
            with open(job["result_path"]) as handle:
                result = json.load(handle)
        return {"setup_s": setup, "wall_s": wall, "result": result, "stderr": stderr}

    def cli_op(self, op):
        """One cold `python -m coupledsusy.cli` process, timed from spawn to exit."""
        out_path, err_path = os.path.join(self.tmp, "cli-stdout"), os.path.join(self.tmp, "cli-stderr")
        if op.get("out") and os.path.exists(op["out"]):
            os.unlink(op["out"])
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = self._spawn([sys.executable, "-m", "coupledsusy.cli"] + op["argv"],
                               subprocess.DEVNULL, out, err)
            usage = self._reap(proc)
            elapsed = time.perf_counter() - start
        with open(out_path, "rb") as handle:
            stdout = handle.read()
        with open(err_path, "rb") as handle:
            stderr = handle.read()
        out_bytes = wl.read_out(op)
        error = wl.check_cli(op, proc.returncode, stdout, out_bytes, stderr, self.fd_tolerance)
        return {
            "latency_s": elapsed,
            "error": error,
            "exit_code": proc.returncode,
            "digest": wl.cli_digest(op, stdout, out_bytes),
            "work": {"report_bytes": len(out_bytes if op.get("out") else stdout)},
            "maxrss_kb": usage.ru_maxrss,
        }

    def cli_op_worker(self, op, spans_path=None):
        """cli.main(argv) in a fresh worker under -X importtime, traced when spans_path is given.

        A traced cli-readme run times both of its forms this way, so that
        they differ by the tracing alone.
        """
        run = self.worker({"mode": "cli", "ops": [op], "trace": spans_path is not None,
                           "spans_path": spans_path}, importtime=True)
        entry = run["result"]["results"][0]
        entry["latency_s"] = run["wall_s"]
        return entry, run

    def session(self, ops, deadline=None, trace=False, importtime=False, spans_path=None):
        return self.worker({"mode": "session", "systems": wl.systems_for(self.workload), "ops": ops,
                            "deadline": deadline, "trace": trace, "spans_path": spans_path},
                           importtime=importtime)

    # -- phases ----------------------------------------------------------------

    def timed(self, deadline):
        """Closed loop until the deadline and the METRIC_OPS ops have finished.

        Returns (op entries, set-up samples, peak RSS in kB); the run's
        time limit is the hard cap.

        Set-up is sampled once per repetition or CLI cycle, so its median
        spans the same stretch of time as the ops.  For the in-process
        workloads the sample is the repetition's own worker start.  Every
        entry and sample carries ``ref_s``, the duration of the reference
        around it (the process reference for a process start or CLI op, the
        kernel for a library call), and ``scale``.
        """
        setup_job = {"mode": "setup", "systems": wl.systems_for(self.workload)}
        self.worker(setup_job)  # fills the bytecode and page caches; not timed
        entries, setup, rss = [], [], []
        need = wl.METRIC_OPS[self.workload]

        def more():
            return time.monotonic() < deadline or len(entries) < need

        track = Reference(self.process_reference)
        unit = 0
        while more():
            ops = wl.timed_ops(self.workload, self.seed, unit)
            if self.cli:
                setup.append(track.after({"setup_s": self.worker(setup_job)["setup_s"]}))
                for index, op in enumerate(ops):
                    if not more():
                        break
                    entry = track.after(self.cli_op(op))
                    rss.append(entry.pop("maxrss_kb"))
                    entry.update(unit=unit, index=index, op=op)
                    entries.append(entry)
            else:
                # a repetition still needed for the metrics runs whole
                run = self.session(ops, deadline=deadline if len(entries) >= need else None)
                setup.append(track.after({"setup_s": run["setup_s"]}))
                rss.append(run["result"]["maxrss_kb"])
                for index, (op, entry) in enumerate(zip(ops, run["result"]["results"])):
                    entries.append(dict(entry, unit=unit, index=index, op=op))
            unit += 1
        track.close()
        return entries, setup, max(rss)

    def probe(self):
        """The known-defect inputs of this workload, run once and untimed."""
        ops = wl.probe_ops(self.workload, self.seed)
        if self.cli:
            results = [self.cli_op(op) for op in ops]
            # a report or a clean exit 2 is the contract; a traceback is the defect
            failed = [r["error"] not in (None, "ConfigExit2") for r in results]
        else:
            results = self.session(ops)["result"]["results"]
            failed = [r["error"] is not None for r in results]
        by_defect = {}
        for op, result, bad in zip(ops, results, failed):
            inputs = {k: v for k, v in op.items() if k != "defect"}
            by_defect.setdefault(op["defect"], []).append(
                {"input": inputs, "failed": bad, "error": result["error"]})
        return {
            "attempted": len(ops),
            "failed": sum(failed),
            "failed_ops_share": sum(failed) / len(ops),
            "by_defect": by_defect,
        }

    def traced(self):
        """A fixed op prefix, untraced then traced; per-layer metrics and overhead."""
        units = range(TRACE_CLI_CYCLES if self.cli else TRACE_REPETITIONS)
        plan = [(unit, index, op) for unit in units
                for index, op in enumerate(wl.timed_ops(self.workload, self.seed, unit))]
        untraced, traced, runs, untraced_runs = [], [], [], []
        if self.cli:
            # alternate the two forms of each op, so both see the same host speed
            track = Reference(self.process_reference)
            for unit, index, op in plan:
                entry, run = self.cli_op_worker(op)
                untraced.append(track.after(entry))
                untraced_runs.append(run)
                spans = os.path.join(self.spans_dir, f"{self.workload}-seed{self.seed}-{unit}-{index}.jsonl")
                entry, run = self.cli_op_worker(op, spans)
                traced.append(track.after(entry))
                runs.append(run)
            track.close()
        else:
            for unit in units:
                ops = wl.timed_ops(self.workload, self.seed, unit)
                run = self.session(ops, importtime=True)
                untraced += run["result"]["results"]
                untraced_runs.append(run)
            for unit in units:
                ops = wl.timed_ops(self.workload, self.seed, unit)
                spans = os.path.join(self.spans_dir, f"{self.workload}-seed{self.seed}-{unit}.jsonl")
                run = self.session(ops, trace=True, importtime=True, spans_path=spans)
                traced += run["result"]["results"]
                runs.append(run)
        return plan, untraced, traced, runs, untraced_runs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def normalized(sample, key="latency_s"):
    """A wall time scaled to the reference speed (see workloads.PROCESS_REFERENCE)."""
    return sample[key] * sample["scale"]


def latency_summary(entries, key):
    """Median and tail latency; a failed op counts as +inf in both."""
    lat = sorted(key(e) if e["error"] is None else math.inf for e in entries)
    count = len(lat)
    if count > TAIL_SAMPLES:
        tail, percentile = lat[count - TAIL_SAMPLES - 1], 100.0 * (count - TAIL_SAMPLES) / count
    else:
        tail, percentile = lat[-1], 100.0
    return statistics.median(lat), tail, percentile


def import_self_times(stderr):
    """Seconds of own import time per top-level package, from -X importtime output."""
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        top = fields[2].strip().split(".")[0]
        if top in totals:
            totals[top] += int(fields[0]) / 1e6
    return totals


def merge_traces(traces):
    merged = {"functions": {}, "counters": {}, "evaluations": 0, "evaluations_first_try": 0,
              "count_errors": {}, "spans": 0}
    for trace in traces:
        for name, entry in trace["functions"].items():
            into = merged["functions"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                into[key] += value
        for key in ("counters", "count_errors"):
            for name, value in trace[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for key in ("evaluations", "evaluations_first_try", "spans"):
            merged[key] += trace[key]
    return merged


def layer_metrics(merged, imports, cache_hits, cache_misses, overhead_s):
    """The per-layer metrics, in the order BENCHMARK.json lists them."""
    fns = merged["functions"]

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(fns.get(name, {}).get("self_s", 0.0) for name in names)

    def count(name):
        return merged["counters"].get(name, 0)

    lookups = cache_hits + cache_misses
    values = [(f"import.{pkg}.self_s", imports[pkg], "s") for pkg in IMPORT_PACKAGES]
    values += [
        ("calculus.apply_generator.calls", calls("calculus.apply_generator"), "count"),
        ("calculus.apply_generator.self_s", self_s("calculus.apply_generator"), "s"),
        ("calculus.apply_generator.terms", count("calculus.apply_generator.terms"), "count"),
        ("calculus.inner_product.calls", calls("calculus.inner_product"), "count"),
        ("calculus.inner_product.self_s", self_s("calculus.inner_product"), "s"),
        ("calculus.inner_product.term_pairs", count("calculus.inner_product.term_pairs"), "count"),
        ("calculus.evaluate_gamma_vector.calls", calls("calculus.evaluate_gamma_vector"), "count"),
        ("calculus.evaluate_gamma_vector.self_s", self_s("calculus.evaluate_gamma_vector"), "s"),
        ("calculus.evaluate_gamma_vector_mp.calls", calls("calculus.evaluate_gamma_vector_mp"), "count"),
        ("calculus.evaluate_gamma_vector_mp.bits", count("calculus.evaluate_gamma_vector_mp.bits"), "bits"),
        ("calculus.gamma.first_try_ratio",
         merged["evaluations_first_try"] / merged["evaluations"] if merged["evaluations"] else 0.0,
         "ratio"),
        ("systems.verify.self_s", self_s("systems.verify_coupled_susy", "systems.verify_su11"), "s"),
        ("systems.verify.monomials", count("systems.verify.monomials"), "count"),
        ("towers.eigenstate.calls", calls("towers.eigenstate"), "count"),
        ("towers.eigenstate.self_s", self_s("towers.eigenstate"), "s"),
        ("towers.state_cache.hit_ratio", cache_hits / lookups if lookups else 0.0, "ratio"),
        ("towers.state_cache.lookups", lookups, "count"),
        ("spectral.build_galerkin.self_s", self_s("spectral.build_galerkin"), "s"),
        ("spectral.build_galerkin.entries", count("spectral.build_galerkin.entries"), "count"),
        ("spectral.solve_generalized.self_s", self_s("spectral.solve_generalized"), "s"),
        ("spectral.solve_generalized.basis_size", count("spectral.solve_generalized.basis_size"), "count"),
        ("spectral.fd_spectrum.self_s", self_s("spectral.fd_spectrum"), "s"),
        ("spectral.fd_spectrum.grid_points", count("spectral.fd_spectrum.grid_points"), "count"),
        ("coherent.coherent_state.self_s", self_s("coherent.coherent_state"), "s"),
        ("coherent.coherent_state.terms", count("coherent.coherent_state.terms"), "count"),
        ("coherent.verify_half_lowering.self_s", self_s("coherent.verify_half_lowering"), "s"),
        ("uncertainty.matrix_element.calls", calls("uncertainty.matrix_element"), "count"),
        ("uncertainty.matrix_element.self_s", self_s("uncertainty.matrix_element"), "s"),
        ("uncertainty.products.self_s", self_s("uncertainty.uncertainty_product_LA",
                                               "uncertainty.uncertainty_product_tilde",
                                               "uncertainty.uncertainty_product_XP"), "s"),
        ("reports.dumps.self_s", self_s("reports.dumps"), "s"),
        ("reports.dumps.bytes", count("reports.dumps.bytes"), "bytes"),
        ("reports.atomic_write_text.self_s", self_s("reports.atomic_write_text"), "s"),
        ("cli.main.self_s", self_s("cli.main"), "s"),
        ("trace.overhead_s", overhead_s, "s"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in values}


def digest_list(entries):
    return hashlib.sha256("\n".join(str(e["digest"]) for e in entries).encode()).hexdigest()


def end_to_end(entries, setup, rss_kb, key):
    good = sum(e["error"] is None for e in entries)
    p50, tail, percentile = latency_summary(entries, key)
    metrics = {
        "ops_per_s": good / sum(key(e) for e in entries),
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "setup_s": statistics.median(key(s, "setup_s") for s in setup),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return metrics, percentile


def reference_summary(samples):
    refs = [s["ref_s"] for s in samples]
    return {"median": statistics.median(refs), "min": min(refs), "max": max(refs)}


def run_timed(bench, args):
    start = time.monotonic()
    entries, setup, rss_kb = bench.timed(start + args.seconds)
    loop_s = time.monotonic() - start
    probe = bench.probe()
    failures = [{"unit": e["unit"], "index": e["index"], "input": e["op"], "error": e["error"]}
                for e in entries if e["error"] is not None]
    measured = entries[:wl.METRIC_OPS[args.workload]]
    metrics, percentile = end_to_end(measured, setup, rss_kb, normalized)
    raw, _ = end_to_end(measured, setup, rss_kb, lambda sample, k="latency_s": sample[k])
    record = {
        "result": {"correct": not failures, "attempted": len(entries), "failed": len(failures),
                   "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}},
        "raw_wall_metrics": raw,
        "reference_s": {"ops": reference_summary(entries), "setup": reference_summary(setup)},
        "samples": len(measured),
        "tail_percentile": percentile,
        "failed_ops_share": len(failures) / len(entries),
        "loop_seconds": loop_s,
        "setup_samples": setup,
        "failures": failures,
        "defect_probe": probe,
        "ops_digest": digest_list(entries),
        "ops": entries,
    }
    summary = (f"{args.workload} seed {args.seed}: {len(entries)} ops ({len(measured)} measured), "
               f"{len(failures)} failed; "
               f"ops/s {metrics['ops_per_s']:.4g}, p50 {metrics['latency_p50_s']:.4g} s, "
               f"p{percentile:.1f} {metrics['latency_tail_s']:.4g} s, setup {metrics['setup_s']:.4g} s, "
               f"peak RSS {metrics['peak_rss_mb']:.1f} MB (reference speed; wall ops/s "
               f"{raw['ops_per_s']:.4g}, reference {1000 * record['reference_s']['ops']['median']:.1f} ms "
               f"around ops, {1000 * record['reference_s']['setup']['median']:.1f} ms around set-up); "
               f"defect probe {probe['failed']}/{probe['attempted']} failed")
    return record, summary


def run_traced(bench, args):
    plan, untraced, traced, runs, untraced_runs = bench.traced()
    probe = bench.probe()
    digests_match = [a["digest"] for a in untraced] == [b["digest"] for b in traced]
    work_match = [a["work"] for a in untraced] == [b["work"] for b in traced]
    errors_match = [a["error"] for a in untraced] == [b["error"] for b in traced]
    merged = merge_traces([run["result"]["trace"] for run in runs])
    samples = [import_self_times(run["stderr"]) for run in runs + untraced_runs]
    imports = {pkg: statistics.median(s[pkg] for s in samples) for pkg in IMPORT_PACKAGES}
    untraced_s = sum(normalized(e) for e in untraced)
    traced_s = sum(normalized(e) for e in traced)
    metrics = layer_metrics(
        merged, imports,
        sum(run["result"]["cache_hits"] for run in runs),
        sum(run["result"]["cache_misses"] for run in runs),
        traced_s - untraced_s,
    )
    per_op = []
    for run in runs:
        counts = run["result"]["trace"]["per_op"]
        per_op += [counts.get(str(i), {}) for i in range(len(run["result"]["results"]))]
    failures = [{"unit": unit, "index": index, "input": op, "error": e["error"]}
                for (unit, index, op), e in zip(plan, traced) if e["error"] is not None]
    # a counter that raised would read as 0, which looks like less work
    correct = (not failures and digests_match and work_match and errors_match
               and not merged["count_errors"])
    record = {
        "result": {"correct": correct, "attempted": len(traced), "failed": len(failures),
                   "metrics": metrics},
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_share": (traced_s - untraced_s) / untraced_s,
        "digests_match": digests_match,
        "work_match": work_match,
        "errors_match": errors_match,
        "spans": merged["spans"],
        "functions": merged["functions"],
        "count_errors": merged["count_errors"],
        "import_self_s_samples": samples,
        "failures": failures,
        "defect_probe": probe,
        "ops_digest": digest_list(traced),
        "counts_digest": hashlib.sha256(json.dumps(per_op, sort_keys=True).encode()).hexdigest(),
        "ops": [dict(e, unit=unit, index=index, op=op, counts=c)
                for (unit, index, op), e, c in zip(plan, traced, per_op)],
    }
    summary = (f"{args.workload} seed {args.seed} traced: {len(traced)} ops, {merged['spans']} spans; "
               f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s "
               f"(overhead {100 * record['overhead_share']:.1f}%); digests match {digests_match}, "
               f"work counts match {work_match}")
    return record, summary


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coupledsusy", "__init__.py")):
        sys.stderr.write("perfbench: src/coupledsusy not found; run from the repository root\n")
        return 2
    if not args.seconds > 0:
        sys.stderr.write("perfbench: --seconds must be positive\n")
        return 2
    # One CPU for this process and, by inheritance, every process it starts:
    # the references then time the core the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        bench = Bench(root, args)
    except LookupError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    try:
        record, summary = (run_traced if args.trace else run_timed)(bench, args)
    except (BenchTimeout, WorkerError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        bench.stop_children()
    record["provenance"] = provenance(root, args)
    path = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    sys.stderr.write(summary + f"\nperfbench: record written to {os.path.relpath(path, root)}\n")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
