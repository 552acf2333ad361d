"""Seeded inputs, op execution and correctness checks for the two workloads.

An op is a JSON-serialisable dict with a "kind" and its parameters, so the
orchestrator (run.py) can generate it and a fresh worker interpreter
(worker.py) can execute it.  Everything random is drawn from
``random.Random`` seeded with the benchmark seed plus a tag, so one seed
always gives the same ops.

Cost-setting parameters (levels, Gram sizes, lemma depths) sit near fixed
points with a small seeded jitter, and the choices that set an op's cost
class (n, sector) turn from one CLI cycle or repetition to the next from a
seeded start; the seed also picks phases, mutation slots and the CLI
order, and the op kinds are interleaved evenly.  The metrics, taken over whole
turns of those choices (METRIC_OPS), so compare like with like from seed
to seed.

Each timed op must pass the bound the package documents for it.  Inputs in
the regions where the package is known to fail are not timed; they run in
the defect probe (``*_probe``) after the timed loop, labelled by defect, so
a later fix shows up there as a lower failed share.
"""

from __future__ import annotations

import cmath
import gc
import hashlib
import json
import math
import random
import statistics
import time
from fractions import Fraction

WORKLOADS = ("cli-readme", "exact-session")

SECTORS = ("psi", "phi", "psi~", "phi~")
CLI_SECTORS = {"psi": "psi", "phi": "phi", "psi~": "psitilde", "phi~": "phitilde"}

#: Bounds the package documents (acceptance criteria 3, 6 and 7).
GALERKIN_REL_ERROR = 1e-6
COHERENT_NORM_ERROR = 1e-12
HALF_LOWERING_RESIDUAL = 1e-10
UNCERTAINTY_TOL = 1e-12

#: Highest tower level sampled in timed ops, per n, on SAMPLE_GRID (the
#: README grid).  Samples turn non-finite from m = 105 (n = 2) and m = 78
#: (n = 3) there, and earlier on wider grids.
SAMPLE_SAFE_MAX = {1: 120, 2: 100, 3: 72}
SAMPLE_GRID = (-4.0, 4.0, 401)


#: Wall times are reported at a reference speed, which cancels the host's
#: speed drift: each is scaled by a reference's nominal duration over its
#: duration measured around it.  A library call inside a session uses
#: reference_kernel, as exact-rational as the calls; a process start (a CLI
#: op, a set-up sample) uses a cold interpreter importing numpy, which like
#: the package's import is mostly loading code.  The kernel over-corrects
#: process starts: they slow down by about 0.6 of its slow-down.
KERNEL_REFERENCE_S = 0.006
PROCESS_REFERENCE = "import numpy"
PROCESS_REFERENCE_S = 0.15


def reference_kernel():
    """A fixed pure-Python workload: exact rational arithmetic, like the package's hot loops."""
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i, i + 7) * (i % 13)
    return acc


def time_reference() -> float:
    """Seconds for one reference_kernel run, with the cyclic collector paused.

    A session's heap grows with its results; a collection triggered inside
    the kernel would time the heap rather than the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def local_references(refs: list) -> list:
    """For k items timed between k + 1 kernel samples, the median of the samples around each."""
    return [statistics.median(refs[max(0, i - 1):i + 3]) for i in range(len(refs) - 1)]


def rng_for(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def jittered(rng: random.Random, centers, jitter: int) -> list:
    return [c + rng.randint(-jitter, jitter) for c in centers]


def rotated(items, k: int) -> list:
    k %= len(items)
    return list(items[k:]) + list(items[:k])


def interleave(rng: random.Random, groups) -> list:
    """Shuffle each group and spread its ops evenly over one sequence."""
    keyed = []
    for ops in groups:
        ops = list(ops)
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            keyed.append(((i + rng.random()) / len(ops), op))
    keyed.sort(key=lambda kv: kv[0])
    return [op for _, op in keyed]


def polar(rng: random.Random, radius: float) -> list:
    z = cmath.rect(radius, rng.uniform(0.0, 2.0 * math.pi))
    return [z.real, z.imag]


def _level(sector: str, m: int) -> int:
    # a annihilates the PSI ground state, so the PSI~ tower starts at m = 1
    return max(m, 1) if sector == "psi~" else m


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------

CLI_SHAPES = (
    "verify",
    "spectrum",
    "spectrum-fd-csv",
    "eigenfunctions-csv",
    "coherent",
    "uncertainty-ground",
    "uncertainty-mixed",
)
CLI_OUT_DIR = "perfbench/out/tmp"


def _cli_op(rng: random.Random, shape: str, n: int) -> dict:
    out = None
    if shape == "verify":
        argv = ["verify", "--n", str(n)]
    elif shape == "spectrum":
        argv = ["spectrum", "--n", str(n), "--count", str(rng.randint(4, 8))]
    elif shape == "spectrum-fd-csv":
        out = f"{CLI_OUT_DIR}/spectrum.csv"
        argv = ["spectrum", "--n", str(n), "--count", str(rng.randint(4, 8)), "--fd",
                "--format", "csv", "--out", out]
    elif shape == "eigenfunctions-csv":
        out = f"{CLI_OUT_DIR}/eigen.csv"
        argv = ["eigenfunctions", "--n", str(n), "--m", str(rng.randint(0, 5)),
                "--grid", "-4:4:401", "--format", "csv", "--out", out]
    elif shape == "coherent":
        # the sectors whose report includes the half-lowering check
        re, im = polar(rng, rng.uniform(0.05, 0.5))
        argv = ["coherent", "--n", str(n), "--sector", CLI_SECTORS[rng.choice(("psi", "phi~"))],
                "--z", f"{re:.6f}{im:+.6f}j", "--tol", "1e-12"]
    elif shape == "uncertainty-ground":
        argv = ["uncertainty", "--n", str(n), "--state", "ground"]
    else:
        argv = ["uncertainty", "--n", str(n), "--state", "mixed"]
    return {"kind": "cli", "shape": shape, "argv": argv, "out": out}


def cli_cycle(seed: int, cycle: int) -> list:
    """Seven ops, one per README command shape, in seeded order.

    Each shape takes n = 1, 2, 3 in turn from a seeded start, so every three
    cycles run each (shape, n) pair once and seeds differ only in the
    cheaper parameters.
    """
    rng = rng_for(seed, "cli", cycle)
    start = rng_for(seed, "cli-n")
    ns = {shape: 1 + (cycle + start.randrange(3)) % 3 for shape in CLI_SHAPES}
    shapes = list(CLI_SHAPES)
    rng.shuffle(shapes)
    return [_cli_op(rng, shape, ns[shape]) for shape in shapes]


def cli_probe(seed: int) -> list:
    """CLI inputs that end in a traceback today instead of a report or exit 2."""
    rng = rng_for(seed, "cli-probe")
    re, im = polar(rng, 0.999999)
    return [
        {"kind": "cli", "shape": "spectrum", "defect": "cli-traceback-galerkin-precision-loss",
         "argv": ["spectrum", "--n", "2", "--count", str(rng.randint(76, 80))], "out": None},
        {"kind": "cli", "shape": "eigenfunctions", "defect": "cli-traceback-non-finite-samples",
         "argv": ["eigenfunctions", "--n", "2", "--m", str(rng.randint(110, 120))], "out": None},
        {"kind": "cli", "shape": "coherent", "defect": "cli-traceback-coherent-truncation",
         "argv": ["coherent", "--n", "2", "--z", f"{re:.8f}{im:+.8f}j"], "out": None},
    ]


def read_out(op: dict) -> bytes:
    """Bytes of the report file a CLI op wrote with --out (empty without --out)."""
    if not op.get("out"):
        return b""
    try:
        with open(op["out"], "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return b""


def cli_digest(op: dict, stdout: bytes, out_bytes: bytes) -> str:
    return hashlib.sha256(out_bytes if op.get("out") else stdout).hexdigest()


def check_cli(op: dict, exit_code: int, stdout: bytes, out_bytes, stderr: bytes, fd_tolerance: dict):
    """Error class for a CLI op, or None when its report passes its bounds.

    A traceback is classed by its exception name; a clean exit 2 with a
    one-line message is ConfigExit2.
    """
    if exit_code != 0:
        if exit_code == 2 and stderr.decode(errors="replace").count("\n") <= 1:
            return "ConfigExit2"
        lines = stderr.decode(errors="replace").strip().splitlines()
        last = lines[-1] if lines else ""
        name = last.split(":", 1)[0].rsplit(".", 1)[-1] if ":" in last else ""
        return name or f"Exit{exit_code}"
    text = (out_bytes if op.get("out") else stdout).decode()
    shape = op["shape"]
    if shape.endswith("csv"):
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        if not rows:
            return "EmptyReport"
        if shape == "spectrum-fd-csv":
            n = int(op["argv"][op["argv"].index("--n") + 1])
            tol = fd_tolerance.get(n, 0.10)
            if not all(float(r[3]) <= tol for r in rows):
                return "FdOutsideTolerance"
        elif not all(math.isfinite(float(r[1])) for r in rows):
            return "NonFiniteSamples"
        return None
    report = json.loads(text)
    if shape == "verify":
        return None if report["pass"] else "VerifyFailed"
    if shape == "spectrum":
        errors = [e for g in report["galerkin"] for e in g["rel_errors"]]
        return None if max(errors) <= GALERKIN_REL_ERROR else "GalerkinOutsideBound"
    if shape == "eigenfunctions":
        return None if all(math.isfinite(v) for v in report["values"]) else "NonFiniteSamples"
    if shape == "coherent":
        if abs(report["norm_sq"] - 1.0) > COHERENT_NORM_ERROR:
            return "CoherentNormOutsideBound"
        hl = report.get("half_lowering")
        if hl is not None and not hl["residual"] < HALF_LOWERING_RESIDUAL:
            return "HalfLoweringOutsideBound"
        return None
    ok = report["pass"] and all(
        r["product"] >= r["bound"] - UNCERTAINTY_TOL for r in report["results"]
    )
    return None if ok else "UncertaintyBoundViolated"


# ---------------------------------------------------------------------------
# exact-session
# ---------------------------------------------------------------------------


def exact_repetition(seed: int, rep: int) -> list:
    """About 40 library calls of one exact session, cache shared across them.

    Levels, Gram sizes and lemma depths sit on fixed strata with a small
    seeded jitter.  The choices that set an op's cost class (n, sector,
    family) turn from one repetition to the next from a seeded start, so
    that every six repetitions (METRIC_OPS) carry nearly the same mix: verify
    covers odd n on one repetition and even n on the next, each tower level
    goes to each sector in turn, and the mutation slots cycle through all
    twelve.  The seed also picks mutation deltas and weights.
    """
    rng = rng_for(seed, "exact", rep)
    turn = rep + rng_for(seed, "exact-turn").randrange(12)
    verify = [{"kind": "verify", "n": n + turn % 2} for n in (1, 3, 5, 7)]
    slots = list(range(12))
    rng_for(seed, "exact-slots").shuffle(slots)
    mutated = [
        {"kind": "verify-mutated", "n": 2 * j + 1 + (turn + j) % 2, "slot": slots[(4 * rep + j) % 12],
         "delta": rng.choice(["1", "-1", "2", "1/2", "-3"])}
        for j in range(4)
    ]
    towers = []
    for n in (1, 2, 3):
        sectors = rotated(SECTORS, turn + n)
        for sector, m in zip(sectors, jittered(rng, (15, 45, 75, 105), 3)):
            towers.append({"kind": "eigenstate", "n": n, "sector": sector, "m": _level(sector, m)})
    gram = []
    for n in (1, 2, 3):
        family = (("psi~", "phi~"), ("psi", "phi"))[(turn + n) % 2]
        records = []
        for i, m in enumerate(jittered(rng, (5, 15, 25, 35), 2)):
            sector = family[(turn + i) % 2]
            records.append([sector, _level(sector, m)])
        gram.append({"kind": "gram", "n": n, "records": records})
    m_maxes = rotated(jittered(rng, (6, 10, 14), 1), turn)
    lemma = [{"kind": "lemma", "n": n, "m_max": mm} for n, mm in zip((1, 2, 3), m_maxes)]
    samples = []
    for n in (1, 2, 3):
        top = SAMPLE_SAFE_MAX[n]
        for j, m in enumerate(jittered(rng, (top // 4, 3 * top // 4), 3)):
            sector = SECTORS[(turn + n + 2 * j) % 4]
            samples.append({"kind": "samples", "n": n, "sector": sector, "m": _level(sector, m),
                            "grid": list(SAMPLE_GRID)})
    la = [{"kind": "uncertainty-la", "n": 1 + (turn + j) % 3, "sector": ("psi", "phi")[(turn + j) % 2], "m": m}
          for j, m in enumerate(jittered(rng, (3, 10, 17), 1))]
    tilde = []
    for j, m in enumerate(jittered(rng, (3, 10, 17), 1)):
        sector = ("psi~", "phi~")[(turn + j) % 2]
        tilde.append({"kind": "uncertainty-tilde", "n": 1 + (turn + j + 1) % 3, "sector": sector,
                      "m": _level(sector, m)})
    xp = []
    for _ in range(2):
        q = rng.randint(2, 5)
        s2 = rng.choice(("psi~", "phi~"))
        xp.append({"kind": "uncertainty-xp", "n": rng.randint(1, 3),
                   "first": [rng.choice(("psi", "phi")), rng.randint(0, 6)],
                   "second": [s2, _level(s2, rng.randint(0, 6))],
                   "weight1": f"{rng.randint(1, q - 1)}/{q}"})
    # the order sets which op pays for the tower states the session caches,
    # so it follows the turn rather than the seed
    order = rng_for("exact-order", turn % 12)
    return interleave(order, [verify, mutated, towers, gram, lemma, samples, la, tilde, xp])


def exact_probe(seed: int) -> list:
    rng = rng_for(seed, "exact-probe")
    ops = []
    for n, lo in ((2, 106), (3, 80)):
        for m in (rng.randint(lo, 120), rng.randint(lo, 120)):
            sector = rng.choice(SECTORS)
            ops.append({"kind": "samples", "n": n, "sector": sector, "m": m, "grid": list(SAMPLE_GRID),
                        "defect": "non-finite-samples"})
    return ops


def timed_ops(workload: str, seed: int, unit: int) -> list:
    """The ops of one repetition (in-process workloads) or one CLI cycle."""
    if workload == "cli-readme":
        return cli_cycle(seed, unit)
    return exact_repetition(seed, unit)


def probe_ops(workload: str, seed: int) -> list:
    return {"cli-readme": cli_probe, "exact-session": exact_probe}[workload](seed)


#: Latency and goodput are computed over the first this-many ops of a run:
#: a fixed, seed-determined set of whole repetitions, so that runs compare
#: the same ops and the tail percentile stays put.  The timed loop runs on
#: past --seconds until they have finished; ops after them are still run
#: and checked.
METRIC_OPS = {"cli-readme": 42, "exact-session": 240}


def systems_for(workload: str) -> list:
    """Family indices whose systems an in-process session builds during set-up."""
    return {"cli-readme": [], "exact-session": list(range(1, 9))}[workload]


# ---------------------------------------------------------------------------
# Execution inside a worker
# ---------------------------------------------------------------------------


def _canonical(obj):
    """A JSON-able, exactly reproducible image of a library result."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float.__repr__(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return [repr(obj.real), repr(obj.imag)]
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if hasattr(obj, "tobytes"):  # numpy arrays and scalars
        return hashlib.sha256(obj.tobytes()).hexdigest()
    if hasattr(obj, "to_json_dict"):
        return _canonical(obj.to_json_dict())
    if hasattr(obj, "serialize"):
        return obj.serialize()
    if hasattr(obj, "value") and hasattr(obj, "name"):  # enums
        return obj.value
    if hasattr(obj, "__dataclass_fields__"):
        return {f: _canonical(getattr(obj, f)) for f in obj.__dataclass_fields__}
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Session:
    """Executes library ops against the package modules.

    Functions are looked up on the modules at call time, so wrappers that
    the tracer installs in the module namespaces are the ones called.
    """

    def __init__(self, modules, system_ns):
        self.m = modules
        self.systems = {n: modules.systems.make_xn_system(n) for n in system_ns}

    def system(self, n):
        if n not in self.systems:
            self.systems[n] = self.m.systems.make_xn_system(n)
        return self.systems[n]

    def sector(self, name):
        return self.m.towers.SectorLabel(name)

    def record(self, n, sector, m):
        return self.m.towers.eigenstate(self.system(n), self.sector(sector), m)

    def run(self, op):
        """Returns (result, error class or None, op-level work counts)."""
        return getattr(self, "op_" + op["kind"].replace("-", "_"))(op)

    # -- exact-session ---------------------------------------------------------

    def op_verify(self, op):
        sysm = self.system(op["n"])
        reports = self.m.systems.verify_coupled_susy(sysm) + self.m.systems.verify_su11(sysm)
        ok = all(r.passed for r in reports)
        return reports, None if ok else "VerifyFailed", {"monomials": sum(r.checked for r in reports)}

    def op_verify_mutated(self, op):
        base = self.system(op["n"])
        gen, idx, field = self.m.systems.mutation_slots(base)[op["slot"]]
        mutated = self.m.systems.make_xn_system(op["n"], mutate=(gen, idx, field, Fraction(op["delta"])))
        reports = self.m.systems.verify_coupled_susy(mutated) + self.m.systems.verify_su11(mutated)
        caught = not all(r.passed for r in reports)
        return reports, None if caught else "MutationNotCaught", {"monomials": sum(r.checked for r in reports)}

    def op_eigenstate(self, op):
        rec = self.record(op["n"], op["sector"], op["m"])
        n, m = op["n"], op["m"]
        want = 2 * n * m + (2 * n - 1 if op["sector"] in ("phi", "phi~") else 0)
        ok = rec.eigenvalue == want and not rec.norm_sq.is_zero
        return rec, None if ok else "WrongEigenstate", {"terms": len(rec.state.terms)}

    def op_gram(self, op):
        recs = [self.record(op["n"], s, m) for s, m in op["records"]]
        gram = self.m.towers.gram_matrix(recs)
        k = len(recs)
        ok = all(gram[i][j].is_zero == (i != j) for i in range(k) for j in range(k))
        return gram, None if ok else "NotOrthogonal", {"entries": k * k}

    def op_lemma(self, op):
        rep = self.m.towers.verify_lemma_half_lowering(self.system(op["n"]), op["m_max"])
        return rep, None if rep.passed else "LemmaFailed", {"checked": rep.checked}

    def op_samples(self, op):
        import numpy as np

        rec = self.record(op["n"], op["sector"], op["m"])
        lo, hi, count = op["grid"]
        values = self.m.towers.normalized_samples(rec, np.linspace(lo, hi, count))
        ok = bool(np.all(np.isfinite(values)))
        return values, None if ok else "NonFiniteSamples", {"points": count}

    def _uncertainty(self, result):
        ok = result.passed and result.product >= result.bound - UNCERTAINTY_TOL
        return result, None if ok else "UncertaintyBoundViolated", {}

    def op_uncertainty_la(self, op):
        rec = self.record(op["n"], op["sector"], op["m"])
        return self._uncertainty(self.m.uncertainty.uncertainty_product_LA(self.system(op["n"]), rec))

    def op_uncertainty_tilde(self, op):
        rec = self.record(op["n"], op["sector"], op["m"])
        return self._uncertainty(self.m.uncertainty.uncertainty_product_tilde(self.system(op["n"]), rec))

    def op_uncertainty_xp(self, op):
        n = op["n"]
        w1 = Fraction(op["weight1"])
        state = self.m.uncertainty.direct_sum(
            self.record(n, *op["first"]), w1, self.record(n, *op["second"]), 1 - w1
        )
        return self._uncertainty(self.m.uncertainty.uncertainty_product_XP(self.system(n), state))
