"""Batch command-line interface.

Subcommands: verify | spectrum | eigenfunctions | coherent | uncertainty.
Every run reads flags, then an optional flat key=value config file, then
defaults (flags win).  Reports are JSON or CSV, written atomically; exit
codes are 0 for success, 1 for verification failure, 2 for invalid
configuration.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
import types
from fractions import Fraction

from . import _LOAD_LOCK, reports
from .systems import default_window, make_xn_system, verify_coupled_susy, verify_su11


class _LazyModule(types.ModuleType):
    """A submodule registered by _lazy: it runs on the first read of one of its attributes.

    That read runs the module under the package's load lock and keeps this
    class until the module has run, so a second thread waits for it
    instead of reading a half-run module.  importlib's LazyLoader takes
    such a lock only from Python 3.12.  Reads made while the module runs,
    by the import system or by a module it imports, pass straight through.
    """

    def __getattribute__(self, attr):
        read = types.ModuleType.__getattribute__
        with _LOAD_LOCK:
            spec = read(self, "__spec__")
            if type(self) is _LazyModule and spec.loader_state != "running":
                spec.loader_state = "running"
                try:
                    spec.loader.exec_module(self)
                finally:
                    spec.loader_state = None
                self.__class__ = types.ModuleType
        return read(self, attr)


def _lazy(name):
    """Submodule `name`, registered as a _LazyModule unless already imported.

    The module runs on the first read of one of its attributes, so a
    command compiles only the modules it calls.
    """
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        module = importlib.util.module_from_spec(importlib.util.find_spec(fullname))
        module.__class__ = _LazyModule
        sys.modules[fullname] = module
    return sys.modules[fullname]


# Every command builds a system; these run inside the commands that call
# them, which read their functions off the modules at call time.
coherent, spectral, towers, uncertainty = (
    _lazy(name) for name in ("coherent", "spectral", "towers", "uncertainty"))


class ConfigError(Exception):
    pass


#: Flag name -> SectorLabel value.
_SECTORS = {"psi": "psi", "phi": "phi", "psitilde": "psi~", "phitilde": "phi~"}
#: The choices of --format and --pair; a config file value is held to them too.
_FORMATS = ("json", "csv")
_PAIRS = ("la", "tilde", "xp", "all")
#: The values of the switch fd, taken case-insensitively: the first three turn it on.
_SWITCH = ("1", "true", "yes", "0", "false", "no")


def _load_config_file(path, keys):
    """The key=value lines of a config file; a key outside `keys` is a typo."""
    values = {}
    try:
        with open(path) as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in keys:
                    raise ConfigError(f"config key {key}: no command reads it")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _merge(args, config, key, cast, default, choices=None):
    """flags > config file > defaults; a config value is held to the flag's choices"""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        try:
            value = cast(config[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
        if choices is not None and value not in choices:
            raise ConfigError(f"config key {key}: invalid choice {value!r} "
                              f"(choose from {', '.join(map(repr, choices))})")
        return value
    return default


def _parse_complex(text) -> complex:
    try:
        return complex(str(text).replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc


def _parse_grid(text):
    try:
        lo, hi, count = str(text).split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ConfigError(f"grid must be lo:hi:count, got {text!r}") from exc
    if count < 2 or not hi > lo:
        raise ConfigError("grid needs hi > lo and count >= 2")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"grid bounds and their span hi - lo must be finite, got {text!r}")
    return lo, hi, count


def _grid_points(lo, hi, count):
    """np.linspace(lo, hi, count) as a list of floats, bit for bit: point i is i * step + lo, the last hi.

    Where the step underflows to 0, point i is i / (count - 1) * (hi - lo)
    + lo, as in numpy.  The list is allocated first, so a count no list
    can hold is an error before any point is computed.
    """
    try:
        xs = [hi] * count
    except (OverflowError, MemoryError) as exc:
        raise ConfigError(f"grid count {count} is too large to sample") from exc
    div, span = count - 1, hi - lo
    step = span / div
    for i in range(div):
        xs[i] = i * step + lo if step else i / div * span + lo
    return xs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledsusy",
        description="Exact and numerical workbench for x^n coupled SUSY systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=None, help="family index (default 2)")
        p.add_argument("--tol", type=float, default=None, help="coherent tolerance (default 1e-12)")
        p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=_FORMATS, default=None)
        p.add_argument("--config", type=str, default=None, help="flat key=value config file")

    p_verify = sub.add_parser("verify", help="check the defining and su(1,1) identities")
    common(p_verify)
    p_verify.add_argument("--window-lo", type=int, default=None)
    p_verify.add_argument("--window-hi", type=int, default=None)
    p_verify.add_argument("--mutate", type=str, default=None, help=argparse.SUPPRESS)

    p_spec = sub.add_parser("spectrum", help="ladder eigenvalues plus Galerkin (and optional FD)")
    common(p_spec)
    p_spec.add_argument("--count", type=int, default=None, help="number of eigenvalues")
    p_spec.add_argument("--galerkin-size", type=int, default=None, help="basis size per sector")
    p_spec.add_argument("--fd", action="store_const", const="yes", help="also run the finite-difference check")
    p_spec.add_argument("--fd-half-width", type=float, default=None)
    p_spec.add_argument("--fd-grid", type=int, default=None)

    p_eig = sub.add_parser("eigenfunctions", help="sample normalised eigenfunctions on a grid")
    common(p_eig)
    p_eig.add_argument("--sector", choices=sorted(_SECTORS), default=None)
    p_eig.add_argument("--m", type=int, default=None, help="tower level")
    p_eig.add_argument("--grid", type=str, default=None, help="lo:hi:count")

    p_coh = sub.add_parser("coherent", help="build a coherent state and verify half-lowering")
    common(p_coh)
    p_coh.add_argument("--sector", choices=sorted(_SECTORS), default=None)
    p_coh.add_argument("--z", type=str, default=None, help="displacement parameter, |z| < 1")

    p_unc = sub.add_parser("uncertainty", help="uncertainty products and Robertson bounds")
    common(p_unc)
    p_unc.add_argument(
        "--state",
        type=str,
        default=None,
        help="ground | <sector>:<m> | mixed (equal psi0 / phi~0 mixture)",
    )
    p_unc.add_argument("--pair", choices=_PAIRS, default=None)

    return parser


def _emit(args, config, payload, csv_header=None, csv_rows=None):
    out_format = _merge(args, config, "format", str, "json", _FORMATS)
    out_path = _merge(args, config, "out", str, None)
    if out_format == "csv":
        if csv_header is None:
            raise ConfigError("this command has no CSV representation")
        text = reports.csv_text(csv_header, csv_rows)
    else:
        text = reports.dumps(payload)
    if out_path:
        try:
            reports.atomic_write_text(out_path, text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _common_values(args, config):
    n = _merge(args, config, "n", int, 2)
    if n < 1:
        raise ConfigError("family index n must be >= 1")
    return n


def cmd_verify(args, config) -> int:
    n = _common_values(args, config)
    mutate = _merge(args, config, "mutate", str, None)
    try:
        system = make_xn_system(n, mutate=mutate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lo, hi = default_window(n)  # a bound not given keeps its default
    lo, hi = _merge(args, config, "window_lo", int, lo), _merge(args, config, "window_hi", int, hi)
    window = range(lo, hi + 1)
    if not window:
        raise ConfigError("verification window is empty")
    all_reports = verify_coupled_susy(system, window) + verify_su11(system, window)
    passed = all(r.passed for r in all_reports)
    payload = {
        "n": n,
        "gamma": system.gamma,
        "delta": system.delta,
        "mutation": system.mutation,
        "pass": passed,
        "identities": [r.to_json_dict() for r in all_reports],
    }
    _emit(args, config, payload)
    return 0 if passed else 1


def cmd_spectrum(args, config) -> int:
    n = _common_values(args, config)
    count = _merge(args, config, "count", int, 6)
    if count < 1:
        raise ConfigError("count must be >= 1")
    size = _merge(args, config, "galerkin_size", int, max(4, (count + 1) // 2 + 2))
    if size < 1:
        raise ConfigError("galerkin-size must be >= 1")
    fd = None
    if _merge(args, config, "fd", str.lower, "no", _SWITCH) in _SWITCH[:3]:
        default_width, default_grid = spectral.FD_REFERENCE_GRID[min(n, 3)]
        half_width = _merge(args, config, "fd_half_width", float, default_width)
        grid = _merge(args, config, "fd_grid", int, default_grid)
        try:  # before the Galerkin solve, so a bad FD input costs nothing
            fd = spectral.fd_spectrum(n, half_width, grid, count=count)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    system = make_xn_system(n)
    theory = towers.merged_spectrum(system, count)
    galerkin = [spectral.galerkin_spectrum(system, s.residue(n), size)
                for s in towers.SectorLabel if not s.is_tilde]
    payload = {
        "n": n,
        "theory": [float(t) for t in theory],
        "galerkin": [r.to_json_dict() for r in galerkin],
    }
    rows = [(i, float(t)) for i, t in enumerate(theory)]
    header = ("index", "theory")
    if fd is not None:
        payload["fd"] = fd.to_json_dict()
        header = ("index", "computed", "theory", "rel_error")
        rows = list(fd.rows())
    _emit(args, config, payload, csv_header=header, csv_rows=rows)
    reports = galerkin if fd is None else [*galerkin, fd]
    return 0 if all(r.passed for r in reports) else 1


def cmd_eigenfunctions(args, config) -> int:
    n = _common_values(args, config)
    sector = towers.SectorLabel(_SECTORS[_merge(args, config, "sector", str, "psi", _SECTORS)])
    m = _merge(args, config, "m", int, 0)
    lo, hi, count = _parse_grid(_merge(args, config, "grid", str, "-4:4:401"))
    system = make_xn_system(n)
    try:
        record = towers.eigenstate(system, sector, m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    xs = _grid_points(lo, hi, count)
    values = towers.normalized_samples(record, xs)
    payload = None
    if _merge(args, config, "format", str, "json", _FORMATS) != "csv":
        try:
            exact = record.to_json_dict()
        except ValueError as exc:  # an int past Python's int-to-text digit limit
            raise ConfigError(f"the exact record of m={m} has integers longer than "
                              f"{sys.get_int_max_str_digits()} digits: use --format csv") from exc
        payload = {
            "record": exact,
            "grid": {"lo": lo, "hi": hi, "count": count},
            "values": values,
        }
    rows = list(zip(xs, values))
    _emit(args, config, payload, csv_header=("x", "value"), csv_rows=rows)
    return 0


def cmd_coherent(args, config) -> int:
    n = _common_values(args, config)
    tol = _merge(args, config, "tol", float, 1e-12)
    if not tol > 0:
        raise ConfigError("tolerance must be positive")
    sector = towers.SectorLabel(_SECTORS[_merge(args, config, "sector", str, "psi", _SECTORS)])
    z = _parse_complex(_merge(args, config, "z", str, "0.5"))
    system = make_xn_system(n)
    # RuntimeError: the truncation of the state, or of the state its
    # half-lowering lands on, did not converge because |z| is too close to 1.
    try:
        state = coherent.coherent_state(system, sector, z, tol)
        payload = state.to_json_dict()
        payload["norm_sq"] = state.norm_sq()
        if sector in coherent.HALF_LOWERING and z != 0:
            check = coherent.verify_half_lowering(system, sector, z, tol)
            payload["half_lowering"] = {
                "operator": check.operator,
                "target_sector": check.target_sector.value,
                "scalar": check.scalar,
                "residual": check.residual,
            }
            if sector is towers.SectorLabel.PSI:
                _, misfit = coherent.full_lowering_misfit(system, z, tol)
                payload["full_lowering_best_fit_residual"] = misfit
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(str(exc)) from exc
    rows = [
        (state.m_start + i, float(abs(c) ** 2)) for i, c in enumerate(state.coefficients)
    ]
    _emit(args, config, payload, csv_header=("m", "weight"), csv_rows=rows)
    return 0


def _resolve_state(system, text):
    text = (text or "ground").strip().lower()
    if text in ("ground", "psi:0"):
        return ("la", towers.eigenstate(system, towers.SectorLabel.PSI, 0))
    if text == "mixed":
        psi0, _ = towers.ground_states(system)
        phi_t0 = towers.eigenstate(system, towers.SectorLabel.PHI_TILDE, 0)
        return ("xp", uncertainty.direct_sum(psi0, Fraction(1, 2), phi_t0, Fraction(1, 2)))
    name, _, level = text.partition(":")
    try:
        sector, m = towers.SectorLabel(_SECTORS[name]), int(level)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse state descriptor {text!r}") from None
    try:
        return ("la", towers.eigenstate(system, sector, m))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_uncertainty(args, config) -> int:
    n = _common_values(args, config)
    system = make_xn_system(n)
    descriptor = _merge(args, config, "state", str, "ground")
    kind, state = _resolve_state(system, descriptor)
    pair = _merge(args, config, "pair", str, None, _PAIRS)
    if pair is None:
        pair = "xp" if kind == "xp" else "auto"
    results = []
    if kind == "xp":
        if pair not in ("xp", "all"):
            raise ConfigError("mixed direct-sum states support only the X,P pair")
        results.append(uncertainty.uncertainty_product_XP(system, state))
    else:
        record = state
        tilde = record.sector.is_tilde
        if pair in ("auto", "la", "all") and not tilde:
            results.append(uncertainty.uncertainty_product_LA(system, record))
        if pair in ("auto", "tilde", "all") and tilde:
            results.append(uncertainty.uncertainty_product_tilde(system, record))
        if pair in ("xp", "all") and not tilde:
            alone = uncertainty.direct_sum(record, 1, None, 0)
            results.append(uncertainty.uncertainty_product_XP(system, alone))
        if not results:
            raise ConfigError(
                f"pair {pair!r} does not apply to a {record.sector.value} state"
            )
    result_dicts = []
    for r in results:
        d = r.to_json_dict()
        d["state_descriptor"] = descriptor
        result_dicts.append(d)
    payload = {
        "n": n,
        "state": descriptor,
        "results": result_dicts,
        "pass": all(r.passed for r in results),
    }
    _emit(args, config, payload)
    return 0 if payload["pass"] else 1


_COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "eigenfunctions": cmd_eigenfunctions,
    "coherent": cmd_coherent,
    "uncertainty": cmd_uncertainty,
}


def _join_value_flags(argv):
    """Glue values onto flags whose arguments may start with '-' (--z -0.3)."""
    joined = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--grid", "--z") and i + 1 < len(argv):
            joined.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_join_value_flags(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    config = {}
    if getattr(args, "config", None):
        try:
            # any command's keys, so one file can serve several commands
            keys = {key for name in _COMMANDS for key in vars(parser.parse_args([name]))}
            config = _load_config_file(args.config, keys - {"command"})
        except ConfigError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
    try:
        return _COMMANDS[args.command](args, config)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
