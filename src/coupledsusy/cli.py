"""Batch command-line interface.

Subcommands: verify | spectrum | eigenfunctions | coherent | uncertainty,
their flags one table (_TABLE) that the parser, -h/--help and the config
keys read.  Every run reads flags, then an optional flat key=value config
file, then defaults (flags win).  Reports are JSON or CSV, written
atomically; exit codes are 0 for success, 1 for verification failure, 2
for invalid configuration, a malformed argv included, with one error line.
"""

from __future__ import annotations

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
#: The values of the switch fd, taken case-insensitively: the first three turn it on.
_SWITCH = ("1", "true", "yes", "0", "false", "no")

_COMMON = (
    ("n", int, None, "family index (default 2)"),
    ("tol", float, None, "coherent tolerance (default 1e-12)"),
    ("out", str, None, "output file (default stdout)"),
    ("format", str, ("json", "csv"), "report format (default json)"),
    ("config", str, None, "flat key=value config file"),
)
_SECTOR = ("sector", str, tuple(_SECTORS), "tower (default psi)")

#: Each command's help line and flags (dest, type, choices, help): flag --d
#: (each _ of dest d written -) and config key d, whose values are cast by
#: the type and held to the choices.  Type None is a switch: the flag stores
#: "yes", a config value is a choice in any case.  Help None hides a flag.
_TABLE = {
    "verify": ("check the defining and su(1,1) identities", _COMMON + (
        ("window_lo", int, None, "lowest exponent checked (default -2n-10)"),
        ("window_hi", int, None, "highest exponent checked (default 4n+30)"),
        ("mutate", str, None, None))),
    "spectrum": ("ladder eigenvalues plus Galerkin (and optional FD)", _COMMON + (
        ("count", int, None, "number of eigenvalues (default 6)"),
        ("galerkin_size", int, None, "basis size per sector"),
        ("fd", None, _SWITCH, "also run the finite-difference check"),
        ("fd_half_width", float, None, "FD box half width"),
        ("fd_grid", int, None, "FD grid points"))),
    "eigenfunctions": ("sample normalised eigenfunctions on a grid", _COMMON + (
        _SECTOR,
        ("m", int, None, "tower level (default 0)"),
        ("grid", str, None, "lo:hi:count (default -4:4:401)"))),
    "coherent": ("build a coherent state and verify half-lowering", _COMMON + (
        _SECTOR,
        ("z", str, None, "displacement parameter, |z| < 1 (default 0.5)"))),
    "uncertainty": ("uncertainty products and Robertson bounds", _COMMON + (
        ("state", str, None, "ground | <sector>:<m> | mixed (equal psi0 / phi~0 mixture)"),
        ("pair", str, ("la", "tilde", "xp", "all"), "observable pairs (default: the state's own)"))),
}
#: Config key -> (type, choices): any command's flags, so one file can serve several commands.
_CONFIG_KEYS = {dest: (cast, choices) for _, flags in _TABLE.values() for dest, cast, choices, _ in flags}
_HELP = ("-h", "--help")


def _parse(argv):
    """(command, {dest: value}) of an argv, read off _TABLE; (command or None, None) asks for help.

    A flag takes --flag value or --flag=value, the value may start with -,
    and the last repeat of a flag wins.  Every malformed argv is a ConfigError.
    """
    if not argv or argv[0] not in _TABLE:
        if argv and argv[0] in _HELP:
            return None, None
        what = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise ConfigError(f"{what} (choose from {', '.join(_TABLE)})")
    command, *rest = argv
    flags = {"--" + row[0].replace("_", "-"): row for row in _TABLE[command][1]}
    values, tokens = {}, iter(rest)
    for token in tokens:
        if token in _HELP:
            return command, None
        name, eq, value = token.partition("=")
        if name not in flags:
            raise ConfigError(f"{command} has no flag {name}" if token.startswith("-")
                              else f"unexpected argument {token!r}")
        dest, cast, choices, _ = flags[name]
        if cast is None:
            if eq:
                raise ConfigError(f"{name} is a switch and takes no value")
            values[dest] = "yes"
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.partition("=")[0] in flags:
                raise ConfigError(f"{name} needs a value")
        values[dest] = _cast(name, value, cast, choices)
    return command, values


def _cast(name, text, cast, choices):
    """The value of a flag or config key `name` from its text, held to its choices."""
    try:
        value = cast(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: invalid {cast.__name__} value {text!r}") from exc
    if choices is not None and value not in choices:
        raise ConfigError(f"{name}: invalid choice {value!r} (choose from {', '.join(map(repr, choices))})")
    return value


def _help(command) -> str:
    """The --help text of one command, its shown flags a row each, or with None of the program."""
    if command is None:
        head = "<command> [flags]\n\nExact and numerical workbench for x^n coupled SUSY systems."
        rows = [(name, line) for name, (line, _) in _TABLE.items()]
        tail = "\ncoupledsusy <command> --help lists the flags of a command.\n"
    else:
        about, flags = _TABLE[command]
        head, rows, tail = f"{command} [flags]\n\n{about}", [], ""
        for dest, cast, choices, text in flags:
            if text is not None:
                value = "" if cast is None else " {" + ",".join(choices) + "}" if choices else " " + dest.upper()
                rows.append(("--" + dest.replace("_", "-") + value, text))
    width = max(len(left) for left, _ in rows) + 2
    return "".join([f"usage: coupledsusy {head}\n\n", *[f"  {left:<{width}}{text}\n" for left, text in rows], tail])


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


def _merge(args, config, key, default):
    """flags > config file > defaults; a config value is cast and held to its flag's choices (_TABLE)"""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key not in config:
        return default
    cast, choices = _CONFIG_KEYS[key]
    return _cast(f"config key {key}", config[key], cast or str.lower, choices)


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


def _emit(args, config, payload, csv_header=None, csv_rows=None):
    out_format = _merge(args, config, "format", "json")
    out_path = _merge(args, config, "out", None)
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
    n = _merge(args, config, "n", 2)
    if n < 1:
        raise ConfigError("family index n must be >= 1")
    return n


def cmd_verify(args, config) -> int:
    n = _common_values(args, config)
    mutate = _merge(args, config, "mutate", None)
    try:
        system = make_xn_system(n, mutate=mutate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lo, hi = default_window(n)  # a bound not given keeps its default
    lo, hi = _merge(args, config, "window_lo", lo), _merge(args, config, "window_hi", hi)
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
    count = _merge(args, config, "count", 6)
    if count < 1:
        raise ConfigError("count must be >= 1")
    size = _merge(args, config, "galerkin_size", max(4, (count + 1) // 2 + 2))
    if size < 1:
        raise ConfigError("galerkin-size must be >= 1")
    fd = None
    if _merge(args, config, "fd", "no") in _SWITCH[:3]:
        default_width, default_grid = spectral.FD_REFERENCE_GRID[min(n, 3)]
        half_width = _merge(args, config, "fd_half_width", default_width)
        grid = _merge(args, config, "fd_grid", default_grid)
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
    checks = galerkin if fd is None else [*galerkin, fd]
    return 0 if all(r.passed for r in checks) else 1


def cmd_eigenfunctions(args, config) -> int:
    n = _common_values(args, config)
    sector = towers.SectorLabel(_SECTORS[_merge(args, config, "sector", "psi")])
    m = _merge(args, config, "m", 0)
    lo, hi, count = _parse_grid(_merge(args, config, "grid", "-4:4:401"))
    system = make_xn_system(n)
    try:
        record = towers.eigenstate(system, sector, m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    xs = _grid_points(lo, hi, count)
    values = towers.normalized_samples(record, xs)
    payload = None
    if _merge(args, config, "format", "json") != "csv":
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
    tol = _merge(args, config, "tol", 1e-12)
    if not tol > 0:
        raise ConfigError("tolerance must be positive")
    sector = towers.SectorLabel(_SECTORS[_merge(args, config, "sector", "psi")])
    z = _parse_complex(_merge(args, config, "z", "0.5"))
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
    descriptor = _merge(args, config, "state", "ground")
    kind, state = _resolve_state(system, descriptor)
    pair = _merge(args, config, "pair", None)
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


def main(argv=None) -> int:
    try:
        command, values = _parse(list(sys.argv[1:] if argv is None else argv))
        if values is None:
            sys.stdout.write(_help(command))
            return 0
        config = _load_config_file(values["config"], _CONFIG_KEYS) if values.get("config") else {}
        return _COMMANDS[command](types.SimpleNamespace(command=command, **values), config)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
