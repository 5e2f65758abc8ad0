"""Command-line front end: dispatches to the computational modules and
writes CSV artifacts.

Subcommands
-----------
filter-response   impulse response of a filter model     -> t,h_1,...,h_n
steady-state      asymptotic energy of one protocol      -> one summary row
evolve            moment-system transient (exact)        -> t,<labels...>
trajectory        Monte Carlo ensemble of one protocol   -> t,mean_energy,...
phase-diagram     (gamma, Omega) winner map              -> phase CSV

Every flag can also be supplied through ``--config FILE``, a flat JSON
object whose keys equal the flag names (flags override the file).  A flag's
text and a file value get the same conversion, in :func:`_merge_options`
alone (argparse passes no ``type=`` or ``choices=``; an option's help text
lists its values), and no option takes a JSON boolean.  Every command writes
its CSV through :func:`~filtercool.phase_diagram.write_csv`, where
``--output -`` is stdout: the type of each column sets its format (text as
is, numbers as ``%.12g``), and rows go out in blocks, each run of repeated
values in a column formatted once.  ``phase-diagram`` writes each block of
gamma rows as the sweep makes it (:func:`~filtercool.phase_diagram.write_phase_csv`).
All randomness is seeded explicitly, so identical configurations produce
byte-identical output.  :func:`main` alone sets the exit code: 0 success,
2 bad input (``ValueError``, ``ConfigError`` among them, or ``OSError``),
3 numerical failure (``NumericalError``), overflow of valid input included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .filters import (
    FilterModel,
    KernelSpec,
    bandpass,
    kernel_filter,
    lowpass_cascade,
)
from .moment_systems import (
    ProtocolKind,
    ProtocolParams,
    build_moment_system,
    evolve,
    steady_state,
)
from .numerics import NumericalError, propagate_affine
from .phase_diagram import ALL_PROTOCOLS, GridSpec, write_csv, write_phase_csv
from .trajectory import TrajectoryConfig, oscillator_cooling_model, run_ensemble


class ConfigError(ValueError):
    """Bad configuration file or inconsistent option values."""


def _int(value) -> int:
    """An int option: integral text, or a JSON number with an integer value."""
    number = int(value)
    if not isinstance(value, str) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _items(value) -> list:
    """The items of a list option: a config-file list, or comma-separated text."""
    if isinstance(value, (list, tuple)):
        return list(value)
    return [v.strip() for v in str(value).split(",") if v.strip()]


def _float_list(value) -> Tuple[float, ...]:
    return tuple(map(float, _items(value)))


def _protocol_list(value) -> Tuple[ProtocolKind, ...]:
    return tuple(map(ProtocolKind, _items(value)))


@dataclass(frozen=True)
class _Opt:
    """One option: flag name (also the config-file key) plus parsing info."""

    name: str
    type: Callable
    default: object = None
    required: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


_PROTOCOL_OPTS = (
    _Opt("protocol", ProtocolKind, required=True,
         help="one of " + ", ".join(k.value for k in ALL_PROTOCOLS)),
    _Opt("lambda", float, 1.0, help="measurement strength"),
    _Opt("omega", float, 1.0, help="oscillator frequency"),
    _Opt("gamma", float, required=True, help="first filter bandwidth"),
    _Opt("Omega", float, help="second bandwidth / band-pass center"),
)

_SUBCOMMANDS = {
    "filter-response": (
        _Opt("filter", str, required=True, help="one of lowpass, bandpass, kernel"),
        _Opt("gammas", _float_list, help="cascade bandwidths, e.g. 1.0,2.0"),
        _Opt("gamma", float, help="band-pass bandwidth"),
        _Opt("Omega", float, help="band-pass center frequency"),
        _Opt("kernel-coeffs", _float_list, help="kernel ODE coefficients a0,...,a_{n-1}"),
        _Opt("kernel-init", _float_list, help="kernel initial derivatives f(0),...,f^(n-1)(0)"),
        _Opt("t-max", float, 10.0),
        _Opt("points", _int, 200),
        _Opt("output", os.fspath, "-"),
    ),
    "steady-state": _PROTOCOL_OPTS + (
        _Opt("output", os.fspath, "-"),
    ),
    "evolve": _PROTOCOL_OPTS + (
        _Opt("e0", float, 1.0, help="initial energy in units of hbar*omega"),
        _Opt("dt", float, 1e-3),
        _Opt("steps", _int, 1000),
        _Opt("stride", _int, 1),
        _Opt("output", os.fspath, "-"),
    ),
    "trajectory": _PROTOCOL_OPTS + (
        _Opt("dt", float, 1e-3),
        _Opt("steps", _int, 1000),
        _Opt("ntraj", _int, 100),
        _Opt("seed", _int, 0),
        _Opt("fock", _int, 15, help="oscillator basis cutoff"),
        _Opt("stride", _int, 10, help="record every this many steps"),
        _Opt("output", os.fspath, "-"),
    ),
    "phase-diagram": (
        _Opt("gamma-min", float, 0.1),
        _Opt("gamma-max", float, 100.0),
        _Opt("gamma-points", _int, 200),
        _Opt("Omega-min", float, 0.1),
        _Opt("Omega-max", float, 1000.0),
        _Opt("Omega-points", _int, 200),
        _Opt("lambda", float, 1.0),
        _Opt("omega", float, 1.0),
        _Opt("protocols", _protocol_list, ALL_PROTOCOLS,
             help="comma-separated subset of " + ",".join(k.value for k in ALL_PROTOCOLS)),
        _Opt("output", os.fspath, required=True),
    ),
}


#: Subcommand descriptions that ``--help`` prints.
_DESCRIPTIONS = {"trajectory": (
    "Monte Carlo ensemble of one protocol. A run whose top-two Fock populations "
    "exceed 1e-3 at a recorded step is truncation limited: it still exits 0 and "
    "writes its CSV, and a RuntimeWarning on stderr says so. Raise --fock until "
    "the warning is gone. The cutoff needed grows with run time, since the "
    "recentred trap wanders with the filtered signal: at the defaults, lowpass2 at "
    "gamma = Omega = 2 is clean at --steps 1000 and flagged at 2000.")}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given a subcommand name, one in
    which only that subcommand has its arguments: every name is registered,
    so usage lines and errors read the same."""
    parser = argparse.ArgumentParser(
        prog="filtercool",
        description="Cooling a monitored oscillator with filtered feedback.")
    subs = parser.add_subparsers(dest="command")
    for name, opts in _SUBCOMMANDS.items():
        sp = subs.add_parser(name, description=_DESCRIPTIONS.get(name))
        if command not in (None, name):
            continue
        sp.add_argument("--config", default=None,
                        help="JSON file with flag-name keys; flags override it")
        for opt in opts:  # text only: _merge_options converts it, naming the option
            sp.add_argument(f"--{opt.name}", dest=opt.dest, default=None, help=opt.help)
    return parser


def load_config(path, known_keys=None) -> dict:
    """Read a flat JSON config; keys are flag names.

    Raises ConfigError naming the offending line on parse errors, and the
    offending key when ``known_keys`` is given and a key is not in it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not text.strip():
        return {}
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a flat JSON object")
    for key, value in data.items():
        if isinstance(value, dict):
            raise ConfigError(f"{path}: key '{key}' must be a flat value")
        if known_keys is not None and key not in known_keys:
            raise ConfigError(f"{path}: unknown key '{key}'")
    return data


def _merge_options(ns: argparse.Namespace) -> dict:
    """Combine flags, config file and defaults; flags win over the file.  The
    one place a value is converted: all three get the option's type and checks,
    and a JSON boolean is refused before the type can read it as 0 or 1."""
    opts = _SUBCOMMANDS[ns.command]
    file_values = {}
    if ns.config is not None:
        file_values = load_config(ns.config, known_keys={o.name for o in opts})
    merged = {}
    for opt in opts:
        value = getattr(ns, opt.dest)
        if value is None and opt.name in file_values:
            value = file_values[opt.name]
        if value is None:
            value = opt.default
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, bool) for v in items):
            raise ConfigError(f"option '{opt.name}': no option takes a boolean, got {value!r}")
        if value is not None:
            try:
                value = opt.type(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"option '{opt.name}': {exc}") from exc
            if opt.type in (float, _float_list) and not np.all(np.isfinite(value)):
                raise ConfigError(f"option '{opt.name}' must be finite, got {value}")
        if value is None and opt.required:
            raise ConfigError(f"option '{opt.name}' is required")
        merged[opt.dest] = value
    return merged


def _protocol_params(cfg: dict) -> ProtocolParams:
    return ProtocolParams(cfg["lambda"], cfg["omega"], cfg["gamma"],
                          cfg["Omega"], cfg["protocol"])


def _build_filter(cfg: dict) -> FilterModel:
    kind = cfg["filter"]
    kinds = {"lowpass": (("gammas",), lowpass_cascade),
             "bandpass": (("gamma", "Omega"), bandpass),
             "kernel": (("kernel-coeffs", "kernel-init"),
                        lambda coeffs, init: kernel_filter(KernelSpec(coeffs, init)))}
    if kind not in kinds:
        raise ConfigError(f"option 'filter': {kind!r} is not one of lowpass, bandpass, kernel")
    names, build = kinds[kind]
    for name in ("gammas", "gamma", "Omega", "kernel-coeffs", "kernel-init"):
        if name not in names and cfg[name.replace("-", "_")] is not None:
            raise ConfigError(f"option '{name}' does not apply to --filter {kind}")
    values = [cfg[name.replace("-", "_")] for name in names]
    if any(v is None or v == () for v in values):
        raise ConfigError(f"{kind} filter needs " + " and ".join(f"--{n}" for n in names))
    return build(*values)


def _sized(options: str, fn, *args):
    """fn(*args), whose arrays ``options`` size: one it cannot allocate is
    bad input."""
    try:
        return fn(*args)
    except MemoryError as exc:
        raise ConfigError(f"{options} too large for memory: {exc}") from exc


def _cmd_filter_response(cfg: dict) -> None:
    model = _build_filter(cfg)
    if cfg["t_max"] <= 0 or cfg["points"] < 2:
        raise ConfigError("t-max must be positive and points at least 2")
    # h(t) = exp(M t) b solves dh/dt = M h from h(0) = b: exact on the grid
    n = cfg["points"] - 1
    h = _sized("--points", propagate_affine,
               model.M, np.zeros(model.n), model.b, cfg["t_max"] / n, n)
    write_csv(cfg["output"], ["t"] + [f"h_{k + 1}" for k in range(model.n)],
              [[np.linspace(0.0, cfg["t_max"], n + 1), *h.T]])


def _cmd_steady_state(cfg: dict) -> None:
    params = _protocol_params(cfg)
    ss = steady_state(build_moment_system(params))
    Omega = params.Omega if params.Omega is not None else np.nan
    write_csv(cfg["output"], ["protocol", "lambda", "omega", "gamma", "Omega", "energy",
                              "stable", "physical"],
              [[[params.kind.value], [params.lam], [params.omega], [params.gamma], [Omega],
                [ss.energy_over_hw], [str(ss.stable).lower()], [str(ss.physical).lower()]]])


def _cmd_evolve(cfg: dict) -> None:
    system = build_moment_system(_protocol_params(cfg))
    if cfg["steps"] < 1 or cfg["stride"] < 1 or cfg["steps"] % cfg["stride"]:
        raise ConfigError("stride must be positive and divide steps")
    x0 = np.zeros(system.dim)
    x0[system.energy_index] = cfg["e0"]
    # The propagator is exact, so stepping at the output stride gives the
    # rows a step of dt would, without holding the rows in between.  It
    # writes each row in place, checks finiteness at power-of-two rows and
    # the last (naming the first non-finite row), and stops stepping once a
    # row repeats the one before it bit for bit, filling the rest with it.
    # The writer formats each run of repeated values once, so past that row
    # only the time column is formatted row by row.
    stride = cfg["stride"]
    if not np.isfinite(cfg["dt"] * stride):
        raise NumericalError(f"dt * stride overflows: {cfg['dt']:g} * {stride}")
    path = _sized("--steps", evolve, system, x0, cfg["dt"] * stride, cfg["steps"] // stride)
    times = [j * stride * cfg["dt"] for j in range(len(path))]
    write_csv(cfg["output"], ["t"] + list(system.labels), [[times, *path.T]])


def _cmd_trajectory(cfg: dict) -> None:
    model = oscillator_cooling_model(_protocol_params(cfg), cfg["fock"])
    run_cfg = TrajectoryConfig(dt=cfg["dt"], n_steps=cfg["steps"],
                               n_traj=cfg["ntraj"], base_seed=cfg["seed"],
                               record_stride=cfg["stride"])
    record = _sized("--steps", run_ensemble, model, run_cfg)
    tap = model.feedback.tap_index
    write_csv(cfg["output"], ["t", "mean_energy", "stderr_energy", "mean_Dx", "var_Dx",
                              "mean_Dp", "var_Dp"],
              [[record.times, record.energy_mean, record.energy_stderr,
                record.signal_mean[0, tap], record.signal_var[0, tap],
                record.signal_mean[1, tap], record.signal_var[1, tap]]])


def _cmd_phase_diagram(cfg: dict) -> None:
    spec = GridSpec.log_spaced(
        (cfg["gamma_min"], cfg["gamma_max"]),
        (cfg["Omega_min"], cfg["Omega_max"]),
        cfg["gamma_points"], cfg["Omega_points"],
        cfg["lambda"], cfg["omega"], cfg["protocols"])
    write_phase_csv(spec, cfg["output"])


_DISPATCH = {
    "filter-response": _cmd_filter_response,
    "steady-state": _cmd_steady_state,
    "evolve": _cmd_evolve,
    "trajectory": _cmd_trajectory,
    "phase-diagram": _cmd_phase_diagram,
}


def main(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named subcommand's arguments are added; no argument, --help
    # or an unknown name gets the full parser
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage to stderr
        return int(exc.code) if exc.code else 0
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _merge_options(ns)
        _DISPATCH[ns.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"filtercool: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"filtercool: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    """Console-script wrapper."""
    raise SystemExit(main())


if __name__ == "__main__":
    run()
