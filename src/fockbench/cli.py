"""Command-line driver: run sweeps, analyze fringes, compare runs.

Exit codes: 0 ok, 2 usage error, 3 bad input data, 4 internal invariant
violation.  An error's code comes from its class (``exit_code``); the Fock
engine and the elements raise ``FockbenchError`` itself, code 4, on a broken
invariant, and an ``OSError`` is bad input.  Output CSVs are
bit-deterministic in (bench bytes, flags, seed).  A rerun into an existing
output directory rewrites each file in place, and cuts off the old tail
where the new output is shorter.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    CLASSICAL_FIDELITY_BOUND,
    classical_bound_check,
    error_propagation,
    fidelity_from_visibility,
    fit_fringes,
    wrap_phase,
)
from .bench import (
    Bench,
    BenchError,
    load,
    parse_with_diagnostics,
    read_input,
)
from .errors import BadParam, FockbenchError, GridMismatch, MalformedInput
from .noise import NoiseModel, calibrate_sigma
from .protocol import (
    PAIR_NAMES,
    FringeData,
    RunConfig,
    RunMode,
    default_phi_grid,
    run_sweep,
    run_trial,
)
from .timing import TimingModel

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values) -> str:
    vals = np.asarray(values, dtype=float)
    top = vals.max() if vals.size else 0.0
    if top <= 0:
        return " " * len(vals)
    idx = np.minimum((vals / top * (len(_BLOCKS) - 1)).astype(int), len(_BLOCKS) - 1)
    return "".join([_BLOCKS[i] for i in idx.tolist()])


# dest -> (type, default, help): the run flags, which manifest.txt records
_RUN_FLAGS = {
    "mode": (str, "passive", None),
    "trials": (int, 1000, None),
    "phi_steps": (int, 25, None),
    "seed": (int, 0, None),
    "qe": (float, 1.0, None),
    "dephasing_sigma": (float, 0.0, None),
    "dark_prob": (float, 0.0, None),
    "risetime_ns": (float, 22.0, None),
    "jitter_ns": (float, 0.0, None),
    "ns_per_m": (float, 3.0, None),
    "delay_m": (float, None, "override the bench delay-line length"),
    "input_theta": (float, None, "qubit-preparation splitter angle (radians)"),
    "bench": (str, None, "bench file (default: builtin)"),
}
_MODES = ("passive", "active", "active-inhibited")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    for dest, (kind, default, help_text) in _RUN_FLAGS.items():
        p.add_argument("--" + dest.replace("_", "-"), type=kind, default=default,
                       help=help_text, choices=_MODES if dest == "mode" else None)


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, as ``Path.write_text`` does.

    An existing file is not opened with ``O_TRUNC`` but overwritten, and
    then cut at the end of the new bytes.  Truncating a file to zero before
    rewriting it makes ext4 flush it on close (``auto_da_alloc``), which
    costs a rerun up to a millisecond per file.  Neither way calls fsync,
    and neither is atomic.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        size = len(data)
        while data:  # os.write may write less than it is given
            data = data[os.write(fd, data):]
        os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _manifest_text(args: argparse.Namespace) -> str:
    lines = [f"fockbench_version={__version__}"]
    for key in sorted(_RUN_FLAGS):
        val = getattr(args, key)
        if key == "bench" and val not in (None, "builtin"):
            val = str(Path(val).resolve())  # reruns must work from any cwd
        lines.append(f"{key}={'' if val is None else val}")
    return "\n".join(lines) + "\n"


def _load_manifest(path: str, args: argparse.Namespace) -> None:
    """Set the run flags a manifest records; other keys are skipped.

    An empty value stands for None, so only a flag that defaults to None
    may have one.  A manifest from another fockbench version is run with a
    warning.
    """
    for line in read_input(path).splitlines():
        key, sep, val = line.partition("=")
        if sep and key == "fockbench_version" and val != __version__:
            print(f"warning: manifest {path} was written by fockbench {val}, "
                  f"this is {__version__}", file=sys.stderr)
        if not sep or key not in _RUN_FLAGS:
            continue
        kind, default, _ = _RUN_FLAGS[key]
        if val == "":
            if default is not None:
                raise MalformedInput(f"manifest {path}: {key} needs a value")
            setattr(args, key, None)
            continue
        try:
            setattr(args, key, kind(val))
        except ValueError:
            raise MalformedInput(f"manifest {path}: {key}={val!r} is not "
                                 f"a valid {kind.__name__}") from None


def _build_run(args: argparse.Namespace) -> tuple[Bench, RunConfig]:
    bench = load(args.bench)
    if args.delay_m is not None:
        bench = bench.with_delay_m(args.delay_m)
    if args.input_theta is not None:
        bench = bench.with_input_theta(args.input_theta)
    cfg = RunConfig(
        mode=RunMode.parse(args.mode),
        trials_per_phi=args.trials,
        phi_grid=default_phi_grid(args.phi_steps),
        noise=NoiseModel(qe=args.qe, dephasing_sigma=args.dephasing_sigma,
                         dark_count_prob=args.dark_prob),
        timing=TimingModel(risetime_ns=args.risetime_ns,
                           delay_ns_per_m=args.ns_per_m,
                           jitter_sigma_ns=args.jitter_ns),
    )
    return bench, cfg


def cmd_run(args: argparse.Namespace) -> int:
    if args.manifest:
        _load_manifest(args.manifest, args)
    try:
        bench, cfg = _build_run(args)
        data = run_sweep(bench, cfg, seed=args.seed)
    except BadParam as exc:
        if not args.manifest:
            raise
        # a manifest is input data: its out-of-range values are bad input
        raise MalformedInput(f"manifest {args.manifest}: {exc}") from None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "fringe.csv", data.to_csv())
    _write_text(out / "manifest.txt", _manifest_text(args))
    if args.log_events:
        # a child stream of the seed, apart from the sweep's own stream
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(args.seed).spawn(1)[0]))
        record = run_trial(bench, cfg.phi_grid[0], cfg, rng)
        _write_text(out / "events.csv", record.log.to_csv())

    lines = [f"wrote {out / 'fringe.csv'} ({len(cfg.phi_grid)} phase points, "
             f"{cfg.trials_per_phi} trials each, mode={cfg.mode.value})"]
    lines += [f"  {pair:7s} {sparkline(data.counts[pair])}" for pair in PAIR_NAMES]
    print("\n".join(lines))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    data = FringeData.from_csv(read_input(args.fringe_csv))
    fits = fit_fringes(data.phi_grid, [data.counts[pair] for pair in PAIR_NAMES])
    lines = [f"# {args.fringe_csv}: {len(data.phi_grid)} phase points, "
             f"{sum(data.trials_total.tolist())} trials"]  # Python ints: no int64 wrap
    for pair, fit in zip(PAIR_NAMES, fits):
        f = fidelity_from_visibility(fit.visibility)
        sf = error_propagation(fit)
        beats = classical_bound_check(f)
        key = pair.replace("*", "s")
        lines += [
            f"{pair}: V={fit.visibility:.4f}+-{fit.sigma_visibility:.4f} "
            f"phi0={fit.phi0:+.4f} F={f:.4f}+-{sf:.4f} "
            f"{'beats' if beats else 'below'} classical {CLASSICAL_FIDELITY_BOUND:.4f}",
            f"{key}.visibility={fit.visibility:.6f}",
            f"{key}.sigma_visibility={fit.sigma_visibility:.6f}",
            f"{key}.phi0={fit.phi0:.6f}",
            f"{key}.sigma_phi0={fit.sigma_phi0:.6f}",
            f"{key}.chi2_dof={fit.chi2 / fit.dof:.6f}",
            f"{key}.fidelity={f:.6f}",
            f"{key}.sigma_fidelity={sf:.6f}",
            f"{key}.beats_classical_bound={str(beats).lower()}",
        ]
    print("\n".join(lines))
    return 0


#: how close (rad) to pi a phase offset must be for compare's pi_offset
PI_TOL = 0.1


def cmd_compare(args: argparse.Namespace) -> int:
    data_a = FringeData.from_csv(read_input(args.run_a))
    data_b = FringeData.from_csv(read_input(args.run_b))
    if data_a.phi_grid != data_b.phi_grid:
        raise GridMismatch("phase grids differ between the two runs")
    fit_a, fit_b = fit_fringes(data_a.phi_grid, [data_a.counts[args.pair_a],
                                                 data_b.counts[args.pair_b]])
    dphi = wrap_phase(fit_a.phi0 - fit_b.phi0)
    dv = fit_a.visibility - fit_b.visibility
    sigma_dphi = math.hypot(fit_a.sigma_phi0, fit_b.sigma_phi0)
    sigma_dv = math.hypot(fit_a.sigma_visibility, fit_b.sigma_visibility)
    pi_offset = abs(abs(dphi) - math.pi) < PI_TOL
    print(f"A: {args.run_a} [{args.pair_a}] phi0={fit_a.phi0:+.4f} V={fit_a.visibility:.4f}")
    print(f"B: {args.run_b} [{args.pair_b}] phi0={fit_b.phi0:+.4f} V={fit_b.visibility:.4f}")
    print(f"delta_phi0={dphi:.6f}")
    print(f"sigma_delta_phi0={sigma_dphi:.6f}")
    print(f"delta_visibility={dv:.6f}")
    print(f"sigma_delta_visibility={sigma_dv:.6f}")
    print(f"pi_offset={str(pi_offset).lower()}")
    return 0


def cmd_validate_bench(args: argparse.Namespace) -> int:
    bench, diags = parse_with_diagnostics(read_input(args.bench_file))
    for d in diags:
        print(str(d))
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        return 3
    # what run needs beyond a well-formed bench: ProtocolError otherwise
    bench.photon_rows
    print(f"ok: {len(bench.path_names)} paths, {len(bench.pipeline)} elements, "
          f"{len(bench.detectors)} detectors")
    return 0


#: reproduce-paper's runs, seeded seed + index: (name, mode, fitted pair).
#: Passive exact teleportation shows on (D1, D2*); the D2-triggered state
#: shows on (D2, D2*): sigma_z-flipped when inhibited, restored when active
_PAPER_RUNS = (
    ("passive", RunMode.PASSIVE, "D1-D2*"),
    ("inhibited", RunMode.ACTIVE_INHIBITED, "D2-D2*"),
    ("active", RunMode.ACTIVE, "D2-D2*"),
)


def cmd_reproduce_paper(args: argparse.Namespace) -> int:
    """Three sweeps mirroring the bench's headline figure and fidelities."""
    bench = load(args.bench)
    sigma_passive = calibrate_sigma(1.0, args.passive_visibility)
    sigma_added = calibrate_sigma(args.passive_visibility, args.active_visibility)
    sigma_total = math.hypot(sigma_passive, sigma_added)

    grid = default_phi_grid(args.phi_steps)
    runs = []  # (name, fitted pair, fringe data)
    for k, (name, mode, pair) in enumerate(_PAPER_RUNS):
        sigma = sigma_passive if mode is RunMode.PASSIVE else sigma_total
        cfg = RunConfig(mode=mode, trials_per_phi=args.trials, phi_grid=grid,
                        noise=NoiseModel(dephasing_sigma=sigma))
        runs.append((name, pair, run_sweep(bench, cfg, seed=args.seed + k)))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, _, data in runs:
            _write_text(out / f"{name}.csv", data.to_csv())
    fitted = fit_fringes(grid, [data.counts[pair] for _, pair, data in runs])
    fits = {name: fit for (name, _, _), fit in zip(runs, fitted)}

    print(f"dephasing: passive sigma={sigma_passive:.4f} rad, "
          f"delay-line adds {sigma_added:.4f} rad (total {sigma_total:.4f})")
    print()
    print("fringe (coincidences vs phase), upper=exact teleportation:")
    for name, pair, data in runs:
        print(f"  {name:9s} {pair} {sparkline(data.counts[pair])}")
    print()
    for name, fit in fits.items():
        f = fidelity_from_visibility(fit.visibility)
        sf = error_propagation(fit)
        verdict = "beats" if classical_bound_check(f) else "below"
        print(f"{name:9s} V={fit.visibility:.4f}+-{fit.sigma_visibility:.4f} "
              f"phi0={fit.phi0:+.4f} F={f:.4f}+-{sf:.4f} ({verdict} 2/3 bound)")
    dphi_active = wrap_phase(fits["active"].phi0 - fits["passive"].phi0)
    dphi_inhib = wrap_phase(fits["inhibited"].phi0 - fits["passive"].phi0)
    print()
    print(f"active vs passive    delta_phi0={dphi_active:+.4f} (correction restores the fringe)")
    print(f"inhibited vs passive delta_phi0={dphi_inhib:+.4f} (sigma_z flip, expect +-pi)")
    print(f"F_passive={fidelity_from_visibility(fits['passive'].visibility):.6f}")
    print(f"F_active={fidelity_from_visibility(fits['active'].visibility):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves no state on it: each ``parse_args`` returns a new namespace.
    """
    return _parsers()[0]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with a subcommand's arguments
    handed straight to that subcommand's parser.

    Through the top-level parser, every flag is classified twice, the first
    time only to be handed on unchanged; that costs a ``run`` with a dozen
    flags about as much as parsing them.
    """
    parser, subcommands = _parsers()
    sub = subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's, by name."""
    parser = argparse.ArgumentParser(
        prog="fockbench",
        description="vacuum/one-photon qubit teleportation bench simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="Monte Carlo phase sweep -> fringe CSV")
    _add_run_flags(p_run)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--manifest", default=None,
                       help="re-run the configuration stored in a manifest")
    p_run.add_argument("--log-events", action="store_true",
                       help="also write one trial's feed-forward event log")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="fit fringes, report V/F per pair")
    p_an.add_argument("fringe_csv")
    p_an.set_defaults(func=cmd_analyze)

    p_cmp = sub.add_parser("compare", help="phase offset between two runs")
    p_cmp.add_argument("run_a")
    p_cmp.add_argument("run_b")
    p_cmp.add_argument("--pair-a", default="D1-D2*", choices=PAIR_NAMES)
    p_cmp.add_argument("--pair-b", default="D1-D2*", choices=PAIR_NAMES)
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate-bench", help="parse and check a bench file")
    p_val.add_argument("bench_file")
    p_val.set_defaults(func=cmd_validate_bench)

    p_rep = sub.add_parser("reproduce-paper",
                           help="passive/inhibited/active comparison and fidelities")
    p_rep.add_argument("--trials", type=int, default=20000)
    p_rep.add_argument("--phi-steps", type=int, default=25)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--bench", default=None)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--passive-visibility", type=float, default=0.906)
    p_rep.add_argument("--active-visibility", type=float, default=0.80)
    p_rep.set_defaults(func=cmd_reproduce_paper)
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (FockbenchError, OSError) as exc:
        code = getattr(exc, "exit_code", 3)  # an OSError is bad input
        if isinstance(exc, BenchError):
            for d in exc.diagnostics:
                print(str(d), file=sys.stderr)
        else:
            print(f"{'internal error' if code == 4 else 'error'}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
