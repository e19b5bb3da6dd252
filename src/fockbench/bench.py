"""Bench-description parser, validator and the built-in apparatus.

The format is line oriented, one statement per line, ``#`` starts a comment:

    path <name>                          # declares a spatial path with H,V modes
    source photon <path> <H|V>           # photon created here at t=0
    bs <pathA> <pathB> theta=<radians>
    phase <path> knob                    # the swept interference phase
    phase <path> value=<radians>
    pbs <inA> <inB> <outA> <outB>
    qwp <path> angle=<radians>
    eop <path>                           # V-polarization Pockels cell
    delay <path> length_m=<float>
    detector <name> <path> <H|V>

Canonical mode order is path declaration order, H before V; it is fixed at
compile time and never reordered afterwards.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from types import MappingProxyType
from typing import Mapping

from . import elements as el
from .elements import Element, ElementKind
from .errors import BadParam, FockbenchError, MalformedInput
from .fock import ModeId, Polarization

H, V = Polarization.H, Polarization.V


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    line: int = 0
    col: int = 1
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.code}: {self.message}"


class BenchError(FockbenchError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


@dataclass(frozen=True)
class Bench:
    """Compiled bench: canonical modes, ordered pipeline, sources, detectors.

    Immutable: the two mappings are stored as read-only copies, so one bench
    (e.g. the cached builtin) can be shared; derive a changed bench with
    ``with_input_theta``, ``with_delay_m`` or ``dataclasses.replace``.
    """

    path_names: tuple[str, ...]
    sources: tuple[ModeId, ...]
    pipeline: tuple[Element, ...]
    detectors: Mapping[str, ModeId]
    source_lines: Mapping[int, int] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "detectors", MappingProxyType(dict(self.detectors)))
        object.__setattr__(self, "source_lines", MappingProxyType(dict(self.source_lines)))

    @functools.cached_property
    def modes(self) -> tuple[ModeId, ...]:
        return tuple(
            ModeId(p, pol) for p in range(len(self.path_names)) for pol in (H, V)
        )

    @property
    def knob_index(self) -> int:
        idx = [i for i, e in enumerate(self.pipeline) if e.is_knob]
        return idx[0] if len(idx) == 1 else -1

    @property
    def delay_m(self) -> float:
        return sum(
            e.params[0] for e in self.pipeline if e.kind is ElementKind.DELAY_LINE
        )

    def mode_name(self, mode: ModeId) -> str:
        return f"{self.path_names[mode.path]}.{mode.pol.name}"

    def with_input_theta(self, theta: float) -> "Bench":
        """Retune the qubit-preparation splitter (the last bs feeding the knob)."""
        knob = self.knob_index
        if knob < 0:
            raise BadParam("--input-theta needs a bench with one phase knob")
        knob_path = self.pipeline[knob].paths[0]
        feeding = [i for i, e in enumerate(self.pipeline[:knob])
                   if e.kind is ElementKind.BEAM_SPLITTER and knob_path in e.paths]
        if not feeding:
            raise BadParam("--input-theta needs a bench with a splitter feeding the phase knob")
        old = self.pipeline[feeding[-1]]
        return self._with_element(feeding[-1], el.beam_splitter(*old.paths, theta))

    def with_delay_m(self, length_m: float) -> "Bench":
        """Set the length of the bench's one delay line."""
        # the race uses the lines' summed length, so one length fits only one line
        lines = [i for i, e in enumerate(self.pipeline) if e.kind is ElementKind.DELAY_LINE]
        if len(lines) != 1:
            raise BadParam(f"--delay-m needs a bench with one delay line, got {len(lines)}")
        path = self.pipeline[lines[0]].paths[0]
        return self._with_element(lines[0], el.delay_line(path, length_m))

    def _with_element(self, i: int, new: Element) -> "Bench":
        return replace(self, pipeline=self.pipeline[:i] + (new,) + self.pipeline[i + 1 :])

    def to_text(self) -> str:
        out = []
        for name in self.path_names:
            out.append(f"path {name}")
        for m in self.sources:
            out.append(f"source photon {self.path_names[m.path]} {m.pol.name}")
        for e in self.pipeline:
            args = [self.path_names[p] for p in e.paths]
            if e.is_knob:
                args.append("knob")
            else:
                args += [f"{key}={v!r}" for key, v in zip(_STATEMENTS[e.kind][1], e.params)]
            out.append(" ".join([e.kind.value, *args]))
        for name, mode in self.detectors.items():
            out.append(f"detector {name} {self.path_names[mode.path]} {mode.pol.name}")
        return "\n".join(out) + "\n"


# element statement: number of paths, its key=<number> arguments, constructor
_STATEMENTS = {
    ElementKind.BEAM_SPLITTER: (2, ("theta",), el.beam_splitter),
    ElementKind.PHASE_SHIFTER: (1, ("value",), el.phase_shifter),
    ElementKind.POLARIZING_BS: (4, (), el.polarizing_bs),
    ElementKind.QUARTER_WAVE_PLATE: (1, ("angle",), el.quarter_wave_plate),
    ElementKind.POCKELS_CELL: (1, (), el.pockels_cell),
    ElementKind.DELAY_LINE: (1, ("length_m",), el.delay_line),
}
_HEADS = {kind.value: kind for kind in _STATEMENTS}


def _kv(token: str, key: str, line: int, col: int, diags: list[Diagnostic]) -> float | None:
    if "=" not in token:
        diags.append(Diagnostic("syntax", f"expected {key}=<number>, got {token!r}", line, col))
        return None
    k, _, v = token.partition("=")
    if k != key:
        diags.append(Diagnostic("syntax", f"expected key {key!r}, got {k!r}", line, col))
        return None
    try:
        x = float(v)
    except ValueError:
        x = math.nan
    if math.isfinite(x):
        return x
    diags.append(Diagnostic("syntax", f"bad number {v!r} for {key}", line, col))
    return None


def _pol(token: str, line: int, col: int, diags: list[Diagnostic]) -> Polarization | None:
    if token in ("H", "V"):
        return Polarization[token]
    diags.append(Diagnostic("syntax", f"polarization must be H or V, got {token!r}", line, col))
    return None


def parse(source: str) -> Bench:
    """Compile bench text; raises BenchError carrying all diagnostics."""
    bench, diags = parse_with_diagnostics(source)
    errors = [d for d in diags if d.severity == "error"]
    if errors or bench is None:
        raise BenchError(errors or diags)
    return bench


def parse_with_diagnostics(source: str) -> tuple[Bench | None, list[Diagnostic]]:
    diags: list[Diagnostic] = []
    path_names: list[str] = []
    sources: list[ModeId] = []
    pipeline: list[Element] = []
    detectors: dict[str, ModeId] = {}
    source_lines: dict[int, int] = {}

    def path_of(tok: str, line: int, col: int) -> int | None:
        if tok in path_names:
            return path_names.index(tok)
        diags.append(Diagnostic("undeclared-path", f"path {tok!r} not declared", line, col))
        return None

    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0]
        if not text.strip():
            continue
        toks = text.split()
        cols = []
        pos = 0
        for t in toks:
            pos = text.index(t, pos)
            cols.append(pos + 1)
            pos += len(t)
        head = toks[0]

        def want(n: int) -> bool:
            if len(toks) != n:
                diags.append(
                    Diagnostic("syntax", f"{head!r} takes {n - 1} arguments, got {len(toks) - 1}",
                               lineno, cols[0])
                )
                return False
            return True

        try:
            if head == "path":
                if not want(2):
                    continue
                if toks[1] in path_names:
                    diags.append(Diagnostic("duplicate-path", f"path {toks[1]!r} already declared",
                                            lineno, cols[1]))
                    continue
                path_names.append(toks[1])
            elif head == "source":
                if not want(4):
                    continue
                if toks[1] != "photon":
                    diags.append(Diagnostic("syntax", "only 'source photon' is supported",
                                            lineno, cols[1]))
                    continue
                p = path_of(toks[2], lineno, cols[2])
                pol = _pol(toks[3], lineno, cols[3], diags)
                if p is not None and pol is not None:
                    sources.append(ModeId(p, pol))
            elif head in _HEADS:
                kind = _HEADS[head]
                n, keys, make = _STATEMENTS[kind]
                if not want(1 + n + len(keys)):
                    continue
                args = [path_of(t, lineno, c) for t, c in zip(toks[1 : n + 1], cols[1 : n + 1])]
                knob = kind is ElementKind.PHASE_SHIFTER and toks[2] == "knob"
                if not knob:
                    args += [_kv(t, key, lineno, c, diags)
                             for key, t, c in zip(keys, toks[n + 1 :], cols[n + 1 :])]
                if None in args:
                    continue
                pipeline.append(el.phase_shifter(args[0], knob=True) if knob else make(*args))
                source_lines[len(pipeline) - 1] = lineno
            elif head == "detector":
                if not want(4):
                    continue
                if toks[1] in detectors:
                    diags.append(Diagnostic("duplicate-detector",
                                            f"detector {toks[1]!r} already declared",
                                            lineno, cols[1]))
                    continue
                p = path_of(toks[2], lineno, cols[2])
                pol = _pol(toks[3], lineno, cols[3], diags)
                if p is not None and pol is not None:
                    detectors[toks[1]] = ModeId(p, pol)
            else:
                diags.append(Diagnostic("unknown-element", f"unknown statement {head!r}",
                                        lineno, cols[0]))
        except FockbenchError as exc:
            code = "bad-param" if isinstance(exc, BadParam) else "bad-wiring"
            diags.append(Diagnostic(code, str(exc), lineno, cols[0]))

    bench = Bench(tuple(path_names), tuple(sources), tuple(pipeline), detectors,
                  source_lines)
    diags.extend(validate(bench))
    errors = [d for d in diags if d.severity == "error"]
    return (None if errors else bench), diags


def validate(bench: Bench) -> list[Diagnostic]:
    """Invariant checks; empty list iff the bench is sound (warnings aside)."""
    diags: list[Diagnostic] = []

    def line_of(i: int) -> int:
        return bench.source_lines.get(i, 0)

    knobs = [i for i, e in enumerate(bench.pipeline) if e.is_knob]
    if not knobs:
        diags.append(Diagnostic("no-phase-knob", "bench needs exactly one phase knob"))
    elif len(knobs) > 1:
        diags.append(Diagnostic("multiple-phase-knobs",
                                f"{len(knobs)} phase knobs declared",
                                line_of(knobs[1])))
    if not bench.detectors:
        diags.append(Diagnostic("no-detectors", "bench declares no detector"))
    if not bench.sources:
        diags.append(Diagnostic("missing-source", "bench declares no photon source"))

    touched: set[ModeId] = set(bench.sources)
    used_paths: set[int] = {m.path for m in bench.sources}
    for e in bench.pipeline:
        used_paths.update(e.paths)
        if e.kind is ElementKind.POCKELS_CELL:
            touched.add(ModeId(e.paths[0], V))
            continue
        for act in e.actions:
            touched.update(act.modes)
    for name, mode in bench.detectors.items():
        used_paths.add(mode.path)
        if mode not in touched:
            diags.append(Diagnostic("unreachable-detector",
                                    f"detector {name!r} watches {bench.mode_name(mode)} "
                                    "which no source or element feeds",
                                    severity="warning"))
    seen_modes: dict[ModeId, str] = {}
    for name, mode in bench.detectors.items():
        if mode in seen_modes:
            diags.append(Diagnostic("detector-mode-collision",
                                    f"detectors {seen_modes[mode]!r} and {name!r} share "
                                    f"{bench.mode_name(mode)}",
                                    severity="warning"))
        seen_modes[mode] = name
    for p, name in enumerate(bench.path_names):
        if p not in used_paths:
            diags.append(Diagnostic("unreferenced-path",
                                    f"path {name!r} is declared but never used",
                                    severity="warning"))
    return diags


@functools.cache
def builtin_figure1() -> Bench:
    """The bundled ``figure1.bench`` apparatus, parsed once per process.

    Topology: two V-polarized photons; one is delocalized over (ka, kb) by a
    50:50 splitter (the nonlocal channel), the other over (ks, kanc) by the
    qubit-preparation splitter.  Alice mixes ka and ks on the Bell splitter
    (D1 fires on the antisymmetric combination).  The kanc photon is rotated
    to H and rides the 8 m delay line on top of the teleported V mode; the
    Pockels cell flips the V mode only, and a quarter-wave pair plus a
    polarizing splitter form the 50:50 verification splitter feeding D1*/D2*.
    """
    return parse(figure1_text())


def figure1_text() -> str:
    return resources.files("fockbench").joinpath("data/figure1.bench").read_text()


def read_input(path: str) -> str:
    """The text of an input file; one that is not UTF-8 raises ``MalformedInput``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: {exc}") from None


def load(path_or_builtin: str | None = None) -> Bench:
    """Load a bench file, or the builtin apparatus when None/'builtin'."""
    if path_or_builtin in (None, "builtin"):
        return builtin_figure1()
    return parse(read_input(path_or_builtin))
