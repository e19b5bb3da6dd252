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

import math
from dataclasses import dataclass, field, replace
from importlib import resources

from . import elements as el
from .elements import Element, ElementKind
from .errors import FockbenchError
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


@dataclass(eq=True)
class Bench:
    """Compiled bench: canonical modes, ordered pipeline, sources, detectors."""

    path_names: tuple[str, ...]
    sources: tuple[ModeId, ...]
    pipeline: tuple[Element, ...]
    detectors: dict[str, ModeId]
    source_lines: dict[int, int] = field(default_factory=dict, compare=False)

    @property
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

    def path_index(self, name: str) -> int:
        return self.path_names.index(name)

    def mode_name(self, mode: ModeId) -> str:
        return f"{self.path_names[mode.path]}.{mode.pol.name}"

    def with_input_theta(self, theta: float) -> "Bench":
        """Retune the qubit-preparation splitter (the last bs feeding the knob)."""
        knob = self.knob_index
        if knob < 0:
            raise BenchError([Diagnostic("no-phase-knob", "bench has no phase knob")])
        knob_path = self.pipeline[knob].paths[0]
        target = None
        for i in range(knob - 1, -1, -1):
            e = self.pipeline[i]
            if e.kind is ElementKind.BEAM_SPLITTER and knob_path in e.paths:
                target = i
                break
        if target is None:
            raise BenchError(
                [Diagnostic("bad-wiring", "no splitter feeds the phase knob")]
            )
        old = self.pipeline[target]
        new = el.beam_splitter(old.paths[0], old.paths[1], theta)
        return replace(self, pipeline=self.pipeline[:target] + (new,)
                       + self.pipeline[target + 1 :])

    def to_text(self) -> str:
        out = []
        for name in self.path_names:
            out.append(f"path {name}")
        for m in self.sources:
            out.append(f"source photon {self.path_names[m.path]} {m.pol.name}")
        for e in self.pipeline:
            names = [self.path_names[p] for p in e.paths]
            if e.kind is ElementKind.BEAM_SPLITTER:
                out.append(f"bs {names[0]} {names[1]} theta={e.params[0]!r}")
            elif e.kind is ElementKind.PHASE_SHIFTER:
                out.append(
                    f"phase {names[0]} knob"
                    if e.is_knob
                    else f"phase {names[0]} value={e.params[0]!r}"
                )
            elif e.kind is ElementKind.POLARIZING_BS:
                out.append(f"pbs {' '.join(names)}")
            elif e.kind is ElementKind.QUARTER_WAVE_PLATE:
                out.append(f"qwp {names[0]} angle={e.params[0]!r}")
            elif e.kind is ElementKind.POCKELS_CELL:
                out.append(f"eop {names[0]}")
            elif e.kind is ElementKind.DELAY_LINE:
                out.append(f"delay {names[0]} length_m={e.params[0]!r}")
            else:
                raise BenchError(
                    [Diagnostic("unknown-element", f"cannot serialize {e.kind}")]
                )
        for name, mode in self.detectors.items():
            out.append(f"detector {name} {self.path_names[mode.path]} {mode.pol.name}")
        return "\n".join(out) + "\n"


def _kv(token: str, key: str, line: int, col: int, diags: list[Diagnostic]) -> float | None:
    if "=" not in token:
        diags.append(Diagnostic("syntax", f"expected {key}=<number>, got {token!r}", line, col))
        return None
    k, _, v = token.partition("=")
    if k != key:
        diags.append(Diagnostic("syntax", f"expected key {key!r}, got {k!r}", line, col))
        return None
    try:
        return float(v)
    except ValueError:
        diags.append(Diagnostic("syntax", f"bad number {v!r} for {key}", line, col))
        return None


def _pol(token: str, line: int, col: int, diags: list[Diagnostic]) -> Polarization | None:
    if token == "H":
        return H
    if token == "V":
        return V
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
            elif head == "bs":
                if not want(4):
                    continue
                pa = path_of(toks[1], lineno, cols[1])
                pb = path_of(toks[2], lineno, cols[2])
                theta = _kv(toks[3], "theta", lineno, cols[3], diags)
                if None not in (pa, pb, theta):
                    pipeline.append(el.beam_splitter(pa, pb, theta))
                    source_lines[len(pipeline) - 1] = lineno
            elif head == "phase":
                if not want(3):
                    continue
                p = path_of(toks[1], lineno, cols[1])
                if p is None:
                    continue
                if toks[2] == "knob":
                    pipeline.append(el.phase_shifter(p, 0.0, knob=True))
                else:
                    v = _kv(toks[2], "value", lineno, cols[2], diags)
                    if v is None:
                        continue
                    pipeline.append(el.phase_shifter(p, v))
                source_lines[len(pipeline) - 1] = lineno
            elif head == "pbs":
                if not want(5):
                    continue
                ps = [path_of(t, lineno, c) for t, c in zip(toks[1:5], cols[1:5])]
                if None not in ps:
                    pipeline.append(el.polarizing_bs(*ps))
                    source_lines[len(pipeline) - 1] = lineno
            elif head == "qwp":
                if not want(3):
                    continue
                p = path_of(toks[1], lineno, cols[1])
                angle = _kv(toks[2], "angle", lineno, cols[2], diags)
                if None not in (p, angle):
                    pipeline.append(el.quarter_wave_plate(p, angle))
                    source_lines[len(pipeline) - 1] = lineno
            elif head == "eop":
                if not want(2):
                    continue
                p = path_of(toks[1], lineno, cols[1])
                if p is not None:
                    pipeline.append(el.pockels_cell(p))
                    source_lines[len(pipeline) - 1] = lineno
            elif head == "delay":
                if not want(3):
                    continue
                p = path_of(toks[1], lineno, cols[1])
                length = _kv(toks[2], "length_m", lineno, cols[2], diags)
                if None not in (p, length):
                    pipeline.append(el.delay_line(p, length))
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
            code = "bad-param" if "theta" in str(exc) or "length" in str(exc) else "bad-wiring"
            diags.append(Diagnostic(code, str(exc), lineno, cols[0]))

    if not sources:
        diags.append(Diagnostic("missing-source", "bench declares no photon source"))
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


_QUARTER = math.pi / 4
_HALFPI = math.pi / 2


def builtin_figure1() -> Bench:
    """Programmatic construction of the bundled ``figure1.bench`` apparatus.

    Topology: two V-polarized photons; one is delocalized over (ka, kb) by a
    50:50 splitter (the nonlocal channel), the other over (ks, kanc) by the
    qubit-preparation splitter.  Alice mixes ka and ks on the Bell splitter
    (D1 fires on the antisymmetric combination).  The kanc photon is rotated
    to H and rides the 8 m delay line on top of the teleported V mode; the
    Pockels cell flips the V mode only, and a quarter-wave pair plus a
    polarizing splitter form the 50:50 verification splitter feeding D1*/D2*.
    """
    names = ("ka", "kb", "ks", "kanc", "bob", "aux", "b1", "b2")
    ka, kb, ks, kanc, bob, aux, b1, b2 = range(8)
    pipeline = (
        el.beam_splitter(ka, kb, _QUARTER),
        el.beam_splitter(kanc, ks, _QUARTER),
        el.phase_shifter(ks, 0.0, knob=True),
        el.beam_splitter(ks, ka, _QUARTER),
        el.quarter_wave_plate(kanc, _QUARTER),
        el.quarter_wave_plate(kanc, _QUARTER),
        el.polarizing_bs(kanc, kb, bob, aux),
        el.delay_line(bob, 8.0),
        el.pockels_cell(bob),
        el.quarter_wave_plate(bob, _HALFPI),
        el.quarter_wave_plate(bob, _QUARTER),
        el.polarizing_bs(bob, aux, b1, b2),
    )
    detectors = {
        "D1": ModeId(ka, V),
        "D2": ModeId(ks, V),
        "D1*": ModeId(b1, H),
        "D2*": ModeId(b2, V),
    }
    return Bench(names, (ModeId(ka, V), ModeId(ks, V)), pipeline, detectors)


def figure1_text() -> str:
    return resources.files("fockbench").joinpath("data/figure1.bench").read_text()


def load(path_or_builtin: str | None = None) -> Bench:
    """Load a bench file, or the builtin apparatus when None/'builtin'."""
    if path_or_builtin in (None, "builtin"):
        return builtin_figure1()
    with open(path_or_builtin, encoding="utf-8") as fh:
        return parse(fh.read())
