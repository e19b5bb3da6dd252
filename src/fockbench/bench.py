"""Bench-description parser, validator and the built-in apparatus.

``validate`` checks a bench against the format and against what the
teleportation protocol needs, so a bench that parses is one the protocol
can run.  A ``Bench`` carries the protocol's two photons through its optics
once (``Bench.photon_rows``), and one from ``Bench.with_delay_m`` shares
that pass with the bench it came from.

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

import numpy as np

from . import elements as el
from .elements import Element, ElementKind
from .errors import BadParam, FockbenchError, MalformedInput
from .fock import ModeId, Polarization

H, V = Polarization.H, Polarization.V

#: the protocol's detectors: Alice's Bell measurement, then Bob's verification
ALICE_DETECTORS = ("D1", "D2")
BOB_DETECTORS = ("D1*", "D2*")


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
    exit_code = 3

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


@dataclass(frozen=True, eq=False)
class PhotonRows:
    """The two source photons' amplitude rows through a protocol bench.

    ``rows`` (5, n) holds, over the bench's n modes, the parts w0 of the
    two photons that skip the knob path, then their parts w1 that take it,
    so that a photon's amplitude is w0 + e^{i phi} w1.  Each was carried to
    the detectors with its entry on the Pockels cell's V mode moved out into
    ``at_channel`` (4,); the fifth row is that mode's own row, carried from
    the cell on.  ``classes`` (n, 5) is each mode's one-hot detector class:
    none, D1, D2, D1*, D2*.  All three arrays are read-only.
    """

    rows: np.ndarray
    at_channel: np.ndarray
    classes: np.ndarray


@dataclass(frozen=True)
class Bench:
    """Compiled bench: canonical modes, ordered pipeline, sources, detectors.

    Immutable: the two mappings are stored as read-only copies, so one bench
    (e.g. the cached builtin) can be shared; derive a changed bench with
    ``with_input_theta``, ``with_delay_m`` or ``dataclasses.replace``.  What
    depends on the bench alone (``modes``, ``photon_rows``) is computed once
    per instance, so a derived bench computes its own, except that a bench
    from ``with_delay_m`` shares its parent's ``photon_rows``: a delay line
    has no actions, so its length cannot change the photons' pass.

    ``source_lines`` maps each parsed statement to its (line, column) in the
    bench text, keyed ("path", index), ("source", index), ("element",
    pipeline index) or ("detector", name), so that ``validate`` can place
    every fault; a bench built in code has none, and its faults are placed
    at line 0.
    """

    path_names: tuple[str, ...]
    sources: tuple[ModeId, ...]
    pipeline: tuple[Element, ...]
    detectors: Mapping[str, ModeId]
    source_lines: Mapping[tuple[str, int | str], tuple[int, int]] = field(
        default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "detectors", MappingProxyType(dict(self.detectors)))
        object.__setattr__(self, "source_lines", MappingProxyType(dict(self.source_lines)))

    @functools.cached_property
    def modes(self) -> tuple[ModeId, ...]:
        return tuple(
            ModeId(p, pol) for p in range(len(self.path_names)) for pol in (H, V)
        )

    @functools.cached_property
    def photon_rows(self) -> PhotonRows:
        """The one pass of the protocol's two photons through the optics.

        It depends on nothing but the bench, so each bench runs it once, on
        first use, and every ``tables.count_tables`` call reads it; a bench
        from ``with_delay_m`` reads, and on first use runs, the pass of the
        bench it was derived from.  The pass first runs ``validate``: a bench
        built without the parser that fails it raises ``BenchError`` with
        its errors on every use.
        """
        owner = vars(self).get("_pass_owner")
        if owner is not None:
            return owner.photon_rows
        errors = [d for d in validate(self) if d.severity == "error"]
        if errors:
            raise BenchError(errors)
        knob, modes, pipeline = self.knob_index, self.modes, self.pipeline
        cell = next(i for i, e in enumerate(pipeline) if e.kind is ElementKind.POCKELS_CELL)
        idx = {m: i for i, m in enumerate(modes)}
        n = len(modes)
        rows = [[complex(m == source) for m in modes] for source in self.sources]
        el._carry_rows(rows, pipeline[:knob], idx)
        # w0 of both photons, then w1: amplitude = w0 + e^{i phi} w1
        on_knob = [m.path == pipeline[knob].paths[0] for m in modes]
        rows = ([[0j if k else x for x, k in zip(r, on_knob)] for r in rows]
                + [[x if k else 0j for x, k in zip(r, on_knob)] for r in rows])
        el._carry_rows(rows, pipeline[knob + 1 : cell], idx)
        # p: every mode but the channel mode; q: the channel mode's own row
        ch = idx[ModeId(pipeline[cell].paths[0], V)]
        at_channel = [r[ch] for r in rows]
        for r in rows:
            r[ch] = 0j
        rows.append([complex(j == ch) for j in range(n)])
        el._carry_rows(rows, pipeline[cell + 1 :], idx)
        detector_class = {self.detectors[d]: k
                          for k, d in enumerate(ALICE_DETECTORS + BOB_DETECTORS, start=1)}
        out = PhotonRows(np.array(rows), np.array(at_channel),
                         np.eye(5)[[detector_class.get(m, 0) for m in modes]])
        for a in (out.rows, out.at_channel, out.classes):
            a.flags.writeable = False
        return out

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
        """Set the length of the bench's one delay line.

        A delay line has no actions, so its length cannot change the
        photons' pass: the returned bench shares ``photon_rows`` with this
        one, and runs it, on this bench, on first use if it has not run yet.
        """
        # the race uses the lines' summed length, so one length fits only one line
        lines = [i for i, e in enumerate(self.pipeline) if e.kind is ElementKind.DELAY_LINE]
        if len(lines) != 1:
            raise BadParam(f"--delay-m needs a bench with one delay line, got {len(lines)}")
        path = self.pipeline[lines[0]].paths[0]
        derived = self._with_element(lines[0], el.delay_line(path, length_m))
        # the bench whose pass this one shares, if any: chains stay one deep
        object.__setattr__(derived, "_pass_owner", vars(self).get("_pass_owner", self))
        return derived

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
    if bench is None:
        raise BenchError([d for d in diags if d.severity == "error"])
    return bench


def parse_with_diagnostics(source: str) -> tuple[Bench | None, list[Diagnostic]]:
    diags: list[Diagnostic] = []
    path_names: list[str] = []
    sources: list[ModeId] = []
    pipeline: list[Element] = []
    detectors: dict[str, ModeId] = {}
    source_lines: dict[tuple[str, int | str], tuple[int, int]] = {}

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
                source_lines["path", len(path_names)] = lineno, cols[0]
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
                    source_lines["source", len(sources)] = lineno, cols[0]
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
                source_lines["element", len(pipeline) - 1] = lineno, cols[0]
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
                    source_lines["detector", toks[1]] = lineno, cols[0]
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
    return (None if any(d.severity == "error" for d in diags) else bench), diags


def validate(bench: Bench) -> list[Diagnostic]:
    """Every check of a compiled bench; no errors iff the protocol can run it.

    The protocol needs detectors D1, D2, D1* and D2* on four distinct modes
    that a source or element feeds, two photon sources on distinct modes,
    exactly one Pockels cell, exactly one phase knob before it, and no
    element after the cell that touches Alice's modes.  Each fault is one
    diagnostic, placed at the line and column of the statement at fault
    (``Bench.source_lines``), or at line 0 when no one statement is.
    Warnings flag what the protocol ignores.
    """
    diags: list[Diagnostic] = []
    pipeline, protocol = bench.pipeline, ALICE_DETECTORS + BOB_DETECTORS

    def report(code: str, message: str, at: tuple | None = None,
               severity: str = "error") -> None:
        line, col = bench.source_lines.get(at, (0, 1))
        diags.append(Diagnostic(code, message, line, col, severity))

    def error(code: str, message: str, i: int | None = None) -> None:
        report(code, message, None if i is None else ("element", i))

    knobs = [i for i, e in enumerate(pipeline) if e.is_knob]
    cells = [i for i, e in enumerate(pipeline) if e.kind is ElementKind.POCKELS_CELL]
    for found, what, code in ((knobs, "phase knob", "phase-knob"),
                              (cells, "Pockels cell", "pockels-cell")):
        if len(found) != 1:
            error(f"multiple-{code}s" if found else f"no-{code}",
                  f"bench needs exactly one {what}, got {len(found)}", found[1] if found else None)
    if len(knobs) == len(cells) == 1 and knobs[0] > cells[0]:
        error("knob-after-cell", "the phase knob must come before the Pockels cell", knobs[0])
    if len(bench.sources) != 2:
        # at the third source's statement, if there is one
        report("missing-source" if len(bench.sources) < 2 else "extra-source",
               f"bench needs two photon sources, got {len(bench.sources)}", ("source", 2))
    elif bench.sources[0] == bench.sources[1]:
        report("shared-source-mode",
               f"both photon sources are on {bench.mode_name(bench.sources[0])}", ("source", 1))
    missing = [d for d in protocol if d not in bench.detectors]
    if missing:
        error("missing-detector", f"bench needs D1, D2, D1*, D2*; missing {', '.join(missing)}")
    alice = {bench.detectors[d] for d in ALICE_DETECTORS if d in bench.detectors}
    for i in range(cells[0] + 1, len(pipeline)) if len(cells) == 1 else ():
        if any(alice & set(act.modes) for act in pipeline[i].actions):
            error("touches-alice", "an element after the Pockels cell touches Alice's "
                  "detectors", i)

    touched: set[ModeId] = set(bench.sources)
    used_paths: set[int] = {m.path for m in bench.sources}
    for e in pipeline:
        used_paths.update(e.paths)
        touched.update(m for act in e.actions for m in act.modes)
        if e.kind is ElementKind.POCKELS_CELL:  # no actions: it flips its V mode
            touched.add(ModeId(e.paths[0], V))
    # a protocol detector on a mode nothing feeds, or two on one mode, are
    # errors, and the same of any other detector a warning; a mode is held by
    # the first of the protocol's detectors on it
    seen: dict[ModeId, str] = {}
    for name, mode in bench.detectors.items():
        used_paths.add(mode.path)
        at = ("detector", name)
        if mode not in touched:
            ours = name in protocol
            report("unreachable-protocol-detector" if ours else "unreachable-detector",
                   f"detector {name!r} watches {bench.mode_name(mode)} "
                   "which no source or element feeds", at, "error" if ours else "warning")
        other = seen.get(mode)
        if other is not None:
            ours = name in protocol and other in protocol
            report("shared-detector-mode" if ours else "detector-mode-collision",
                   f"detectors {other!r} and {name!r} share {bench.mode_name(mode)}", at,
                   "error" if ours else "warning")
        if other is None or (name in protocol and other not in protocol):
            seen[mode] = name
    for p, name in enumerate(bench.path_names):
        if p not in used_paths:
            report("unreferenced-path", f"path {name!r} is declared but never used",
                   ("path", p), "warning")
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
