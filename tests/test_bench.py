import dataclasses
import math
import re

import pytest

from fockbench import elements as el
from fockbench.bench import (
    Bench,
    BenchError,
    builtin_figure1,
    figure1_text,
    load,
    parse,
    parse_with_diagnostics,
    read_input,
    validate,
)
from fockbench.elements import ElementKind
from fockbench.errors import BadParam, MalformedInput
from fockbench.fock import ModeId, Polarization

H, V = Polarization.H, Polarization.V

MINIMAL = """\
path a
path b
source photon a V
bs a b theta=0.7853981633974483
phase a knob
detector D a V
"""


def codes(diags):
    return [d.code for d in diags]


class TestParseFigure1:
    def test_modes_and_detectors(self):
        b = parse(figure1_text())
        assert b.path_names == ("ka", "kb", "ks", "kanc", "bob", "aux", "b1", "b2")
        assert len(b.modes) == 16
        assert set(b.detectors) == {"D1", "D2", "D1*", "D2*"}
        assert b.detectors["D1"] == ModeId(0, V)
        assert b.detectors["D1*"] == ModeId(6, H)

    def test_mode_order_h_before_v(self):
        b = parse(figure1_text())
        assert b.modes[0] == ModeId(0, H)
        assert b.modes[1] == ModeId(0, V)

    def test_delay_length(self):
        assert parse(figure1_text()).delay_m == pytest.approx(8.0)

    def test_exactly_one_knob(self):
        b = parse(figure1_text())
        assert b.knob_index >= 0
        assert b.pipeline[b.knob_index].is_knob


class TestParseErrors:
    def test_empty_file_missing_source(self):
        with pytest.raises(BenchError) as err:
            parse("")
        assert codes(err.value.diagnostics).count("missing-source") == 1

    def test_undeclared_path_with_line(self):
        bad = "path a\nsource photon a V\nbs a zz theta=0.5\nphase a knob\ndetector D a V\n"
        with pytest.raises(BenchError) as err:
            parse(bad)
        diag = [d for d in err.value.diagnostics if d.code == "undeclared-path"][0]
        assert diag.line == 3
        assert diag.col == 6

    def test_unknown_statement(self):
        with pytest.raises(BenchError) as err:
            parse(MINIMAL + "wedge a b\n")
        assert "unknown-element" in codes(err.value.diagnostics)

    def test_duplicate_path(self):
        with pytest.raises(BenchError) as err:
            parse("path a\npath a\n" + MINIMAL.split("\n", 1)[1])
        assert "duplicate-path" in codes(err.value.diagnostics)

    def test_duplicate_detector(self):
        with pytest.raises(BenchError) as err:
            parse(MINIMAL + "detector D b V\n")
        assert "duplicate-detector" in codes(err.value.diagnostics)

    def test_bad_number(self):
        with pytest.raises(BenchError) as err:
            parse(MINIMAL.replace("theta=0.7853981633974483", "theta=abc"))
        assert "syntax" in codes(err.value.diagnostics)

    @pytest.mark.parametrize("statement, code, col", [
        ("bs a b theta=9.9", "bad-param", 1),
        ("  delay a length_m=0", "bad-param", 3),
        ("delay b length_m=-2", "bad-param", 1),
        ("bs a a theta=0.5", "bad-wiring", 1),
        (" pbs a b a c", "bad-wiring", 2),
        ("qwp a theta=0.5", "syntax", 7),
        ("bs a b  angle=0.5", "syntax", 9),
        ("delay a length=8", "syntax", 9),
        ("phase a value=x", "syntax", 9),
        ("qwp b angle=1e", "syntax", 7),
        ("eop a b", "syntax", 1),
        ("bs a b 0.5", "syntax", 8),
    ])
    def test_element_statement_errors_pin_code_line_col(self, statement, code, col):
        base = "path a\npath b\npath c\npath d\nsource photon a V\nphase a knob\n"
        bench, diags = parse_with_diagnostics(base + statement + "\ndetector D a V\n")
        assert bench is None
        errors = [d for d in diags if d.severity == "error"]
        assert [(d.code, d.line, d.col) for d in errors] == [(code, 7, col)]

    @pytest.mark.parametrize("statement, col", [
        ("source photon a X", 17),
        ("source laser a V", 8),
        ("source photon a", 1),
        ("detector E a Q", 14),
        ("detector E a", 1),
        ("path a b", 1),
    ])
    def test_other_statement_errors_pin_line_col(self, statement, col):
        base = "path a\npath b\npath c\npath d\nsource photon a V\nphase a knob\n"
        bench, diags = parse_with_diagnostics(base + statement + "\ndetector D a V\n")
        assert bench is None
        errors = [d for d in diags if d.severity == "error"]
        assert [(d.code, d.line, d.col) for d in errors] == [("syntax", 7, col)]

    def test_bad_theta_range(self):
        with pytest.raises(BenchError) as err:
            parse(MINIMAL.replace("theta=0.7853981633974483", "theta=9.9"))
        assert "bad-param" in codes(err.value.diagnostics)

    def test_no_knob(self):
        with pytest.raises(BenchError) as err:
            parse(MINIMAL.replace("phase a knob\n", ""))
        assert "no-phase-knob" in codes(err.value.diagnostics)

    def test_multiple_knobs(self):
        with pytest.raises(BenchError) as err:
            parse(MINIMAL + "phase b knob\n")
        assert "multiple-phase-knobs" in codes(err.value.diagnostics)

    def test_wrong_arity(self):
        with pytest.raises(BenchError) as err:
            parse(MINIMAL + "eop\n")
        assert "syntax" in codes(err.value.diagnostics)


class TestValidate:
    def test_figure1_is_clean(self):
        assert validate(builtin_figure1()) == []

    def test_two_knobs_flagged(self):
        from fockbench import elements as el

        b = builtin_figure1()
        extra = el.phase_shifter(0, 0.0, knob=True)
        two = Bench(b.path_names, b.sources, b.pipeline + (extra,), dict(b.detectors))
        assert "multiple-phase-knobs" in codes(validate(two))

    def test_unreachable_detector_warns(self):
        b = builtin_figure1()
        dets = dict(b.detectors)
        dets["stray"] = ModeId(8, V)  # a fresh path nothing feeds
        bench = Bench(b.path_names + ("ghost",), b.sources, b.pipeline, dets)
        out = validate(bench)
        assert "unreachable-detector" in codes(out)
        assert all(d.severity == "warning" for d in out)

    def test_unreferenced_path_warns(self):
        text = MINIMAL.replace("path b\n", "path b\npath spare\n")
        bench, diags = parse_with_diagnostics(text)
        assert bench is not None
        assert "unreferenced-path" in codes(diags)


class TestBuiltin:
    def test_validates_clean(self):
        assert validate(builtin_figure1()) == []

    def test_bell_splitter_is_symmetric(self):
        b = builtin_figure1()
        knob = b.knob_index
        # the Bell splitter is the first splitter after the knob
        after = [e for e in b.pipeline[knob + 1 :] if e.kind is ElementKind.BEAM_SPLITTER]
        assert after[0].params[0] == pytest.approx(math.pi / 4)

    def test_sources_are_v_photons(self):
        b = builtin_figure1()
        assert all(m.pol is V for m in b.sources)
        assert len(b.sources) == 2


class TestRoundTrip:
    def test_serialize_reparses_equal(self):
        b = builtin_figure1()
        assert parse(b.to_text()) == b

    def test_minimal_round_trip(self):
        b = parse(MINIMAL)
        assert parse(b.to_text()) == b

    def test_fixed_phase_round_trip(self):
        text = MINIMAL + "phase b value=0.625\n"
        b = parse(text)
        fixed = [e for e in b.pipeline
                 if e.kind is ElementKind.PHASE_SHIFTER and not e.is_knob]
        assert fixed[0].params[0] == pytest.approx(0.625)
        assert parse(b.to_text()) == b

    def test_parse_is_deterministic(self):
        a = parse(figure1_text())
        b = parse(figure1_text())
        assert a == b
        assert a.modes == b.modes


class TestInputTheta:
    def test_retunes_preparation_splitter(self):
        b = builtin_figure1().with_input_theta(0.3)
        prep = [e for e in b.pipeline if e.kind is ElementKind.BEAM_SPLITTER][1]
        assert prep.params[0] == pytest.approx(0.3)

    def test_other_elements_untouched(self):
        a = builtin_figure1()
        b = a.with_input_theta(0.3)
        assert a.pipeline[0] == b.pipeline[0]
        assert a.pipeline[3:] == b.pipeline[3:]


class TestBenchEdits:
    @pytest.mark.parametrize("pipeline, message", [
        ((el.beam_splitter(0, 1, 0.5),), "one phase knob"),
        ((el.beam_splitter(1, 2, 0.5), el.phase_shifter(0, knob=True),
          el.beam_splitter(0, 1, 0.5)), "splitter feeding the phase knob"),
    ], ids=["no-knob", "no-feeding-splitter"])
    def test_input_theta_needs_a_splitter_feeding_the_knob(self, pipeline, message):
        bench = Bench(("a", "b", "c"), (ModeId(0, V),), pipeline, {"D": ModeId(0, V)})
        with pytest.raises(BadParam, match=message):
            bench.with_input_theta(0.3)

    @pytest.mark.parametrize("lines", [0, 2])
    def test_delay_m_needs_one_delay_line(self, lines):
        pipeline = (el.phase_shifter(0, knob=True),) + (el.delay_line(1, 4.0),) * lines
        bench = Bench(("a", "b"), (ModeId(0, V),), pipeline, {"D": ModeId(0, V)})
        with pytest.raises(BadParam, match=f"one delay line, got {lines}$"):
            bench.with_delay_m(7.0)


class TestImmutable:
    def test_builtin_is_parsed_once(self):
        assert builtin_figure1() is builtin_figure1()
        assert load(None) is builtin_figure1()

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            builtin_figure1().pipeline = ()

    def test_detectors_are_read_only(self):
        with pytest.raises(TypeError):
            builtin_figure1().detectors["X"] = ModeId(0, V)

    def test_bench_keeps_a_copy_of_its_detectors(self):
        dets = dict(builtin_figure1().detectors)
        b = Bench(("a",), (), (), dets)
        dets.clear()
        assert set(b.detectors) == {"D1", "D2", "D1*", "D2*"}

    def test_derived_benches_leave_the_builtin_alone(self):
        b = builtin_figure1()
        assert b.with_input_theta(0.3) != b
        assert b.with_delay_m(7.0).delay_m == 7.0
        assert builtin_figure1() is b
        assert b == parse(figure1_text())
        assert b.delay_m == 8.0


class TestLoad:
    def test_builtin_default(self):
        assert load(None) == builtin_figure1()
        assert load("builtin") == builtin_figure1()

    def test_load_file(self, tmp_path):
        p = tmp_path / "mini.bench"
        p.write_text(MINIMAL)
        assert load(str(p)) == parse(MINIMAL)

    def test_load_reads_utf8(self, tmp_path):
        p = tmp_path / "qubit.bench"
        p.write_text("# \u03b8 = \u03c0/4\n" + MINIMAL, encoding="utf-8")
        assert load(str(p)) == parse(MINIMAL)

    def test_non_utf8_file_is_malformed_and_named(self, tmp_path):
        p = tmp_path / "latin1.bench"
        p.write_bytes(("# \u00e9\n" + MINIMAL).encode("latin-1"))
        for read in (read_input, load):
            with pytest.raises(MalformedInput, match=re.escape(str(p))):
                read(str(p))
