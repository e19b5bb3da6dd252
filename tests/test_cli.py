import hashlib
import math
import os
import stat
from pathlib import Path

import pytest

from fockbench import __version__, cli, elements
from fockbench.bench import BenchError, Diagnostic, figure1_text
from fockbench.cli import _RUN_FLAGS, _parse_args, build_parser, main, sparkline
from fockbench.errors import FockbenchError
from fockbench.fock import ModeId, Polarization
from fockbench.protocol import CSV_HEADER, PAIR_NAMES, default_phi_grid

from fock_oracle import apply_eop, apply_two_mode_unitary, create_photon, make_vacuum

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    return main(list(argv))


def rerun_with_manifest_value(tmp_path, capsys, key, value, *flags):
    """Rerun a small run from its manifest, edited to ``key=value``.

    The run, given the extra ``flags``, writes to ``tmp_path / "a"``, the
    rerun to ``tmp_path / "b"``; returns the rerun's exit code and standard
    error.
    """
    assert run_cli("run", "--trials", "50", "--phi-steps", "5", *flags,
                   "--out", str(tmp_path / "a")) == 0
    manifest = tmp_path / "a" / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(f"{key}={value}\n" if line.startswith(f"{key}=") else line
                                for line in lines))
    capsys.readouterr()
    code = run_cli("run", "--manifest", str(manifest), "--out", str(tmp_path / "b"))
    return code, capsys.readouterr().err


def split_delay_bench(tmp_path, lines):
    """The builtin bench with its 8 m delay line split into ``lines`` equal
    lines (none for 0), written to a file."""
    path = tmp_path / f"delay{lines}.bench"
    split = f"delay bob length_m={8.0 / lines!r}\n" * lines if lines else ""
    path.write_text(figure1_text().replace("delay bob length_m=8.0\n", split, 1))
    return path


def no_feeding_splitter_bench(tmp_path):
    """The builtin bench without its qubit-preparation splitter, written to a file."""
    path = tmp_path / "unprepared.bench"
    path.write_text(figure1_text().replace("bs kanc ks theta=0.7853981633974483\n", "", 1))
    return path


#: (manifest key, value, bench file maker, error) of a bench edit the bench cannot take
UNFIT_EDITS = [
    pytest.param("delay_m", "7.3", lambda p: split_delay_bench(p, 0),
                 "--delay-m needs a bench with one delay line, got 0", id="0"),
    pytest.param("delay_m", "7.3", lambda p: split_delay_bench(p, 2),
                 "--delay-m needs a bench with one delay line, got 2", id="2"),
    pytest.param("input_theta", "0.3", no_feeding_splitter_bench,
                 "--input-theta needs a bench with a splitter feeding the phase knob",
                 id="input-theta-no-feeding-splitter"),
]


def unfit(old, new, *diagnostics):
    """The builtin bench with ``old`` replaced by ``new``, and the error
    lines that bench gives, as a case with the id ``old-new``."""
    return pytest.param(old, new, list(diagnostics), id=f"{old}-{new}")


#: every float run flag; huge int flags are left out, as --phi-steps sizes
#: the tables (several KiB per phase point)
FLOAT_RUN_FLAGS = [key for key, (kind, _, _) in _RUN_FLAGS.items() if kind is float]


class TestRun:
    def test_golden_csv(self, tmp_path):
        # frozen once from the verified engine; byte-exact thereafter
        code = run_cli("run", "--mode", "active", "--trials", "1000",
                       "--phi-steps", "25", "--seed", "7", "--out", str(tmp_path))
        assert code == 0
        got = (tmp_path / "fringe.csv").read_bytes()
        assert got == (DATA / "golden_run.csv").read_bytes()

    def test_second_in_process_run_matches_golden(self, tmp_path):
        # the parser and the builtin bench are shared between calls in a process
        assert run_cli("run", "--mode", "active", "--trials", "50", "--phi-steps", "5",
                       "--delay-m", "7.0", "--qe", "0.5", "--out", str(tmp_path / "a")) == 0
        assert run_cli("run", "--mode", "active", "--trials", "1000",
                       "--phi-steps", "25", "--seed", "7", "--out", str(tmp_path / "b")) == 0
        got = (tmp_path / "b" / "fringe.csv").read_bytes()
        assert got == (DATA / "golden_run.csv").read_bytes()

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv", [
        ["run", "--mode", "active", "--trials", "50", "--delay-m", "7.0", "--out", "x"],
        ["run"],
        ["analyze", "f.csv"],
        ["compare", "a.csv", "b.csv", "--pair-b", "D2-D2*"],
        ["validate-bench", "b.bench"],
        ["reproduce-paper", "--trials", "100", "--seed", "3"],
    ])
    def test_subcommand_args_parse_as_through_the_top_level_parser(self, argv):
        assert vars(_parse_args(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["run", "--bogus"], ["run", "--trials", "x"], ["run", "--version"],
        ["analyze", "a.csv", "b.csv"], ["analyze"], ["bogus"], [], ["--version"],
        ["run", "-h"], ["-h"],
    ])
    def test_bad_or_help_args_exit_as_through_the_top_level_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as direct:
            _parse_args(argv)
        direct_output = capsys.readouterr()
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        assert direct.value.code == full.value.code
        assert direct_output == capsys.readouterr()

    def test_writes_manifest(self, tmp_path):
        run_cli("run", "--trials", "50", "--phi-steps", "5", "--out", str(tmp_path))
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "seed=0" in manifest
        assert "mode=passive" in manifest
        assert "trials=50" in manifest

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--mode", "active", "--trials", "200", "--phi-steps", "7",
                "--seed", "3", "--qe", "0.6", "--out", str(a))
        run_cli("run", "--manifest", str(a / "manifest.txt"), "--out", str(b))
        assert (a / "fringe.csv").read_bytes() == (b / "fringe.csv").read_bytes()

    @pytest.mark.parametrize("flags", [("--input-theta", "0.3"), ("--delay-m", "7.5"),
                                       ("--input-theta", "0.3", "--delay-m", "7.5")])
    def test_manifest_rerun_keeps_the_retuned_bench(self, tmp_path, flags):
        # the flags edit the bench; the manifest records them and a rerun edits it again
        run = ("run", "--mode", "active", "--trials", "200", "--phi-steps", "5", "--seed", "4",
               "--jitter-ns", "1.5", "--log-events")
        assert run_cli(*run, "--out", str(tmp_path / "plain")) == 0
        assert run_cli(*run, *flags, "--out", str(tmp_path / "tuned")) == 0
        assert run_cli("run", "--manifest", str(tmp_path / "tuned" / "manifest.txt"),
                       "--log-events", "--out", str(tmp_path / "rerun")) == 0

        def outputs(name):
            return [(tmp_path / name / f).read_bytes() for f in ("fringe.csv", "events.csv")]

        assert outputs("rerun") == outputs("tuned") != outputs("plain")

    def test_workers_do_not_change_output(self, tmp_path):
        # manifests written before --workers was removed carry a workers key
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--trials", "300", "--phi-steps", "5", "--seed", "9", "--out", str(a))
        manifest = a / "manifest.txt"
        assert "workers" not in manifest.read_text()
        manifest.write_text(manifest.read_text() + "workers=2\n")
        assert run_cli("run", "--manifest", str(manifest), "--out", str(b)) == 0
        assert (a / "fringe.csv").read_bytes() == (b / "fringe.csv").read_bytes()

    def test_manifest_line_without_equals_exits_3(self, tmp_path, capsys):
        # a fringe CSV given as the manifest must not run the defaults
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--trials", "50", "--phi-steps", "5", "--out", str(a)) == 0
        capsys.readouterr()
        fringe = a / "fringe.csv"
        assert run_cli("run", "--manifest", str(fringe), "--out", str(b)) == 3
        err = capsys.readouterr().err
        assert err == (f"error: manifest {fringe} line 1: want key=value, "
                       f"got {CSV_HEADER!r}\n")
        assert not b.exists()

    def test_missing_bench_exits_3(self, tmp_path):
        code = run_cli("run", "--bench", str(tmp_path / "missing.bench"),
                       "--out", str(tmp_path))
        assert code == 3

    def test_bad_bench_exits_3(self, tmp_path):
        bad = tmp_path / "bad.bench"
        bad.write_text("path a\nbs a zz theta=0.5\n")
        code = run_cli("run", "--bench", str(bad), "--out", str(tmp_path))
        assert code == 3

    @pytest.mark.parametrize("flags", [("--trials", "0"), ("--qe", "1.5"),
                                       ("--jitter-ns", "-1"), ("--delay-m", "nan"),
                                       ("--delay-m", "inf"), ("--risetime-ns", "nan"),
                                       ("--ns-per-m", "inf"), ("--dephasing-sigma", "nan"),
                                       ("--jitter-ns", "nan"), ("--seed", "-1"),
                                       ("--trials", str(2**63))])
    def test_out_of_range_parameter_exits_2(self, tmp_path, capsys, flags):
        code = run_cli("run", *flags, "--phi-steps", "5", "--out", str(tmp_path))
        assert code == 2
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "2"])
    def test_too_few_phi_steps_exits_2(self, tmp_path, capsys, steps):
        code = run_cli("run", "--phi-steps", steps, "--trials", "10", "--out", str(tmp_path))
        assert code == 2
        assert "phase steps" in capsys.readouterr().err
        assert not (tmp_path / "fringe.csv").exists()

    def test_non_numeric_manifest_value_exits_3(self, tmp_path, capsys):
        code, err = rerun_with_manifest_value(tmp_path, capsys, "seed", "abc")
        assert code == 3
        assert err.startswith("error: ") and "seed='abc'" in err and err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [("qe", "1.5"), ("trials", "0"),
                                            ("jitter_ns", "-1"), ("phi_steps", "3"),
                                            ("delay_m", "nan"), ("input_theta", "9.9"),
                                            ("seed", "-1"), ("trials", str(2**63))])
    def test_out_of_range_manifest_value_exits_3(self, tmp_path, capsys, key, value):
        # the same values given as flags are usage errors (exit 2)
        code, err = rerun_with_manifest_value(tmp_path, capsys, key, value)
        assert code == 3
        manifest = tmp_path / "a" / "manifest.txt"
        assert err.startswith(f"error: manifest {manifest}: ") and err.count("\n") == 1
        assert not (tmp_path / "b" / "fringe.csv").exists()

    @pytest.mark.parametrize("key", FLOAT_RUN_FLAGS)
    def test_huge_float_flag_exits_0_or_2(self, tmp_path, capsys, key):
        # the active run with an event log reaches the race and a shot too;
        # an uncaught exception (a traceback and exit 1 from a shell) fails here
        code = run_cli("run", "--mode", "active", "--log-events", "--trials", "50",
                       "--phi-steps", "5", "--" + key.replace("_", "-"), "1e308",
                       "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code in (0, 2)
        assert err.count("error:") <= 1 and "internal error" not in err

    @pytest.mark.parametrize("key", FLOAT_RUN_FLAGS)
    def test_huge_float_manifest_value_exits_0_or_3(self, tmp_path, capsys, key):
        code, err = rerun_with_manifest_value(tmp_path, capsys, key, "1e308",
                                              "--mode", "active")
        assert code in (0, 3)
        assert err.count("error:") <= 1 and "internal error" not in err

    @pytest.mark.parametrize("key", ["seed", "mode", "trials", "phi_steps", "qe"])
    def test_empty_manifest_value_exits_3(self, tmp_path, capsys, key):
        # only flags that default to None (bench, delay_m, input_theta) may be empty
        code, err = rerun_with_manifest_value(tmp_path, capsys, key, "")
        assert code == 3
        assert err.startswith("error: ") and key in err and err.count("\n") == 1
        assert not (tmp_path / "b" / "fringe.csv").exists()

    @pytest.mark.parametrize("old, new", [
        ("qwp kanc angle=0.7853981633974483", "qwp kanc angle=inf"),
        ("qwp bob angle=1.5707963267948966", "qwp bob angle=nan"),
        ("phase ks knob", "phase ks knob\nphase aux value=nan"),
        ("delay bob length_m=8.0", "delay bob length_m=nan"),
        ("delay bob length_m=8.0", "delay bob length_m=inf"),
    ])
    def test_non_finite_bench_number_exits_3(self, tmp_path, capsys, old, new):
        bad = tmp_path / "bad.bench"
        bad.write_text(figure1_text().replace(old, new, 1))
        assert run_cli("validate-bench", str(bad)) == 3
        assert "syntax: bad number" in capsys.readouterr().out
        assert run_cli("run", "--bench", str(bad), "--trials", "10", "--phi-steps", "4",
                       "--out", str(tmp_path / "out")) == 3
        assert "syntax: bad number" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, diagnostics", [
        unfit("eop bob\n", "",
              "0:1: error: no-pockels-cell: bench needs exactly one Pockels cell, got 0"),
        unfit("source photon ks V", "source photon ka V",
              "15:1: error: shared-source-mode: both photon sources are on ka.V"),
        unfit("eop bob\n", "eop bob\neop bob\n",
              "32:1: error: multiple-pockels-cells: bench needs exactly one Pockels cell, got 2"),
        unfit("detector D2* b2 V", "detector D2* b1 H",
              "41:1: error: shared-detector-mode: detectors 'D1*' and 'D2*' share b1.H"),
        # D1* and D2* on a new path: the run would write an all-zero fringe.csv
        unfit("detector D1* b1 H\ndetector D2* b2 V",
              "path dark\ndetector D1* dark H\ndetector D2* dark V",
              "41:1: error: unreachable-protocol-detector: detector 'D1*' watches dark.H "
              "which no source or element feeds",
              "42:1: error: unreachable-protocol-detector: detector 'D2*' watches dark.V "
              "which no source or element feeds"),
        pytest.param(None, "path a\npath b\nsource photon a V\nbs a b theta=0.5\n"
                     "phase a knob\ndetector D1 a V\n",
                     ["0:1: error: no-pockels-cell: bench needs exactly one Pockels cell, got 0",
                      "0:1: error: missing-source: bench needs two photon sources, got 1",
                      "0:1: error: missing-detector: bench needs D1, D2, D1*, D2*; "
                      "missing D2, D1*, D2*"],
                     id="two-paths-one-detector"),
    ])
    def test_bench_unfit_for_the_protocol_exits_3(self, tmp_path, capsys, old, new,
                                                  diagnostics):
        # the protocol cannot run any of these benches, so none of them parses
        bad = tmp_path / "bad.bench"
        bad.write_text(new if old is None else figure1_text().replace(old, new, 1))
        want = "".join(line + "\n" for line in diagnostics)
        assert run_cli("validate-bench", str(bad)) == 3
        assert capsys.readouterr() == (want, "")
        assert run_cli("run", "--mode", "active", "--bench", str(bad), "--trials", "10",
                       "--phi-steps", "4", "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr() == ("", want)
        assert not (tmp_path / "out" / "fringe.csv").exists()

    @pytest.mark.parametrize("element", ["phase ka value=0.1", "bs ks aux theta=0.3"],
                             ids=["on-D1", "on-D2"])
    def test_element_after_the_cell_on_alices_modes_exits_3(self, tmp_path, capsys,
                                                            element):
        # Alice's clicks are read before the cell fires, so nothing past it may reach them
        bad = tmp_path / "bad.bench"
        bad.write_text(figure1_text().replace("eop bob\n", f"eop bob\n{element}\n", 1))
        want = ("32:1: error: touches-alice: an element after the Pockels cell touches "
                "Alice's detectors\n")
        assert run_cli("validate-bench", str(bad)) == 3
        assert capsys.readouterr() == (want, "")
        assert run_cli("run", "--bench", str(bad), "--trials", "10", "--phi-steps", "4",
                       "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr() == ("", want)
        assert not (tmp_path / "out" / "fringe.csv").exists()

    def test_every_protocol_fault_is_listed_in_one_call(self, tmp_path, capsys):
        # sources on one mode, and a phase on D1's path past the cell (line 32)
        bad = tmp_path / "bad.bench"
        bad.write_text(figure1_text().replace("source photon ks V", "source photon ka V", 1)
                       .replace("eop bob\n", "eop bob\nphase ka value=0.1\n", 1))
        assert run_cli("validate-bench", str(bad)) == 3
        out = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[:3] for line in out] == [
            ["15:1", "error", "shared-source-mode"], ["32:1", "error", "touches-alice"]]

    # with two lines the race would run on twice the --delay-m length, and
    # without a splitter feeding the knob there is no qubit to retune
    @pytest.mark.parametrize("key, value, bench_file, message", UNFIT_EDITS)
    def test_delay_flag_needs_a_delay_line(self, tmp_path, capsys, key, value, bench_file,
                                           message):
        flag = "--" + key.replace("_", "-")
        code = run_cli("run", "--bench", str(bench_file(tmp_path)), "--mode", "active",
                       flag, value, "--trials", "10", "--phi-steps", "4",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out" / "fringe.csv").exists()

    @pytest.mark.parametrize("key, value, bench_file, message", UNFIT_EDITS)
    def test_manifest_delay_needs_a_delay_line(self, tmp_path, capsys, key, value,
                                               bench_file, message):
        code, err = rerun_with_manifest_value(tmp_path, capsys, key, value,
                                              "--bench", str(bench_file(tmp_path)))
        assert code == 3
        manifest = tmp_path / "a" / "manifest.txt"
        assert err == f"error: manifest {manifest}: {message}\n"
        assert not (tmp_path / "b" / "fringe.csv").exists()

    @pytest.mark.parametrize("version", ["0.0.1", __version__])
    def test_manifest_version_mismatch_warns(self, tmp_path, capsys, version):
        code, err = rerun_with_manifest_value(tmp_path, capsys, "fockbench_version", version)
        assert code == 0
        manifest = tmp_path / "a" / "manifest.txt"
        assert err == ("" if version == __version__ else
                       f"warning: manifest {manifest} was written by fockbench {version}, "
                       f"this is {__version__}\n")
        assert (tmp_path / "a" / "fringe.csv").read_bytes() == \
            (tmp_path / "b" / "fringe.csv").read_bytes()

    def test_unknown_manifest_key_warns(self, tmp_path, capsys):
        manifest = tmp_path / "typo.txt"
        manifest.write_text("seeed=5\ntrials=100\nphi_steps=5\n")
        assert run_cli("run", "--manifest", str(manifest), "--out", str(tmp_path / "b")) == 0
        assert capsys.readouterr().err == \
            f"warning: manifest {manifest} line 1: unknown key 'seeed' skipped\n"
        assert "\nseed=0\n" in (tmp_path / "b" / "manifest.txt").read_text()

    def test_version_and_retired_workers_keys_are_silent(self, tmp_path, capsys):
        manifest = tmp_path / "old.txt"
        manifest.write_text(f"fockbench_version={__version__}\nworkers=2\n\n"
                            "trials=100\nphi_steps=5\n")
        assert run_cli("run", "--manifest", str(manifest), "--out", str(tmp_path / "b")) == 0
        assert capsys.readouterr().err == ""

    def test_bogus_mode_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--mode", "bogus", "--out", str(tmp_path))
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--frobnicate", "--out", str(tmp_path))
        assert err.value.code == 2

    def test_event_log_export(self, tmp_path):
        run_cli("run", "--mode", "active", "--trials", "20", "--phi-steps", "4",
                "--log-events", "--out", str(tmp_path))
        events = (tmp_path / "events.csv").read_text()
        assert events.startswith("timestamp_ns,event,detail")
        assert "PhotonEmitted" in events

    @pytest.mark.parametrize("seed", range(6))
    def test_event_log_does_not_depend_on_the_grid(self, tmp_path, seed):
        # both grids start at phi = 0, where the logged trial is taken
        logs = []
        for steps in ("5", "9"):
            out = tmp_path / steps
            run_cli("run", "--mode", "active", "--trials", "10", "--phi-steps", steps,
                    "--seed", str(seed), "--log-events", "--out", str(out))
            logs.append((out / "events.csv").read_bytes())
        assert logs[0] == logs[1]

    def test_delay_override_defeats_the_correction(self, tmp_path):
        from fockbench.protocol import FringeData

        # 1 m of line is 3 ns of grace against a 22 ns risetime: every D2
        # trigger misses, so at phi=0 nothing lands on D2-D2*
        run_cli("run", "--mode", "active", "--trials", "3000", "--phi-steps", "5",
                "--seed", "8", "--delay-m", "1.0", "--out", str(tmp_path / "short"))
        run_cli("run", "--mode", "active", "--trials", "3000", "--phi-steps", "5",
                "--seed", "8", "--out", str(tmp_path / "long"))
        short = FringeData.from_csv((tmp_path / "short" / "fringe.csv").read_text())
        long = FringeData.from_csv((tmp_path / "long" / "fringe.csv").read_text())
        assert short.counts["D2-D2*"][0] == 0
        assert long.counts["D2-D2*"][0] > 0

    def test_input_theta_flag_sets_fringe_contrast(self, tmp_path):
        import math

        import numpy as np

        from fockbench.analysis import fit_fringe
        from fockbench.protocol import FringeData

        # a lopsided qubit interferes with contrast sin(2 theta)
        run_cli("run", "--trials", "20000", "--phi-steps", "13", "--seed", "2",
                "--input-theta", "1.4", "--out", str(tmp_path))
        data = FringeData.from_csv((tmp_path / "fringe.csv").read_text())
        fit = fit_fringe(np.array(data.phi_grid), data.counts["D1-D2*"])
        assert fit.visibility == pytest.approx(math.sin(2.8), abs=0.03)


def inodes(directory, names):
    return {name: (directory / name).stat().st_ino for name in names}


def read_all(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


class TestOutputFiles:
    """A rerun into an existing --out rewrites its files in place."""

    RUN_FILES = ("fringe.csv", "manifest.txt", "events.csv")
    PAPER_FILES = ("passive.csv", "inhibited.csv", "active.csv")

    def test_run_rerun_rewrites_in_place_and_cuts_the_tail(self, tmp_path):
        run = ("run", "--mode", "active", "--trials", "50", "--log-events")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run_cli(*run, "--phi-steps", "25", "--out", str(out)) == 0
        before, long_csv = inodes(out, self.RUN_FILES), (out / "fringe.csv").read_bytes()
        assert run_cli(*run, "--phi-steps", "5", "--out", str(out)) == 0
        assert run_cli(*run, "--phi-steps", "5", "--out", str(fresh)) == 0
        assert read_all(out, self.RUN_FILES) == read_all(fresh, self.RUN_FILES)
        assert len((out / "fringe.csv").read_bytes()) < len(long_csv)
        assert inodes(out, self.RUN_FILES) == before

    def test_reproduce_paper_rerun_rewrites_in_place_and_cuts_the_tail(self, tmp_path):
        rep = ("reproduce-paper", "--trials", "1000")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run_cli(*rep, "--phi-steps", "9", "--out", str(out)) == 0
        before, long_csvs = inodes(out, self.PAPER_FILES), read_all(out, self.PAPER_FILES)
        assert run_cli(*rep, "--phi-steps", "5", "--out", str(out)) == 0
        assert run_cli(*rep, "--phi-steps", "5", "--out", str(fresh)) == 0
        rewritten = read_all(out, self.PAPER_FILES)
        assert rewritten == read_all(fresh, self.PAPER_FILES)
        assert all(len(rewritten[n]) < len(long_csvs[n]) for n in self.PAPER_FILES)
        assert inodes(out, self.PAPER_FILES) == before

    def test_outputs_are_opened_without_truncation(self, tmp_path, monkeypatch):
        # cutting a file to zero before rewriting it makes ext4 flush it on close
        opened = {}
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            opened[Path(path).name] = flags
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        assert run_cli("run", "--trials", "50", "--phi-steps", "5", "--log-events",
                       "--out", str(tmp_path / "run")) == 0
        assert run_cli("reproduce-paper", "--trials", "1000", "--phi-steps", "5",
                       "--out", str(tmp_path / "paper")) == 0
        assert sorted(opened) == sorted(self.RUN_FILES + self.PAPER_FILES)
        assert not any(flags & os.O_TRUNC for flags in opened.values())

    def test_symlinked_output_writes_through_the_link(self, tmp_path):
        out, fresh, target = tmp_path / "out", tmp_path / "fresh", tmp_path / "target.csv"
        target.write_text("x" * 100_000)  # longer than the run's CSV
        out.mkdir()
        (out / "fringe.csv").symlink_to(target)
        run = ("run", "--trials", "50", "--phi-steps", "5")
        assert run_cli(*run, "--out", str(out)) == 0
        assert run_cli(*run, "--out", str(fresh)) == 0
        assert (out / "fringe.csv").is_symlink()
        assert target.read_bytes() == (fresh / "fringe.csv").read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o000])
    def test_new_files_get_the_permissions_of_write_text(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            (tmp_path / "reference.txt").write_text("x")
            assert run_cli("run", "--trials", "50", "--phi-steps", "5", "--log-events",
                           "--out", str(tmp_path / "out")) == 0
        finally:
            os.umask(old)
        want = stat.S_IMODE((tmp_path / "reference.txt").stat().st_mode)
        for name in self.RUN_FILES:
            assert stat.S_IMODE((tmp_path / "out" / name).stat().st_mode) == want

    @pytest.mark.parametrize("command", ["run", "reproduce-paper"])
    def test_out_that_is_a_regular_file_exits_3(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        assert run_cli(command, "--trials", "50", "--phi-steps", "5", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.read_text() == "not a directory\n"


class TestAnalyze:
    def test_reports_all_pairs(self, tmp_path, capsys):
        run_cli("run", "--trials", "2000", "--phi-steps", "9", "--seed", "1",
                "--out", str(tmp_path))
        capsys.readouterr()
        code = run_cli("analyze", str(tmp_path / "fringe.csv"))
        out = capsys.readouterr().out
        assert code == 0
        for pair in ("D1-D1s", "D1-D2s", "D2-D1s", "D2-D2s"):
            assert f"{pair}.visibility=" in out
            assert f"{pair}.fidelity=" in out
            assert f"{pair}.beats_classical_bound=" in out

    def test_prints_sigma_phi0_of_the_fit(self, tmp_path, capsys):
        import numpy as np

        from fockbench.analysis import fit_fringe
        from fockbench.protocol import FringeData

        run_cli("run", "--trials", "2000", "--phi-steps", "9", "--seed", "1",
                "--out", str(tmp_path))
        capsys.readouterr()
        run_cli("analyze", str(tmp_path / "fringe.csv"))
        out = capsys.readouterr().out
        data = FringeData.from_csv((tmp_path / "fringe.csv").read_text())
        for pair in ("D1-D2*", "D2-D1*"):
            fit = fit_fringe(np.array(data.phi_grid), data.counts[pair])
            printed = float(out.split(f"{pair.replace('*', 's')}.sigma_phi0=")[1].split()[0])
            assert printed == pytest.approx(fit.sigma_phi0, abs=5e-7)

    def test_prints_chi2_per_dof_of_the_fit(self, tmp_path, capsys):
        import numpy as np

        from fockbench.analysis import fit_fringe
        from fockbench.protocol import FringeData

        run_cli("run", "--trials", "2000", "--phi-steps", "9", "--seed", "1",
                "--qe", "0.6", "--dephasing-sigma", "0.5", "--out", str(tmp_path))
        capsys.readouterr()
        run_cli("analyze", str(tmp_path / "fringe.csv"))
        out = capsys.readouterr().out
        data = FringeData.from_csv((tmp_path / "fringe.csv").read_text())
        for pair in PAIR_NAMES:
            fit = fit_fringe(np.array(data.phi_grid), data.counts[pair])
            printed = float(out.split(f"{pair.replace('*', 's')}.chi2_dof=")[1].split()[0])
            assert fit.dof == 6
            assert printed == pytest.approx(fit.chi2 / fit.dof, abs=5e-7)

    def test_too_few_phases_exits_3(self, tmp_path, capsys):
        # run refuses fewer than 4 steps, so keep 3 of a 5-step run's phases
        run_cli("run", "--trials", "100", "--phi-steps", "5", "--out", str(tmp_path))
        csv = tmp_path / "fringe.csv"
        csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:13]))
        capsys.readouterr()
        assert run_cli("analyze", str(csv)) == 3
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        lambda rows: ["phi,pair,n,kept,total"] + rows[1:],
        lambda rows: [r.replace("D1-D1*", "D1-D3*") for r in rows],
        lambda rows: rows[:4] + rows[5:],  # phi=0 without D2-D2*
        lambda rows: rows[:2] + [rows[1]] + rows[3:],  # D1-D1* twice
        lambda rows: [r.replace("D1-D2*,", "D1-D2*,x") for r in rows],
    ], ids=["header", "pair-name", "missing-pair", "repeated-pair", "bad-number"])
    def test_malformed_csv_exits_3(self, tmp_path, capsys, damage):
        run_cli("run", "--trials", "100", "--phi-steps", "5", "--out", str(tmp_path))
        csv = tmp_path / "fringe.csv"
        csv.write_text("\n".join(damage(csv.read_text().splitlines())) + "\n")
        capsys.readouterr()
        assert run_cli("analyze", str(csv)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_truncated_csv_row_exits_3(self, tmp_path, capsys):
        run_cli("run", "--trials", "100", "--phi-steps", "5", "--out", str(tmp_path))
        csv = tmp_path / "fringe.csv"
        csv.write_text(csv.read_text()[:-9])  # cut the last row mid-field
        capsys.readouterr()
        assert run_cli("analyze", str(csv)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fields", [
        lambda phi, pair, c, k, t: (phi, pair, "-1", k, t),
        lambda phi, pair, c, k, t: (phi, pair, c, str(int(t) + 1), t),
        lambda phi, pair, c, k, t: (phi, pair, str(int(k) + 1), k, t),
        lambda phi, pair, c, k, t: ("inf", pair, c, k, t),
        lambda phi, pair, c, k, t: ("nan", pair, c, k, t),
        lambda phi, pair, c, k, t: (phi, pair, c, k, "99999999999999999999"),
    ], ids=["negative-count", "kept-above-total", "count-above-kept", "phi-inf", "phi-nan",
            "count-past-int64"])
    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_impossible_csv_row_exits_3(self, tmp_path, capsys, fields, command):
        run_cli("run", "--trials", "100", "--phi-steps", "5", "--out", str(tmp_path))
        csv = tmp_path / "fringe.csv"
        lines = csv.read_text().splitlines()
        # the four rows of the first phase, so they still agree with each other
        lines[1:5] = [",".join(fields(*line.split(","))) for line in lines[1:5]]
        csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = [str(csv)] if command == "analyze" else [str(csv), str(csv)]
        assert run_cli(command, *argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: fringe CSV line 2: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_huge_finite_phases_fit_or_exit_3(self, tmp_path, capsys, command):
        # five distinct phases, four of them past the 1.8e296 where phi * 1e12
        # overflows
        rows = [CSV_HEADER]
        for phi in (0.0, 1e300, 2e300, 3e300, 4e300):
            swing = round(200 * math.cos(phi))
            rows += [f"{phi!r},{pair},{c},1100,2000" for pair, c in zip(
                PAIR_NAMES, (300 + swing, 300 - swing, 300 - swing, 300 + swing))]
        csv = tmp_path / "huge.csv"
        csv.write_text("\n".join(rows) + "\n")
        argv = [str(csv)] if command == "analyze" else [str(csv), str(csv)]
        code = run_cli(command, *argv)
        err = capsys.readouterr().err
        assert code in (0, 3)
        if code == 3:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "distinct phase settings" not in err
        else:
            assert err == ""

    def test_kept_disagreeing_within_a_phase_exits_3(self, tmp_path, capsys):
        run_cli("run", "--trials", "100", "--phi-steps", "5", "--out", str(tmp_path))
        csv = tmp_path / "fringe.csv"
        lines = csv.read_text().splitlines()
        phi, pair, c, kept, total = lines[2].split(",")
        lines[2] = ",".join((phi, pair, c, str(int(kept) + 1), total))
        csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("analyze", str(csv)) == 3
        assert "trials_kept" in capsys.readouterr().err

    def test_header_sums_huge_trial_totals_exactly(self, tmp_path, capsys):
        # five phases of 2**63 - 1 trials each: the total is past int64
        total = 2**63 - 1
        rows = [CSV_HEADER]
        for phi in default_phi_grid(5):
            swing = round(200 * math.cos(phi))
            for pair, c in zip(PAIR_NAMES, (300 + swing, 300 - swing, 300 - swing,
                                            300 + swing)):
                rows.append(f"{phi:.17g},{pair},{c},1000,{total}")
        csv = tmp_path / "huge.csv"
        csv.write_text("\n".join(rows) + "\n")
        assert run_cli("analyze", str(csv)) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == f"# {csv}: 5 phase points, 46116860184273879035 trials"
        assert 5 * total == 46116860184273879035

    def test_counts_near_int64_fit_or_exit_3(self, tmp_path, capsys):
        # weights spanning 18 decades: the fit may fail, but only as bad input
        assert run_cli("run", "--trials", "9223372036854775807", "--phi-steps", "4",
                       "--out", str(tmp_path)) == 0
        capsys.readouterr()
        code = run_cli("analyze", str(tmp_path / "fringe.csv"))
        out, err = capsys.readouterr()
        assert code in (0, 3)
        if code == 3:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == "" and out.startswith("# ")

    def test_a_failing_fit_names_its_pair(self, tmp_path, capsys):
        csv = tmp_path / "dark.csv"
        csv.write_text(unfittable_csv("D2-D1*"))
        assert run_cli("analyze", str(csv)) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: D2-D1* fit: non-positive fitted amplitude 0\n"

    def test_noiseless_run_beats_bound(self, tmp_path, capsys):
        run_cli("run", "--trials", "5000", "--phi-steps", "9", "--seed", "2",
                "--out", str(tmp_path))
        capsys.readouterr()
        run_cli("analyze", str(tmp_path / "fringe.csv"))
        out = capsys.readouterr().out
        assert "D1-D2s.beats_classical_bound=true" in out


def unfittable_csv(dark_pair):
    """A five-phase fringe CSV whose ``dark_pair`` never clicks, so that its
    fringe has no positive amplitude to fit; the other pairs fit."""
    rows = [CSV_HEADER]
    for phi in default_phi_grid(5):
        swing = round(200 * math.cos(phi))
        for pair, c in zip(PAIR_NAMES, (300 + swing, 300 - swing, 300 - swing,
                                        300 + swing)):
            rows.append(f"{phi:.17g},{pair},{0 if pair == dark_pair else c},1000,2000")
    return "\n".join(rows) + "\n"


class TestCompare:
    def test_self_compare_is_exactly_zero(self, tmp_path, capsys):
        run_cli("run", "--trials", "1000", "--phi-steps", "9", "--seed", "4",
                "--out", str(tmp_path))
        capsys.readouterr()
        csv = str(tmp_path / "fringe.csv")
        code = run_cli("compare", csv, csv)
        out = capsys.readouterr().out
        assert code == 0
        assert "delta_phi0=0.000000" in out
        assert "delta_visibility=0.000000" in out
        assert "pi_offset=false" in out

    def test_grid_mismatch_exits_3(self, tmp_path, capsys):
        run_cli("run", "--trials", "100", "--phi-steps", "5", "--out",
                str(tmp_path / "a"))
        run_cli("run", "--trials", "100", "--phi-steps", "7", "--out",
                str(tmp_path / "b"))
        capsys.readouterr()
        code = run_cli("compare", str(tmp_path / "a" / "fringe.csv"),
                       str(tmp_path / "b" / "fringe.csv"))
        assert code == 3
        assert capsys.readouterr().err == "error: phase grids differ between the two runs\n"

    @pytest.mark.parametrize("failing", ["A", "B"])
    def test_a_failing_fit_names_its_run(self, tmp_path, capsys, failing):
        csv = tmp_path / "dark.csv"
        csv.write_text(unfittable_csv("D2-D1*"))
        pairs = {"A": ("D2-D1*", "D1-D2*"), "B": ("D1-D2*", "D2-D1*")}[failing]
        code = run_cli("compare", str(csv), str(csv), "--pair-a", pairs[0],
                       "--pair-b", pairs[1])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {failing} fit: non-positive fitted amplitude 0\n"

    def test_inhibited_vs_passive_shows_pi(self, tmp_path, capsys):
        run_cli("run", "--mode", "passive", "--trials", "4000", "--phi-steps", "13",
                "--seed", "5", "--out", str(tmp_path / "p"))
        run_cli("run", "--mode", "active-inhibited", "--trials", "4000",
                "--phi-steps", "13", "--seed", "6", "--out", str(tmp_path / "i"))
        capsys.readouterr()
        code = run_cli("compare", str(tmp_path / "i" / "fringe.csv"),
                       str(tmp_path / "p" / "fringe.csv"),
                       "--pair-a", "D2-D2*", "--pair-b", "D1-D2*")
        out = capsys.readouterr().out
        assert code == 0
        assert "pi_offset=true" in out


class TestValidateBench:
    def test_figure1_ok(self, tmp_path, capsys):
        f = tmp_path / "fig1.bench"
        f.write_text(figure1_text())
        assert run_cli("validate-bench", str(f)) == 0
        assert "ok:" in capsys.readouterr().out

    def test_bad_bench_lists_diagnostics(self, tmp_path, capsys):
        f = tmp_path / "bad.bench"
        f.write_text("path a\nsource photon a V\nbs a zz theta=0.5\n")
        assert run_cli("validate-bench", str(f)) == 3
        out = capsys.readouterr().out
        assert "undeclared-path" in out

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("validate-bench", str(tmp_path / "nope.bench")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("validate-bench", "{f}"),
    ("run", "--bench", "{f}", "--out", "{out}"),
    ("run", "--manifest", "{f}", "--out", "{out}"),
    ("analyze", "{f}"),
    ("compare", "{f}", "{f}"),
])
def test_non_utf8_input_file_exits_3(tmp_path, capsys, argv):
    f = tmp_path / "utf16.txt"
    f.write_bytes("\ufeffpath a\n".encode("utf-16-le"))  # starts with ff fe
    assert run_cli(*(a.format(f=f, out=tmp_path / "out") for a in argv)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(f) in err  # names the file that does not decode
    assert not (tmp_path / "out").exists()


def error_classes(cls=FockbenchError):
    """``cls`` and every subclass of it, found through ``__subclasses__()``."""
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


#: the exit code of every package error class: 2 usage, 3 bad input, 4 an
#: internal invariant violation.  A new class must be listed here.
EXIT_CODES = {
    "BadParam": 2,
    "BadCalibration": 2,
    "BenchError": 3,
    "FitUnderdetermined": 3,
    "GridMismatch": 3,
    "MalformedInput": 3,
    "ProtocolError": 3,
    # raised itself by the elements (and the tests' Fock oracle) on a broken
    # invariant
    "FockbenchError": 4,
}


def test_every_error_class_has_its_listed_exit_code():
    assert {cls.__name__: cls.exit_code for cls in error_classes()} == EXIT_CODES


#: each broken invariant of the Fock engine and the elements, under the name
#: of the exit-4 class it once had: a call that breaks it at its raise site.
#: ``BadWiring`` raises from the package's elements, the other seven from the
#: tests' Fock oracle (``fock_oracle``), as ``FockbenchError`` itself
_M = [ModeId(i, Polarization.V) for i in range(3)]
INVARIANT_FAILURES = {
    "EmptyModes": lambda: make_vacuum([]),
    "DuplicateMode": lambda: make_vacuum([_M[0], _M[0]]),
    "UnknownMode": lambda: create_photon(make_vacuum(_M[:2]), _M[2]),
    "TruncationOverflow": lambda: create_photon(create_photon(
        create_photon(make_vacuum(_M[:2]), _M[0]), _M[0]), _M[0]),
    "NonUnitary": lambda: apply_two_mode_unitary(
        make_vacuum(_M[:2]), _M[0], _M[1], [[1, 0], [0, 2]]),
    "ImpossibleOutcome": lambda: make_vacuum(_M[:2])._replace({}).renormalized(),
    "BadWiring": lambda: elements.beam_splitter(0, 0, 0.5),
    "PolarizationMismatch": lambda: apply_eop(
        make_vacuum(_M[:1]), ModeId(0, Polarization.H)),
}


@pytest.mark.parametrize("name", [*(cls.__name__ for cls in error_classes()),
                                  *INVARIANT_FAILURES])
def test_error_raised_from_a_command_exits_with_its_code(monkeypatch, capsys, name):
    diagnostics = [Diagnostic("bad-wiring", "boom", line=1),
                   Diagnostic("syntax", "bang", line=2)]
    if name in INVARIANT_FAILURES:  # FockbenchError itself, from its raise site
        with pytest.raises(FockbenchError) as excinfo:
            INVARIANT_FAILURES[name]()
        assert excinfo.type is FockbenchError
        exc, code = excinfo.value, 4
    else:
        cls = {cls.__name__: cls for cls in error_classes()}[name]
        exc = cls(diagnostics) if cls is BenchError else cls("boom")
        code = EXIT_CODES[name]

    def fail(path):
        raise exc

    monkeypatch.setattr(cli, "read_input", fail)
    assert run_cli("analyze", "fringe.csv") == code
    out, err = capsys.readouterr()
    assert out == ""
    if name == "BenchError":  # its diagnostics, one per line
        assert err == "1:1: error: bad-wiring: boom\n2:1: error: syntax: bang\n"
    else:
        assert err == (f"internal error: {exc}\n" if code == 4 else "error: boom\n")


class TestReproducePaper:
    def test_smoke_noiseless(self, tmp_path, capsys):
        code = run_cli("reproduce-paper", "--trials", "1500", "--phi-steps", "9",
                       "--passive-visibility", "1", "--active-visibility", "1",
                       "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "F_passive=" in out and "F_active=" in out
        f_passive = float(out.split("F_passive=")[1].splitlines()[0])
        f_active = float(out.split("F_active=")[1].splitlines()[0])
        assert f_passive == pytest.approx(1.0, abs=0.02)
        assert f_active == pytest.approx(1.0, abs=0.02)
        assert (tmp_path / "passive.csv").exists()
        assert (tmp_path / "active.csv").exists()

    def test_output_is_frozen(self, tmp_path, capsys):
        """The stdout and CSVs of one small run, as SHA-256: they pin the
        runs' definition and their random streams."""
        code = run_cli("reproduce-paper", "--seed", "5", "--trials", "3000",
                       "--phi-steps", "9", "--out", str(tmp_path))
        assert code == 0
        outputs = {"stdout": capsys.readouterr().out.encode()}
        for name in ("passive", "inhibited", "active"):
            outputs[name] = (tmp_path / f"{name}.csv").read_bytes()
        assert {key: hashlib.sha256(b).hexdigest() for key, b in outputs.items()} == {
            "stdout": "b60f68e4b9f8d5a0c0371d15903aaac3b5f1408ef1ffe672de4bfa8585cf135f",
            "passive": "f15bf91bc4f4fcece10c02b140bb9861a7fb56b6608dc6e77454176e363437ee",
            "inhibited": "3baa56dab9100d4a75ca09139bc8500fa28aaa433745dcb92d9f82874c3815d7",
            "active": "77c3158e9c64b5a659269eb22c4f8d62d34f23ce0c04569a2953329e26602bb9",
        }

    def test_csvs_are_written_before_a_failing_fit(self, tmp_path, capsys):
        # one trial per phase point leaves a fringe that cannot be fitted;
        # the three CSVs are written before the fit fails
        code = run_cli("reproduce-paper", "--trials", "1", "--phi-steps", "5",
                       "--passive-visibility", "1", "--active-visibility", "1",
                       "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        # all three fringes fail; the passive one is the first reported
        assert captured.err == "error: passive fit: non-positive fitted amplitude 0\n"
        for name in ("passive", "inhibited", "active"):
            assert (tmp_path / f"{name}.csv").read_text().startswith(CSV_HEADER + "\n")

    # the active visibility cannot exceed the passive 0.906
    # a 4-step grid passes the sweep's own check, but its fits are underdetermined
    @pytest.mark.parametrize("flags", [("--active-visibility", "0.95"), ("--seed", "-1"),
                                       ("--phi-steps", "4")])
    def test_out_of_range_parameter_exits_2(self, capsys, tmp_path, flags):
        code = run_cli("reproduce-paper", "--trials", "100", "--phi-steps", "5", *flags,
                       "--out", str(tmp_path / "out"))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not (tmp_path / "out").exists()


class TestSparkline:
    def test_shape(self):
        line = sparkline([0, 1, 2, 3, 4])
        assert len(line) == 5
        assert line[0] == " " and line[-1] == "█"

    def test_all_zero(self):
        assert sparkline([0, 0, 0]) == "   "
