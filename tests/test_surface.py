"""Surface audit: every export and every flag has a documented caller.

A new package export must be used by a demo or the README, no export may
take a parameter of a private type, and a new command-line flag must be
added to the lists below on purpose.
"""

import argparse
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import fockbench
from fockbench import tables
from fockbench.cli import build_parser

ROOT = Path(__file__).parent.parent

OPTIONS = {
    "run": ["--bench", "--dark-prob", "--delay-m", "--dephasing-sigma", "--input-theta",
            "--jitter-ns", "--log-events", "--manifest", "--mode", "--ns-per-m", "--out",
            "--phi-steps", "--qe", "--risetime-ns", "--seed", "--trials"],
    "analyze": [],
    "compare": ["--pair-a", "--pair-b"],
    "validate-bench": [],
    "reproduce-paper": ["--active-visibility", "--bench", "--out", "--passive-visibility",
                        "--phi-steps", "--seed", "--trials"],
}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_every_export_has_a_caller():
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))])
    unused = [name for name in fockbench.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []


def test_no_export_takes_a_private_type():
    private = []
    for name in fockbench.__all__:
        for param in inspect.signature(getattr(fockbench, name)).parameters.values():
            annotation = param.annotation
            if annotation is not param.empty and re.search(r"\b_\w", str(annotation)):
                private.append(f"{name}({param.name}: {annotation})")
    assert private == []


def test_the_fock_engine_is_test_code():
    """The package's one physics engine is the count tables; the Fock-state
    engine is the tests' oracle (``fock_oracle``) and no package module
    defines or imports it."""
    engine = {"FockState", "make_vacuum", "create_photon", "apply_two_mode_unitary",
              "apply_phase", "relabel_modes", "partial_probability", "apply_element",
              "apply_eop"}
    for info in pkgutil.iter_modules(fockbench.__path__, "fockbench."):
        assert engine.isdisjoint(vars(importlib.import_module(info.name))), info.name


TABLE_FUNCTIONS = ("count_tables", "click_tables")


def test_tables_sit_below_the_run_policy():
    """``tables`` imports no package module but ``bench`` and ``noise``, its
    functions live there, and no demo or test reaches them through
    ``protocol``."""
    modules = []
    for node in ast.walk(ast.parse(Path(tables.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(f"fockbench.{node.module or ''}" if node.level else node.module)
    package = {m.removeprefix("fockbench.") for m in modules if m.startswith("fockbench")}
    assert package <= {"bench", "noise"}
    assert {getattr(tables, name).__module__ for name in TABLE_FUNCTIONS} == {"fockbench.tables"}
    via_protocol = []
    for path in sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "fockbench.protocol":
                via_protocol += [f"{path.name}: {a.name}" for a in node.names
                                 if a.name in TABLE_FUNCTIONS]
            elif (isinstance(node, ast.Attribute) and node.attr in TABLE_FUNCTIONS
                  and isinstance(node.value, ast.Name) and node.value.id == "protocol"):
                via_protocol.append(f"{path.name}: protocol.{node.attr}")
    assert via_protocol == []


@pytest.mark.parametrize("command", OPTIONS)
def test_subcommand_options(command):
    parser = subcommands()[command]
    got = sorted(o for a in parser._actions for o in a.option_strings
                 if o.startswith("--") and o != "--help")
    assert got == OPTIONS[command]


def test_no_unlisted_subcommand():
    assert sorted(subcommands()) == sorted(OPTIONS)
