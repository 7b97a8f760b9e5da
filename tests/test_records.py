"""The package's value records against frozen dataclasses, their oracle.

Every record class is a ``Record`` subclass.  For each, a frozen dataclass
with the same fields, defaults and ``__post_init__`` is built with
``dataclasses.make_dataclass``, and both must agree on construction,
``repr``, equality, hashing, defaults and the errors they raise.  The last
tests keep ``import epsmult`` free of the modules the records replaced.
"""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import epsmult
from epsmult._record import Record

PACKAGE = Path(epsmult.__file__).resolve().parent


def _record_classes():
    """Every record class of the package, by name.  Every module is
    imported first: ``__subclasses__`` sees only classes already defined,
    and ``import epsmult`` leaves some modules out."""
    for path in PACKAGE.glob("*.py"):
        if not path.stem.startswith("__"):
            importlib.import_module(f"epsmult.{path.stem}")
    found, todo = {}, [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("epsmult."):
                found[cls.__name__] = cls
                todo.append(cls)
    return [found[name] for name in sorted(found)]


RECORDS = _record_classes()

# two different argument tuples for the records whose __post_init__ checks
# its fields; every other record takes any values
VALID = {
    "RingContext": [(2, ("u", "v")), (3, ())],
    "ExactScalar": [(Fraction(3, 2), "pi"), (Fraction(2),)],
    "MonomialValuation": [((1, 0, 2),), ((0, 1),)],
}


def _samples(cls):
    """Two argument tuples, for all fields, that give unequal records."""
    if cls.__name__ in VALID:
        return VALID[cls.__name__]
    return [tuple(f"{side}{i}" for i in range(len(cls._fields)))
            for side in "ab"]


def _required(cls):
    """Arguments for the fields without a default only."""
    args = _samples(cls)[0]
    return args[:len(cls._fields) - len(cls._defaults)]


def _twin(cls):
    """A frozen dataclass with the fields, defaults and ``__post_init__`` of
    ``cls``."""
    spec = [(f, object, dataclasses.field(default=cls._defaults[f]))
            if f in cls._defaults else (f, object) for f in cls._fields]
    return dataclasses.make_dataclass(
        cls.__name__, spec, frozen=True,
        namespace={"__post_init__": cls.__post_init__})


def _fields(obj):
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)] \
        if dataclasses.is_dataclass(obj) else [getattr(obj, f) for f in obj._fields]


def test_every_record_class_is_found():
    assert [cls.__name__ for cls in RECORDS] == [
        "AcReport", "ClosureMembership", "ClosureVerdict", "ContainmentCertificate",
        "Coordinate", "DifferenceReport", "ESLocalizedReport", "EpsilonReport",
        "ExactScalar", "FixtureResult", "LengthSequence", "MaxSpreadCertificate",
        "MonomialValuation", "RingContext", "Scenario", "SeparationCertificate",
        "TruncationSweep", "Witness", "ZeroSpreadCertificate", "ZeroSpreadNotFound"]
    assert {cls.__module__ for cls in RECORDS} == {
        f"epsmult.{m}" for m in ("ring", "valuation", "filtration", "asymptotics",
                                 "diagnostics", "newton", "fixtures", "scenario")}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_like_a_frozen_dataclass(cls):
    twin = _twin(cls)
    first, second = _samples(cls)
    rec, dc = cls(*first), twin(*first)
    # construction, positional or by keyword, and repr
    assert _fields(rec) == _fields(dc)
    assert repr(rec) == repr(dc)
    by_name = dict(zip(cls._fields, first))
    assert cls(**by_name) == rec and twin(**by_name) == dc
    # equality and hashing within a class
    for make in (cls, twin):
        a, b, c = make(*first), make(*first), make(*second)
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != c and not a == c
    assert hash(rec) == hash(dc)
    # records of two classes never compare equal, even with equal fields
    Sub = type("Sub", (cls,), {})
    SubTwin = type("SubTwin", (twin,), {})
    assert rec != Sub(*first) and dc != SubTwin(*first)
    assert (rec == dc) is (dc == rec) is False
    # defaults
    assert _fields(cls(*_required(cls))) == _fields(twin(*_required(cls)))
    # bad arguments
    bad_calls = [
        ((*first, "extra"), {}),
        (first, {"no_such_field": 1}),
        (first, {cls._fields[0]: first[0]}),
    ]
    if len(_required(cls)):
        bad_calls.append(((), {}))
    for args, kwargs in bad_calls:
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*args, **kwargs)
    # immutability
    for obj in (rec, dc):
        for name in (cls._fields[0], "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, cls._fields[0])
    assert _fields(rec) == _fields(dc)


def test_import_loads_none_of_the_replaced_modules():
    """``import epsmult`` in a bare interpreter (no site packages) loads no
    dataclass machinery, none of the one-use standard modules, and neither
    the example corpus nor the command line."""
    code = ("import sys, epsmult; print(sorted({'dataclasses', 'inspect', "
            "'statistics', 'typing', 'epsmult.fixtures', 'epsmult.cli'} "
            "& set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# the package-level names whose modules run on first use, by home module
DEFERRED = {
    "diagnostics": ["AcReport", "MaxSpreadCertificate", "ZeroSpreadCertificate",
                    "ZeroSpreadNotFound", "check_Ac", "spread_max_test",
                    "spread_zero_test", "toric_rank_bound", "verify_ac_witness",
                    "verify_zero_certificate"],
    "newton": ["ClosureVerdict", "filtration_integral_member", "integral_closure",
               "np_membership", "rees_closure_compare",
               "verify_separation_certificate"],
    "scenario": ["Scenario", "ScenarioError", "load_scenario", "run_scenario"],
}

# what ``from epsmult import *`` binds
STAR_NAMES = [
    "AcReport", "CertificationError", "ClosureVerdict", "DifferenceReport",
    "DiscreteValuedFiltration", "ESLocalizedReport", "EpsilonReport",
    "ExactScalar", "Filtration", "LengthSequence", "MaxSpreadCertificate",
    "MonomialIdeal", "MonomialValuation", "PowerFiltration", "RingContext",
    "Scenario", "ScenarioError", "TableFiltration", "TableRangeError",
    "TemplateFiltration", "TruncationFiltration", "TruncationSweep",
    "ZeroSpreadCertificate", "ZeroSpreadNotFound", "asymptotics", "ceil_mul",
    "check_Ac", "colength", "colon", "diagnostics", "dim_quotient",
    "e_s_localized", "epsilon_difference_check", "epsilon_report", "filtration",
    "filtration_dimension", "filtration_integral_member", "ideal_multiplicity",
    "ideal_power", "ideal_product", "ideal_sum", "integral_closure", "intersect",
    "load_scenario", "localize", "maximal_power", "newton", "np_membership",
    "parse_scalar", "quotient_length", "rees_closure_compare", "ring",
    "run_scenario", "samuel_of_quotient", "samuel_sequence",
    "sat_quotient_sequence", "saturate", "scenario", "sigma_surrogate",
    "spread_max_test", "spread_zero_test", "textio", "toric_rank_bound",
    "truncation_sweep", "validate_filtration", "valuation", "valuation_ideal",
    "valuation_of_ideal", "verify_ac_witness", "verify_separation_certificate",
    "verify_zero_certificate",
]


def test_import_leaves_the_deferred_modules_unrun():
    """``import epsmult`` registers diagnostics, newton and scenario without
    running them; reading one of their names runs all three (scenario
    imports the other two)."""
    code = ("import sys, types, epsmult\n"
            "mods = [sys.modules[f'epsmult.{m}'] for m in "
            "('diagnostics', 'newton', 'scenario')]\n"
            "print([type(m) is not types.ModuleType for m in mods])\n"
            "epsmult.load_scenario\n"
            "print([type(m) is types.ModuleType for m in mods])\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == ["[True, True, True]", "[True, True, True]", ""]


def test_ideal_multiplicity_leaves_newton_unrun():
    """``import epsmult`` does not load ``_polyhedra``, and
    ``ideal_multiplicity`` reads its fan sum from there, so newton stays
    registered but unrun."""
    code = ("import sys, types, epsmult\n"
            "print('epsmult._polyhedra' in sys.modules)\n"
            "I = epsmult.MonomialIdeal(epsmult.RingContext(2), [(2, 0), (1, 1), (0, 3)])\n"
            "print(epsmult.ideal_multiplicity(I))\n"
            "print(type(sys.modules['epsmult.newton']) is types.ModuleType)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == ["False", "5", "False", ""]


def test_public_namespace_is_unchanged_by_the_deferral():
    namespace = {}
    exec("from epsmult import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == STAR_NAMES
    listed = dir(epsmult)
    for home, names in DEFERRED.items():
        module = importlib.import_module(f"epsmult.{home}")
        for name in names:
            assert getattr(epsmult, name) is getattr(module, name), name
            assert name in listed, name
    assert not hasattr(epsmult, "no_such_name")


def test_no_generated_code_in_the_package():
    """No module imports ``dataclasses`` or calls ``exec`` or ``eval``."""
    offending = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # a read, so the field ``Coordinate.eval`` does not count
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in ("exec", "eval")):
                offending.append(f"{path.name}:{node.lineno}: {node.id}")
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            offending += [f"{path.name}:{node.lineno}: import {n}"
                          for n in names if n == "dataclasses"]
    assert not offending, offending
