"""The config schema is a run's only validator, so a run has one way in.

FedConfig and MechanismConfig are unchecked records.  Every program file
builds them through `config.build_fed_config`, from a config that
`validate_config` has checked, and the schema's `federation` and `mechanism`
keys are the records' field names, so that function passes them by name.
The task builders, the sketches and clip check nothing either: each is
called from one function that hands it values the schema has checked.
A second way to build a run, or a key renamed on one side only, fails here.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from fedsgm.config import _SCHEMA
from fedsgm.fedsim import FedConfig
from fedsgm.mechanism import MechanismConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
PROGRAM_FILES = sorted([*(REPO_ROOT / "src" / "fedsgm").glob("*.py"), *(REPO_ROOT / "scripts").glob("*.py")])
RECORDS = ("FedConfig", "MechanismConfig")
# each unchecked builder and the one (file, function) that may call it
BUILDER_CALLERS = {
    "make_federated_quadratic": ("config.py", "build_task"),
    "make_logreg": ("config.py", "build_task"),
    "SketchSpec": ("fedsim.py", "_sketches"),
    "IdentityCompressor": ("fedsim.py", "_sketches"),
    "clip": ("fedsim.py", "client_privatize"),
}


def record_calls(path, names=RECORDS):
    """(file, enclosing function, name) for each call of one of names in a file."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    calls.append((path.name, scope, name))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if is_function else scope)

    visit(ast.parse(path.read_text(), str(path)), None)
    return calls


def field_names(record):
    return {field.name for field in dataclasses.fields(record)}


@pytest.mark.parametrize("record", RECORDS)
def test_only_build_fed_config_constructs_a_run_record(record):
    calls = [call for path in PROGRAM_FILES for call in record_calls(path)]
    assert {(file, scope) for file, scope, name in calls if name == record} == {
        ("config.py", "build_fed_config")
    }


@pytest.mark.parametrize("builder", BUILDER_CALLERS)
def test_one_function_calls_each_unchecked_builder(builder):
    calls = [call for path in PROGRAM_FILES for call in record_calls(path, (builder,))]
    assert {(file, scope) for file, scope, _ in calls} == {BUILDER_CALLERS[builder]}


def test_schema_federation_keys_are_fed_config_fields():
    assert set(_SCHEMA["federation"]) <= field_names(FedConfig)
    # the fields build_fed_config sets from the other sections
    assert field_names(FedConfig) - set(_SCHEMA["federation"]) == {
        "mechanism", "delta", "sketch_b", "optimizer"
    }


def test_schema_mechanism_keys_are_mechanism_config_fields():
    assert set(_SCHEMA["mechanism"]) == field_names(MechanismConfig)
