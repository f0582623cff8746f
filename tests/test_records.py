"""Record types: frozen ``NamedTuple``s, except four frozen dataclasses that
need construction-time checks or a method a tuple already has."""

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction as Rat
from pathlib import Path

import pytest

import cubiclct
from cubiclct.cli import fixture_dir
from cubiclct.linsys import LinearSystem, Row
from cubiclct.model import ParseError, load_fixture

FIXTURE_NAMES = sorted(p.stem for p in Path(str(fixture_dir())).glob("*.yaml"))


def test_only_four_records_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(cubiclct.__path__):
        module = importlib.import_module(f"cubiclct.{info.name}")
        found.update(f"{info.name}.{name}" for name, obj in vars(module).items()
                     if inspect.isclass(obj) and obj.__module__ == module.__name__
                     and dataclasses.is_dataclass(obj))
    assert found == {"linsys.Row", "linsys.LinearSystem", "lattice.AdeType",
                     "model.SingularityProfile"}


def test_every_bundled_fixture_loads_to_equal_hashable_records():
    assert len(FIXTURE_NAMES) == 22
    for name in FIXTURE_NAMES:
        text = (Path(str(fixture_dir())) / f"{name}.yaml").read_text()
        first, second = load_fixture(text, name=name), load_fixture(text, name=name)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)


def test_loaded_fixture_fields_are_read_only():
    fixture = load_fixture((Path(str(fixture_dir())) / "a3.yaml").read_text(), name="a3")
    with pytest.raises(AttributeError):
        fixture.name = "a4"
    with pytest.raises(AttributeError):
        fixture.model.curves[0].kind = "conic"
    with pytest.raises(AttributeError):
        fixture.script.base_rows[0].row.constant = Rat(1)


def test_row_and_system_check_themselves():
    with pytest.raises(ValueError, match="bad relation '<'"):
        Row((Rat(1),), Rat(0), "<")
    with pytest.raises(ParseError, match="^row width does not match variable count$"):
        LinearSystem(("x", "y"), (Row((Rat(1),), Rat(0), ">="),))
