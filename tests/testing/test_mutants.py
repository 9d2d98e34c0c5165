"""Every registered mutant is killed by the tests it lists."""

import importlib
import inspect

import pytest

from repro.testing.mutants import MUTANTS


def killer(test_id: str):
    """The test function ``test_id`` names, its parameter id, and the
    fixtures its module applies to every test (``pytestmark``'s
    ``usefixtures``)."""
    path, _, name = test_id.partition("::")
    name, _, param = name.partition("[")
    module = importlib.import_module(path.removesuffix(".py").replace("/", "."))
    # A module's own autouse fixture is out of reach from here: a killer
    # called without it would not run as its author meant.
    assert "autouse=True" not in inspect.getsource(module), (
        f"{path}: apply module-wide fixtures with pytest.mark.usefixtures"
    )
    marks = getattr(module, "pytestmark", [])
    applied = [
        arg
        for mark in (marks if isinstance(marks, list) else [marks])
        if mark.name == "usefixtures"
        for arg in mark.args
    ]
    return getattr(module, name), param.removesuffix("]"), applied


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_is_killed_by_its_killers(name, request):
    mutant = MUTANTS[name]
    assert mutant.killers
    for test_id in mutant.killers:
        func, param, applied = killer(test_id)
        if mutant.planted_by_killers:
            # The killer runs on its own and plants the mutant itself.
            assert param in ("", name)
            continue
        for arg in applied:
            request.getfixturevalue(arg)
        fixtures = {
            arg: request.getfixturevalue(arg)
            for arg in inspect.signature(func).parameters
        }
        with mutant.plant(), pytest.raises(Exception):  # noqa: B017, PT011
            func(**fixtures)
