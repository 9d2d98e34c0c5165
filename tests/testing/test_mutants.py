"""Every registered mutant is killed by the tests it lists."""

import importlib
import inspect

import pytest

from repro.testing.mutants import MUTANTS


def killer(test_id: str):
    """The test function ``test_id`` names, and its parameter id."""
    path, _, name = test_id.partition("::")
    name, _, param = name.partition("[")
    module = importlib.import_module(path.removesuffix(".py").replace("/", "."))
    return getattr(module, name), param.removesuffix("]")


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_is_killed_by_its_killers(name, request):
    mutant = MUTANTS[name]
    assert mutant.killers
    for test_id in mutant.killers:
        func, param = killer(test_id)
        if mutant.planted_by_killers:
            # The killer runs on its own and plants the mutant itself.
            assert param in ("", name)
            continue
        fixtures = {
            arg: request.getfixturevalue(arg)
            for arg in inspect.signature(func).parameters
        }
        with mutant.plant(), pytest.raises(Exception):  # noqa: B017, PT011
            func(**fixtures)
