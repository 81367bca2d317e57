"""The package's export list is exactly the table in ``lossbench/__init__.py``."""

import importlib

import lossbench as lb


def test_all_is_the_set_of_names_in_the_export_table():
    table = {name for names in lb._EXPORTS.values() for name in names}
    assert len(lb.__all__) == len(set(lb.__all__)), "duplicate names in __all__"
    assert set(lb.__all__) == table | {"__version__"}
    assert len(lb.__all__) == 41


def test_each_name_is_the_object_its_module_defines():
    for module, names in lb._EXPORTS.items():
        home = importlib.import_module(f"lossbench.{module}")
        for name in names:
            assert getattr(lb, name) is getattr(home, name), f"{name} is not {module}.{name}"


def test_dir_lists_every_name():
    assert set(lb.__all__) <= set(dir(lb))
