"""The names the benchmark's trace hooks into must exist in ``preloss``.

``bench/tracing.py`` wraps class attributes and attaches observers by name;
a renamed target would otherwise break only traced benchmark runs.
"""

import importlib
import importlib.util
import inspect
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_class_attrs_are_defined_on_their_classes():
    tracing = _tracing()
    for mod_name, classes in tracing.CLASS_ATTRS.items():
        mod = importlib.import_module(f"preloss.{mod_name}")
        for cls_name, attrs in classes.items():
            cls = getattr(mod, cls_name)
            for attr in attrs:
                assert callable(cls.__dict__.get(attr)), f"{mod_name}.{cls_name}.{attr}"


def test_observer_keys_are_public_functions():
    tracing = _tracing()
    for key in tracing.Tracer()._observers():
        mod_name, attr = key.split(".")
        assert mod_name in tracing.MODULES, key
        mod = importlib.import_module(f"preloss.{mod_name}")
        fn = getattr(mod, attr, None)
        assert not attr.startswith("_") and inspect.isfunction(fn), key
        assert fn.__module__ == mod.__name__, key
