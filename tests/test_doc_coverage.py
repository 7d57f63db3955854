"""Docstring gate for the public API of ``repro.serve`` / ``repro.exec`` / ``repro.obs``.

These packages are the repo's operational surface (deployment, sweep
execution, observability) — the ones people drive from their own code rather than through
the paper's experiment scripts — so every public module, class, function,
method and property they define must carry a docstring.  The walk is
structural (no imports of private helpers, no enforcement on ``_``-prefixed
names or anything re-exported from elsewhere), so adding a documented name
never needs this file touched; adding an undocumented one fails with the
dotted path of every offender.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

PACKAGES = ("repro.serve", "repro.exec", "repro.obs")


def _iter_modules(package_name):
    """The package module plus every submodule (one level is all we have)."""
    package = importlib.import_module(package_name)
    yield package
    for info in pkgutil.iter_modules(package.__path__):
        yield importlib.import_module(f"{package_name}.{info.name}")


def _has_doc(obj) -> bool:
    doc = getattr(obj, "__doc__", None)
    return bool(doc and doc.strip())


def _missing_in_class(cls, prefix):
    """Dotted paths of undocumented public members defined directly on ``cls``."""
    missing = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            if not _has_doc(member):
                missing.append(f"{prefix}.{name} (property)")
        elif inspect.isfunction(member) or isinstance(member, (staticmethod, classmethod)):
            func = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
            if not _has_doc(func):
                missing.append(f"{prefix}.{name}()")
    return missing


def _missing_in_module(module):
    """Dotted paths of undocumented public names *defined* in ``module``."""
    missing = []
    if not _has_doc(module):
        missing.append(f"{module.__name__} (module docstring)")
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented where it is defined
        path = f"{module.__name__}.{name}"
        if not _has_doc(obj):
            missing.append(path)
        if inspect.isclass(obj):
            missing.extend(_missing_in_class(obj, path))
    return missing


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_api_is_documented(package_name):
    missing = []
    for module in _iter_modules(package_name):
        missing.extend(_missing_in_module(module))
    assert not missing, (
        f"undocumented public names in {package_name}:\n  " + "\n  ".join(sorted(missing))
    )


def test_walk_actually_sees_the_api():
    """Guard against the gate silently passing on an empty walk."""
    seen = set()
    for package_name in PACKAGES:
        for module in _iter_modules(package_name):
            seen.update(
                f"{module.__name__}.{name}"
                for name, obj in vars(module).items()
                if not name.startswith("_")
                and (inspect.isclass(obj) or inspect.isfunction(obj))
                and getattr(obj, "__module__", None) == module.__name__
            )
    assert "repro.serve.gateway.ServeGateway" in seen
    assert "repro.exec.executor.run_experiments" in seen
    assert "repro.obs.trace.Tracer" in seen
    assert len(seen) > 20
