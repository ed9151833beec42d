"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import ordsum

MODULES = sorted(info.name for info in pkgutil.iter_modules(ordsum.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ordsum.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"ordsum.{name}.__all__ lists missing names {missing}"


def test_label_is_shared():
    from ordsum.signature import Label as SignatureLabel
    from ordsum.tnorm import Label

    assert SignatureLabel is Label
