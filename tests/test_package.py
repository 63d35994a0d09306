"""Package-level exports: lazy attributes, __dir__, star import."""

import importlib
import os
import subprocess
import sys


def test_lazy_engine_attributes():
    import repro

    assert repro.FDBEngine().name == "FDB"
    assert repro.RDBEngine().name == "RDB"


def test_dir_includes_lazy_names():
    import repro

    names = dir(repro)
    for expected in ("FDBEngine", "RDBEngine", "connect", "Session",
                     "QueryBuilder", "Result", "register_engine"):
        assert expected in names, expected


def test_star_import_covers_all():
    namespace = {}
    exec("from repro import *", namespace)
    import repro

    for name in repro.__all__:
        if name.startswith("__"):
            continue
        assert name in namespace, name


def test_all_names_resolve():
    repro = importlib.import_module("repro")
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_unknown_attribute_raises():
    import pytest
    import repro

    with pytest.raises(AttributeError, match="no attribute"):
        repro.not_a_real_name


def test_session_api_reexports_match():
    import repro
    from repro.api import Session, connect

    assert repro.connect is connect
    assert repro.Session is Session


def test_running_a_query_loads_no_numeric_stack():
    """The covering LP is solved in pure Python: neither numpy nor scipy
    is imported, even where they are installed."""
    script = (
        "import sys\n"
        "from repro import connect\n"
        "from repro.data.pizzeria import pizzeria_database\n"
        "connect(pizzeria_database()).query('R').count('n').run()\n"
        "loaded = {m.split('.')[0] for m in sys.modules}\n"
        "print(sorted(loaded & {'numpy', 'scipy'}))\n"
    )
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
