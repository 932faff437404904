"""The package surface: every public name loads its submodule on first use."""

import importlib
import pickle

import pytest

import bitpairs

PUBLIC = [
    "DEFAULT_ORACLE_LIMIT", "MemoCache", "Mismatch", "PairProfile", "VerifyReport", "ZTable",
    "binomial", "circular_pair_counts", "enumerate_Z", "enumerate_circular", "enumerate_terquem",
    "from_terquem", "invert_bits", "linear_pair_counts", "parse_z_table",
    "render_terquem_triangle", "render_z_table", "s_circular", "s_circular_oracle", "sd_encode",
    "terquem_T", "to_terquem", "verify_all", "wrap_parity_predicts_equal_ends", "z_auto",
    "z_base_case", "z_closed_m0", "z_oracle", "z_recur_firstone", "z_recur_split",
    "z_reduce_to_m0", "z_table",
]


@pytest.fixture
def unbound(monkeypatch):
    """The package with no public name bound yet, so each read goes through its hook."""
    for name in PUBLIC:
        monkeypatch.delattr(bitpairs, name, raising=False)
    return bitpairs


def test_all_lists_the_public_names():
    assert bitpairs.__all__ == PUBLIC


def test_names_are_their_submodules_objects(unbound):
    for name, module in bitpairs._EXPORTS.items():
        home = importlib.import_module(f"bitpairs.{module}")
        value = getattr(unbound, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_star_import_binds_every_name(unbound):
    namespace = {}
    exec("from bitpairs import *", namespace)
    assert {name: namespace.get(name) for name in PUBLIC} == {
        name: getattr(bitpairs, name) for name in PUBLIC
    }


def test_dir_lists_every_name(unbound):
    assert set(PUBLIC) | {"__version__"} <= set(dir(unbound))


@pytest.mark.parametrize("name, fields", [
    ("ZTable", ("n", "mode", "cells")),
    ("Mismatch", ("n", "k", "m", "method", "got", "expected")),
    ("VerifyReport", ("max_n", "mode", "methods", "checks", "mismatches", "elapsed")),
    ("PairProfile", ("n", "k", "m")),
])
def test_records_are_named_tuples(name, fields):
    # each record type keeps the fields, tuple equality, repr, helpers and
    # pickling of a named tuple, and its instances no __dict__
    cls = getattr(bitpairs, name)
    values = tuple(range(len(fields)))
    record = cls(*values)
    assert cls._fields == fields
    assert record == values
    assert repr(record) == f"{name}({', '.join(f'{f}={v}' for f, v in zip(fields, values))})"
    assert record._asdict() == dict(zip(fields, values))
    changed = record._replace(**{fields[0]: 9})
    assert (type(changed), changed) == (cls, (9, *values[1:]))
    copy = pickle.loads(pickle.dumps(record))
    assert (type(copy), copy) == (cls, record)
    assert not hasattr(record, "__dict__")


def test_unknown_name_names_the_module():
    with pytest.raises(AttributeError, match="^module 'bitpairs' has no attribute 'frobnicate'$"):
        bitpairs.frobnicate
    with pytest.raises(ImportError, match="frobnicate"):
        from bitpairs import frobnicate  # noqa: F401
