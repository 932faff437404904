"""Exact counting and enumeration of binary strings by adjacent-pair statistics.

Every public name below is an attribute of the package, but its submodule is
imported on first use (PEP 562), so ``import bitpairs`` imports none of them
and a command line pays only for the modules its subcommand runs.
"""

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "DEFAULT_ORACLE_LIMIT", "MemoCache", "binomial", "s_circular", "s_circular_oracle",
        "terquem_T", "wrap_parity_predicts_equal_ends", "z_auto", "z_base_case",
        "z_closed_m0", "z_oracle", "z_recur_firstone", "z_recur_split", "z_reduce_to_m0",
    ), "counting"),
    **dict.fromkeys((
        "PairProfile", "circular_pair_counts", "enumerate_Z", "enumerate_circular",
        "enumerate_terquem", "from_terquem", "invert_bits", "linear_pair_counts",
        "sd_encode", "to_terquem",
    ), "enumeration"),
    **dict.fromkeys((
        "Mismatch", "VerifyReport", "ZTable", "parse_z_table", "render_terquem_triangle",
        "render_z_table", "verify_all", "z_table",
    ), "tables"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # bound once, as an eager import would; later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
