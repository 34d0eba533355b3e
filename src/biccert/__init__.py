"""Certification toolkit for balanced informationally complete POVMs.

Constructs BIC-POVMs in every dimension, builds the associated Bell
scenario, and numerically verifies its headline numbers: the quantum value
d^2, the exact sum-of-squares operator identity, the exact classical value,
the relation algebra behind the certification argument, and the 2 log2(d)
bits of randomness carried by the optimal strategy's povm outcome.

The exported names and their home modules resolve lazily (PEP 562):
``biccert.certify`` imports ``biccert.algebra`` on first access, so a
command compiles and loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names it exports
_EXPORTS = {
    "bic": ("BicPovm", "GramMatrix", "construct_generic_bic", "construct_weyl_bic",
            "equalize_diagonal", "geometric_fiducial", "gram", "validate_bic",
            "validate_gram"),
    "bell": ("BellReport", "SosReport", "Strategy", "bell_operator", "bell_value",
             "random_strategy", "reference_strategy", "sos_certificate"),
    "classical": ("ClassicalResult", "brute_force_classical", "classical_value",
                  "closed_form_d2", "subset_value"),
    "algebra": ("CertificationReport", "CertifyRun", "IrrepDecomposition", "MaxEntReport",
                "certify", "check_as_relations", "compress", "counterexample_rep",
                "irrep_decompose", "local_support", "maxent_decompose", "span_dimension",
                "verify_certification"),
    "randomness": ("CqState", "RandomnessReport", "conditional_entropy", "cq_state",
                   "randomness_report"),
    "linalg": ("BipartiteDims", "Check", "Checks", "eigh", "kron", "partial_trace",
               "purify"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import an exported name's home module on first access and cache the
    name; a home module itself resolves as its submodule."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
