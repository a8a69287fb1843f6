"""Exact spectral moments and operator-norm estimates for generator sums.

For a finite set Y in a group with decidable word problem (Thompson's F,
free groups, lattices), this package computes the exact integer sequences
attached to h = sum(Y) -- ladder 2-norms, reduced and cyclic identity-word
counts, moments of h*h -- and turns the moments into certified norm lower
bounds, extrapolated norm estimates, and spectral density reconstructions.

`import tgf` loads no submodule.  Each name below is imported from its
module on first access (PEP 562), so a caller, or a CLI subcommand, pays
only for the modules it uses: tgf.ladder and tgf.groups load the tree-pair
kernel, and nothing loads a package from outside the standard library.
The submodules themselves are reachable as attributes too (`tgf.formats`).
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "density": (
        "DensityCurve", "LegendreExpansion", "evaluate_curve", "free_density",
        "free_density_curve", "free_moment_vector", "project_density", "tail_average",
    ),
    "errors": (
        "CorruptionError", "NumericError", "ResourceError", "UsageError",
        "VerificationError",
    ),
    "groups": (
        "CanonicalElement", "FreeGroup", "GeneratorLetter", "GroupBackend", "Lattice",
        "ThompsonF", "Word",
    ),
    "ladder": (
        "GeneratorSet", "LadderRun", "MultiplicityVector", "build_ladder", "case1",
        "case2", "custom_f_set", "free_set", "ladder_levels", "lattice_set",
    ),
    "sequences": (
        "MomentVector", "SequenceTable", "brute_force_sequences", "cogrowth_diagnostics",
        "compute_table", "group_ring_check", "m_free", "moebius_verify", "table_from_ladder",
    ),
    "spectral": (
        "FitParams", "HankelLadder", "JacobiCoefficients", "NormBoundsRow",
        "bounds_table", "fit_extrapolation", "gamma_cogrowth", "hankel_ladder",
        "jacobi_coefficients", "lambda_max",
    ),
}
# exported name -> (module, attribute in it)
_LAZY = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_LAZY["KERNEL_IMPLEMENTATION"] = ("kernel", "IMPLEMENTATION")
_SUBMODULES = frozenset({
    "cli", "density", "errors", "formats", "groups", "kernel", "ladder",
    "polynomials", "records", "sequences", "spectral", "treepair", "verify",
})

__all__ = sorted(_LAZY)


def __getattr__(name):
    if name in _LAZY:
        module, attr = _LAZY[name]
        value = getattr(importlib.import_module(f".{module}", __name__), attr)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | _SUBMODULES)
