"""Expected counterparty credit exposure of financial networks.

Markets are class-labelled (di)graphs whose links carry i.i.d. symmetric
position values. Netting conventions partition each participant's links
into netting sets; the expected exposure of a set comes out of its
characteristic function through a Hilbert-transform closed form, and every
analytic value can be cross-checked against a seeded Monte Carlo oracle.
Every name in a module's ``__all__`` is importable from the package.
"""

import importlib

__version__ = "0.1.0"

# numpy-free modules first, so that their names load no numpy
_MODULES = ("laws", "market", "io", "exposure", "advantage", "charfn",
            "transforms", "mc")


def __getattr__(name: str):
    """A public name, bound on first access (PEP 562) from the first module
    whose ``__all__`` lists it; ``__all__`` itself lists them all."""
    if name in (*_MODULES, "cli"):
        return importlib.import_module(f"{__name__}.{name}")
    public = []
    for module in (importlib.import_module(f"{__name__}.{m}")
                   for m in _MODULES):
        if name in module.__all__:
            return globals().setdefault(name, getattr(module, name))
        public += module.__all__
    if name == "__all__":
        return public
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
