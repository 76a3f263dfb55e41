"""Every exported name has a caller in the package, or a stated reason to
stay.

The scan reads ``src/edgelab/*.py`` with ``ast``: a name in a module's
``__all__`` counts as used when some module loads it (as a bare name or
as an attribute) outside the top-level definition that defines it.
Imports and re-exports do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "edgelab"

# Exported names that nothing in the package calls, and why they stay.
KEPT = {
    "cumulants_to_moments": "oracle: inverse of moments_to_cumulants, "
                            "criterion 1's round trip",
    "hermite_tensor": "oracle: tensor Hermite values for the expansion "
                      "weight tests",
    "sup_deviation": "oracle: class-wide deviation in the bootstrap tests",
    "enlargement_deviation": "oracle: criterion 11's eta enlargement",
    "edgeworth_tstat_curve": "oracle: criterion 10 and the quadrature's MC "
                             "cross-check",
    "mean_weak_cramer_scan": "ROADMAP item 7: averaged scan for "
                             "non-identical units",
    "averaged_standardized_cumulants": "ROADMAP item 7: cumulants for "
                                       "non-identical units",
    "g_value_and_jet": "criterion 12's subject",
}


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _used_names(tree):
    """Names loaded in the module, each with the top-level definition it
    appears in (None at module level)."""
    used = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                used.append((node.attr, owner))
    return used


def _callerless():
    exported, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exported.update(_exports(tree))
        used.update(name for name, owner in _used_names(tree)
                    if name != owner)
    return exported - used


def test_every_export_has_a_caller_or_a_reason():
    orphans = _callerless() - set(KEPT)
    assert not orphans, ("exported but never used in src/: %s; call them, "
                         "delete them or list them in KEPT with a reason"
                         % sorted(orphans))


def test_kept_names_are_still_callerless_exports():
    # a kept name that gained a caller, or was deleted, leaves KEPT
    assert set(KEPT) <= _callerless()
