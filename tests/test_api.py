"""Every exported name, and every public method and dataclass field of an
exported class, has a caller in the package, or a stated reason to stay.

The scan reads ``src/edgelab/*.py`` with ``ast``.  A name in a module's
``__all__`` counts as used when some module loads it (as a bare name or
as an attribute) outside the top-level definition that defines it;
imports and re-exports do not count.  A method or field counts as used
when some module loads it as an attribute (``obj.name``) outside the
method's own body, or names it in a string (``getattr(SetSpec, kind)``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "edgelab"

# Exported names, and Class.member names, that nothing in the package
# calls, and why they stay.
KEPT = {
    "edgeworth_tstat_curve": "tracer target, item 5",
    "bootstrap_draws": "tracer target, item 5; criteria 9-11 read the draws",
    "tstat_bootstrap": "tracer target, item 5; criteria 9-11 read the draws",
    "Family.sum_sample": "tracer target, item 5",
    "Family.lattice": "ROADMAP item 6: a lattice sweep variant must "
                      "report no-margin",
    "Family.cf": "ROADMAP items 4, 6 and 13: a family's exact cf, for the "
                 "smoothing bound and the sweep's uniform Cramer check",
    "SampleStats.cov": "the summary's Vhat, whose roots src reads; the "
                       "tests check the roots against it",
    "EventFlags.abs_moment": "the statistic that e0 thresholds",
    "EventFlags.max_mixed_moment": "the statistic that e2 thresholds",
    "mean_weak_cramer_scan": "ROADMAP item 7: averaged scan for "
                             "non-identical units",
    "averaged_standardized_cumulants": "ROADMAP item 7: cumulants for "
                                       "non-identical units",
    "g_value_and_jet": "criterion 12's subject",
}


def _trees():
    return [ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))]


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
    for tree in _trees():
        exported.update(_exports(tree))
        used.update(name for name, owner in _used_names(tree)
                    if name != owner)
    return exported - used


def _members(tree):
    """(Class.member, body or None) for each public method and annotated
    field of the module's exported classes."""
    exported = set(_exports(tree))
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name in exported):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                name, body = item.name, item
            elif (isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)):
                name, body = item.target.id, None
            else:
                continue
            if not name.startswith("_"):
                yield node.name + "." + name, body


def _member_uses(tree):
    """(name, node) for each attribute load, and each string constant
    outside __all__, in the module."""
    skip = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            skip.update(id(n) for n in ast.walk(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                          ast.Load):
            yield node.attr, node
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            yield node.value, node


def _callerless_members():
    trees = _trees()
    members = [m for tree in trees for m in _members(tree)]
    uses = [u for tree in trees for u in _member_uses(tree)]
    out = set()
    for qualified, body in members:
        name = qualified.split(".", 1)[1]
        inside = {id(n) for n in ast.walk(body)} if body else set()
        if not any(u == name and id(n) not in inside for u, n in uses):
            out.add(qualified)
    return out


def test_every_export_has_a_caller_or_a_reason():
    orphans = _callerless() - set(KEPT)
    assert not orphans, ("exported but never used in src/: %s; call them, "
                         "delete them or list them in KEPT with a reason"
                         % sorted(orphans))


def test_every_public_member_has_a_caller_or_a_reason():
    orphans = _callerless_members() - set(KEPT)
    assert not orphans, ("public methods or fields never used in src/: %s; "
                         "call them, delete them or list them in KEPT with "
                         "a reason" % sorted(orphans))


def test_kept_names_are_still_callerless_exports():
    # a kept name that gained a caller, or was deleted, leaves KEPT
    assert set(KEPT) <= _callerless() | _callerless_members()
