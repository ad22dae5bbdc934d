"""Every name a dswlab module exports, and every public method and property of
an exported class, is read somewhere, outside the tests unless TEST_ONLY says
why not, and every default of an exported function is overridden somewhere,
outside the tests unless TEST_SET says why not. A module exports the names in
its ``__all__`` and every top-level function and class whose name has no
leading underscore. Every exception class of dswlab is either an input error
(a ValueError) or a refusal (a RefusalError), never both.

The checks parse src/, tests/, scripts/ and perfbench/. The name checks count
loads of a name (``name`` or ``obj.name``). A definition (``def name``,
``class name``, ``name = ...``) and the string in ``__all__`` are not loads,
so a public name that only its own module defines fails. A load or a call
inside a TEST_ONLY function or method is test code, so the production checks
skip it. The default checks match calls by the called name (``f(...)`` or
``obj.f(...)``): a defaulted parameter that no call sets, by position or by
keyword, is a knob nothing turns, and fails; one that only the tests set is
a knob the product never turns; and one that every call sets is a value
nothing reads, and fails too. A ``*args`` or ``**kwargs`` in a call may set
anything.
"""

import ast
import importlib
import inspect
from pathlib import Path

from dswlab.waves import RefusalError

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dswlab"
SCANNED = ("src", "tests", "scripts", "perfbench")
PRODUCTION = ("src", "scripts", "perfbench")

# the exported names that only the tests read, each with the reason it stays public
TEST_ONLY = {
    "spectra.morse_index": "oracle: n(L+) and n(H) by eigh of the full matrix (criterion 5)",
    "spectra.kernel_alignment": "oracle: the full matrix's kernel against psi' (criterion 5)",
    "spectra.pseudo_inverse_apply": "oracle: the even inverse of L+ by eigh, against linv_apply",
    "index_engine.non_periodicity_gap": "oracle: varphi'(L-) - varphi'(0+), nonzero with A2",
    "index_engine.VarphiTable.varphi_at": "oracle: varphi itself, for its ODE residual, "
                                          "Wronskian and A-integral checks",
    "index_engine.VarphiTable.varphi_prime_at": "oracle: varphi', for the Wronskian and "
                                                "finite-difference checks and criterion 3's gap",
    "waves.conserved_quantities": "oracle: the four invariants by the trapezoid rule on the grid, "
                                  "against the band's",
    "spectra.assemble": "oracle: the full collocation matrix of L+, H or dH, for the eigh "
                        "oracles and the dense eig of dH",
    "spectra.unstable_eigenmode": "oracle: the dense eig of dH, which seeds criterion 7's "
                                  "growth experiment",
    "spectra.NoUnstableModeError": "oracle: the refusal criterion 7 ends in",
    "evolution.growth_rate_experiment": "oracle: the paper's growth experiment (criterion 7)",
    "evolution.GrowthResult": "oracle: the result of criterion 7's growth experiment",
    "evolution.deviation_series": "oracle: the wave deviation that criterion 7's growth "
                                  "experiment fits",
    "evolution.fit_growth_rate": "oracle: the growth fit of criterion 7's experiment",
    "evolution.WindowTooShortError": "oracle: the refusal of criterion 7's growth fit",
    "evolution.conserved_of_state": "the four invariants of a lone state; simulate logs each "
                                    "sample's from the grid fields it hands to the next step",
    "evolution.preprocess": "the mean-zero reduction of v (ROADMAP item 7)",
    "evolution.undo_preprocess": "the mean-zero reduction of v (ROADMAP item 7)",
}

# the defaults that only the tests set, each with the reason the knob stays
TEST_SET = {
    "evolution.simulate(frame_speed_v)": "the mean-zero reduction of v (ROADMAP item 7)",
    "hill.integrate_hill_ivp(tol)": "oracle: the Hill IVP's DOP853 tolerance, which the tests vary",
}


def _exports(tree):
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
        elif (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            names.add(node.name)
    return names


def _test_only_definitions(module, tree):
    """The def nodes of the TEST_ONLY functions and methods of a dswlab module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and f"{module}.{node.name}" in TEST_ONLY:
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                        and f"{module}.{node.name}.{item.name}" in TEST_ONLY)


def _parsed(tops, skip_test_only):
    """(module, tree, skipped) for each file under tops: module the name of a dswlab
    module or None, and skipped, with skip_test_only, the def nodes of its TEST_ONLY
    functions and methods, whose bodies are test code."""
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            module = path.stem if path.parent == PACKAGE else None
            skipped = (set(_test_only_definitions(module, tree))
                       if skip_test_only and module else ())
            yield module, tree, skipped


def _walk(tree, skipped):
    """The nodes of tree outside the subtrees in skipped."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node not in skipped:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _loads(tree, skipped):
    """The names loaded in tree, outside the subtrees in skipped."""
    for node in _walk(tree, skipped):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _public(module, tree):
    """{module.name or module.Class.member: the name a read of it loads} for the exports
    of a dswlab module and the public methods and properties of its exported classes."""
    exported = _exports(tree)
    public = {f"{module}.{name}": name for name in exported}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in exported:
            public.update((f"{module}.{node.name}.{item.name}", item.name) for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return public


def _scan(tops, skip_test_only=False):
    """(names loaded under tops, the public names of the dswlab modules, as _public).

    With skip_test_only, the bodies of the TEST_ONLY functions and methods load nothing.
    """
    loaded = set()
    public = {}
    for module, tree, skipped in _parsed(tops, skip_test_only):
        loaded.update(_loads(tree, skipped))
        if module:
            public.update(_public(module, tree))
    assert public, f"no export found under {PACKAGE}"
    return loaded, public


def test_every_exported_name_is_read_somewhere():
    loaded, public = _scan(SCANNED)
    dead = sorted(key for key, name in public.items() if name not in loaded)
    assert not dead, f"exported but never read: {dead}"


def test_every_exported_name_is_read_outside_the_tests():
    loaded, public = _scan(PRODUCTION, skip_test_only=True)
    unread = {key for key, name in public.items() if name not in loaded}
    test_only = sorted(unread - set(TEST_ONLY))
    assert not test_only, f"exported but read only by tests: {test_only}"
    stale = sorted(set(TEST_ONLY) - unread)
    assert not stale, f"TEST_ONLY lists names read outside the tests or not exported: {stale}"


def _defaulted_parameters(tree, exported):
    """(function, parameter, position or None) for each default of an exported function."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield node.name, arg.arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def _sets(call, parameter, position):
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _defaults(tops, skip_test_only=False):
    """{module.function(parameter): how each call under tops of that name treats the
    default, True where it sets the parameter} for the exported functions' defaults.

    With skip_test_only, the bodies of the TEST_ONLY functions and methods call nothing.
    """
    calls, defaults = {}, []
    for module, tree, skipped in _parsed(tops, skip_test_only):
        for node in _walk(tree, skipped):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
        if module:
            defaults += [(module, *d) for d in _defaulted_parameters(tree, _exports(tree))]
    assert defaults, f"no defaulted parameter found under {PACKAGE}"
    return {f"{module}.{function}({parameter})":
            [_sets(call, parameter, position) for call in calls.get(function, [])]
            for module, function, parameter, position in defaults}


def _unset_defaults(tops, skip_test_only=False):
    """The module.function(parameter) defaults of exported functions that no call under
    tops sets."""
    return {key for key, sets in _defaults(tops, skip_test_only).items() if not any(sets)}


def test_every_default_of_an_exported_function_is_set_somewhere():
    dead = sorted(_unset_defaults(SCANNED))
    assert not dead, f"defaulted but never set: {dead}"


def test_every_default_of_an_exported_function_is_left_unset_somewhere():
    # a default that every call overrides is a value nothing reads
    dead = sorted(key for key, sets in _defaults(SCANNED).items() if all(sets))
    assert not dead, f"defaulted but never left to its default: {dead}"


def test_every_default_of_an_exported_function_is_set_outside_the_tests():
    unset = _unset_defaults(PRODUCTION, skip_test_only=True)
    test_set = sorted(unset - set(TEST_SET))
    assert not test_set, f"defaulted but set only by tests: {test_set}"
    stale = sorted(set(TEST_SET) - unset)
    assert not stale, f"TEST_SET lists defaults set outside the tests or not defaults: {stale}"


def test_every_exception_is_an_input_error_or_a_refusal():
    classes = {cls for path in PACKAGE.glob("*.py")
               for _, cls in inspect.getmembers(importlib.import_module(f"dswlab.{path.stem}"),
                                                inspect.isclass)
               if issubclass(cls, BaseException) and cls.__module__.startswith("dswlab")}
    assert RefusalError in classes
    wrong = sorted(cls.__qualname__ for cls in classes
                   if issubclass(cls, ValueError) == issubclass(cls, RefusalError))
    assert wrong == [], f"neither or both of ValueError and RefusalError: {wrong}"
