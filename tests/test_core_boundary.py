"""The regression core's boundary, read from the package source.

Every least-squares fit goes through ``wls.solve``, which fits one stack
and is called only by the stacked callers' ``iv._solve`` and the one-problem
``wls.fit_wls``; the grid and the screen build their stacks with one
builder, ``iv.GridPlan._stacks``.  So linear algebra (``np.linalg``,
``scipy.linalg`` and LAPACK) is called only in the core, whose one such
call is the stacked ``np.linalg.qr`` (it back-substitutes in elementwise
numpy), and in ``collapse._fit_logistic``, the one stated exception; a ``DesignFit`` is
built only by the core and by the two-stage fit's structural-residual fit
(``iv._late``), and a per-problem ``ProblemFit`` view only by
``wls.fit_wls``, so the grid reads whole stacks.  Floating point errors are
silenced only at the ``np.errstate`` sites listed here, each of which ends
every non-finite value in a typed error or a finite answer; the command
line adds none of its own.  And CSV input has two readers: ``np.loadtxt``
is called only in ``cli._table_values``, which reads a whole block, and
``csv.reader`` only in ``cli._csv_rows``, which reads the header and the
blocks loadtxt declines.  The source is parsed, not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crtiv"


def _dotted(node):
    """``np.linalg.solve`` for the expression ``np.linalg.solve``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def _is_linalg(name):
    return "linalg" in name.split(".") or "lapack" in name.split(".")


class _Sites(ast.NodeVisitor):
    """Records ``(module, enclosing function, name)`` of each linear-algebra
    use, ``(module, enclosing function)`` of each ``DesignFit(...)``,
    ``ProblemFit(...)``, ``errstate(...)``, ``loadtxt(...)`` and
    ``reader(...)`` call, and that of every call by its dotted callee."""

    CALLEES = ("DesignFit", "ProblemFit", "errstate", "loadtxt", "reader")

    def __init__(self, module):
        self.module, self.scope = module, []
        self.linalg, self.lapack_names = set(), set()
        self.calls = {name: set() for name in self.CALLEES}
        self.callees = {}

    def _site(self):
        return (self.module, ".".join(self.scope))

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Import(self, node):
        for alias in node.names:
            if _is_linalg(alias.name):
                self.linalg.add((*self._site(), alias.name))

    def visit_ImportFrom(self, node):
        if node.module and _is_linalg(node.module):
            self.linalg.add((*self._site(), node.module))
            self.lapack_names.update(alias.asname or alias.name for alias in node.names)

    def visit_Attribute(self, node):
        name = _dotted(node)
        if name is not None and _is_linalg(name):
            self.linalg.add((*self._site(), name))
            return
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name) and func.id in self.lapack_names:
            self.linalg.add((*self._site(), func.id))
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in self.calls:
            self.calls[name].add(self._site())
        if (dotted := _dotted(func)) is not None:
            self.callees.setdefault(dotted, set()).add(self._site())
        self.generic_visit(node)


def package_sites():
    """The package's linear-algebra sites, its call sites by callee, and its
    call sites by dotted callee (``wls.solve``, ``self._stacks``)."""
    linalg, calls = set(), {name: set() for name in _Sites.CALLEES}
    callees = {}
    for path in sorted(PACKAGE.glob("*.py")):
        sites = _Sites(path.stem)
        sites.visit(ast.parse(path.read_text(encoding="utf-8")))
        linalg |= sites.linalg
        for name, found in sites.calls.items():
            calls[name] |= found
        for name, found in sites.callees.items():
            callees.setdefault(name, set()).update(found)
    return linalg, calls, callees


def _sites_of(callees, last, *, besides=()):
    """Where a callee whose dotted name ends in ``last`` is called, other
    than the callees named in ``besides``."""
    return {
        site
        for name, found in callees.items()
        if name.split(".")[-1] == last and name not in besides
        for site in found
    }


def test_linear_algebra_is_called_only_in_the_core_and_the_logistic_fit():
    linalg, _, _ = package_sites()
    outside = {(module, scope) for module, scope, _ in linalg if module != "wls"}
    assert outside == {("collapse", "_fit_logistic")}
    # The core's only linear algebra is its stacked QR: no scipy.linalg
    # import, no LAPACK call.
    assert {site for site in linalg if site[0] == "wls"} == {
        ("wls", "solve", "np.linalg.qr")
    }


def test_fits_are_built_only_by_the_core_and_the_structural_residual_fit():
    _, calls, _ = package_sites()
    assert calls["DesignFit"] == {("wls", "solve"), ("iv", "_late")}


def test_the_core_and_the_stack_builder_have_one_caller_per_path():
    _, _, callees = package_sites()
    # The stacked callers' one way into the core, and the one-problem fit's;
    # collapse._fit_logistic's np.linalg.solve is no call of the core.
    assert _sites_of(callees, "solve", besides={"np.linalg.solve"}) == {
        ("iv", "_solve"),
        ("wls", "fit_wls"),
    }
    # One builder of a block's stacks, for the grid and for the screen.
    assert _sites_of(callees, "_stacks") == {
        ("iv", "GridPlan.fit_block"),
        ("iv", "first_stage_fs"),
    }


def test_per_problem_views_are_built_only_by_the_one_problem_fit():
    _, calls, _ = package_sites()
    assert calls["ProblemFit"] == {("wls", "fit_wls")}


def test_floating_point_errors_are_silenced_only_where_they_end_in_typed_errors():
    _, calls, _ = package_sites()
    assert calls["errstate"] == {
        ("dgp", "generate"),
        ("iv", "GridPlan.fit_block"),
        ("iv", "GridPlan.summarise"),
        ("iv", "wald_late"),
        ("iv", "first_stage_fs"),
        ("mc", "_evaluate_block"),
        ("mc", "bias_and_mce"),
        ("wls", "solve"),
    }


def test_loadtxt_is_called_only_by_the_plain_block_reader():
    _, calls, _ = package_sites()
    assert calls["loadtxt"] == {("cli", "_table_values")}


def test_csv_reader_is_called_only_by_the_csv_row_reader():
    _, calls, _ = package_sites()
    assert calls["reader"] == {("cli", "_csv_rows")}
