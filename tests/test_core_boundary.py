"""The regression core's boundary, read from the package source.

Every least-squares fit goes through ``wls.solve``.  So linear algebra
(``np.linalg``, ``scipy.linalg`` and LAPACK) is called only in ``wls`` and
in ``collapse._fit_logistic``, the one stated exception, a
``DesignFit`` is built only by ``wls.solve`` and by the two-stage fit's
structural-residual fit (``iv._late``), and a per-problem ``ProblemFit``
view only by ``wls.fit_wls``, so the grid reads whole stacks.  Floating
point errors are silenced only at the ``np.errstate`` sites listed here,
each of which ends every non-finite value in a typed error.  The source is
parsed, not imported.
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
    """Records ``(module, enclosing function)`` of each linear-algebra use
    and each ``DesignFit(...)``, ``ProblemFit(...)`` and ``errstate(...)``
    call."""

    def __init__(self, module):
        self.module, self.scope = module, []
        self.linalg, self.lapack_names = set(), set()
        self.calls = {"DesignFit": set(), "ProblemFit": set(), "errstate": set()}

    def _site(self):
        return (self.module, ".".join(self.scope))

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Import(self, node):
        if any(_is_linalg(alias.name) for alias in node.names):
            self.linalg.add(self._site())

    def visit_ImportFrom(self, node):
        if node.module and _is_linalg(node.module):
            self.linalg.add(self._site())
            self.lapack_names.update(alias.asname or alias.name for alias in node.names)

    def visit_Attribute(self, node):
        name = _dotted(node)
        if name is not None and _is_linalg(name):
            self.linalg.add(self._site())
            return
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name) and func.id in self.lapack_names:
            self.linalg.add(self._site())
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in self.calls:
            self.calls[name].add(self._site())
        self.generic_visit(node)


def package_sites():
    linalg, design_fits, problem_fits, errstates = set(), set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        sites = _Sites(path.stem)
        sites.visit(ast.parse(path.read_text(encoding="utf-8")))
        linalg |= sites.linalg
        design_fits |= sites.calls["DesignFit"]
        problem_fits |= sites.calls["ProblemFit"]
        errstates |= sites.calls["errstate"]
    return linalg, design_fits, problem_fits, errstates


def test_linear_algebra_is_called_only_in_the_core_and_the_logistic_fit():
    linalg, *_ = package_sites()
    outside = {site for site in linalg if site[0] != "wls"}
    assert outside == {("collapse", "_fit_logistic")}
    # The core itself is seen: its imports, its QR and its LAPACK call.
    assert {("wls", ""), ("wls", "solve"), ("wls", "_back_substitute")} <= linalg


def test_fits_are_built_only_by_the_core_and_the_structural_residual_fit():
    _, design_fits, *_ = package_sites()
    assert design_fits == {("wls", "solve"), ("iv", "_late")}


def test_per_problem_views_are_built_only_by_the_one_problem_fit():
    _, _, problem_fits, _ = package_sites()
    assert problem_fits == {("wls", "fit_wls")}


def test_floating_point_errors_are_silenced_only_where_they_end_in_typed_errors():
    *_, errstates = package_sites()
    assert errstates == {("cli", "main"), ("iv", "GridPlan.fit_block"), ("iv", "wald_late")}
