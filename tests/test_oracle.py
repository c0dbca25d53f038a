"""The oracle is independent of the library's linear algebra and agrees
with the row-form references."""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from extlab import oracle
from f2ref import BitMatrix, kernel_basis, rref, subspace_from_rows


def test_oracle_imports_nothing_from_extlab():
    tree = ast.parse(Path(oracle.__file__).read_text())
    modules = [
        "." * node.level + (node.module or "") for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ] + [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert not [m for m in modules if m.startswith((".", "extlab"))], modules


@st.composite
def matrices(draw, max_dim=24):
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    return BitMatrix(rows, cols, [draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)])


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_oracle_elimination_matches_the_references(m):
    kernel = oracle.kernel(m.columns(), m.rows)
    assert len(kernel) == m.cols - rref(m).rank
    assert subspace_from_rows(kernel, m.cols) == kernel_basis(m)
    assert oracle.rank(list(m.data)) == rref(m).rank
