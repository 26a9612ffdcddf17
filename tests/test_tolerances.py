"""Every threshold lives in the tolerance table at the top of _linalg.py.

Source files are tokenized, so numbers inside strings and comments do not
count. A small numeric literal anywhere else is a threshold that skipped the
table, and a table entry that no module reads is dead. No function takes its
threshold from the caller. The acceptance corpus puts each input property at
half and at twice its threshold, and every site that checks it must accept the
first and reject the second.
"""

import ast
import io
import tokenize
from pathlib import Path

import numpy as np
import pytest

import cartankak.generators as gen
from cartankak._linalg import STRUCT_TOL, all_commute, slot_commute, slot_forms
from cartankak.errors import InvalidMatrixError
from cartankak.generators import Generator, to_lambda_basis
from cartankak.partition import diagonalize_abelian

SRC = Path(__file__).resolve().parent.parent / "src" / "cartankak"
MODULES = sorted(SRC.glob("*.py"))
TABLE = SRC / "_linalg.py"


def table_entries():
    """name -> line of each module-level `*_TOL = <number>` in _linalg.py."""
    out = {}
    for node in ast.parse(TABLE.read_text()).body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.endswith("_TOL")
            and isinstance(node.value, ast.Constant)
        ):
            out[node.targets[0].id] = node.lineno
    return out


def small_literals(source):
    """(line, text) of every numeric literal with 0 < |value| < 1e-5."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [
        (tok.start[0], tok.string)
        for tok in tokens
        if tok.type == tokenize.NUMBER and 0 < abs(complex(tok.string)) < 1e-5
    ]


def test_table_is_not_empty():
    assert {"STRUCT_TOL", "ACCEPT_TOL", "SOLVE_TOL", "CLUSTER_TOL"} <= set(table_entries())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_small_literal_outside_the_table(path):
    allowed = set(table_entries().values()) if path == TABLE else set()
    stray = [f"{path.name}:{line}: {text}" for line, text in small_literals(path.read_text())
             if line not in allowed]
    assert stray == []


def test_every_table_name_is_read():
    reads = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
    assert sorted(set(table_entries()) - reads) == []


def test_literal_scan_sees_through_strings_and_comments():
    sample = 'x = 1e-9  # 1e-12\ny = "1e-10"\nz = 0.5 * 2e-7j\n'
    assert small_literals(sample) == [(1, "1e-9"), (3, "2e-7j")]



def tol_parameters(source):
    """Lines of the functions, methods and lambdas that take a parameter named tol."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
            if any(x.arg == "tol" for x in params):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_takes_a_tol_parameter(path):
    """A threshold is the table's, never a caller's."""
    assert tol_parameters(path.read_text()) == []


def test_tol_scan_sees_every_parameter_kind():
    sample = ("def f(a, tol=1): pass\nclass C:\n    def g(self, *, tol): pass\n"
              "h = lambda **tol: 0\ndef k(tolerance, atol): pass\n")
    assert tol_parameters(sample) == [1, 3, 4]


# ---------------------------------------------------------------------------
# Acceptance corpus. Each property is read at STRUCT_TOL times max(1, |m|), or
# max(1, |a| |b|) for commuting; a norm of 0.5 puts the threshold at STRUCT_TOL
# itself and a norm of 4 at 4 or 16 times it.
# ---------------------------------------------------------------------------

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def hermitian_case(factor, norm):
    """A traceless matrix of norm `norm` whose anti-Hermitian part |m - m^dag| is
    factor * STRUCT_TOL * max(1, norm)."""
    m = norm / np.sqrt(2) * SX
    m[0, 1] += factor * STRUCT_TOL * max(1.0, norm) / np.sqrt(2)
    return m


def traceless_case(factor, norm):
    """A Hermitian matrix of norm `norm` with trace factor * STRUCT_TOL * max(1, norm)."""
    x = norm / np.sqrt(2)
    return np.diag([x + factor * STRUCT_TOL * max(1.0, norm), -x]).astype(complex)


def commuting_case(factor, norm):
    """Two matrices of norm `norm` on one slot label with
    |[a, b]| = factor * STRUCT_TOL * max(1, norm^2)."""
    alpha = norm / np.sqrt(2)
    delta = factor * STRUCT_TOL * max(1.0, norm * norm) / (2 * np.sqrt(2) * alpha)
    return [alpha * SX, alpha * SX + delta * SY]


CASES = {"hermitian": hermitian_case, "traceless": traceless_case, "commuting": commuting_case}
def on_forms(m):
    """The checks a basis built from labels runs on its slot forms (generators._basis)."""
    return gen._basis([None], 2, slot_forms(m[None]) + (None, None))


SITES = {
    "hermitian": {"Generator": lambda m: Generator(None, 2, m), "to_lambda_basis": to_lambda_basis,
                  "simultaneous_diagonalize": lambda m: diagonalize_abelian([m]),
                  "_basis": on_forms},
    "traceless": {"Generator": lambda m: Generator(None, 2, m), "to_lambda_basis": to_lambda_basis,
                  "_basis": on_forms},
    "commuting": {"all_commute": all_commute,
                  "slot_commute": lambda mats: slot_commute(*slot_forms(mats))},
}
REJECTED = {"hermitian": "not Hermitian", "traceless": "not traceless", "commuting": "rejected"}
CORPUS = [(prop, site, factor, norm) for prop in SITES for site in SITES[prop]
          for factor in (0.5, 2.0) for norm in (0.5, 4.0)]


def outcome(prop, site, factor, norm):
    """The word accepted, or what the site says when it rejects the corpus input."""
    try:
        ok = SITES[prop][site](CASES[prop](factor, norm))
    except InvalidMatrixError as exc:
        return str(exc)
    return "accepted" if ok is not False else "rejected"


@pytest.mark.parametrize("prop, site, factor, norm", CORPUS,
                         ids=["-".join(map(str, case)) for case in CORPUS])
def test_corpus_is_accepted_below_the_threshold_and_rejected_above(prop, site, factor, norm):
    got = outcome(prop, site, factor, norm)
    assert got.endswith("accepted" if factor < 1 else REJECTED[prop])
