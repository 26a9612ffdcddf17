"""Dense oracles of the closure checks: commutators of the N x N matrices themselves.

commutator_residuals forms every commutator densely and projects it onto a
span in 2 N^2 real coordinates. dense_span_residuals is
partition._span_residuals measured that way on the spaces' own matrices,
and dense_closure_table the partition._closure_table built from it;
read_densely patches the latter in, so that verify_closure and
CartanSplit.validate read the matrices instead of the slot forms.
"""

import numpy as np

import cartankak.cartan as cartan
import cartankak.partition as partition
from cartankak._linalg import STRUCT_TOL, span_rank, span_rows


def commutator_residuals(left, right, rows):
    """project_residual(-1j [a, b], rows) for every a in left (axis 0), b in right (axis 1),
    and the norms |[a, b]|.

    [Hermitian, Hermitian] is i times a Hermitian matrix and spans use real
    coefficients, hence the -1j. A residual is 0 where |[a, b]| < STRUCT_TOL.
    The right operand is stacked and the left one looped over.
    """
    stack = np.asarray(right, dtype=complex)
    out, sizes = np.zeros((2, len(left), len(stack)))
    for i, a in enumerate(left):
        flat = (-1j * (a @ stack - stack @ a)).reshape(len(stack), -1)
        vecs = np.concatenate([flat.real, flat.imag], axis=1)
        sizes[i] = norms = np.linalg.norm(vecs, axis=1)
        resid = np.linalg.norm(vecs - (vecs @ rows.T) @ rows, axis=1)
        out[i] = np.where(norms < STRUCT_TOL, 0.0, resid / np.maximum(norms, STRUCT_TOL))
    return out, sizes


def dense_span_residuals(spaces, items):
    """partition._span_residuals of the spaces' own matrices, every commutator formed densely."""
    mats = [space.matrices for space in spaces]
    x = np.reshape([m for ms in mats for m in ms], (sum(map(len, mats)), -1)).view(float)
    starts = np.cumsum([0] + [len(ms) for ms in mats[:-1]])
    trace = np.abs(x @ x.T)
    trace = np.maximum.reduceat(np.maximum.reduceat(trace, starts, axis=0), starts, axis=1)
    rows = [span_rows(ms) for ms in mats] + [np.zeros((0, x.shape[1]))]  # the last: no target
    measured = [[commutator_residuals(mats[left], mats[right], rows[t]) for t in targets or [-1]]
                for left, right, targets, *_ in items]
    residuals = [np.min([res for res, _ in m], axis=0) for m in measured]
    return ([len(r) for r in rows[:-1]] + [span_rank(m for ms in mats for m in ms)], residuals,
            [r.max() for r in residuals], [m[0][1].max() for m in measured], trace)


def dense_closure_table(qa, spaces, names, specs):
    return partition._Closure(tuple(spaces), names, specs, *dense_span_residuals(spaces, specs))


def read_densely(monkeypatch):
    """Route every closure table through dense_closure_table; returns the list of its calls."""
    calls = []

    def table(*args):
        calls.append(1)
        return dense_closure_table(*args)

    for module in (partition, cartan):
        monkeypatch.setattr(module, "_closure_table", table)
    return calls


def forbid_dense_commutators(monkeypatch):
    """Make every routine that forms N x N commutators or spans in src/ raise, and patch
    the oracle in as a raise where src/ kept it before."""
    def fail(*args):
        raise AssertionError("an N x N commutator or span was formed")

    for module in (partition, cartan):
        for name in ("all_commute", "span_rows", "span_rank", "in_span", "commutator_residuals"):
            monkeypatch.setattr(module, name, fail, raising=False)
    monkeypatch.setattr(partition.gen, "commutator_numeric", fail)
