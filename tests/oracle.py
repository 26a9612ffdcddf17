"""Dense oracles of the closure checks: commutators of the N x N matrices themselves.

commutator_residuals forms every commutator densely and projects it onto a
span in 2 N^2 real coordinates. dense_span_residuals is
partition._span_residuals measured that way on the spaces' own matrices,
and dense_closure_table the partition._closure_table built from it;
read_densely patches the latter in, so that verify_closure and
CartanSplit.validate read the matrices instead of the slot forms.

reference_dumps is the JSON writer by one recursive dispatch per value, the
reference that serialize.dumps's float-grid and record paths must match byte
for byte.

dense_basis builds the word and lambda bases and their centers densely, as
the library did before they carried slot forms: every matrix formed, and the
word stack checked at once (generators_of_stack). Their matrices and
slot_forms are what the label-built bases must reproduce bit for bit.
"""

import itertools

import numpy as np

import cartankak.cartan as cartan
import cartankak.generators as gen
import cartankak.partition as partition
from cartankak._linalg import STRUCT_TOL, is_hermitian, is_traceless, span_rank, span_rows
from cartankak.generators import Generator, TensorWord


def word_matrices(sites):
    """Every Kronecker product of one matrix per site, as one (K, D, D) stack, in
    itertools.product order (the last site varies fastest)."""
    out = np.ones((1, 1, 1), dtype=complex)
    for mats in sites:
        mats = np.asarray(mats)
        k, d, s, e = len(out), out.shape[1], len(mats), mats.shape[1]
        out = out[:, None, :, None, :, None] * mats[None, :, None, :, None, :]
        out = out.reshape(k * s, d * e, d * e)
    return out


def generators_of_stack(labels, stack):
    """One Generator per label and matrix of a (k, N, N) stack, Generator's checks run on
    chunks of the stack; the first matrix that fails raises what Generator would raise."""
    stack = np.asarray(stack, dtype=complex)
    step = max(1, (1 << 13) // stack[0].size)
    for chunk in (stack[lo : lo + step] for lo in range(0, len(stack), step)):
        hermitian, traceless = is_hermitian(chunk), is_traceless(chunk)
        bad = np.flatnonzero(~(hermitian & traceless))
        if len(bad):
            gen._require(hermitian[bad[0]], traceless[bad[0]])
    stack.setflags(write=False)
    out = []
    for label, m in zip(labels, stack):
        g = object.__new__(Generator)
        g.__dict__.update(label=label, dim=len(m), matrix=m)
        out.append(g)
    return out


def dense_words(n, diagonal_only):
    symbols = [partition._site_symbols(d, diagonal_only) for d in gen.standard_sites(n)]
    mats = word_matrices([[gen.site_factors(s)[1] for s in syms] for syms in symbols])
    combos = itertools.islice(itertools.product(*symbols), 1, None)
    return generators_of_stack(map(TensorWord, combos), mats[1:])


def dense_basis(name, n):
    """The generators of partition's standard_basis, standard_word_center, lambda_basis or
    intrinsic_center (by name) at n, each with its matrix formed densely."""
    if name in ("standard_basis", "standard_word_center"):
        return dense_words(n, diagonal_only=name == "standard_word_center")
    center = [gen.make_diag(1, l, n) for l in range(2, n + 1)]
    if name == "intrinsic_center":
        return center
    return [make(i, j, n) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for make in (gen.make_lambda, gen.make_lambda_hat)] + center


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


def _quote(text):
    if "\\" in text or '"' in text:
        text = text.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + text + '"'


def _write(value, out):
    """The recursive writer serialize.dumps had before its float-grid and record paths."""
    kind = type(value)
    if kind is float:
        out.append(format(value, ".17g"))
    elif kind is str:
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format(float(value), ".17g"))
    elif isinstance(value, dict):
        out.append("{")
        for k, v in value.items():
            if out[-1] != "{":
                out.append(", ")
            out.append(_quote(str(k)) + ": ")
            _write(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for item in value:
            if out[-1] != "[":
                out.append(", ")
            _write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value)}")


def reference_dumps(value):
    """serialize.dumps by one dispatch per value: the reference its fast paths must match."""
    out = []
    _write(value, out)
    return "".join(out) + "\n"
