"""Checks of the outputs that are certificates rather than canonical text.

A later change to ``dposet.linalg`` may legitimately return another
transform or isometry, so these outputs are checked by their defining
equations, in this module's own exact integer arithmetic and not with
``dposet.linalg``.  Each check returns ``None`` or the reason it failed.
"""

import json
from fractions import Fraction
from math import lcm

BLOCKS = {"plus_one": [[1]], "minus_one": [[-1]], "hyperbolic": [[0, 1], [1, 0]]}


def mat_mul(A, B):
    columns = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in columns] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def det(A):
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    M = [list(row) for row in A]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if M[i][k]), None)
            if pivot is None:
                return 0
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def block_diagonal(blocks):
    size = sum(len(BLOCKS[b]) for b in blocks)
    out = [[0] * size for _ in range(size)]
    k = 0
    for b in blocks:
        for i, row in enumerate(BLOCKS[b]):
            out[k + i][k : k + len(row)] = row
        k += len(BLOCKS[b])
    return out


def _json(text, kind):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        return None, f"output is not a {kind}"
    return payload, None


def check_certificate(matrix, text):
    """``diagonalize``: T A T^T = block_matrix, det T = +-1, and the named
    blocks make up block_matrix."""
    cert, error = _json(text, "certificate")
    if error:
        return error
    if cert["matrix"] != matrix:
        return "certificate is for another matrix"
    if any(b not in BLOCKS for b in cert["blocks"]):
        return "unknown block name"
    T, D = cert["transform"], cert["block_matrix"]
    if D != block_diagonal(cert["blocks"]):
        return "blocks do not make up block_matrix"
    if mat_mul(mat_mul(T, matrix), transpose(T)) != D:
        return "T A T^T != block_matrix"
    if det(T) not in (1, -1):
        return "det T is not +-1"
    return None


def parse_gauss(text):
    """A Gaussian rational printed as ``a/b+c/d*I`` as a (real, imag) pair."""
    try:
        if not text.endswith("*I"):
            return Fraction(text), Fraction(0)
        split = max(text.rfind("+"), text.rfind("-"))
        if split <= 0:
            return Fraction(0), Fraction(text[:-2])
        return Fraction(text[:split]), Fraction(text[split:-2])
    except ValueError:
        raise ValueError(f"bad scalar: {text!r}") from None


def check_isometry(source, target, text):
    """``isometry build``: S^T A S = B over the Gaussian rationals, checked on
    the integer pair R + iJ = L*S, with L the common denominator of S."""
    payload, error = _json(text, "matrix")
    if error:
        return error
    try:
        S = [[parse_gauss(x) for x in row] for row in payload["rows"]]
    except ValueError as exc:
        return str(exc)
    if len(S) != len(source) or any(len(row) != len(target) for row in S):
        return "isometry has the wrong shape"
    scale = lcm(*(x.denominator for row in S for pair in row for x in pair))
    R = [[int(re * scale) for re, _ in row] for row in S]
    J = [[int(im * scale) for _, im in row] for row in S]
    AR, AJ = mat_mul(source, R), mat_mul(source, J)
    Rt, Jt = transpose(R), transpose(J)
    real = [
        [x - y for x, y in zip(r1, r2)] for r1, r2 in zip(mat_mul(Rt, AR), mat_mul(Jt, AJ))
    ]
    imag = [
        [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(mat_mul(Rt, AJ), mat_mul(Jt, AR))
    ]
    if real != [[scale * scale * b for b in row] for row in target]:
        return "S^T A S != B (real part)"
    if any(any(row) for row in imag):
        return "S^T A S != B (imaginary part)"
    return None
