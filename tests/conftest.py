import itertools

from hypothesis import settings

from dposet.linalg import identity_matrix, mat_mul, mat_transpose
from dposet.poset_core import DoublePoset

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


def random_unimodular_symmetric(rng, size):
    """Conjugate a random certificate-shaped block matrix by elementary ops."""
    blocks = []
    total = 0
    while total < size:
        if size - total >= 2 and rng.random() < 0.4:
            blocks.append("hyperbolic")
            total += 2
        else:
            blocks.append(rng.choice(["plus_one", "minus_one"]))
            total += 1
    D = [[0] * size for _ in range(size)]
    k = 0
    for b in blocks:
        if b == "hyperbolic":
            D[k][k + 1] = D[k + 1][k] = 1
            k += 2
        else:
            D[k][k] = 1 if b == "plus_one" else -1
            k += 1
    U = identity_matrix(size)
    if size >= 2:
        for _ in range(2 * size):
            i, j = rng.sample(range(size), 2)
            c = rng.choice((-1, 1))
            for col in range(size):
                U[i][col] += c * U[j][col]
    return mat_mul(mat_mul(U, D), mat_transpose(U))


def restrict_by_labels(P, labels):
    """Reference restriction: every relation of a kept label is read label by
    label and renamed through a dict from old to new labels."""
    keep = sorted(set(labels))
    index = {a: i for i, a in enumerate(keep)}

    def project(order):
        rows = []
        for a in keep:
            mask = 0
            for b in keep:
                if P.less(a, b, order):
                    mask |= 1 << index[b]
            rows.append(mask)
        return rows

    return DoublePoset._from_masks(len(keep), project(1), project(2))


def ideals_by_subsets(P):
    """Reference up-sets: the label subsets closed upward in the first order,
    in (size, labels) order."""
    labels = range(1, P.n + 1)
    return [
        frozenset(S)
        for k in range(P.n + 1)
        for S in itertools.combinations(labels, k)
        if all(b in S for a in S for b in labels if P.less(a, b))
    ]
