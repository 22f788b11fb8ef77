"""The echelon routine and the solvers built on it, over F_p and over Z.

``rref_with_transform`` gives the reduced row echelon form over a field and
the row Hermite form over the integers.  Its outputs feed canonical basis
keys, poset labels and reports, so besides checking the defining
properties this file pins the exact bits of every routine on seeded random
matrices.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import symposet
from symposet import linalg
from symposet.linalg import (bareiss_det, canonical_span_basis, left_kernel,
                             mat_mul, matrix_rank, right_kernel,
                             rref_with_transform, solve_left)
from symposet.rings import ZZ, PrimeField

RINGS = [PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7), ZZ]

# sha256 of the canonical JSON dump of _dump(); it changes only when some
# routine below returns different bits on some seeded case
PINNED_DUMP = "a8fc278fbcef602710625bc8ed0349d2defe310d70847347b0b80884f318f851"


def _entry(ring, rnd):
    if ring.is_field():
        return rnd.randrange(ring.p)
    return rnd.randint(-6, 6)


def _random_matrix(ring, rnd, n, m):
    return [[_entry(ring, rnd) for _ in range(m)] for _ in range(n)]


def _cases(ring, seed, count):
    """(M, ncols) pairs: empty, zero, full random and rank-deficient ones."""
    rnd = random.Random(seed)
    out = [([], 0), ([], 3), ([[0, 0, 0]], 3), ([[0] * 4 for _ in range(3)], 4)]
    for i in range(count):
        n = rnd.randint(1, 5)
        m = rnd.randint(1, 6)
        if i % 3 == 2 and min(n, m) > 1:
            k = rnd.randint(1, min(n, m) - 1)
            M = mat_mul(ring, _random_matrix(ring, rnd, n, k),
                        _random_matrix(ring, rnd, k, m), bcols=m)
        else:
            M = _random_matrix(ring, rnd, n, m)
        out.append((M, m))
    return out


def _dump(count=60):
    records = []
    for seed, ring in enumerate(RINGS):
        rnd = random.Random(1000 + seed)
        for M, m in _cases(ring, seed, count):
            inside = (mat_mul(ring, [[_entry(ring, rnd) for _ in M]], M, bcols=m)[0]
                      if M else [0] * m)
            outside = [_entry(ring, rnd) for _ in range(m)]
            records.append({
                "ring": ring.name,
                "M": M,
                "ncols": m,
                "echelon": rref_with_transform(ring, M, m),
                "rank": matrix_rank(ring, M, m),
                "left_kernel": left_kernel(ring, M, m),
                "right_kernel": right_kernel(ring, M, m),
                "span": canonical_span_basis(ring, M, m),
                "solve": [solve_left(ring, M, inside, m),
                          solve_left(ring, M, outside, m)],
            })
    return records


def _digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_outputs_match_the_pinned_bits():
    assert _digest(_dump()) == PINNED_DUMP


def _is_echelon(ring, R, pivots):
    """Reduced echelon over a field, Hermite form over Z."""
    for i, row in enumerate(R):
        lead = next((j for j, x in enumerate(row) if x), None)
        if i >= len(pivots):
            if lead is not None:
                return False
            continue
        pc = pivots[i]
        if lead != pc or (i and pivots[i - 1] >= pc):
            return False
        p = row[pc]
        if ring.is_field() and p != 1:
            return False
        if p <= 0:
            return False
        for r in range(len(R)):
            if r != i and not 0 <= R[r][pc] < p:
                return False
            if r > i and R[r][pc]:
                return False
    return True


def _random_invertible(ring, rnd, n):
    """A product of random elementary row operations."""
    U = linalg.identity(n)
    for _ in range(3 * n):
        i, j = rnd.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = _entry(ring, rnd)
            U[i] = [ring.reduce(a + c * b) for a, b in zip(U[i], U[j])]
        if rnd.random() < 0.3:
            unit = rnd.randrange(1, ring.p) if ring.is_field() else -1
            U[i] = [ring.reduce(unit * a) for a in U[i]]
    return U


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_echelon_properties(ring):
    rnd = random.Random(7)
    for M, m in _cases(ring, 11, 150):
        R, T, pivots = rref_with_transform(ring, M, m)
        if M:
            assert mat_mul(ring, T, M, bcols=m) == R
        else:
            assert R == [] and T == []
        assert _is_echelon(ring, R, pivots)
        det = bareiss_det(T)
        if ring.is_field():
            assert ring.reduce(det) != 0
        else:
            assert det in (1, -1)
        if M:
            U = _random_invertible(ring, rnd, len(M))
            assert rref_with_transform(ring, mat_mul(ring, U, M, bcols=m), m)[0] == R


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_solve_left_and_kernels(ring):
    rnd = random.Random(3)
    for M, m in _cases(ring, 5, 100):
        if not M:
            continue
        y = [_entry(ring, rnd) for _ in M]
        b = mat_mul(ring, [y], M, bcols=m)[0]
        x = solve_left(ring, M, b, m)
        assert x is not None and mat_mul(ring, [x], M, bcols=m)[0] == b
        b = [_entry(ring, rnd) for _ in range(m)]
        x = solve_left(ring, M, b, m)
        if x is not None:
            assert mat_mul(ring, [x], M, bcols=m)[0] == b
        elif ring.is_field():
            assert matrix_rank(ring, M + [b], m) > matrix_rank(ring, M, m)
        K = left_kernel(ring, M, m)
        assert len(K) == len(M) - matrix_rank(ring, M, m)
        for k in K:
            assert not any(mat_mul(ring, [k], M, bcols=m)[0])


def test_solve_left_over_Z_needs_integer_coefficients():
    assert solve_left(ZZ, [[2, 0], [0, 3]], [4, 9]) == [2, 3]
    assert solve_left(ZZ, [[2, 0], [0, 3]], [1, 0]) is None
    assert solve_left(ZZ, [[2, 4]], [1, 2]) is None


def test_matrix_rank_over_Z_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    for M, m in _cases(ZZ, 23, 200):
        want = sympy.Matrix(len(M), m, [x for row in M for x in row]).rank()
        assert matrix_rank(ZZ, M, m) == want


def test_shape_checks_survive_optimized_python():
    # under -O a plain assert let mat_mul drop the third entry of a row
    # ([[3]]), bareiss_det reduce a ragged matrix (-2), solve_left read a
    # vector longer than A's rows, and rho_vector divide by a vector whose
    # last coordinate is zero
    code = """
from symposet.builders import rho_vector
from symposet.linalg import bareiss_det, mat_mul, solve_left
from symposet.rings import ZZ

def run(check):
    try:
        print(check())
    except ValueError as e:
        print(e)

run(lambda: mat_mul(ZZ, [[1, 2, 3]], [[1], [1]]))
run(lambda: mat_mul(ZZ, [[1]], []))
run(lambda: bareiss_det([[1, 2], [3, 4, 5]]))
run(lambda: solve_left(ZZ, [[1, 0]], [1, 0, 0]))
run(lambda: rho_vector(ZZ, (1, 0), (0, 3), 2))
"""
    src = os.path.dirname(os.path.dirname(symposet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "factor shapes do not fit",
        "need bcols for an empty right factor",
        "determinant needs a square matrix",
        "b must have one entry per column of A",
        "pivot vector needs a nonzero last coordinate",
    ]


# -- the span kernel against tuple arithmetic ------------------------------

def tuple_extend(space, mask, v):
    """Mask of span(S + v) by tuple arithmetic: every member of S plus
    every nonzero multiple of v, one tuple per member per multiple."""
    p = space.p
    multiples = [[c * x % p for x in v] for c in range(1, p)]
    out = mask
    for i in linalg.set_bits(mask):
        w = space.vectors[i]
        for cv in multiples:
            out |= 1 << space.index[tuple((a + b) % p for a, b in zip(w, cv))]
    return out


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5)
                                 for n in range(1, 7)] + [(2, 8)])
def test_span_kernel_matches_tuple_arithmetic(p, n):
    rng = random.Random(100 * p + n)
    space = linalg.PackedSpace(p, n)
    everything = (1 << p ** n) - 1
    zero = 1  # the zero subspace holds the zero vector only
    trials = 40 if p ** n <= 729 else 4
    for _ in range(trials):
        mask = reference = zero
        for _ in range(rng.randrange(n + 2)):
            v = [rng.randrange(-p, 2 * p) for _ in range(n)]
            mask = space.extend(mask, v)
            reference = tuple_extend(space, reference, v)
            assert mask == reference
        v = [rng.randrange(p) for _ in range(n)]
        # the zero subspace grows to the line through v; the whole space
        # and the zero vector change nothing
        assert space.extend(zero, v) == tuple_extend(space, zero, v)
        assert space.extend(everything, v) == everything
        assert space.extend(mask, [0] * n) == mask
    assert space.span_mask(linalg.identity(n)) == everything
    assert space.span_mask([]) == zero


def _span_by_combinations(space, basis):
    """Mask of every linear combination of the basis rows."""
    p = space.p
    n = len(space.vectors[0])
    mask = 0
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = [0] * n
        for c, row in zip(coeffs, basis):
            v = [(a + c * b) % p for a, b in zip(v, row)]
        mask |= 1 << space.index[tuple(v)]
    return mask


@pytest.mark.parametrize("p,g", [(3, 2), (2, 3)])
def test_unimodular_members_match_their_combinations(p, g):
    from symposet.symplectic import (SymplecticModule,
                                     enumerate_unimodular_submodules)
    L = SymplecticModule.standard(PrimeField(p), g)
    space = L.packed()
    for S in enumerate_unimodular_submodules(L):
        assert S.members() == _span_by_combinations(space, S.basis)
