"""Shared fixture algebras, operators and modules used across the suite.

Every tuple in MRB_FIXTURES is (name, algebra, context, module) and passes
leibniz_defect, mrb_defect, rep_defect and mrb_rep_defect; tests rely on
that and re-assert it once in test_algebra.
"""

from fractions import Fraction as F

from mrbleib.algebra import LeibnizAlgebra, OperatorContext
from mrbleib.cohomology import zero_cone_cochain
from mrbleib.extensions import extension_from_cocycle
from mrbleib.linalg import Matrix, solve_right_inverse
from mrbleib.representations import Representation, regular_rep

# three-dimensional algebra with single product [e1,e1] = e3
G3 = LeibnizAlgebra(3, [(1, 1, 3, 1)])
# diag(1,0,0) is a modified Rota-Baxter operator of weight 1 on G3
K0 = OperatorContext(Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), F(1))
# a first-row-zero operator: weight 0 on G3
KZ = OperatorContext(Matrix([[0, 0, 0], [1, 0, 1], [0, 1, 1]]), F(0))

# two-dimensional Lie algebra [e1,e2] = e2 = -[e2,e1]
AFF = LeibnizAlgebra(2, [(1, 2, 2, 1), (2, 1, 2, -1)])
# the rotation operator has weight 1 on AFF
ROT = OperatorContext(Matrix([[0, -1], [1, 0]]), F(1))

# sl2: [e,f]=h, [h,e]=2e, [h,f]=-2f with basis (e, f, h)
SL2 = LeibnizAlgebra(3, [
    (1, 2, 3, 1), (2, 1, 3, -1),
    (3, 1, 1, 2), (1, 3, 1, -2),
    (3, 2, 2, -2), (2, 3, 2, 2),
])
# the identity is a modified Rota-Baxter operator of weight -1 on anything
SL2_ID = OperatorContext(Matrix.identity(3), F(-1))

# one-dimensional abelian algebra; any (K, weight) pair works
Z1 = LeibnizAlgebra(1, [])
Z1_K = OperatorContext(Matrix([[2]]), F(3))
Z1_ZERO = OperatorContext(Matrix([[0]]), F(0))


def z1_extensions():
    """Two direct-sum extensions of Z1 with K = 0 of weight 0 by a dim-1
    fiber with K_V = 0 and zero cocycle: the abelian total, and the total
    with [x, v] = v.  They induce different modules."""
    zero, one = Matrix.zeros(1, 1), Matrix.identity(1)
    pair = zero_cone_cochain(1, 1, 2)
    return tuple(
        extension_from_cocycle(Z1, Z1_ZERO, Representation(1, (left,), (zero,), zero), pair)
        for left in (zero, one)
    )


# one-dimensional module with zero action over (G3, K0); K_V = 2
TRIV1 = Representation(
    1,
    (Matrix.zeros(1, 1),) * 3,
    (Matrix.zeros(1, 1),) * 3,
    Matrix([[2]]),
)


def change_basis(alg, ctx, p):
    """The same algebra and operator in the basis e'_i = sum_k p[k, i] e_k."""
    inv = solve_right_inverse(p)
    cols = [p.column(i) for i in range(alg.dim)]
    entries = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            image = inv.apply(alg.bracket(cols[i], cols[j]))
            entries.extend((i + 1, j + 1, k + 1, c) for k, c in enumerate(image) if c)
    return LeibnizAlgebra(alg.dim, entries), OperatorContext(inv @ ctx.operator @ p, ctx.weight)


# sl2 split as span(e, h) + span(f): K = +1 on the first part and -1 on the
# second is modified Rota-Baxter of weight -1; a determinant-3 change of
# basis makes the structure constants and the operator fractional
SL2_ROT, SL2_ROT_K = change_basis(
    SL2,
    OperatorContext(Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]]), F(-1)),
    Matrix([[1, 1, 0], [0, 2, 1], [1, 0, 1]]),
)

MRB_FIXTURES = [
    ("g3-k0", G3, K0, regular_rep(G3, K0)),
    ("g3-kz", G3, KZ, regular_rep(G3, KZ)),
    ("g3-k0-triv", G3, K0, TRIV1),
    ("aff-rot", AFF, ROT, regular_rep(AFF, ROT)),
    ("sl2-id", SL2, SL2_ID, regular_rep(SL2, SL2_ID)),
    ("z1", Z1, Z1_K, regular_rep(Z1, Z1_K)),
]

# fixtures small enough for the degree-3 chain-map battery
CHAIN_MAP_FIXTURES = [f for f in MRB_FIXTURES if f[0] != "sl2-id"]
