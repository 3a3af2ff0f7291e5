from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singforms.corpus import CORPUS
from singforms.icis import ProblemInstance, algebra, tau_prime
from singforms.polyring import Poly, parse
from singforms.quadforms import (
    FormGenerator,
    GramForm,
    _congruence,
    gram_qa,
    gram_qomega,
    im_lambda_basis,
    lambda_map,
    lambda_poly,
    qomega_numeric,
    rank_inequalities_hold,
    shuffle_sign,
)
from singforms.residuefn import LimitConfig, make_sampler

from oracles import (
    congruence,
    cusp,
    elkh,
    example2_bridge_map,
    ex1,
    gram_by_pairs,
    mult_operator_rank,
)

VS2 = ["x1", "x2"]
VS3 = ["x1", "x2", "x3"]
CFG = LimitConfig()


def alpha_beta_generators(n):
    gens = []
    for i in range(n):
        gens.append(FormGenerator(Poly.one(n), tuple(j for j in range(n) if j != i)))
    for i in range(n):
        gens.append(
            FormGenerator(Poly.variable(i, n), tuple(j for j in range(n) if j != i))
        )
    return gens


@pytest.fixture(scope="module")
def ex1_n2_ctx():
    inst = ex1(2, (1, 2))
    alg = algebra(inst)
    sampler = make_sampler(inst, CFG, 42, expected=alg.colength)
    qa = gram_qa(inst, alg, sampler)
    return inst, alg, sampler, qa


@pytest.fixture(scope="module")
def cusp_ctx():
    inst = cusp()
    alg = algebra(inst)
    sampler = make_sampler(inst, CFG, 42, expected=alg.colength)
    qa = gram_qa(inst, alg, sampler)
    return inst, alg, sampler, qa


# ---- Q^A -----------------------------------------------------------------------

def test_gram_qa_ex1_n2(ex1_n2_ctx):
    _, alg, _, qa = ex1_n2_ctx
    # basis (1, x1, x2, x2^2): nonzero entries R(x1^2) = 1/2 on (x1, x1),
    # R(x2^2) = -1/2 on (x2, x2) and (1, x2^2)
    want = [
        ["0", "0", "0", "-1/2"],
        ["0", "1/2", "0", "0"],
        ["0", "0", "-1/2", "0"],
        ["-1/2", "0", "0", "0"],
    ]
    assert qa.exact == [[Fraction(v) for v in row] for row in want]
    assert qa.rank_signature() == (4, 0)
    assert qa.max_numeric_exact_dev < 1e-10


class _FixedSampler:
    """R with the given distinct values r on the basis; r_c rationalizes
    exactly, except at the basis indices in ``unrational``."""

    def __init__(self, r, unrational=()):
        self.r, self.unrational = np.asarray(r, dtype=complex), set(unrational)

    def basis_values(self, basis):
        return self.r

    def rational(self, value):
        i = int(np.flatnonzero(self.r == value)[0])
        return None if i in self.unrational else Fraction(value.real)


_MOMENT_CASES = [ex1(2, (1, 2)), ex1(3, (1, 2, 4)), cusp()] + [
    CORPUS[name].instance() for name in ("ex2_n3", "four_lines", "elkh_z3")
]


@pytest.mark.parametrize(
    "inst", _MOMENT_CASES, ids=["ex1_n2", "ex1_n3", "cusp", "ex2_n3", "four_lines", "elkh_z3"]
)
def test_moment_matrix_matches_pairwise_contraction(inst):
    """The Gram read off one value per product equals the contraction of
    every pair's normal form: numeric, exact and the failed entries, also
    when some r_c do not rationalize."""
    alg = algebra(inst)
    nu = alg.colength
    rng = np.random.default_rng(nu)
    r = (rng.permutation(256)[:nu] - 128) / 16 + 1j * rng.integers(-4, 4, nu) / 2**40
    for unrational in ([], [nu - 1], [0, nu // 2]):
        qa = gram_qa(inst, alg, _FixedSampler(r, unrational))
        rats = [None if i in unrational else Fraction(v.real) for i, v in enumerate(r)]
        numeric, exact, failed = gram_by_pairs(alg, r, rats)
        assert np.array_equal(qa.numeric, numeric)
        assert (qa.exact, qa.failed_entries) == (exact, failed)
        assert (exact is None) == bool(unrational)


def test_gram_qa_identity_pattern(ex1_n2_ctx):
    """Q(1, x_i^2) = Q(x_i, x_i) for the quadric family."""
    _, alg, _, qa = ex1_n2_ctx
    i1 = alg.basis.index((0, 2))
    ix2 = alg.basis.index((0, 1))
    assert qa.exact[0][i1] == qa.exact[ix2][ix2]


def test_gram_qa_trivial_instance():
    inst = ProblemInstance(
        2, 1, [parse("x1", VS2)], [Poly.zero(2), Poly.variable(1, 2)]
    )
    alg = algebra(inst)
    qa = gram_qa(inst, alg, make_sampler(inst, CFG, 42, expected=alg.colength))
    assert qa.exact == [[Fraction(1)]]
    assert qa.rank_signature() == (1, 1)


def test_gram_qa_reduction_independence(ex1_n2_ctx):
    """Entries through normal forms equal the limits of the raw products."""
    inst, alg, sampler, qa = ex1_n2_ctx
    for a in range(len(alg.basis)):
        for b in range(a, len(alg.basis)):
            raw = Poly.monomial(tuple(x + y for x, y in zip(alg.basis[a], alg.basis[b])))
            assert abs(qa.numeric[a][b] - sampler.r_of([raw])[0]) < 1e-8


@pytest.mark.parametrize("n,a", [(2, (1, 2)), (3, (1, 2, 4)), (4, (1, 2, 4, 8))])
def test_gram_qa_against_closed_form_limit(n, a):
    """Every Gram entry against the exact hand-derived limit values."""
    from oracles import ex1_r_limit

    inst = ex1(n, a)
    alg = algebra(inst)
    sampler = make_sampler(inst, CFG, 42, expected=alg.colength)
    qa = gram_qa(inst, alg, sampler)
    for i in range(len(alg.basis)):
        for j in range(i, len(alg.basis)):
            exps = tuple(x + y for x, y in zip(alg.basis[i], alg.basis[j]))
            assert qa.exact[i][j] == ex1_r_limit(n, a, exps)


def test_seed_independence_of_exact_results():
    """A different seed picks a different generic ray; exact data agree."""
    inst = cusp()
    alg = algebra(inst)
    for seed in (7, 2024):
        sampler = make_sampler(inst, CFG, seed, expected=alg.colength)
        qa = gram_qa(inst, alg, sampler)
        want = [
            [Fraction(0), Fraction(0), Fraction(0), Fraction(1, 3)],
            [Fraction(0), Fraction(0), Fraction(1, 3), Fraction(0)],
            [Fraction(0), Fraction(1, 3), Fraction(0), Fraction(0)],
            [Fraction(1, 3), Fraction(0), Fraction(0), Fraction(0)],
        ]
        assert qa.exact == want


def test_rank_signature_numeric_fallback():
    g = GramForm(labels=["a", "b"], numeric=np.diag([1.0, 0.0]), exact=None)
    rank, sig = g.rank_signature()
    assert rank == 1 and sig is None


# ---- the comparison map ---------------------------------------------------------

def test_lambda_map_ex1_n2(ex1_n2_ctx):
    inst, alg, _, _ = ex1_n2_ctx
    # Lambda(dx2) = 2 x1 (chart block K = {0}, positive shuffle)
    v = lambda_map(inst, FormGenerator(Poly.one(2), (1,)), alg)
    want = [Fraction(0)] * 4
    want[alg.basis.index((1, 0))] = Fraction(2)
    assert v == want
    # Lambda(beta_1) = 2 x1^2 = -2 x2^2 in the algebra
    v2 = lambda_map(inst, FormGenerator(Poly.variable(0, 2), (1,)), alg)
    want2 = [Fraction(0)] * 4
    want2[alg.basis.index((0, 2))] = Fraction(-2)
    assert v2 == want2


def test_lambda_map_smooth():
    inst = ProblemInstance(
        2, 1, [parse("x1", VS2)], [Poly.zero(2), Poly.variable(1, 2)]
    )
    alg = algebra(inst)
    # f = x1: Lambda(h dx2) = h
    v = lambda_map(inst, FormGenerator(Poly.one(2), (1,)), alg)
    assert v == [Fraction(1)]


def test_shuffle_sign():
    assert shuffle_sign((), (0, 1)) == 1
    assert shuffle_sign((0,), (1,)) == 1
    assert shuffle_sign((1,), (0,)) == -1
    assert shuffle_sign((0, 2), (1,)) == -1
    assert shuffle_sign((1, 2), (0,)) == 1


def test_lambda_poly_sign_convention():
    inst = cusp()
    # df ^ dx = -f_y dx ^ dy reading the shuffle sign for K = {1}
    lp = lambda_poly(inst, FormGenerator(Poly.one(2), (0,)))
    assert lp == parse("3*y^2", ["x", "y"])
    lp2 = lambda_poly(inst, FormGenerator(Poly.one(2), (1,)))
    assert lp2 == parse("2*x", ["x", "y"])


# ---- Q^Omega --------------------------------------------------------------------

def test_qomega_ex1_n3_paper_values():
    inst = ex1(3, (1, 2, 4))
    alg = algebra(inst)
    sampler = make_sampler(inst, CFG, 42, expected=alg.colength)
    qa = gram_qa(inst, alg, sampler)
    gens = alpha_beta_generators(3)
    qo = gram_qomega(inst, gens, alg, qa)
    # the alpha-diagonal is 2 / prod_{j != i}(a_j - a_i), convention-free
    diag = [qo.gram.exact[i][i] for i in range(6)]
    assert diag == [
        Fraction(2, 3),
        Fraction(-1),
        Fraction(1, 3),
        Fraction(0),
        Fraction(0),
        Fraction(0),
    ]
    # all off-diagonal entries vanish
    for i in range(6):
        for j in range(6):
            if i != j:
                assert qo.gram.exact[i][j] == 0
    assert qo.rank == 3
    assert qo.im_lambda_dim == alg.colength - tau_prime(inst)
    # two-route agreement on a diagonal and an off-diagonal pair
    table = qomega_numeric(gens, sampler)
    v = table[1][1]
    assert abs(v - (-1)) < 1e-8
    v2 = table[0][3]
    assert abs(v2) < 1e-8


def test_qomega_numeric_trivial():
    inst = ProblemInstance(
        2, 1, [parse("x1", VS2)], [Poly.zero(2), Poly.variable(1, 2)]
    )
    v = qomega_numeric([FormGenerator(Poly.one(2), (1,))], make_sampler(inst, CFG, 42, 1))[0][0]
    assert abs(v - 1.0) < 1e-10


def test_qomega_cusp_vanishes(cusp_ctx):
    inst, alg, sampler, qa = cusp_ctx
    gens = [
        FormGenerator(Poly.one(2), (1,)),
        FormGenerator(Poly.variable(0, 2), (1,)),
    ]
    qo = gram_qomega(inst, gens, alg, qa)
    assert all(v == 0 for row in qo.gram.exact for v in row)
    assert qo.rank == 0
    v = qomega_numeric(gens, sampler)[0][0]
    assert abs(v) < 1e-8


def test_convention_freeness_under_equation_scaling(ex1_n2_ctx):
    """Scaling f by c = 3 scales R by 1/9 and Lambda by 3; the module form
    entries stay fixed (the well-defined quadratic differential)."""
    inst, alg, sampler, qa = ex1_n2_ctx
    scaled = ProblemInstance(2, 1, [3 * inst.f[0]], inst.A)
    alg_s = algebra(scaled)
    sampler_s = make_sampler(scaled, CFG, 42, expected=alg_s.colength)
    # R scales by 1/c^2
    base = sampler.rational(sampler.r_of([parse("x1^2", VS2)])[0])
    scaled_r = sampler_s.rational(sampler_s.r_of([parse("x1^2", VS2)])[0])
    assert scaled_r == base / 9
    # Lambda scales by c
    g = FormGenerator(Poly.one(2), (1,))
    assert lambda_poly(scaled, g) == 3 * lambda_poly(inst, g)
    # Q^Omega entries are unchanged
    qa_s = gram_qa(scaled, alg_s, sampler_s)
    gens = alpha_beta_generators(2)
    qo = gram_qomega(inst, gens, alg, qa)
    qo_s = gram_qomega(scaled, gens, alg_s, qa_s)
    assert qo.gram.exact == qo_s.gram.exact
    assert qo.rank == qo_s.rank


# ---- inequalities ----------------------------------------------------------------

def test_inequalities_dataclass():
    assert rank_inequalities_hold(
        nu=6, tau=1, rank_qa=5, rank_qomega=3, im_lambda_dim=5, omega_dim=6
    )
    assert not rank_inequalities_hold(
        nu=6, tau=1, rank_qa=3, rank_qomega=5, im_lambda_dim=5, omega_dim=6
    )


# ---- ELKh and the bridge ----------------------------------------------------------

def test_elkh_identity():
    g, alg, _ = elkh([Poly.variable(0, 2), Poly.variable(1, 2)], CFG, 42)
    assert alg.colength == 1
    assert g.exact == [[Fraction(1)]]
    assert g.rank_signature() == (1, 1)


def test_elkh_z3_signature_is_local_degree():
    maps = [parse("x^3 - 3*x*y^2", ["x", "y"]), parse("3*x^2*y - y^3", ["x", "y"])]
    g, alg, sampler = elkh(maps, CFG, 42)
    assert alg.colength == 9
    rank, sig = g.rank_signature()
    assert rank == 9  # nondegenerate
    assert sig == 3  # topological degree of the cube map on a small circle
    # R applied to the Jacobian of the map counts the preimages
    jac = maps[0].diff(0) * maps[1].diff(1) - maps[0].diff(1) * maps[1].diff(0)
    assert sampler.rational(sampler.r_of([jac])[0]) == 9


def test_elkh_nondegenerate_on_corpus_algebras():
    maps = [parse("x^2 - y^3", ["x", "y"]), parse("3*y^2", ["x", "y"])]
    g, alg, _ = elkh(maps, CFG, 42)
    assert g.rank_signature()[0] == alg.colength


def test_elkh_z2_signature():
    """The square map (real form of z -> z^2) has local degree 2."""
    maps = [parse("x^2 - y^2", ["x", "y"]), parse("2*x*y", ["x", "y"])]
    g, alg, _ = elkh(maps, CFG, 42)
    assert alg.colength == 4
    assert g.rank_signature() == (4, 2)


def test_elkh_odd_fold_signature():
    """(x^3 + x y^2, y) is one-to-one over the reals: local degree 1."""
    maps = [parse("x^3 + x*y^2", ["x", "y"]), parse("y", ["x", "y"])]
    g, alg, _ = elkh(maps, CFG, 42)
    assert alg.colength == 3
    rank, sig = g.rank_signature()
    assert rank == 3 and sig == 1


def test_example2_bridge_cusp(cusp_ctx):
    """For plane curves the two forms coincide entrywise (with the minor-row
    map, signs included)."""
    inst, alg, sampler, qa = cusp_ctx
    bmap = example2_bridge_map(inst)
    assert bmap[1] == parse("3*y^2", ["x", "y"])
    ge, alg_e, _ = elkh(bmap, CFG, 42)
    assert alg_e.basis == alg.basis
    assert ge.exact == qa.exact


def test_example2_bridge_weighted_n3():
    """Q^A(phi1, phi2) = Q_map((df/dx1)^{n-2} phi1, phi2) for n = 3."""
    inst = ProblemInstance(
        3, 1, [parse("x1^2 + x2^2 + x3^3", VS3)],
        [Poly.one(3), Poly.zero(3), Poly.zero(3)],
    )
    alg = algebra(inst)
    sampler = make_sampler(inst, CFG, 42, expected=alg.colength)
    qa = gram_qa(inst, alg, sampler)
    bmap = example2_bridge_map(inst)
    ge, alg_e, sampler_e = elkh(bmap, CFG, 42)
    assert alg_e.basis == alg.basis
    p = inst.f[0].diff(0)  # 2 x1, exponent n - 2 = 1
    nb = len(alg.basis)
    for a in range(nb):
        for b in range(a, nb):
            w = p * Poly.monomial(alg.basis[a]) * Poly.monomial(alg.basis[b])
            lhs = qa.numeric[a][b]
            rhs = sampler_e.r_of([w])[0]
            assert abs(lhs - rhs) < 1e-8
    # rank of Q^A equals the rank of multiplication by (df/dx1)^{n-2}
    assert qa.rank_signature()[0] == mult_operator_rank(alg, p)
    # rank of the module form equals the rank of multiplication by
    # (df/dx1)^n (the pairing transports both comparison factors)
    gens = [
        FormGenerator(Poly.one(3), (1, 2)),
        FormGenerator(Poly.variable(0, 3), (1, 2)),
        FormGenerator(Poly.variable(2, 3), (1, 2)),
    ]
    qo = gram_qomega(inst, gens, alg, qa)
    assert qo.rank == mult_operator_rank(alg, p ** inst.n)


def test_signature_congruence_matches_eigenvalues(ex1_n2_ctx, cusp_ctx):
    for ctx in (ex1_n2_ctx, cusp_ctx):
        qa = ctx[3]
        rank, sig = qa.rank_signature()
        ev = np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in qa.exact]))
        scale = max(1.0, float(np.max(np.abs(ev))))
        num_sig = int(np.sum(ev > 1e-9 * scale)) - int(np.sum(ev < -1e-9 * scale))
        num_rank = int(np.sum(np.abs(ev) > 1e-9 * scale))
        assert (rank, sig) == (num_rank, num_sig)


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def _congruence_inputs(draw):
    """(B, G): up to four rows B over a d x d matrix G, d in 0..4, with
    zero entries, zero rows and an empty B among the draws."""
    d = draw(st.integers(0, 4))
    entry = st.one_of(st.just(Fraction(0)), _RATIONALS)
    B = draw(st.lists(st.lists(entry, min_size=d, max_size=d), max_size=4))
    if draw(st.booleans()):
        B.insert(draw(st.integers(0, len(B))), [Fraction(0)] * d)
    G = draw(st.lists(st.lists(_RATIONALS, min_size=d, max_size=d), min_size=d, max_size=d))
    return B, G


@given(_congruence_inputs())
@settings(max_examples=80, deadline=None)
def test_integer_congruence_matches_fraction_congruence(data):
    """``_congruence`` on integers gives the Fraction matrix of the plain
    (B G) B^T, entry for entry."""
    B, G = data
    got = _congruence(B, G)
    assert got == congruence(B, G)
    assert all(isinstance(v, Fraction) for row in got for v in row)
