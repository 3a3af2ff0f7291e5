import itertools
from fractions import Fraction

import numpy as np
import pytest

from singforms import critpts, residuefn
from singforms.corpus import CORPUS
from singforms.critpts import DeformationFamily, StackedPolys, solve_family_at
from singforms.icis import ProblemInstance, algebra, build_ideal
from singforms.pipeline import AnalysisConfig, analyze
from singforms.polyring import Poly, parse
from singforms.quadforms import FormGenerator, gram_qa, qomega_numeric
from singforms.residuefn import (
    LimitConfig,
    NonConvergentError,
    ResidueSampler,
    make_sampler,
    verify_class_invariance,
    verify_ideal_vanishing,
)

from oracles import cusp, ex1

VS2 = ["x1", "x2"]
VS3 = ["x1", "x2", "x3"]


@pytest.fixture(scope="module")
def ex1_n2_sampler():
    return make_sampler(ex1(2, (1, 2)), LimitConfig(), 42, 4)


@pytest.fixture(scope="module")
def ex1_n3_sampler():
    return make_sampler(ex1(3, (1, 2, 4)), LimitConfig(), 42, 6)


def test_limit_config_validation():
    with pytest.raises(ValueError):
        LimitConfig(radii=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        LimitConfig(samples=15)
    # one radius or a repeated radius leaves nothing to compare
    with pytest.raises(ValueError):
        LimitConfig(radii=(1e-2,))
    with pytest.raises(ValueError):
        LimitConfig(radii=(1e-2, 1e-2))
    # radii must be finite and positive, the tolerance finite and positive,
    # the denominator bound at least 1
    for radii in [(1e-2, float("nan")), (1e-2, 0.0), (float("inf"), 1e-2), (1e-2, -5e-3)]:
        with pytest.raises(ValueError):
            LimitConfig(radii=radii)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            LimitConfig(tol_match=tol)
    with pytest.raises(ValueError):
        LimitConfig(max_denominator=0)


# ---- R at a fixed deformation: the sum over one point set, no limit ------------

def _r_at(inst, p, phi, expected, seed):
    """sum phi/Jtilde over the critical points of the family at the point p."""
    ps = solve_family_at(DeformationFamily(inst), np.array(p), expected, np.random.default_rng(seed))
    return complex(np.sum(StackedPolys([phi], inst.n).eval(ps.x)[:, 0] / ps.jtilde))


def test_r_at_closed_form():
    inst = ex1(2, (1, 2))
    u = (0.01, 0.0, 0.0)
    # 2 * eps / (4 eps (a2 - a1)) = 1/2
    v = _r_at(inst, u, parse("x1^2", VS2), expected=4, seed=3)
    assert abs(v - 0.5) < 1e-12
    # an equation vanishes on the fiber at every deformation
    v0 = _r_at(inst, u, inst.f[0] - Fraction(1, 100), expected=4, seed=3)
    assert abs(v0) < 1e-12


def test_r_at_k0():
    inst = ProblemInstance(2, 0, [], [Poly.variable(0, 2), Poly.variable(1, 2)])
    assert abs(_r_at(inst, (0.2, 0.1), Poly.one(2), expected=1, seed=1) - 1.0) < 1e-12


# ---- limits -------------------------------------------------------------------

def test_r_limit_ex1_n2(ex1_n2_sampler):
    s = ex1_n2_sampler
    assert s.rational(s.r_of([parse("x1^2", VS2)])[0]) == Fraction(1, 2)
    assert s.rational(s.r_of([parse("x2^2", VS2)])[0]) == Fraction(-1, 2)
    assert s.rational(s.r_of([Poly.one(2)])[0]) == 0
    assert s.rational(s.r_of([parse("x1", VS2)])[0]) == 0


def test_r_limit_ex1_n3(ex1_n3_sampler):
    s = ex1_n3_sampler
    assert s.rational(s.r_of([Poly.one(3)])[0]) == 0
    for i in range(3):
        assert s.rational(s.r_of([Poly.variable(i, 3)])[0]) == 0
    # 2 / prod(a_j - a_i) in the Delta^2 J normalization carries the unit 1/4
    assert s.rational(s.r_of([parse("x1^2", VS3)])[0]) == Fraction(1, 6)
    assert s.rational(s.r_of([parse("x2^2", VS3)])[0]) == Fraction(-1, 4)
    assert s.rational(s.r_of([parse("x3^2", VS3)])[0]) == Fraction(1, 12)


def test_linearity(ex1_n2_sampler):
    s = ex1_n2_sampler
    p, q = parse("x1^2", VS2), parse("x2^2 + x1", VS2)
    lhs = s.r_of([3 * p - 2 * q])[0]
    rhs = 3 * s.r_of([p])[0] - 2 * s.r_of([q])[0]
    assert abs(lhs - rhs) < 2e-8


def test_realness(ex1_n3_sampler):
    for probe in ["x1^2", "x2^2", "x1*x2", "x3^2"]:
        v = ex1_n3_sampler.r_of([parse(probe, VS3)])[0]
        assert abs(v.imag) < 1e-8
        assert ex1_n3_sampler.rational(v) is not None


def test_circle_mean_stability_halved_radius():
    cfg = LimitConfig(radii=(1e-2, 5e-3, 2.5e-3))
    s = make_sampler(ex1(2, (1, 2)), cfg, 42, 4)
    sp = StackedPolys([parse("x1^2", VS2)], 2)
    g = s.grid  # the three circles one after another
    means = (sp.eval(g.x)[:, 0] / g.jtilde).reshape(3, -1).sum(axis=1) / cfg.samples
    assert abs(means[1] - means[2]) < 1e-8
    assert abs(means[0] - means[1]) < 1e-8


def test_non_convergent_reports():
    cfg = LimitConfig(tol_match=1e-18)
    s = make_sampler(ex1(2, (1, 2)), cfg, 42, 4)
    with pytest.raises(NonConvergentError) as exc:
        s.r_of([parse("x1^2", VS2)])
    assert len(exc.value.deviations) == 2


def test_batch_independence(ex1_n2_sampler):
    """A batched limit gives each probe the value it has on its own."""
    s = ex1_n2_sampler
    p, q = parse("x1^2", VS2), parse("x2^2 + 3*x1^2 + x1*x2", VS2)
    batch = [s.rational(v) for v in s.r_of([p, q, p + q])]
    assert batch == [
        s.rational(s.r_of([r])[0]) for r in (p, q, p + q)
    ]
    assert batch[2] == batch[0] + batch[1]


def test_non_convergent_names_probe_in_batch(monkeypatch):
    cfg = LimitConfig(tol_match=1e-18)
    s = make_sampler(ex1(2, (1, 2)), cfg, 42, 4)
    for block_rows in (residuefn._BLOCK_ROWS, 7):  # 7 splits a sample's point set
        monkeypatch.setattr(residuefn, "_BLOCK_ROWS", block_rows)
        # the zero probe has identical means at both radii and passes
        with pytest.raises(NonConvergentError) as exc:
            s.r_of([Poly.zero(2), parse("x1^2", VS2)], ["zero probe", "square probe"])
        assert "square probe" in str(exc.value)
        assert "zero probe" not in str(exc.value)


def test_row_blocks_match_unblocked_sums(monkeypatch, ex1_n2_sampler):
    """Blocks that split a sample's point set (7 rows against 4 per
    sample) give the limits of one evaluation over each whole circle, to
    1e-13 relative in the scale the circle means are compared in."""
    s = ex1_n2_sampler
    probes = [parse(p, VS2) for p in ("x1^2", "x2^2 + 3*x1", "x1*x2 - 1")]
    gens = [FormGenerator(c, (i,)) for c in (Poly.one(2), parse("x1", VS2)) for i in (0, 1)]

    def limits(block_rows):
        monkeypatch.setattr(residuefn, "_BLOCK_ROWS", block_rows)
        return (
            s.r_of(probes),
            qomega_numeric(gens, s).ravel(),
        )

    for blocked, whole in zip(limits(7), limits(len(s.grid))):
        scale = np.maximum(1.0, np.maximum(np.abs(blocked), np.abs(whole)))
        assert np.all(np.abs(blocked - whole) <= 1e-13 * scale)
        assert np.any(blocked != 0)


def test_empty_grid_gives_zero_limits():
    """With no critical points (a map germ not vanishing at the origin) the
    grids are empty and every limit is 0."""
    inst = ProblemInstance(2, 0, [], [parse("1 + x1", VS2), parse("x2", VS2)])
    s = make_sampler(inst, LimitConfig(), 42, expected=0)
    assert len(s.grid) == 0
    assert [s.rational(v) for v in s.r_of([Poly.one(2), parse("x1^2", VS2)])] == [0, 0]
    assert qomega_numeric([FormGenerator(Poly.one(2), (0, 1))], s).tolist() == [[0j]]


@pytest.mark.parametrize(
    "samples,batches",
    [(32, [2] * 15 + [2 * (32 - 16)]), (18, [2] * 17)],
    ids=["fill", "chain_only"],
)
def test_base_sampler_makes_chain_batches_then_one_fill_batch(monkeypatch, samples, batches):
    """Both circles advance in lockstep along a chain of 16 angles: 15 warm
    batches of two samples, then one batch of every other sample of both
    circles.  Below 32 samples the chain is every sample, with no fill."""
    warm, calls = critpts.solve_warm, []

    def counting(family, P, starts, expected):
        calls.append(len(P))
        return warm(family, P, starts, expected)

    monkeypatch.setattr(critpts, "solve_warm", counting)
    make_sampler(ex1(2, (1, 2)), LimitConfig(samples=samples), 42, 4)
    assert calls == batches


def test_sampler_makes_one_point_set_per_grid(monkeypatch):
    """The circles' first samples make no point set, as their fresh solves
    return rows, and the finished grid is the one point set, for two radii
    and however many samples."""
    point_set, calls = critpts._point_set, []

    def counting(family, P, Xs, diagnostics=None):
        calls.append(len(P))
        return point_set(family, P, Xs, diagnostics)

    monkeypatch.setattr(critpts, "_point_set", counting)
    s = make_sampler(ex1(2, (1, 2)), LimitConfig(samples=16), 42, 4)
    assert calls == [2 * 16]
    assert len(s.grid) == 2 * 16 * 4
    assert np.array_equal(s.grid.p[::4], np.concatenate(
        [critpts.circle(r * s.direction, 16) for r in s.cfg.radii]
    ))


def test_r_limit_surface_and_seed_independence():
    """Different seeds use different generic rays; exact limits agree."""
    inst = ex1(2, (1, 2))
    for seed in (7, 123):
        s = make_sampler(inst, LimitConfig(), seed, 4)
        v = s.r_of([parse("x1^2", VS2)])[0]
        assert s.rational(v) == Fraction(1, 2)
        assert s.max_probe_deviation < 1e-8


# ---- verification suites -------------------------------------------------------

def test_ideal_vanishing_ex1(ex1_n2_sampler):
    inst = ex1(2, (1, 2))
    alg = algebra(inst)
    rep = verify_ideal_vanishing(inst, alg, ex1_n2_sampler, 42)
    assert rep.ok
    assert rep.max_deviation < 1e-8
    gens = [name for name, _ in rep.entries if name.startswith("g")]
    assert len(gens) == 2 * 10  # two generators, ten multipliers each
    # one probe x^m - NF(x^m) per distinct product x^m = e_a e_b that is not
    # itself a basis monomial, named after its first pair a <= b
    products = [name for name, _ in rep.entries if name.startswith("e")]
    firsts = {}
    for a, b in itertools.combinations_with_replacement(range(len(alg.basis)), 2):
        firsts.setdefault(tuple(x + y for x, y in zip(alg.basis[a], alg.basis[b])), (a, b))
    nonstd = [ab for m, ab in firsts.items() if m not in alg.basis]
    assert products == [f"e{a}*e{b}-NF" for a, b in nonstd]
    assert len(products) == 5  # x1^2, x1 x2, x1 x2^2, x2^3, x2^4


def test_ideal_vanishing_cusp():
    inst = cusp()
    rep = verify_ideal_vanishing(
        inst, algebra(inst), make_sampler(inst, LimitConfig(), 42, 4), 42
    )
    assert rep.ok


def test_ideal_vanishing_catches_a_wrong_structure_constant(monkeypatch, ex1_n2_sampler):
    """A corrupted coordinate of one basis product, which would change the
    Gram of Q^A, fails ideal vanishing on that product's probe."""
    inst = ex1(2, (1, 2))
    alg = algebra(inst)
    c = alg.basis.index((0, 2))  # R(x2^2) = -1/2, so a wrong x2^2 coordinate shows
    index, monomials, forms = alg.products
    forms = [list(nf) for nf in forms]
    forms[index[0][c]][c] += 1

    want = gram_qa(inst, alg, ex1_n2_sampler).exact
    monkeypatch.setattr(alg, "products", (index, monomials, forms))
    assert gram_qa(inst, alg, ex1_n2_sampler).exact != want
    rep = verify_ideal_vanishing(inst, alg, ex1_n2_sampler, 42)
    assert not rep.ok
    assert max(rep.entries, key=lambda e: e[1])[0] == f"e0*e{c}-NF"
    assert rep.max_deviation > 0.4


def _twisted(inst, eta, h):
    """The instance with A_j + f_1 eta_j + h df_1/dx_j in place of A_j."""
    f = inst.f[0]
    A = [a + f * e + h * f.diff(j) for j, (a, e) in enumerate(zip(inst.A, eta))]
    return ProblemInstance(inst.n, inst.k, inst.f, A)


def test_class_invariance_explicit():
    """omega' = omega + f eta + h df leaves every probe unchanged: the
    twisted instance, solved cold, gives the base instance's R."""
    inst = ex1(2, (1, 2))
    probes = [parse(s, VS2) for s in ["1", "x1", "x2", "x1^2"]]
    base = make_sampler(inst, LimitConfig(), 42, 4).r_of(probes)
    # eta = dx1 (coefficients (1, 0)), then eta = 0 with h = x2
    for eta, h in [
        ([Poly.one(2), Poly.zero(2)], Poly.zero(2)),
        ([Poly.zero(2), Poly.zero(2)], Poly.variable(1, 2)),
    ]:
        twisted = make_sampler(_twisted(inst, eta, h), LimitConfig(), 42, 4)
        assert np.abs(twisted.r_of(probes) - base).max() < 1e-8


def test_class_invariance_suite(monkeypatch):
    monkeypatch.setattr(residuefn, "_VARIANTS", 2)
    inst = ex1(2, (1, 2))
    sampler = make_sampler(inst, LimitConfig(), 42, 4)
    rep = verify_class_invariance(inst, algebra(inst), sampler, 42)
    assert rep.ok
    assert rep.max_deviation < 1e-8
    assert len(rep.entries) == 2 * 4  # two variants, four basis monomials


def test_circle_mean_stability_sees_the_twisted_grids(monkeypatch):
    """The reported circle-mean stability covers every limit of the
    analysis, the twisted columns' included: class invariance is one
    ``limit`` over the base grid, the last of the analysis, with
    ``_VARIANTS * nu`` variant columns whose deviations reach
    ``max_probe_deviation`` through ``limit`` itself, and no other sampler
    is made."""
    made, calls = [], []

    class Recording(ResidueSampler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        def limit(self, values, labels):
            # the call's own deviations alone, then merged as limit merges them
            before, self.max_probe_deviation = self.max_probe_deviation, 0.0
            out = super().limit(values, labels)
            calls.append((list(labels), self.max_probe_deviation))
            self.max_probe_deviation = max(before, self.max_probe_deviation)
            return out

    monkeypatch.setattr(residuefn, "ResidueSampler", Recording)
    res = analyze(cusp(), AnalysisConfig())
    (sampler,) = made
    twisted = [(labels, dev) for labels, dev in calls if labels[0].startswith("variant")]
    assert len(twisted) == 1 and calls[-1] == twisted[0]
    labels, dev = twisted[0]
    assert len(labels) == residuefn._VARIANTS * 4
    assert all(label.startswith("variant") for label in labels)
    assert 0 < dev <= sampler.max_probe_deviation
    (check,) = [c for c in res.checks if c.name == "circle_mean_stability"]
    assert check.detail == f"max_rel_dev={sampler.max_probe_deviation:.3e}"


@pytest.mark.parametrize("name", ["cusp", "ex1_n4", "four_lines"])
def test_twisted_jtilde_is_the_base_jtilde(name):
    """At the base grid's points with lambda_1 shifted by h(x), every
    twist's Jtilde equals the base grid's within 1e-12 relative: the twist
    adds to J the row operation eta df_1^T, the column operation
    df_1 grad h^T and a term (f_1 - eps_1) d eta that vanishes there.  This
    is why class invariance passes, and also why it cannot see an error in
    the twist's Jacobian terms: test_critical_system_twisted_cusp checks
    them against a hand-written Jacobian, and
    test_class_invariance_cusp_cold_start solves a twisted instance from
    scratch."""
    inst = CORPUS[name].instance()
    sampler = make_sampler(inst, LimitConfig(samples=16), 42, algebra(inst).colength)
    grid, n = sampler.grid, inst.n
    twists = np.random.default_rng(42 + 202).integers(-2, 3, size=(residuefn._VARIANTS, n + 1, n + 1))
    for C in twists:
        F, J = residuefn._twist(*sampler.family.system(grid.p, grid.X), grid.x, C)
        assert np.abs(F).max() < residuefn._TWIST_RESIDUAL
        jtilde = sampler.family.jacobian_data(J)[0]
        assert (np.abs(jtilde - grid.jtilde) <= 1e-12 * np.abs(grid.jtilde)).all()


def test_class_invariance_cusp_cold_start():
    """The cusp twisted by (eta, h) = ((y, 1 - x), 2x), a plain instance
    solved from scratch, gives the base R on every basis monomial."""
    vs = ["x", "y"]
    twisted = _twisted(cusp(), [parse("y", vs), parse("1 - x", vs)], parse("2*x", vs))
    probes = [Poly.monomial(m) for m in [(0, 0), (1, 0), (0, 1), (1, 1)]]
    base, cold = (make_sampler(inst, LimitConfig(), 42, 4).r_of(probes) for inst in (cusp(), twisted))
    assert np.abs(cold - base).max() < 1e-8


def test_one_family_per_analysis(monkeypatch):
    """An analysis of the cusp, class invariance included, builds one
    DeformationFamily: every twist's system is built from that family's."""
    init, built = DeformationFamily.__init__, []

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DeformationFamily, "__init__", counting)
    res = analyze(cusp(), AnalysisConfig(limit=LimitConfig(samples=16)))
    assert [c.ok for c in res.checks if c.name == "class_invariance"] == [True]
    assert len(built) == 1


@pytest.mark.parametrize("variants", [1, 5])
def test_class_invariance_evaluates_the_system_once_per_block(monkeypatch, variants):
    """Class invariance calls ``DeformationFamily.system`` once per row
    block of the grid, at the base rows, whatever the number of twists:
    each twist's system is built from that one evaluation."""
    inst, alg = cusp(), algebra(cusp())
    sampler = make_sampler(inst, LimitConfig(samples=16), 42, 4)
    monkeypatch.setattr(residuefn, "_VARIANTS", variants)
    monkeypatch.setattr(residuefn, "_BLOCK_ROWS", 24)
    system, calls = DeformationFamily.system, []

    def counting(self, P, X):
        calls.append((P, X))
        return system(self, P, X)

    monkeypatch.setattr(DeformationFamily, "system", counting)
    rep = verify_class_invariance(inst, alg, sampler, 42)
    assert rep.ok and len(rep.entries) == variants * 4
    assert [len(X) for _, X in calls] == [24, 24, 16] * 2  # 64 rows per circle
    assert np.array_equal(np.concatenate([P for P, _ in calls]), sampler.grid.p)
    assert np.array_equal(np.concatenate([X for _, X in calls]), sampler.grid.X)


def test_class_invariance_failed_sample_raises_without_fresh_solve(monkeypatch):
    """A base grid row moved by 1e-6 is no zero of any twisted system:
    class invariance raises CountMismatchError naming the variant, and
    solves nothing, fresh or warm, as a solve at the same p would end at
    the same exact zeros."""
    inst, alg = cusp(), algebra(cusp())
    sampler = make_sampler(inst, LimitConfig(samples=16), 42, 4)
    sampler.basis_values(alg.basis)  # the base vector r, kept, before the row moves
    sampler.grid.X[5, 0] += 1e-6
    solves = []

    def recording(name):
        def record(*args):
            solves.append(name)
        return record

    monkeypatch.setattr(critpts, "solve_fresh", recording("solve_fresh"))
    monkeypatch.setattr(critpts, "solve_warm", recording("solve_warm"))
    with pytest.raises(critpts.CountMismatchError) as exc:
        verify_class_invariance(inst, alg, sampler, 42)
    assert str(exc.value).startswith("class invariance: variant 0 has residual")
    assert exc.value.diagnostics is sampler.stats
    assert solves == []
