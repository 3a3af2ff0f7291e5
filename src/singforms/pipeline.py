"""Full analysis pipeline: algebra -> critical points -> limits -> forms.

One ``analyze`` call runs everything the report needs: dimensions, Gram
matrices, ranks/signatures, the named checks (ideal vanishing, class
invariance, module-dimension equality, two-route agreement, inequalities,
count certification, circle-mean stability) and solver diagnostics.  All
randomness flows from a single seed through fixed-order draws, so a report is
a deterministic function of (input, seed, config).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import critpts, icis, quadforms, residuefn
from .critpts import generic_direction
from .critpts import solve_family_at  # noqa: F401  perfbench/tracer.py wraps this binding
from .icis import ProblemInstance
from .localalg import INFINITE
from .polyring import Poly
from .quadforms import FormGenerator, GramForm
from .residuefn import LimitConfig


_COUNT_RUNS = 5  # generic deformations that count certification continues to


class NonIsolatedError(RuntimeError):
    """The ideal has infinite colength: the input is not an isolated instance."""


@dataclass
class AnalysisConfig:
    limit: LimitConfig = field(default_factory=LimitConfig)
    seed: int = 42
    exact: bool = True


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    tolerance: str


@dataclass
class AnalysisResult:
    mode: str
    variables: tuple
    inst: ProblemInstance
    nu: int
    tau: int
    omega_dim: int
    truncation_order: int
    basis: list
    gram_qa: GramForm
    rank_qa: object
    signature_qa: object
    qomega: quadforms.QOmegaResult
    qomega_numeric_entries: np.ndarray
    generators: list
    checks: list
    diagnostics: dict
    config: AnalysisConfig

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def default_generators(inst: ProblemInstance):
    """Coefficients 1 and x_i over every ascending (n-k)-subset."""
    import itertools

    gens = []
    subsets = list(itertools.combinations(range(inst.n), inst.n - inst.k))
    for L in subsets:
        gens.append(FormGenerator(Poly.one(inst.n), L))
    for i in range(inst.n):
        for L in subsets:
            gens.append(FormGenerator(Poly.variable(i, inst.n), L))
    return gens


def analyze(
    inst: ProblemInstance,
    config: AnalysisConfig | None = None,
    generators=None,
    mode: str = "icis",
    variables=None,
) -> AnalysisResult:
    config = config or AnalysisConfig()
    cfg = config.limit
    variables = tuple(variables or (f"x{i+1}" for i in range(inst.n)))

    alg = icis.algebra(inst)
    if alg.colength == INFINITE:
        raise NonIsolatedError("index_nu INFINITE: ideal has infinite colength")
    nu = alg.colength
    tau = icis.tau_prime(inst)
    omega_dim = icis.omega_module_dim(inst, alg)

    sampler = residuefn.make_sampler(inst, cfg, config.seed, expected=nu)
    qa = quadforms.gram_qa(inst, alg, sampler, want_exact=config.exact)
    rank_qa, signature_qa = qa.rank_signature()

    if generators is None:
        generators = default_generators(inst)
    qo = quadforms.gram_qomega(inst, generators, alg, qa)

    checks = []

    def check(name, ok, detail, tolerance):
        checks.append(CheckResult(name, ok, detail, tolerance))

    # two-route agreement on all generator pairs
    qomega_numeric_entries = quadforms.qomega_numeric(generators, sampler)
    lam = qo.gram.numeric  # the float values of the exact Gram when there is one
    scale = np.maximum(1.0, np.maximum(abs(qomega_numeric_entries), abs(lam)))
    max_two_route = float(np.max(abs(qomega_numeric_entries - lam) / scale))
    check("two_route_qomega", max_two_route < 1e-6, f"max_rel_dev={max_two_route:.3e}", "1e-06")

    # the functional vanishes on the ideal and, for k >= 1 only, depends only
    # on the class of the 1-form
    suites = {"ideal_vanishing": residuefn.verify_ideal_vanishing}
    if inst.k >= 1:
        suites["class_invariance"] = residuefn.verify_class_invariance
    for name, suite in suites.items():
        rep = suite(inst, alg, sampler, config.seed)
        check(name, rep.ok, f"max_dev={rep.max_deviation:.3e}", f"{cfg.tol_match:.0e}")

    check("module_dim_equality", omega_dim == nu, f"omega_dim={omega_dim} nu={nu}", "exact")

    if qo.rank is not None:
        check(
            "rank_inequalities",
            quadforms.rank_inequalities_hold(
                nu, tau, rank_qa, qo.rank, qo.im_lambda_dim, omega_dim
            ),
            f"rank_qa={rank_qa} rank_qomega={qo.rank} tau={tau} im_lambda_dim={qo.im_lambda_dim}",
            "exact",
        )

    # count certification: the nu points at the first sample of each circle,
    # continued to _COUNT_RUNS generic deformations by one batch of parameter
    # homotopies; a target passes when its arrivals from both circles are one
    # set of nu distinct points, and the passing targets' points are one
    # point set, whose residual and chart the check also requires
    count_rng, m = np.random.default_rng(config.seed + 77), inst.n + inst.k
    targets = cfg.radii[0] * np.array([generic_direction(count_rng, m) for _ in range(_COUNT_RUNS)])
    P0, starts = sampler.circle_starts()
    X, passed = critpts.solve_continued(sampler.family, P0, starts, targets, count_rng)
    certified, chart = critpts._point_set(sampler.family, targets[passed], X[passed, 0])
    worst_res = float(certified.residual.max(initial=0.0))
    check(
        "count_certification",
        passed.all() and chart.all() and worst_res < 1e-10,
        f"runs={_COUNT_RUNS} expected={nu} max_residual={worst_res:.3e}",
        "1e-10",
    )

    # circle-mean stability across the two smallest radii (all probes seen)
    dev = sampler.max_probe_deviation
    check("circle_mean_stability", dev < 1e-6, f"max_rel_dev={dev:.3e}", "1e-06")

    diagnostics = dict(sorted(sampler.stats.items()))
    diagnostics["radii"] = list(cfg.radii)
    diagnostics["samples"] = cfg.samples

    return AnalysisResult(
        mode=mode,
        variables=variables,
        inst=inst,
        nu=nu,
        tau=tau,
        omega_dim=omega_dim,
        truncation_order=alg.N,
        basis=list(alg.basis),
        gram_qa=qa,
        rank_qa=rank_qa,
        signature_qa=signature_qa,
        qomega=qo,
        qomega_numeric_entries=qomega_numeric_entries,
        generators=list(generators),
        checks=checks,
        diagnostics=diagnostics,
        config=config,
    )
