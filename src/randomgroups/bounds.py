"""Closed-form bound evaluation and fillability probabilities.

All bound values are carried in log base 2m-1 (floats would overflow at
realistic l); exact rationals are attached whenever the exponent is an
integer.  Exhaustive tuple enumeration is the probability oracle; Monte
Carlo estimates come with Wilson 99% intervals and derived per-trial seeds
so runs are deterministic and embarrassingly parallel.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .diagrams import (
    ConstraintReport,
    Diagram,
    _count_partial_fillings,
    _search,
    belonging,
    compile_constraints,
    count_partial_fillings_vectorized,
)
from .errors import BudgetExceededError, DomainError, PreconditionError
from .model import check_seed, sample_presentation
from .words import Alphabet, enumerate_cyclically_reduced, rivin_count

DEFAULT_TUPLE_BUDGET = 10**7

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def wilson_interval(successes: int, trials: int, z: float = _Z99) -> tuple[float, float]:
    if trials <= 0:
        raise DomainError("Wilson interval needs at least one trial")
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class BoundReport:
    name: str
    value_log: float               # log base (2m-1)
    value: Fraction | None         # exact, when the exponent is integral
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value_log_base_2m_minus_1": self.value_log,
            "value_exact": None if self.value is None else str(self.value),
            "value_float": None if self.value is None else float(self.value),
            "inputs": {k: str(v) for k, v in self.inputs.items()},
        }


@dataclass
class FillProbability:
    exact: Fraction | None
    estimate: float
    trials: int
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        return {
            "exact": None if self.exact is None else str(self.exact),
            "estimate": self.estimate,
            "trials": self.trials,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def _logb(x: Fraction | float, base: int) -> float:
    if base < 2:
        raise DomainError("bounds are logs base 2m-1, so they need m >= 2")
    if isinstance(x, Fraction):
        return (math.log(x.numerator) - math.log(x.denominator)) / math.log(base)
    return math.log(x) / math.log(base)


def rule_out_bound(m: int, l: int, d) -> BoundReport:
    """The fillability rule-out value 2m(2m-1)^((d - 1/2)l)."""
    d = Fraction(d)
    if not (0 < d < Fraction(1, 2)):
        raise DomainError(f"need 0 < d < 1/2, got {d}")
    base = 2 * m - 1
    expo = (d - Fraction(1, 2)) * l
    value_log = _logb(Fraction(2 * m), base) + float(expo)
    value = None
    if expo.denominator == 1:
        value = Fraction(2 * m) * Fraction(base) ** expo.numerator
    return BoundReport(
        name="rule-out",
        value_log=value_log,
        value=value,
        inputs={"m": m, "l": l, "d": d},
    )


def rule_out_dominates(p: Fraction, m: int, l: int, d) -> bool:
    """Exact test p <= 2m(2m-1)^((d-1/2)l), valid for fractional exponents.

    With exponent u/v (v > 0) the comparison is p^v <= (2m)^v (2m-1)^u,
    cleared of negative powers; everything stays in integer arithmetic.
    """
    d = Fraction(d)
    if not (0 < d < Fraction(1, 2)):
        raise DomainError(f"need 0 < d < 1/2, got {d}")
    if p < 0:
        return True
    base = 2 * m - 1
    expo = (d - Fraction(1, 2)) * l
    u, v = expo.numerator, expo.denominator
    lhs = p**v
    rhs = Fraction(2 * m) ** v * Fraction(base) ** u
    return lhs <= rhs


@dataclass
class InductiveFillBound:
    position: int                   # 1-based, multiplicity-sorted
    E_i: int
    p_bound: Fraction               # exact (2m)^i (2m-1)^(-sum E_j)
    p_bound_log: float
    P_bound_log: float              # p bound plus i*d*l in the exponent


def inductive_fill_bounds(
    report: ConstraintReport, m: int, l: int, d
) -> list[InductiveFillBound]:
    """Cumulative per-index bounds p_i <= 2m(2m-1)^(-E_i) p_{i-1} and
    P_i <= (2m-1)^(i d l) p_i, with exact exponent arithmetic.

    Indices follow the report's multiplicity-sorted order.
    """
    d = Fraction(d)
    base = 2 * m - 1
    out = []
    esum = 0
    for pos in sorted(report.E_per_relator):
        esum += report.E_per_relator[pos]
        p_bound = Fraction(2 * m) ** pos * Fraction(1, base) ** esum
        p_log = pos * _logb(Fraction(2 * m), base) - esum
        P_log = p_log + float(pos * d * l)
        out.append(
            InductiveFillBound(
                position=pos,
                E_i=report.E_per_relator[pos],
                p_bound=p_bound,
                p_bound_log=p_log,
                P_bound_log=P_log,
            )
        )
    return out


def emanating_bound(k: int, m: int, l: int, d, beta, H, epsilon) -> BoundReport:
    """Log-form size bound for the emanating word set at length k:

        log = log_b(l^2/2) + (40k/(dl)) log_b(k) + (2β + 40/(dH) + ε)k + 4dl
    """
    d, beta, H, epsilon = Fraction(d), Fraction(beta), Fraction(H), Fraction(epsilon)
    if k <= 0 or l <= 0 or d <= 0 or H <= 0 or epsilon < 0:
        raise DomainError("emanating bound needs positive k, l, d, H and ε >= 0")
    if d >= Fraction(1, 2):
        raise DomainError("emanating bound needs d < 1/2")
    base = 2 * m - 1
    log_val = (
        _logb(Fraction(l * l, 2), base)
        + float(Fraction(40 * k) / (d * l)) * _logb(Fraction(k), base)
        + float((2 * beta + Fraction(40) / (d * H) + epsilon) * k)
        + float(4 * d * l)
    )
    return BoundReport(
        name="emanating-count",
        value_log=log_val,
        value=None,
        inputs={"k": k, "m": m, "l": l, "d": d, "beta": beta, "H": H, "epsilon": epsilon},
    )


@dataclass(frozen=True)
class TransferParams:
    d_t: Fraction
    epsilon: Fraction
    d_s: Fraction
    beta: Fraction
    eta: Fraction
    H: Fraction

    def to_dict(self) -> dict:
        return {k: str(getattr(self, k)) for k in ("d_t", "epsilon", "d_s", "beta", "eta", "H")}


def transfer_params(d_t) -> TransferParams:
    """The concrete low-density parameter choices for a target density d_t:

        ε = 1/2 - d_t, d_s = 1e-7 ε³, β = 1e-7 ε², η = (1/4)·1e-8 ε³,
        H = 40·1e14 ε⁻⁵   (all exact rationals).
    """
    d_t = Fraction(d_t)
    if not (Fraction(1, 8) <= d_t < Fraction(1, 2)):
        raise DomainError(f"need 1/8 <= d_t < 1/2, got {d_t}")
    eps = Fraction(1, 2) - d_t
    return TransferParams(
        d_t=d_t,
        epsilon=eps,
        d_s=Fraction(1, 10**7) * eps**3,
        beta=Fraction(1, 10**7) * eps**2,
        eta=Fraction(1, 4) * Fraction(1, 10**8) * eps**3,
        H=Fraction(40 * 10**14) / eps**5,
    )


def confdim_bounds(m: int, l: int, d, C=Fraction(10) ** 17) -> tuple[BoundReport, BoundReport]:
    """Conformal-dimension lower/upper bound expressions, times log(2m-1).

    lower = d(1-2d)^5 l / (C |log(d(1/2-d))|) · log(2m-1)
    upper = C d l / ((1-2d)|log d|) · log(2m-1)

    Natural logs; the constant C is an input (default 1e17).  DomainError
    outside the domain and when a bound under- or overflows a float.
    """
    d = Fraction(d)
    C = Fraction(C)
    if not (0 < d < Fraction(1, 2)):
        raise DomainError(f"need 0 < d < 1/2, got {d}")
    if m < 2 or l < 1:
        raise DomainError(f"need m >= 2 and l >= 1, got m={m}, l={l}")
    if C <= 0:
        raise DomainError("need C > 0")
    base = 2 * m - 1
    logm = math.log(base)
    arg = d * (Fraction(1, 2) - d)
    try:
        values = {
            "lower": float(d * (1 - 2 * d) ** 5 * l / C) / abs(math.log(float(arg))) * logm,
            "upper": float(C * d * l / (1 - 2 * d)) / abs(math.log(float(d))) * logm,
        }
        logs = {side: _logb(v, base) for side, v in values.items()}
    except (OverflowError, ValueError) as e:
        raise DomainError(f"the confdim bounds do not fit a float: {e}") from e
    # for these two the headline quantity is the plain value, not its log
    lower, upper = (
        BoundReport(name=f"confdim-{side}", value_log=logs[side], value=None,
                    inputs={"m": m, "l": l, "d": d, "C": C, "value_float": values[side]})
        for side in ("lower", "upper")
    )
    return lower, upper


def roundtree_lower(V: int, H: int) -> float:
    """Conformal-dimension lower bound 1 + log V / log H from an undistorted tree."""
    if V < 2 or H < 2:
        raise DomainError("need V >= 2 and H >= 2")
    return 1.0 + math.log2(V) / math.log2(H)


def q_constant(C: int, N, P) -> float:
    """The polynomial factor 2^(2C)·N·P of the path-fillability event bound,
    for user-supplied values of the existential constants N(C,l) and P(l)."""
    if C < 0 or N < 0 or P < 0:
        raise DomainError("need nonnegative C, N, P")
    return float(2 ** (2 * C)) * float(N) * float(P)


# ---------------------------------------------------------------------------
# Exact and Monte Carlo fillability
# ---------------------------------------------------------------------------


def _word_matrix(m: int, l: int, budget: int) -> tuple[np.ndarray, list[str], Alphabet]:
    ab = Alphabet(m)
    words = enumerate_cyclically_reduced(m, l, budget=max(budget, (2 * m - 1) ** l + 1))
    arr = np.array([ab.encode(w) for w in words], dtype=np.int8)
    return arr, words, ab


def exact_fillability(
    diagram: Diagram, m: int, l: int, budget: int = DEFAULT_TUPLE_BUDGET
) -> FillProbability:
    """Exact P(n(X) i.i.d. uniform cyclically reduced words fill X), by
    exhaustive tuple enumeration.  This is the oracle for everything else."""
    n = diagram.n
    N = rivin_count(m, l)
    if N**n > budget:
        raise BudgetExceededError(
            f"{N}^{n} tuples exceed the tuple budget {budget}", budget=budget
        )
    arr, _words, ab = _word_matrix(m, l, budget)
    rep = belonging(diagram)
    good = count_partial_fillings_vectorized(
        diagram, arr, n, ab, order=rep.order, budget=budget
    )
    exact = Fraction(good, N**n)
    return FillProbability(
        exact=exact, estimate=float(exact), trials=0, ci_low=float(exact), ci_high=float(exact)
    )


def exact_partial_fillability_sequence(
    diagram: Diagram, m: int, l: int, budget: int = DEFAULT_TUPLE_BUDGET
) -> list[Fraction]:
    """Exact p_1, ..., p_n in multiplicity-sorted order (tuples may repeat)."""
    rep = belonging(diagram)
    N = rivin_count(m, l)
    arr, _words, ab = _word_matrix(m, l, budget)
    cons = compile_constraints(diagram, ab)
    out = []
    for i in range(1, diagram.n + 1):
        if N**i > budget:
            raise BudgetExceededError(
                f"{N}^{i} tuples exceed the tuple budget {budget}", budget=budget
            )
        out.append(Fraction(_count_partial_fillings(cons, arr, i, rep.order[:i]), N**i))
    return out


def presentation_fill_probability_exact(
    diagram: Diagram, m: int, l: int, d, budget: int = DEFAULT_TUPLE_BUDGET
) -> Fraction:
    """Exact P(diagram fillable by a sampled presentation), for n(X) = 1.

    With count R relators and q the fraction of single words filling, the
    probability of at least one hit is 1 - (1-q)^R exactly.
    """
    from .model import relator_count

    if diagram.n != 1:
        raise DomainError("closed-form presentation-level probability needs n(X) = 1")
    q = exact_fillability(diagram, m, l, budget).exact
    R = relator_count(m, l, d)
    return 1 - (1 - q) ** R


def _mc_trial(args) -> bool:
    cons, m, l, d, s = args
    p = sample_presentation(m, l, d, seed=s)
    return _search(cons, p.relators, "first", True) is not None


def mc_fillability(
    diagram: Diagram,
    m: int,
    l: int,
    d,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> FillProbability:
    """Fraction of freshly sampled presentations that fill the diagram with
    distinct relators; Wilson 99% CI.  Trial t uses the derived seed
    SeedSequence(seed, spawn_key=(t,)), so results are independent of jobs.
    The diagram is compiled once, and the pool never has more workers than
    CPUs or trials."""
    if trials <= 0:
        raise DomainError("trials must be positive")
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    check_seed(seed)
    cons = compile_constraints(diagram, Alphabet(m))
    if cons.l != l:
        raise PreconditionError(f"the diagram has {cons.l}-gon faces, not l={l}")
    jobs = min(jobs, os.cpu_count() or 1, trials)
    seeds = [
        int(np.random.SeedSequence(entropy=seed, spawn_key=(t,)).generate_state(1)[0])
        for t in range(trials)
    ]
    args = [(cons, m, l, d, s) for s in seeds]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_mc_trial, args, chunksize=max(1, trials // (4 * jobs))))
    else:
        results = [_mc_trial(a) for a in args]
    hits = sum(results)
    lo, hi = wilson_interval(hits, trials)
    return FillProbability(
        exact=None, estimate=hits / trials, trials=trials, ci_low=lo, ci_high=hi
    )
