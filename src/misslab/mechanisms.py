"""Declarative missingness mechanisms and their forward simulation.

A :class:`MechanismSpec` assigns one :class:`MechanismRule` per column. A
rule is a bundle of clauses over predictors (data columns, other columns'
missingness indicators, shared latent block indicators and a per-subject
random effect):

* ``LogisticClause`` — probability through a logistic link;
* ``TableClause`` — probabilities keyed by binary parent configurations
  (an empty parent set is a plain Bernoulli rate);
* ``ForceClause`` — a predicate that forces the indicator to 0 or 1;
* ``LogicalClause`` — a data predicate that forces the cell missing *and*
  flags it non-imputable (no underlying value exists).

Masks are sampled column by column along ``simulation_order``, so the joint
law factorises into a product of univariate conditionals; indicator
references must point at columns simulated earlier. Block-shaped coupling
(mutual, order-free association between indicators) is realised through a
per-row latent Bernoulli block indicator that all member rules reference,
which reproduces joint block patterns while keeping sampling sequential.

:func:`classify` places a spec in the mechanism taxonomy: data dependence
(MCAR / MAR / MNAR), indicator structure (unstructured / weak / strong),
shape (block / sequential), determinism with respect to the data, and the
sign of indicator-indicator association where determinable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import ClassVar, Mapping, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .tabular import DataMatrix, MissMask, check_names, default_names

MCAR, MAR, MNAR = "MCAR", "MAR", "MNAR"
UNSTRUCTURED, WEAK, STRONG = "unstructured", "weak", "strong"
SHAPE_NONE, BLOCK, SEQUENTIAL = "none", "block", "sequential"
PROBABILISTIC, DETERMINISTIC = "probabilistic", "deterministic"
POSITIVE, NEGATIVE, MIXED = "positive", "negative", "mixed"

_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


class SpecificationError(ValueError):
    """The mechanism specification itself is invalid, or a JSON input (a spec
    file or study config overrides) does not parse or fit its types."""


class EvaluationError(ValueError):
    """Rule evaluation failed on concrete data (e.g. non-finite predictor)."""


# ---------------------------------------------------------------------------
# Predictors and predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictorRef:
    """Reference to a quantity a rule may condition on.

    kind: "data" (column of X), "mask" (another column's indicator),
    "block" (latent block indicator) or "subject" (row random effect, the
    one kind without an index).
    """

    kind: str
    index: int | None = None

    def __post_init__(self):
        if self.kind not in ("data", "mask", "block", "subject"):
            raise SpecificationError(f"unknown predictor kind {self.kind!r}")
        if self.kind == "subject" and self.index is not None:
            raise SpecificationError("subject predictor takes no index")
        if self.kind != "subject" and self.index is None:
            raise SpecificationError(f"{self.kind} predictor needs an index")


def data_col(j: int) -> PredictorRef:
    return PredictorRef("data", j)


def mask_col(j: int) -> PredictorRef:
    return PredictorRef("mask", j)


def block_ref(b: int = 0) -> PredictorRef:
    return PredictorRef("block", b)


def subject_effect() -> PredictorRef:
    return PredictorRef("subject")


@dataclass(frozen=True)
class Comparison:
    """Atomic predicate ``ref <op> value``."""

    ref: PredictorRef
    op: str
    value: float

    def __post_init__(self):
        if self.op not in _OPS:
            raise SpecificationError(f"unknown comparison operator {self.op!r}")
        if not np.isfinite(self.value):
            raise SpecificationError("comparison value must be finite")


Predicate = tuple[Comparison, ...]  # conjunction of comparisons


# ---------------------------------------------------------------------------
# Clauses. Each clause type is the one place that knows its own fields: the
# references it holds, how it changes a rule's per-row outcome, the
# dependency edges it declares and its JSON ``type`` tag.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Dependence:
    """One resolved dependency edge feeding the classifier and DOT export."""

    source: tuple[str, int]  # ("data"|"mask"|"block"|"subject", index)
    target: int
    deterministic: bool
    sign: str | None = None


def _edge(
    ref: PredictorRef, target: int, deterministic: bool, sign: str | None = None
) -> _Dependence:
    return _Dependence((ref.kind, ref.index or 0), target, deterministic, sign)


def _one_sign(signs: set[str]) -> str | None:
    """The sign of a set of couplings: none, the one they share, or MIXED."""
    return MIXED if len(signs) > 1 else next(iter(signs), None)


@dataclass(frozen=True)
class LogisticClause:
    tag: ClassVar[str] = "logistic"
    forces: ClassVar[bool] = False

    intercept: float = 0.0
    terms: tuple[tuple[PredictorRef, float], ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.intercept):
            raise SpecificationError("logistic intercept must be finite")
        for _, coef in self.terms:
            if not np.isfinite(coef):
                raise SpecificationError("logistic coefficients must be finite")

    def refs(self) -> list[PredictorRef]:
        return [ref for ref, _ in self.terms]

    def apply(self, ctx: "_EvalContext", out: "_RuleOutcome") -> None:
        eta = np.full(ctx.n, self.intercept, dtype=float)
        # An overflow ends in the error below, so NumPy's warning is muted.
        with np.errstate(over="ignore", invalid="ignore"):
            for ref, coef in self.terms:
                eta += coef * ctx.resolve(ref)
        if not np.isfinite(eta).all():
            raise EvaluationError(
                f"non-finite linear predictor in rule for column {out.target}"
            )
        out.trigger(_expit(eta))

    def edges(self, target: int) -> list[_Dependence]:
        return [
            _edge(ref, target, False,
                  (POSITIVE if coef > 0 else NEGATIVE)
                  if ref.kind in ("mask", "block") else None)
            for ref, coef in self.terms
            if coef != 0.0
        ]


@dataclass(frozen=True)
class TableClause:
    """Conditional probabilities keyed by binary parent values.

    ``probs`` maps each full parent configuration (a tuple of 0/1 values,
    one per parent) to a missingness probability. Every configuration must
    be present exactly once; they are stored in increasing binary order.
    Parents must be mask or block references.
    """

    tag: ClassVar[str] = "table"
    forces: ClassVar[bool] = False

    parents: tuple[PredictorRef, ...] = ()
    probs: tuple[tuple[tuple[int, ...], float], ...] = ((tuple(), 0.0),)

    def __post_init__(self):
        for ref in self.parents:
            if ref.kind not in ("mask", "block"):
                raise SpecificationError("table parents must be mask or block refs")
        want = set(itertools.product((0, 1), repeat=len(self.parents)))
        if {k for k, _ in self.probs} != want or len(self.probs) != len(want):
            raise SpecificationError(
                "table must assign a probability to every parent configuration"
            )
        for _, p in self.probs:
            if not (0.0 <= p <= 1.0):
                raise SpecificationError(f"table probability {p} outside [0, 1]")
        object.__setattr__(self, "probs", tuple(sorted(self.probs)))

    @classmethod
    def from_dict(
        cls, parents: Sequence[PredictorRef], probs: Mapping[tuple[int, ...], float]
    ) -> "TableClause":
        return cls(tuple(parents), tuple((tuple(k), float(v)) for k, v in probs.items()))

    @classmethod
    def bernoulli(cls, rate: float) -> "TableClause":
        return cls((), (((), float(rate)),))

    def refs(self) -> list[PredictorRef]:
        return list(self.parents)

    def apply(self, ctx: "_EvalContext", out: "_RuleOutcome") -> None:
        # probs is sorted, so a configuration's binary code is its position.
        code = np.zeros(ctx.n, dtype=np.int64)
        for ref in self.parents:
            code = (code << 1) | (ctx.resolve(ref) > 0.5).astype(np.int64)
        out.trigger(np.array([p for _, p in self.probs])[code])

    def edges(self, target: int) -> list[_Dependence]:
        out = []
        for pos, ref in enumerate(self.parents):
            varies, reaches_one, sign = self._parent_effect(pos)
            if varies:
                out.append(_edge(ref, target, reaches_one, sign))
        return out

    def _parent_effect(self, pos: int):
        """(varies, reaches_one, sign) for the ``pos``-th parent."""
        probs = dict(self.probs)
        reaches_one = False
        signs: set[str] = set()
        for key, p1 in probs.items():
            if key[pos] == 1:
                k0 = key[:pos] + (0,) + key[pos + 1:]
                p0 = probs[k0]
                if p1 != p0:
                    signs.add(POSITIVE if p1 > p0 else NEGATIVE)
                    if max(p0, p1) == 1.0:
                        reaches_one = True
        return bool(signs), reaches_one, _one_sign(signs)


@dataclass(frozen=True)
class _PredicateClause:
    """A clause that acts on the rows where its predicate ``when`` holds."""

    forces: ClassVar[bool] = True

    when: Predicate

    def refs(self) -> list[PredictorRef]:
        return [cmp_.ref for cmp_ in self.when]


def _binary_hits(cmp_: Comparison) -> tuple[int, ...] | None:
    """The values among 0 and 1 that satisfy a comparison on a mask or block
    reference, which takes no others; None for a data reference."""
    if cmp_.ref.kind not in ("mask", "block"):
        return None
    return tuple(v for v in (0, 1) if _OPS[cmp_.op](v, cmp_.value))


@dataclass(frozen=True)
class ForceClause(_PredicateClause):
    """When every comparison holds, the indicator is forced to ``value``."""

    tag: ClassVar[str] = "force"

    value: int = 1

    def __post_init__(self):
        if self.value not in (0, 1):
            raise SpecificationError("forced value must be 0 or 1")
        if not self.when:
            raise SpecificationError("force clause needs a non-empty predicate")

    @classmethod
    def follows(cls, ref: PredictorRef) -> "ForceClause":
        """Strong coupling: missing wherever ``ref``, an indicator or a latent
        block, is 1."""
        return cls((Comparison(ref, "==", 1.0),), 1)

    @property
    def forces(self) -> bool:
        """False when a comparison on a mask or block holds for neither 0
        nor 1: the clause then never fires."""
        return all(_binary_hits(cmp_) != () for cmp_ in self.when)

    def apply(self, ctx: "_EvalContext", out: "_RuleOutcome") -> None:
        out.forced[self.value] |= ctx.predicate(self.when) & out.scope

    def edges(self, target: int) -> list[_Dependence]:
        # A comparison that both 0 and 1 satisfy declares no edge. On one
        # value, firing on 1 and forcing missing is a positive coupling.
        if not self.forces:
            return []
        out = []
        for cmp_ in self.when:
            hits = _binary_hits(cmp_)
            if hits is None:
                out.append(_edge(cmp_.ref, target, True))
            elif len(hits) == 1:
                out.append(_edge(cmp_.ref, target, True,
                                 POSITIVE if hits[0] == self.value else NEGATIVE))
        return out


@dataclass(frozen=True)
class LogicalClause(_PredicateClause):
    """Data predicate marking cells logically missing (non-imputable)."""

    tag: ClassVar[str] = "logical"

    def __post_init__(self):
        if not self.when:
            raise SpecificationError("logical clause needs a non-empty predicate")
        for cmp_ in self.when:
            if cmp_.ref.kind != "data":
                raise SpecificationError(
                    "logical clauses may only reference data columns"
                )

    def apply(self, ctx: "_EvalContext", out: "_RuleOutcome") -> None:
        out.logical |= ctx.predicate(self.when) & out.scope

    def edges(self, target: int) -> list[_Dependence]:
        return [_edge(cmp_.ref, target, True) for cmp_ in self.when]


Clause = Union[LogisticClause, TableClause, ForceClause, LogicalClause]


@dataclass(frozen=True)
class MechanismRule:
    target: int
    clauses: tuple[Clause, ...] = ()
    subject_scope: Predicate | None = None

    def refs(self) -> list[PredictorRef]:
        out = [ref for c in self.clauses for ref in c.refs()]
        out.extend(cmp_.ref for cmp_ in self.subject_scope or ())
        return out


@dataclass(frozen=True)
class LatentBlock:
    """Per-row latent Bernoulli indicator shared by block-member rules."""

    prob: float

    def __post_init__(self):
        if not (0.0 <= self.prob <= 1.0):
            raise SpecificationError("block probability must lie in [0, 1]")


@dataclass(frozen=True)
class TaxonomyLabel:
    """Position of a mechanism in the taxonomy.

    ``determinism`` describes the data-to-indicator relationship only;
    indicator-to-indicator determinism is what makes ``structure`` strong.
    """

    data_dependence: str
    structure: str
    shape: str
    determinism: str
    sign: str | None = None

    def __post_init__(self):
        if self.data_dependence not in (MCAR, MAR, MNAR):
            raise SpecificationError(f"bad data_dependence {self.data_dependence!r}")
        if self.structure not in (UNSTRUCTURED, WEAK, STRONG):
            raise SpecificationError(f"bad structure {self.structure!r}")
        if self.shape not in (SHAPE_NONE, BLOCK, SEQUENTIAL):
            raise SpecificationError(f"bad shape {self.shape!r}")
        if self.determinism not in (PROBABILISTIC, DETERMINISTIC):
            raise SpecificationError(f"bad determinism {self.determinism!r}")
        if self.sign not in (None, POSITIVE, NEGATIVE, MIXED):
            raise SpecificationError(f"bad sign {self.sign!r}")
        if self.structure == UNSTRUCTURED and self.shape != SHAPE_NONE:
            raise SpecificationError("unstructured mechanisms have no shape")
        if self.structure == UNSTRUCTURED and self.sign is not None:
            raise SpecificationError("unstructured mechanisms have no sign")

    def short(self) -> str:
        """Compact cell name, e.g. MCAR-U, MAR-UP, MNAR-SS.

        Mixtures of weak indicator structure with a deterministic data
        relationship render as e.g. ``MAR-WS/SS``.
        """
        if self.structure == UNSTRUCTURED:
            if self.data_dependence == MCAR:
                suffix = "U"
            else:
                suffix = "UD" if self.determinism == DETERMINISTIC else "UP"
        elif self.structure == STRONG:
            suffix = "SS"
        else:
            suffix = "WS/SS" if self.determinism == DETERMINISTIC else "WS"
        return f"{self.data_dependence}-{suffix}"


@dataclass(frozen=True)
class MechanismSpec:
    """One rule per column plus the sampling order and shared latents.

    ``latent_columns`` are data columns the analyst never observes (so any
    rule referencing them is data-dependent in the not-at-random sense).
    ``temporal_order`` declares the order against which sequential structure
    is judged; it defaults to storage order and is independent of
    ``simulation_order``, which only needs to topologically sort the
    indicator references.
    """

    rules: tuple[MechanismRule, ...]
    simulation_order: tuple[int, ...] | None = None
    subject_effect_var: float | None = None
    blocks: tuple[LatentBlock, ...] = ()
    latent_columns: frozenset[int] = frozenset()
    temporal_order: tuple[int, ...] | None = None
    declared_label: TaxonomyLabel | None = None
    col_names: tuple[str, ...] | None = None

    def __post_init__(self):
        p = len(self.rules)
        if not p:
            raise SpecificationError("rules: a spec needs at least one rule")
        targets = [r.target for r in self.rules]
        if sorted(targets) != list(range(p)):
            raise SpecificationError("need exactly one rule per column, in any order")
        if targets != list(range(p)):
            object.__setattr__(
                self, "rules", tuple(sorted(self.rules, key=lambda r: r.target))
            )
        order = self.simulation_order
        order = tuple(range(p)) if order is None else tuple(int(j) for j in order)
        object.__setattr__(self, "simulation_order", order)
        if sorted(order) != list(range(p)):
            raise SpecificationError("simulation_order must be a permutation")
        if self.temporal_order is not None:
            t = tuple(int(j) for j in self.temporal_order)
            if sorted(t) != list(range(p)):
                raise SpecificationError("temporal_order must be a permutation")
            object.__setattr__(self, "temporal_order", t)
        object.__setattr__(self, "latent_columns", frozenset(self.latent_columns))
        if self.col_names is not None:
            try:
                object.__setattr__(self, "col_names", check_names(self.col_names, p))
            except ValueError as exc:
                raise SpecificationError(f"columns: {exc}") from None
        self.validate()

    @property
    def p(self) -> int:
        return len(self.rules)

    def effective_temporal_order(self) -> tuple[int, ...]:
        return (
            self.temporal_order
            if self.temporal_order is not None
            else tuple(range(self.p))
        )

    def names(self) -> tuple[str, ...]:
        if self.col_names is not None:
            return self.col_names
        return default_names(self.p)

    def validate(self) -> None:
        """Check index ranges and acyclicity under the simulation order."""
        position = {j: k for k, j in enumerate(self.simulation_order)}
        for rule in self.rules:
            for ref in rule.refs():
                if ref.kind in ("data", "mask"):
                    if not (0 <= ref.index < self.p):
                        raise SpecificationError(
                            f"rule for column {rule.target}: {ref.kind} index "
                            f"{ref.index} out of range"
                        )
                if ref.kind == "mask":
                    if ref.index == rule.target:
                        raise SpecificationError(
                            f"rule for column {rule.target} references its own "
                            "missingness indicator"
                        )
                    if position[ref.index] >= position[rule.target]:
                        raise SpecificationError(
                            f"rule for column {rule.target} references indicator "
                            f"{ref.index}, which is simulated later"
                        )
                if ref.kind == "block" and not (0 <= ref.index < len(self.blocks)):
                    raise SpecificationError(
                        f"rule for column {rule.target}: block {ref.index} undeclared"
                    )
                if ref.kind == "subject" and self.subject_effect_var is None:
                    raise SpecificationError(
                        f"rule for column {rule.target} references the subject "
                        "effect but none is declared"
                    )
        for j in sorted(self.latent_columns):
            if not (0 <= j < self.p):
                raise SpecificationError(f"latent_columns: column {j} out of range")
        var = self.subject_effect_var
        if var is not None and not (np.isfinite(var) and var >= 0):
            raise SpecificationError(
                f"subject_effect_var must be a finite number >= 0, got {var}"
            )


# ---------------------------------------------------------------------------
# Forward simulation
# ---------------------------------------------------------------------------


def _expit(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class _EvalContext:
    """Resolved predictor values while a mask is being simulated."""

    def __init__(self, values, mask, blocks, subj):
        self.values = values
        self.mask = mask
        self.blocks = blocks
        self.subj = subj
        self.n = values.shape[0]

    def resolve(self, ref: PredictorRef) -> np.ndarray:
        if ref.kind == "data":
            return self.values[:, ref.index]
        if ref.kind == "mask":
            return self.mask[:, ref.index].astype(float)
        if ref.kind == "block":
            return self.blocks[ref.index].astype(float)
        return self.subj

    def predicate(self, pred: Predicate) -> np.ndarray:
        out = np.ones(self.n, dtype=bool)
        for cmp_ in pred:
            out &= _OPS[cmp_.op](self.resolve(cmp_.ref), cmp_.value)
        return out


class _RuleOutcome:
    """Per-row state of one rule while its clauses are applied in order."""

    def __init__(self, target: int, n: int, scope: np.ndarray):
        self.target = target
        self.scope = scope
        self.prob = np.zeros(n)
        self.forced = {1: np.zeros(n, dtype=bool), 0: np.zeros(n, dtype=bool)}
        self.logical = np.zeros(n, dtype=bool)

    def trigger(self, p: np.ndarray) -> None:
        """Combine a clause probability, in scope, as an independent trigger."""
        self.prob = np.where(self.scope, 1.0 - (1.0 - self.prob) * (1.0 - p), self.prob)


def rule_probabilities(
    rule: MechanismRule, ctx: _EvalContext
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row missingness probability of one rule, and its logical rows.

    Returns ``(prob, logical)``. Probabilistic clauses combine as
    independent triggers. Forcing is folded into ``prob``, the one place
    that states its precedence: a logical or forced-missing row has
    probability 1, which beats forced-observed (0), which beats the
    clauses' probability.
    """
    scope = (
        ctx.predicate(rule.subject_scope)
        if rule.subject_scope
        else np.ones(ctx.n, dtype=bool)
    )
    out = _RuleOutcome(rule.target, ctx.n, scope)
    for clause in rule.clauses:
        clause.apply(ctx, out)
    out.prob[out.forced[0]] = 0.0
    out.prob[out.forced[1] | out.logical] = 1.0
    return out.prob, out.logical


def simulate_mask(
    spec: MechanismSpec,
    x: DataMatrix | np.ndarray,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> MissMask:
    """Sample a missingness mask for complete data ``x`` under ``spec``.

    Columns are visited in ``simulation_order``; the subject effects and
    latent block indicators are drawn first, once per row. One uniform is
    consumed per cell regardless of forcing, so adding extra
    zero-probability clauses cannot shift the stream; as the uniform lies
    in [0, 1), a forced probability of 1 always draws missing. Reproducible
    given the seed.
    """
    if isinstance(x, DataMatrix):
        if not x.is_complete():
            raise ValueError("simulate_mask requires complete data")
        values = x.values
    else:
        values = np.asarray(x, dtype=float)
    n, p = values.shape
    if p != spec.p:
        raise SpecificationError(
            f"spec has {spec.p} columns but data has {p}"
        )
    rng = np.random.default_rng(seed)  # returns a Generator unaltered
    subj = (
        rng.normal(0.0, np.sqrt(spec.subject_effect_var), size=n)
        if spec.subject_effect_var is not None
        else np.zeros(n)
    )
    blocks = [
        (rng.random(n) < blk.prob).astype(np.uint8) for blk in spec.blocks
    ]
    mask = np.zeros((n, p), dtype=np.uint8)
    logical = np.zeros((n, p), dtype=np.uint8)
    ctx = _EvalContext(values, mask, blocks, subj)
    for j in spec.simulation_order:
        u = rng.random(n)
        prob, logic = rule_probabilities(spec.rules[j], ctx)
        mask[:, j] = (u < prob).astype(np.uint8)
        logical[:, j] = logic.astype(np.uint8)
    return MissMask(mask, logical if logical.any() else None)


def mask_law(spec: MechanismSpec) -> tuple[np.ndarray, np.ndarray]:
    """The exact joint law of the mask that ``simulate_mask`` draws.

    Returns the distinct patterns, a (K, p) uint8 array in lexicographic
    order, and their probabilities, a (K,) array; patterns of probability 0
    are left out. The latent-block states are enumerated, and each column,
    in ``simulation_order``, splits every state on its indicator by the
    probability ``simulate_mask`` draws it with. Only specs that read no data
    column and no subject effect have a row-free law; others raise.
    """
    for rule in spec.rules:
        for ref in rule.refs():
            if ref.kind in ("data", "subject"):
                what = (f"data column {ref.index}" if ref.kind == "data"
                        else "the subject effect")
                raise SpecificationError(f"rule for column {rule.target} reads "
                                         f"{what}, so its mask law depends on the rows")
    nb = len(spec.blocks)
    blocks = (np.arange(2 ** nb)[:, None] >> np.arange(nb) & 1).astype(np.uint8)
    block_probs = np.array([blk.prob for blk in spec.blocks])
    weight = np.prod(np.where(blocks == 1, block_probs, 1.0 - block_probs), axis=1)
    mask = np.zeros((len(weight), spec.p), dtype=np.uint8)
    for j in spec.simulation_order:
        ctx = _EvalContext(np.zeros_like(mask, dtype=float), mask, blocks.T, None)
        q, _ = rule_probabilities(spec.rules[j], ctx)
        mask = np.concatenate([mask, mask])
        mask[len(q):, j] = 1
        weight = np.concatenate([weight * (1.0 - q), weight * q])
        keep = weight > 0.0  # drop the states no row can reach
        blocks = np.concatenate([blocks, blocks])[keep]
        mask, weight = mask[keep], weight[keep]
    patterns, inverse = np.unique(mask, axis=0, return_inverse=True)
    return patterns, np.bincount(inverse.ravel(), weights=weight)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def spec_dependencies(spec: MechanismSpec) -> list[_Dependence]:
    """Resolve every effective dependency edge declared by the rules."""
    edges: list[_Dependence] = []
    for rule in spec.rules:
        # A subject scope gates every clause of its rule, so it is as
        # deterministic as the rule's strongest clause.
        forces = any(clause.forces for clause in rule.clauses)
        edges.extend(_edge(cmp_.ref, rule.target, forces)
                     for cmp_ in rule.subject_scope or ())
        for clause in rule.clauses:
            edges.extend(clause.edges(rule.target))
    return edges


def classify(spec: MechanismSpec) -> TaxonomyLabel:
    """Place a mechanism in the taxonomy. Classification is total.

    Data dependence: a rule touching its own target's data column or a
    latent column makes the mechanism not-at-random; touching any other
    data column makes it at-random; otherwise completely-at-random. The
    subject effect is deliberately neutral here: it is defined as unrelated
    to anything observed, and mechanisms carrying one keep their family.

    Structure: indicator-indicator coupling, whether direct (mask
    references) or induced by a shared latent block with at least two
    members. Coupling that can force an indicator with certainty is strong;
    merely shifting probabilities is weak. Shape is sequential only when
    every direct coupling points forward in the temporal order and no
    order-free block coupling exists.
    """
    edges = spec_dependencies(spec)

    data_dep = MCAR
    for e in edges:
        kind, idx = e.source
        if kind != "data":
            continue
        if idx == e.target or idx in spec.latent_columns:
            data_dep = MNAR
            break
        data_dep = MAR
    determinism = (
        DETERMINISTIC
        if any(e.deterministic and e.source[0] == "data" for e in edges)
        else PROBABILISTIC
    )

    mask_edges = [e for e in edges if e.source[0] == "mask"]
    block_members: dict[int, list[_Dependence]] = {}
    for e in edges:
        if e.source[0] == "block":
            block_members.setdefault(e.source[1], []).append(e)

    strong = any(e.deterministic for e in mask_edges)
    weak = bool(mask_edges)
    block_coupled = False
    signs: set[str] = {e.sign for e in mask_edges if e.sign is not None}
    for members in block_members.values():
        per_target: dict[int, _Dependence] = {m.target: m for m in members}
        if len(per_target) < 2:
            continue  # a single-member block is just private noise
        block_coupled = True
        weak = True
        det_members = [m for m in per_target.values() if m.deterministic]
        if len(det_members) >= 2:
            strong = True
        # Members that respond to the block in the same direction are
        # positively coupled with each other; opposite responses couple
        # negatively.
        members_list = list(per_target.values())
        for a in range(len(members_list)):
            for b in range(a + 1, len(members_list)):
                sa, sb = members_list[a].sign, members_list[b].sign
                if sa is None or sb is None:
                    continue
                signs.add(POSITIVE if sa == sb else NEGATIVE)

    if strong:
        structure = STRONG
    elif weak:
        structure = WEAK
    else:
        structure = UNSTRUCTURED

    if structure == UNSTRUCTURED:
        shape = SHAPE_NONE
    else:
        pos = {j: k for k, j in enumerate(spec.effective_temporal_order())}
        forward = all(pos[e.source[1]] < pos[e.target] for e in mask_edges)
        shape = SEQUENTIAL if forward and not block_coupled else BLOCK

    return TaxonomyLabel(data_dep, structure, shape, determinism, _one_sign(signs))


# ---------------------------------------------------------------------------
# Spec files: canonical JSON, round-trippable byte for byte.
# ---------------------------------------------------------------------------


_JSON_KEYS = {"col_names": "columns"}


def _to_json(obj):
    """JSON form of a spec part: dataclass fields under their own names
    (``col_names`` as ``columns``), tuples as lists, sets sorted. Clauses
    carry their ``type`` tag; a predictor reference omits default fields."""
    if isinstance(obj, tuple):
        return [_to_json(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    if not is_dataclass(obj):
        return obj
    out = {"type": obj.tag} if hasattr(obj, "tag") else {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(obj, PredictorRef) and value == f.default:
            continue
        out[_JSON_KEYS.get(f.name, f.name)] = _to_json(value)
    return out


# Decoding. ``read_typed`` walks the type annotations of the spec classes
# (and of ``ExperimentConfig``): a value that does not fit raises a
# SpecificationError naming its path in the file, such as
# ``rules[0].clauses[1]``.

_SCALARS = {int: ("an integer", (int,)), float: ("a number", (int, float)),
            str: ("a string", (str,))}
# Fields a spec file may leave out; they take their dataclass default, as
# does null where the annotation admits None.
_OPTIONAL = {
    "index", "subject_scope", "sign", "subject_effect_var",
    "blocks", "latent_columns", "temporal_order", "declared_label", "col_names",
}


@cache
def field_types(cls) -> dict[str, tuple[str, object]]:
    """JSON key -> (field name, resolved annotation) of a dataclass."""
    hints = get_type_hints(cls)
    return {_JSON_KEYS.get(f.name, f.name): (f.name, hints[f.name]) for f in fields(cls)}


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SpecificationError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def read_typed(tp, value, path: str = ""):
    """``value``, as JSON decodes it, checked and converted to the type
    ``tp``: an integer takes only an integer, a number an integer or a float
    (stored as a float), a list field a list (or a tuple, from Python); a
    dataclass takes an object holding its fields (a clause also its ``type``
    tag) and no other key."""
    where = path or "spec"
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        if value is None and type(None) in args:
            return None
        kinds = [a for a in args if a is not type(None)]
        if len(kinds) > 1:  # clause types, told apart by their tag
            if "type" not in _object(value, where):
                raise SpecificationError(f"{where}: missing field 'type'")
            tag = read_typed(str, value["type"], f"{path}.type")
            kinds = [k for k in kinds if k.tag == tag]
            if not kinds:
                raise SpecificationError(f"{where}: unknown clause type {tag!r}")
        return read_typed(kinds[0], value, path)
    if origin is tuple and args[-1] is not Ellipsis:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise SpecificationError(f"{where}: expected a pair [a, b]")
        return tuple(read_typed(t, v, f"{path}[{i}]")
                     for i, (t, v) in enumerate(zip(args, value)))
    if origin in (tuple, frozenset):
        if not isinstance(value, (list, tuple)):
            raise SpecificationError(f"{where}: expected a list, got {type(value).__name__}")
        return origin(read_typed(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp in _SCALARS:
        want, accepted = _SCALARS[tp]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise SpecificationError(f"{where}: expected {want}, got {type(value).__name__}")
        return tp(value)
    keys = field_types(tp)
    for key in _object(value, where):
        if key not in keys and not (key == "type" and hasattr(tp, "tag")):
            raise SpecificationError(f"{where}: unknown field {key!r}")
    kwargs = {}
    for key, (name, kind) in keys.items():
        if key in value:
            kwargs[name] = read_typed(kind, value[key], f"{path}.{key}" if path else key)
        elif name not in _OPTIONAL:
            raise SpecificationError(f"{where}: missing field {key!r}")
    # Nested values name their own paths above; the constructor's checks
    # are named by the path of the object they reject.
    try:
        return tp(**kwargs)
    except SpecificationError as exc:
        raise SpecificationError(f"{where}: {exc}") from None


def parse_json(text: str | bytes, source: str):
    """The JSON value of ``text``, given as a string or as UTF-8 bytes;
    bytes that are not UTF-8, malformed text and too deeply nested text
    raise a SpecificationError naming ``source``."""
    try:
        return json.loads(text.decode() if isinstance(text, bytes) else text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SpecificationError(f"{source}: not valid JSON: {exc}") from None


def dumps_spec(spec: MechanismSpec) -> str:
    """Canonical text form (stable key order, trailing newline)."""
    return json.dumps(_to_json(spec), indent=2, sort_keys=True) + "\n"


def save_spec(spec: MechanismSpec, path: str | Path) -> None:
    Path(path).write_text(dumps_spec(spec))


def loads_spec(text: str | bytes) -> MechanismSpec:
    return read_typed(MechanismSpec, parse_json(text, "spec file"))


def load_spec(path: str | Path) -> MechanismSpec:
    return loads_spec(Path(path).read_bytes())
