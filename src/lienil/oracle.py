"""Decide whether an element acts nilpotently in every finite-dimensional
representation of its algebra, and back the verdict with evidence.

The decision itself is two membership tests: the element must lie in the
derived subalgebra, and its image in the semisimple quotient must be a
nilpotent element there.  A negative verdict is always accompanied by a
witness, the one representation built for it: a character, or the pulled-back
adjoint of the semisimple quotient, in which the element demonstrably acts
non-nilpotently.  A positive verdict can be stress-tested against a corpus
generated by duals, direct sums and tensor products from seeds, each built
only if it fits the corpus's dimension bound.

A corpus is enumerated once, over dimensions alone, as integer (kind, left,
right) steps over seeds of positive dimension, and never materialized: a
member's nilpotency outcome is decided by whether the element's action on it
has a single eigenvalue, and which one.  Eigenvalues are negated by duals,
united by direct sums and added pairwise by tensor products, all as integer
numerators over one denominator, and in characteristic zero an operator is
nilpotent iff 0 is its only eigenvalue, so the outcomes are exact.  When no
seed has a nonzero single eigenvalue, the outcomes follow from which seeds
each member is built from, and the steps are not read.  Report rows are
selected from two tuples made once per corpus.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat
from typing import NamedTuple, Sequence

from .liealg import LieAlgebra
from .linalg import Matrix, Vector, _cleared, is_nilpotent, nilpotency_exponent
from .reps import Representation, adjoint_rep, one_dim_rep
from .semisimple import ConsistencyError, analyze, is_nilpotent_element_image

_DUAL, _SUM, _TENSOR = range(3)  # a corpus step's kind, indexing _KINDS
_KINDS = ("dual", "sum", "tensor")
_MAX_PAIR_VISITS = 250_000  # operand pairs one corpus closure may visit, over all its levels


class Verdict(NamedTuple):
    """Outcome of the two-part membership test.

    answer is the conjunction: the element is nilpotent in every
    representation iff it lies in the derived subalgebra and its image in
    the semisimple quotient is a nilpotent element there.
    """

    answer: bool
    in_derived: bool
    image_nilpotent: bool
    radical_dim: int
    derived_dim: int


class Witness(NamedTuple):
    """A representation certifying a negative verdict.

    case_tag records which construction applied: "derived_character" (a
    one-dimensional representation separating the element from the derived
    subalgebra) or "adjoint_pullback" (the adjoint representation of the
    semisimple quotient pulled back to the algebra).  exponent_checked is
    the matrix power at which non-nilpotence was certified.
    """

    rep: Representation
    case_tag: str
    exponent_checked: int


class RepOutcome(NamedTuple):
    label: str
    dim: int
    nilpotent: bool


class CrossCheckReport(NamedTuple):
    verdict: Verdict
    outcomes: tuple[RepOutcome, ...]
    witness: Witness | None
    witness_acts_nilpotently: bool | None
    consistent: bool
    depth: int
    max_dim: int


def nilpotent_in_all_reps(algebra: LieAlgebra, a: Sequence) -> Verdict:
    """The main decision: nilpotent action in every representation, yes or no."""
    xs = _cleared(algebra._coordinates(a))[0]  # a positive multiple of a: the tests are homogeneous
    derived = algebra.derived_subalgebra()
    in_derived = derived.is_full() or not any(derived._eliminate(xs)[0])
    q = analyze(algebra).quotient
    ys = [sum(map(operator.mul, row, xs)) for row in q.projection.ints]
    image_nilpotent = not q.target.dim or is_nilpotent_element_image(q.target, ys)
    return Verdict(
        answer=in_derived and image_nilpotent,
        in_derived=in_derived,
        image_nilpotent=image_nilpotent,
        radical_dim=q.ideal.dim,
        derived_dim=derived.dim,
    )


def find_witness(algebra: LieAlgebra, a: Sequence) -> Witness:
    """A representation in which the element acts non-nilpotently.

    Only meaningful on a negative verdict; calling this on an element that
    acts nilpotently everywhere is a contract violation.
    """
    av = algebra.element(a)
    verdict = nilpotent_in_all_reps(algebra, av)
    if verdict.answer:
        raise ValueError("element acts nilpotently in every representation; no witness exists")
    return _witness(algebra, av, verdict)[0]


def _witness(algebra: LieAlgebra, av: Vector, verdict: Verdict) -> tuple[Witness, Matrix]:
    """find_witness for an element already read and decided negative, with the element's
    action on the witness.  It builds the one representation it returns: the character
    ``one_dim_rep`` of the first canonical functional nonzero on the element, or the
    Structure's kept pullback of the adjoint of g/rad(g)."""
    structure = analyze(algebra)
    if not verdict.in_derived:
        for xi in structure.functionals:
            if sum(c * x for c, x in zip(xi, av)) != 0:
                rep, case_tag = one_dim_rep(algebra, xi), "derived_character"
                break
        else:  # pragma: no cover - contradicts in_derived False
            raise ConsistencyError("no canonical functional separates the element")
    else:
        rep, case_tag = structure.quotient_adjoint, "adjoint_pullback"
    action = rep.action(av)
    nilpotent, exponent = nilpotency_exponent(action)
    if nilpotent:  # pragma: no cover - would falsify the construction
        raise ConsistencyError("witness construction produced a nilpotent action")
    return Witness(rep, case_tag, exponent), action


def _some_power_trace_nonzero(m: Matrix) -> bool:
    """Some tr(m^k) != 0 for k <= side, by successive integer powers: in
    characteristic zero this holds exactly when m is not nilpotent (Newton's
    identities), a test independent of nilpotency_exponent's squaring."""
    power = m
    for _ in range(m.rows):
        if sum(power.ints[i][i] for i in range(m.rows)):
            return True
        power = power @ m
    return False


# --- corpus ----------------------------------------------------------------

def _corpus(algebra: LieAlgebra, depth: int, max_dim: int) -> tuple:
    """(seeds, steps, supports, rows): the seeds closed under dual, direct sum and tensor,
    in a fixed order, kept on the algebra's Structure.

    Member i < len(seeds) is seeds[i], and member len(seeds) + k is steps[k], an integer
    (kind, left, right) over earlier members (left == right for a dual).  A member's
    support is the bit mask of the seeds it is built from: 1 << k for seed k, its
    operand's for a dual, the OR of its operands' for a sum or tensor.  rows is two
    tuples of report rows, which carry the dimensions, one per member in each: all
    non-nilpotent, then all nilpotent.  Seeds, each built only if 1 to max_dim wide
    (sum(x, 0) = x; 0-wide tests nothing): the adjoint; the Structure's pulled-back
    adjoint of g/rad(g) unless rad(g) = 0, where its matrices are the adjoint's; the
    catalog's irreducibles, which only sl2 has; one character per canonical functional.
    No two seeds are equal, so none is compared: a pulled-back adjoint is narrower than
    the adjoint, sl2_irrep(2) is not sl2's adjoint, the perfect sl2 has no characters,
    and distinct functionals give distinct nonzero characters (a functional is 1 at its
    free coordinate), while the only other 1-wide seed is the zero adjoint of a
    1-dimensional algebra.
    Each closure level applies the operators in the order dual, sum, tensor; binary
    operators run over unordered index pairs in ascending lexicographic order, restricted
    to pairs that involve the previous level (swapping operands yields a
    permutation-equivalent representation, so only i <= j is enumerated).  Results wider
    than max_dim are dropped, and the closure stops at the first empty level.  The
    enumeration runs over dimensions alone and is deterministic, so reports built from
    it are byte-stable.  Before each level its pair visits are counted from the level
    bounds alone, and a closure that would visit more than _MAX_PAIR_VISITS pairs in all
    raises ValueError before that level is built.
    """
    from .catalog import irreducibles_for

    if depth < 0:
        raise ValueError("negative closure depth")
    if max_dim < 0:
        raise ValueError("negative dimension bound")
    structure = analyze(algebra)
    if (depth, max_dim) in structure.corpora:
        return structure.corpora[depth, max_dim]
    widths = range(1, max_dim + 1)
    target = structure.quotient.target  # the algebra itself when rad(g) = 0
    seeds = (*([adjoint_rep(algebra)] if algebra.dim in widths else ()),
             *([structure.quotient_adjoint] if target is not algebra and target.dim in widths
               else ()),
             *(rep for rep in irreducibles_for(algebra) if rep.dim_v in widths),
             *(one_dim_rep(algebra, xi) for xi in structure.functionals if 1 in widths))
    steps: list[tuple[int, int, int]] = []
    supports = [1 << k for k in range(len(seeds))]
    dims = [rep.dim_v for rep in seeds]
    labels = [rep.label for rep in seeds]
    start = visits = 0  # the previous level: members start, ..., base - 1
    for level in range(1, depth + 1):
        base = len(dims)
        if start == base:  # an empty level adds nothing to the next
            break
        fresh = base - start  # sum and tensor each visit start*fresh + fresh(fresh+1)/2 pairs
        visits += 2 * start * fresh + fresh * (fresh + 1)
        if visits > _MAX_PAIR_VISITS:
            raise ValueError(f"corpus closure to depth {depth} would visit {visits} member "
                             f"pairs by level {level}, more than {_MAX_PAIR_VISITS}")
        for i in range(start, base):
            steps.append((_DUAL, i, i))
            supports.append(supports[i])
            dims.append(dims[i])
            labels.append(f"dual({labels[i]})")
        for kind, width_of in ((_SUM, operator.add), (_TENSOR, operator.mul)):
            for i in range(base):
                for j in range(max(i, start), base):
                    width = width_of(dims[i], dims[j])
                    if width <= max_dim:
                        steps.append((kind, i, j))
                        supports.append(supports[i] | supports[j])
                        dims.append(width)
                        labels.append(f"{_KINDS[kind]}({labels[i]}, {labels[j]})")
        start = base
    rows = tuple(tuple(map(tuple.__new__, repeat(RepOutcome), zip(labels, dims, repeat(flag))))
                 for flag in (False, True))
    corpus = (seeds, tuple(steps), tuple(supports), rows)
    return structure.corpora.setdefault((depth, max_dim), corpus)


def _corpus_outcomes(seeds: Sequence[Representation], steps: Sequence[tuple[int, int, int]],
                     supports: Sequence[int], av: Vector) -> list[bool]:
    """acts_nilpotently for every member, from one integer state per member.

    A member's state is None when the element has more than one eigenvalue
    on it, or its single eigenvalue's numerator over D, the lcm of n*scale
    over the seeds' n x n actions ints/scale.  The seeds come first: on one
    of trace t/scale, c = t/(n*scale) is the eigenvalue, single iff
    n*ints - t*I is nilpotent.  When every seed's state is 0 or None, the
    outcomes are read off the supports: None propagates through every step,
    and 0 is kept by duals, tensors and sums of two 0s, so a member is
    nilpotent iff no seed in its support has state None, and the steps are
    not read.  Otherwise the steps follow in one forward pass: a dual
    negates its state, a tensor adds two, and a sum keeps a state only when
    its two agree.  Every member has positive dimension, so it has an
    eigenvalue, and it is nilpotent iff its state is 0, exactly, since every
    state is over the one D.
    """
    actions = [rep.action(av) for rep in seeds]
    d = math.lcm(*(rep.dim_v * action.scale for rep, action in zip(seeds, actions)))
    states: list = []
    for rep, action in zip(seeds, actions):
        n, ints = rep.dim_v, action.ints
        t = sum(ints[i][i] for i in range(n))
        single = is_nilpotent(Matrix(n, n, tuple(
            tuple(n * x - t * (i == k) for k, x in enumerate(row)) for i, row in enumerate(ints))))
        states.append(t * (d // (n * action.scale)) if single else None)
    if not any(states):  # every seed's state is 0 or None
        dead = sum(1 << k for k, state in enumerate(states) if state is None)
        return [not m & dead for m in supports]
    for kind, i, j in steps:
        x, y = states[i], states[j]
        if x is None or y is None:
            state = None
        elif kind == _DUAL:
            state = -x
        elif kind == _TENSOR:
            state = x + y
        else:  # sum
            state = x if x == y else None
        states.append(state)
    return [s == 0 for s in states]


def cross_validate(algebra: LieAlgebra, a: Sequence, depth: int = 2,
                   max_dim: int = 128) -> CrossCheckReport:
    """Check the verdict for one element against the whole corpus.

    On a positive verdict, consistency means every corpus member reports a nilpotent
    action; duals, sums and tensors of nilpotent operators stay nilpotent, so it reads only
    the seeds, and depth adds report rows but no checking power.  On a negative verdict,
    it reads only the witness: the element must demonstrably act non-nilpotently in it.
    An inconsistent report is a falsification event, never expected.  When every member
    is nilpotent, the outcomes are the corpus's all-nilpotent row tuple itself; otherwise
    each row is selected from the corpus's two, one per flag.
    """
    av = algebra.element(a)
    verdict = nilpotent_in_all_reps(algebra, av)
    seeds, steps, supports, rows = _corpus(algebra, depth, max_dim)
    nilpotent = _corpus_outcomes(seeds, steps, supports, av)
    every = all(nilpotent)
    outcomes = rows[1] if every else tuple(map(operator.getitem, zip(*rows), nilpotent))
    witness: Witness | None = None
    witness_acts: bool | None = None
    if verdict.answer:
        consistent = every
    else:
        witness, action = _witness(algebra, av, verdict)
        witness_acts = not _some_power_trace_nonzero(action)
        consistent = witness_acts is False
    return CrossCheckReport(
        verdict=verdict,
        outcomes=outcomes,
        witness=witness,
        witness_acts_nilpotently=witness_acts,
        consistent=consistent,
        depth=depth,
        max_dim=max_dim,
    )
