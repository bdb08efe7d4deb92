"""Induction variable analysis.

Detects *basic* induction variables: header phis of the form
``i = phi [init, preheader], [i + step, latch]`` with a compile-time
constant step.  For loops with a single exit condition testing the IV (or
its update) against a loop-invariant bound, the analysis also derives the
maximum (or minimum) value the IV takes inside the loop body — the
substitute for array-size information that §4.2 of the paper uses to keep
prefetch address generation fault-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.function import Function
from ..ir.instructions import BinOp, Branch, Cmp, Instruction, Phi
from ..ir.values import Argument, Constant, Value
from .loops import Loop, LoopInfo


@dataclass
class IVBound:
    """The extreme value an induction variable reaches in its loop.

    :ivar value: loop-invariant IR value the IV is compared against.
    :ivar inclusive: whether the IV may equal ``value`` inside the body.
        The clamp emitted by the prefetch pass is ``min(i + off, value)``
        when inclusive and ``min(i + off, value - 1)`` otherwise (mirrored
        for decreasing IVs).
    """

    value: Value
    inclusive: bool


@dataclass
class InductionVariable:
    """A basic induction variable of a loop.

    :ivar phi: the header phi node.
    :ivar loop: the loop the phi governs.
    :ivar init: the incoming value from outside the loop.
    :ivar step: the constant step added each iteration (may be negative).
    :ivar update: the add/sub instruction producing the next value.
    :ivar bound: the derived extreme value, or ``None`` when the loop exit
        does not have the single-condition shape required by §4.2.
    """

    phi: Phi
    loop: Loop
    init: Value
    step: int
    update: BinOp
    bound: IVBound | None = None

    @property
    def is_increasing(self) -> bool:
        """True when the IV grows each iteration."""
        return self.step > 0

    @property
    def is_canonical(self) -> bool:
        """True for the canonical form: starts at 0 and steps by +1."""
        return (self.step == 1 and isinstance(self.init, Constant)
                and self.init.value == 0)


class InductionAnalysis:
    """Finds every basic induction variable in a function.

    :param func: the function to analyse.
    :param loop_info: a precomputed :class:`LoopInfo` (computed on demand
        if omitted).
    """

    def __init__(self, func: Function, loop_info: LoopInfo | None = None):
        self.function = func
        self.loop_info = loop_info or LoopInfo(func)
        self._ivs: dict[int, InductionVariable] = {}
        for loop in self.loop_info.loops:
            for phi in loop.header.phis:
                iv = _match_basic_iv(phi, loop)
                if iv is not None:
                    iv.bound = _derive_bound(iv)
                    self._ivs[id(phi)] = iv

    def iv_for(self, value: Value) -> InductionVariable | None:
        """The induction variable whose phi is ``value``, if any."""
        return self._ivs.get(id(value))

    def is_induction_phi(self, value: Value) -> bool:
        """Whether ``value`` is the phi of a detected induction variable."""
        return id(value) in self._ivs

    def ivs_in_loop(self, loop: Loop) -> list[InductionVariable]:
        """All IVs whose governing loop is exactly ``loop``."""
        return [iv for iv in self._ivs.values() if iv.loop is loop]

    @property
    def all(self) -> list[InductionVariable]:
        """Every detected induction variable."""
        return list(self._ivs.values())


def _is_loop_invariant(value: Value, loop: Loop) -> bool:
    if isinstance(value, (Constant, Argument)):
        return True
    if isinstance(value, Instruction):
        return value.parent is not None and value.parent not in loop.blocks
    return False


def _match_basic_iv(phi: Phi, loop: Loop) -> InductionVariable | None:
    if len(phi.incoming) != 2:
        return None
    init = None
    update_value = None
    for value, pred in phi.incoming:
        if pred in loop.blocks:
            update_value = value
        else:
            init = value
    if init is None or update_value is None:
        return None
    if not _is_loop_invariant(init, loop):
        return None
    if not isinstance(update_value, BinOp):
        return None
    if update_value.opcode not in ("add", "sub"):
        return None
    # Match i +/- C where one operand is the phi and the other a constant.
    step: int | None = None
    if update_value.opcode == "add":
        if update_value.lhs is phi and isinstance(update_value.rhs, Constant):
            step = update_value.rhs.value
        elif update_value.rhs is phi and isinstance(update_value.lhs,
                                                    Constant):
            step = update_value.lhs.value
    else:  # sub
        if update_value.lhs is phi and isinstance(update_value.rhs, Constant):
            step = -update_value.rhs.value
    if step is None or step == 0:
        return None
    return InductionVariable(phi=phi, loop=loop, init=init, step=step,
                             update=update_value)


#: Comparison predicates keyed by (predicate, exits_on_false) describing
#: whether the bound is inclusive for an increasing IV.
_INCREASING_CONTINUE = {"slt": False, "sle": True, "ult": False, "ule": True,
                        "ne": False}
_DECREASING_CONTINUE = {"sgt": False, "sge": True, "ugt": False, "uge": True,
                        "ne": False}


def _derive_bound(iv: InductionVariable) -> IVBound | None:
    branch = iv.loop.single_exit_condition
    if not isinstance(branch, Branch):
        return None
    cond = branch.condition
    if not isinstance(cond, Cmp):
        return None
    # Determine which side mentions the IV (either the phi or its update).
    lhs, rhs, predicate = cond.lhs, cond.rhs, cond.predicate
    iv_values = (iv.phi, iv.update)
    if lhs in iv_values:
        other = rhs
    elif rhs in iv_values:
        other = lhs
        predicate = _swap_predicate(predicate)
    else:
        return None
    if not _is_loop_invariant(other, iv.loop):
        return None
    # Normalise so that the predicate describes the *continue* condition.
    continues_in_loop = branch.then_block in iv.loop.blocks
    if not continues_in_loop:
        predicate = _negate_predicate(predicate)
    table = _INCREASING_CONTINUE if iv.is_increasing else _DECREASING_CONTINUE
    if predicate not in table:
        return None
    inclusive = table[predicate]
    if predicate == "ne":
        # i != n continues: the last body value is n - step.
        inclusive = False
    return IVBound(value=other, inclusive=inclusive)


def _swap_predicate(predicate: str) -> str:
    swap = {"slt": "sgt", "sle": "sge", "sgt": "slt", "sge": "sle",
            "ult": "ugt", "ule": "uge", "ugt": "ult", "uge": "ule",
            "eq": "eq", "ne": "ne"}
    return swap.get(predicate, predicate)


def _negate_predicate(predicate: str) -> str:
    neg = {"slt": "sge", "sle": "sgt", "sgt": "sle", "sge": "slt",
           "ult": "uge", "ule": "ugt", "ugt": "ule", "uge": "ult",
           "eq": "ne", "ne": "eq"}
    return neg.get(predicate, predicate)
