"""Default component catalogs and the paper's mix notation.

The paper characterizes components against Xilinx XC4000-class parts:
FPGA resources are *function generators* (two 4-input LUTs per CLB),
and FG costs of datapath operators at 16 bits fall roughly where the
:func:`default_library` places them (a ripple-carry adder needs one FG
per bit plus carry handling; an array multiplier is an order of
magnitude larger).  Absolute values only have to be *mutually
consistent* — they enter the model solely through eq. 11,
``alpha * sum(u[p,k] * FG(k)) <= C``.

The result tables of the paper describe explorations as ``"2A+2M+1S"``
(2 adders, 2 multipliers, 1 subtracter); :func:`mix_from_string` parses
exactly that notation into an :class:`~repro.library.components.Allocation`.
"""

from __future__ import annotations

import re
from typing import Dict

from repro.errors import LibraryError
from repro.graph.operations import OpType
from repro.library.components import Allocation, ComponentLibrary, FUModel

#: Mix-notation letters -> default-library model names.
MIX_LETTERS: "Dict[str, str]" = {
    "A": "add16",
    "M": "mul16",
    "S": "sub16",
    "D": "div16",
    "C": "cmp16",
    "L": "alu16",
}

#: The FU mix a solve explores unless told otherwise.
DEFAULT_MIX = "2A+2M+1S"


def default_library() -> ComponentLibrary:
    """The default XC4000-class characterized component library.

    Models
    ------
    ========  ==========================  =====  ========  =======
    name      executes                    FG     delay_ns  latency
    ========  ==========================  =====  ========  =======
    add16     ADD                         18     24.0      1
    sub16     SUB                         18     24.0      1
    alu16     ADD, SUB, CMP               26     28.0      1
    mul16     MUL                         176    52.0      1
    mul16p    MUL (pipelined)             190    30.0      2
    div16     DIV                         210    96.0      1
    cmp16     CMP                         10     16.0      1
    shift16   SHIFT                       12     14.0      1
    logic16   LOGIC                       8      10.0      1
    ========  ==========================  =====  ========  =======

    ``mul16p`` exists to exercise the design exploration the paper
    highlights against Gebotys' model: a pipelined and a non-pipelined
    multiplier coexisting in one allocation.
    """
    lib = ComponentLibrary("xc4000-default")
    lib.add_model(FUModel("add16", frozenset({OpType.ADD}), 18, 24.0))
    lib.add_model(FUModel("sub16", frozenset({OpType.SUB}), 18, 24.0))
    lib.add_model(
        FUModel("alu16", frozenset({OpType.ADD, OpType.SUB, OpType.CMP}), 26, 28.0)
    )
    lib.add_model(FUModel("mul16", frozenset({OpType.MUL}), 176, 52.0))
    lib.add_model(
        FUModel("mul16p", frozenset({OpType.MUL}), 190, 30.0, latency=2, pipelined=True)
    )
    lib.add_model(FUModel("div16", frozenset({OpType.DIV}), 210, 96.0))
    lib.add_model(FUModel("cmp16", frozenset({OpType.CMP}), 10, 16.0))
    lib.add_model(FUModel("shift16", frozenset({OpType.SHIFT}), 12, 14.0))
    lib.add_model(FUModel("logic16", frozenset({OpType.LOGIC}), 8, 10.0))
    return lib


_MIX_TERM = re.compile(r"^(\d+)([A-Za-z])$")


def mix_from_string(
    mix: str, library: "ComponentLibrary | None" = None
) -> Allocation:
    """Parse the paper's FU-mix notation, e.g. ``"2A+2M+1S"``.

    Each term is ``<count><letter>`` with letters defined in
    :data:`MIX_LETTERS`; terms are joined by ``+``.  The allocation's
    instance order follows the string left to right, so ``"2A+2M+1S"``
    yields ``add16_1, add16_2, mul16_1, mul16_2, sub16_1``.
    """
    if library is None:
        library = default_library()
    if not isinstance(mix, str) or not mix.strip():
        raise LibraryError(f"FU mix must be a non-empty string, got {mix!r}")
    counts: "Dict[str, int]" = {}
    for term in mix.strip().split("+"):
        match = _MIX_TERM.match(term.strip())
        if not match:
            raise LibraryError(
                f"bad FU mix term {term!r} (expected e.g. '2A'); full mix: {mix!r}"
            )
        count = int(match.group(1))
        letter = match.group(2).upper()
        if letter not in MIX_LETTERS:
            raise LibraryError(
                f"unknown FU mix letter {letter!r}; known: {sorted(MIX_LETTERS)}"
            )
        if count < 1:
            raise LibraryError(f"FU mix count must be >= 1 in term {term!r}")
        model_name = MIX_LETTERS[letter]
        counts[model_name] = counts.get(model_name, 0) + count
    return Allocation.from_counts(library, counts)
