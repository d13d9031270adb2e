"""Load-shedding policies for bounded queues.

When a queue (an FE request queue or a fabric source port) is given a
finite capacity, an offered item either joins the queue or is dropped.
:func:`shed_decision` is the single shared policy kernel, so bounded runs
stay bit-identical across engines.  The scalar event loop calls it for
every offered item.  The array engine calls it only when the backlog is
at or above :func:`admit_floor`: below that floor every policy admits
without drawing, so a call it skips could neither drop the item nor
advance the shed RNG, and the calls it does make come with the same
arguments in the same order as the scalar loop's.

Three policies:

``tail_drop``
    Drop only when the queue is hard-full (``backlog >= capacity``).
``red``
    RED-style probabilistic early drop: above half occupancy the drop
    probability ramps linearly from near zero at ``capacity // 2`` to
    one at capacity.  Draws come from the simulator's dedicated shed
    RNG (fixed seed 0) and happen *only* when the ramp is active, so
    tail-drop and RED runs with empty queues are bit-identical.
``priority``
    Remote/REM traffic (a lookup executing away from its arrival LC, or
    a message entering the fabric as a request) sheds above half
    occupancy; local traffic rides to capacity.  Deterministic — no RNG.

The decision returns the drop-taxonomy kind (``"queue_full"`` for
hard-full, ``"shed"`` for an early policy drop) or ``None`` to admit.
"""

from __future__ import annotations

from typing import Callable, Optional

def admit_floor(capacity: int) -> int:
    """The backlog below which :func:`shed_decision` admits under every
    policy without calling ``rand``: ``capacity // 2``, where ``red``'s
    ramp starts.  ``tail_drop`` drops only at ``capacity`` and
    ``priority`` sheds from ``(capacity + 1) // 2``, both at or above it.
    A capacity of 1 has floor 0, so every offer reaches the kernel."""
    return capacity // 2


def shed_decision(
    policy: str,
    backlog: int,
    capacity: int,
    low_priority: bool,
    rand: Callable[[], float],
) -> Optional[str]:
    """Admit-or-drop decision for one offered item.

    Parameters
    ----------
    policy:
        One of :data:`repro.core.config.SHED_POLICIES`.
    backlog:
        Items already queued ahead of this one.
    capacity:
        The queue bound (positive).
    low_priority:
        True for remote/REM traffic (preferred victim under
        ``priority``).
    rand:
        Zero-arg uniform-[0,1) draw; called only by ``red`` and only
        when its ramp is active, so the caller's RNG stream is untouched
        otherwise.

    Returns the drop kind (``"queue_full"`` | ``"shed"``) or ``None``.
    """
    if backlog >= capacity:
        return "queue_full"
    if policy == "red":
        min_th = capacity // 2
        if backlog >= min_th:
            prob = (backlog - min_th + 1) / (capacity - min_th + 1)
            if rand() < prob:
                return "shed"
    elif policy == "priority":
        if low_priority and backlog >= (capacity + 1) // 2:
            return "shed"
    return None
