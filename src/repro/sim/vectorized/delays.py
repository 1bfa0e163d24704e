"""Per-round delays for the vectorized backend.

The event engine asks the :class:`~repro.sim.network.DelayPolicy` for
one delay per message; the vectorized engine needs the same answers
for a whole pulse round at once.  Policies whose delay depends only on
the receiver's class, the sender and the send time have one
closed-form formula each, in :func:`delay_rows`: a few class rows
instead of a ``(receivers, senders)`` matrix (the formulas mirror the
scalar ``delay()`` implementations).  :func:`delay_matrix` expands
those rows, draws random delays, applies per-link overrides, and falls
back to per-pair scalar calls for unknown policy subclasses, which
keeps any custom policy *correct* on this backend, just not fast.

Two deliberate semantic notes:

* Only honest→honest links matter — silent faulty nodes send nothing —
  so every sampled delay uses the honest-link bounds ``[d - u, d]``.
  Columns belonging to faulty senders are masked out by the engine
  before use.
* :class:`~repro.sim.network.RandomDelayPolicy` draws from a
  numpy ``Generator`` seeded with the policy's seed instead of
  replaying the event engine's per-message ``random.Random`` stream:
  the two engines deliver messages in different orders, so draw-order
  equality is unattainable by construction.  Both streams are
  admissible and deterministic per seed; the differential suite
  compares random-delay scenarios at the verdict level only.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

try:  # gated dependency: the event engine must work without numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

from repro.sim.clocks import EPS
from repro.sim.errors import ModelViolation
from repro.sim.network import (
    BiasedPartitionDelayPolicy,
    ConstantFractionDelayPolicy,
    DelayPolicy,
    EclipseDelayPolicy,
    FlickeringPartitionDelayPolicy,
    MaximumDelayPolicy,
    MinimumDelayPolicy,
    NetworkConfig,
    PerLinkDelayPolicy,
    RandomDelayPolicy,
    SkewingDelayPolicy,
)


def delay_rng(policy: RandomDelayPolicy):
    """The per-run numpy generator backing a random policy's draws."""
    return np.random.default_rng(policy.seed)


def _membership(nodes: Sequence[int], members) -> "np.ndarray":
    return np.isin(nodes, list(members))


def _check_bounds(
    policy: DelayPolicy, config: NetworkConfig, entries: "np.ndarray"
) -> None:
    """Raise :class:`ModelViolation` when any of ``entries`` (every
    value a delay array holds) leaves the honest-link bounds."""
    low, high = config.delay_bounds(True)
    if entries.size and (
        entries.min() < low - EPS or entries.max() > high + EPS
    ):
        raise ModelViolation(
            f"{policy.describe()} produced a delay outside "
            f"[{low}, {high}]"
        )


def delay_rows(
    policy: DelayPolicy,
    config: NetworkConfig,
    senders: Sequence[int],
    receivers: Sequence[int],
    send_real: "np.ndarray",
) -> Optional[Tuple["np.ndarray", "np.ndarray"]]:
    """One round's delays as a few class rows, or ``None``.

    Returns ``(row_class, rows)``: entry ``[i, j]`` of the round's
    delay matrix is ``rows[row_class[i], j]``, the delay of
    ``senders[j] → receivers[i]``.  This covers every built-in policy
    whose delay depends only on the receiver's class, the sender and
    the send time — one class for maximum, minimum, constant-fraction
    and skewing, two (victim or not; group A or not) for eclipse and
    the partitions.  Random, per-link and unknown policies return
    ``None``.  Raises :class:`ModelViolation` for an out-of-bounds
    delay, as :func:`delay_matrix` does.
    """
    low, high = config.delay_bounds(True)
    kind = type(policy)
    row_class = np.zeros(len(receivers), dtype=np.intp)  # one class
    if kind in (MaximumDelayPolicy, DelayPolicy):
        rows = np.full((1, len(senders)), config.d)
    elif kind is MinimumDelayPolicy:
        rows = np.full((1, len(senders)), low)
    elif kind is ConstantFractionDelayPolicy:
        value = high - policy.fraction * (high - low)
        rows = np.full((1, len(senders)), value)
    elif kind is SkewingDelayPolicy:
        slow = _membership(senders, policy.slow_senders)
        rows = np.where(slow, high, low)[None, :]
    elif kind is EclipseDelayPolicy:
        # Class 1 is the victims: every link into a victim is slow.
        victim = _membership(senders, policy.victims)
        row_class = _membership(receivers, policy.victims).astype(np.intp)
        rows = np.stack(
            (np.where(victim, high, low), np.full(len(senders), high))
        )
    elif kind in (
        BiasedPartitionDelayPolicy, FlickeringPartitionDelayPolicy
    ):
        side = _membership(senders, policy.group_a)
        if kind is FlickeringPartitionDelayPolicy:
            # Odd phases swap which side counts as "same group", so
            # fold the phase into the sender's side: a link is fast
            # exactly when the folded side equals the receiver's.
            side = side != (
                np.floor_divide(send_real, policy.period).astype(np.int64)
                % 2
                == 1
            )
        # Class 1 is group A: fast exactly from senders on its side.
        row_class = _membership(receivers, policy.group_a).astype(np.intp)
        rows = np.stack(
            (np.where(side, high, low), np.where(side, low, high))
        )
    else:
        return None
    _check_bounds(policy, config, rows)
    return row_class, rows


def delay_matrix(
    policy: DelayPolicy,
    config: NetworkConfig,
    senders: Sequence[int],
    receivers: Sequence[int],
    send_real: "np.ndarray",
    rng: Any = None,
    classes: Any = None,
) -> "np.ndarray":
    """Delays of one round's dealer broadcasts, shape
    ``(len(receivers), len(senders))``.

    ``send_real[j]`` is the real send time of ``senders[j]``'s
    broadcast; entry ``[i, j]`` is the delay of the message
    ``senders[j] → receivers[i]``.  ``rng`` carries the persistent
    numpy generator for :class:`RandomDelayPolicy` (one per run, so
    successive rounds draw fresh values).  ``classes`` is the
    :func:`delay_rows` result for these receivers when the caller
    already has it (the engine forms it once per round); it is
    computed here when omitted.  Self-links (where a receiver equals a
    sender) are computed like any other entry and must be masked by
    the caller.  The result is a fresh array the caller may overwrite.
    """
    if classes is None:
        classes = delay_rows(policy, config, senders, receivers, send_real)
    if classes is not None:
        row_class, rows = classes
        return rows[row_class]
    shape = (len(receivers), len(senders))
    kind = type(policy)
    if kind is RandomDelayPolicy:
        low, high = config.delay_bounds(True)
        matrix = rng.uniform(low, high, size=shape)
    elif kind is PerLinkDelayPolicy:
        matrix = delay_matrix(
            policy.fallback, config, senders, receivers, send_real, rng
        )
        for (src, dst), value in policy.overrides.items():
            rows = [i for i, node in enumerate(receivers) if node == dst]
            cols = [j for j, node in enumerate(senders) if node == src]
            for i in rows:
                for j in cols:
                    matrix[i, j] = value
    else:
        # Generic subclass: fall back to the scalar protocol so any
        # custom policy stays correct (O(senders x receivers) calls).
        matrix = np.empty(shape)
        for i, dst in enumerate(receivers):
            for j, src in enumerate(senders):
                matrix[i, j] = policy.delay(
                    config, src, dst, float(send_real[j]), None, True
                )
    _check_bounds(policy, config, matrix)
    return matrix
