"""Per-round delay matrices for the vectorized backend.

The event engine asks the :class:`~repro.sim.network.DelayPolicy` for
one delay per message; the vectorized engine needs the same answers as
a ``(receivers, senders)`` array per pulse round.  Every built-in
policy has a closed-form fast path here (the formulas mirror the
scalar ``delay()`` implementations line for line); unknown policy
subclasses fall back to per-pair scalar calls, which keeps any custom
policy *correct* on this backend, just not fast.

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

from typing import Any, Sequence

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


def sender_masks(
    policy: DelayPolicy, senders: Sequence[int], send_real: "np.ndarray"
) -> Any:
    """The sender-side mask one round's :func:`delay_matrix` calls share.

    Depends only on the senders and their send times, so the engine
    computes it once per round and passes it to every receiver block
    instead of redoing the O(senders) membership test per block.
    ``None`` for policies that need no mask.
    """
    kind = type(policy)
    if kind is BiasedPartitionDelayPolicy:
        return _membership(senders, policy.group_a)
    if kind is SkewingDelayPolicy:
        return _membership(senders, policy.slow_senders)
    if kind is EclipseDelayPolicy:
        return _membership(senders, policy.victims)
    if kind is FlickeringPartitionDelayPolicy:
        # Odd phases swap which side counts as "same group", so fold
        # the phase into the sender's side: a link is fast exactly
        # when the folded side equals the receiver's.
        odd = (
            np.floor_divide(send_real, policy.period).astype(np.int64) % 2
        ) == 1
        return _membership(senders, policy.group_a) != odd
    if kind is PerLinkDelayPolicy:
        return sender_masks(policy.fallback, senders, send_real)
    return None


def delay_matrix(
    policy: DelayPolicy,
    config: NetworkConfig,
    senders: Sequence[int],
    receivers: Sequence[int],
    send_real: "np.ndarray",
    rng: Any = None,
    senders_mask: Any = None,
) -> "np.ndarray":
    """Delays of one round's dealer broadcasts, shape
    ``(len(receivers), len(senders))``.

    ``send_real[j]`` is the real send time of ``senders[j]``'s
    broadcast; entry ``[i, j]`` is the delay of the message
    ``senders[j] → receivers[i]``.  ``rng`` carries the persistent
    numpy generator for :class:`RandomDelayPolicy` (one per run, so
    successive rounds draw fresh values).  ``senders_mask`` is the
    round's :func:`sender_masks` result, computed here when omitted.
    Self-links (where a receiver equals a sender) are computed like
    any other entry and must be masked by the caller.  The result is
    a fresh array the caller may overwrite.
    """
    shape = (len(receivers), len(senders))
    low, high = config.delay_bounds(True)
    kind = type(policy)
    if senders_mask is None:
        senders_mask = sender_masks(policy, senders, send_real)
    # ``entries`` holds every value the matrix contains; the fill and
    # select paths name their few values so the bounds check below
    # need not scan the whole matrix.
    if kind is MinimumDelayPolicy:
        entries = np.array([low])
        matrix = np.full(shape, low)
    elif kind is ConstantFractionDelayPolicy:
        entries = np.array([high - policy.fraction * (high - low)])
        matrix = np.full(shape, entries[0])
    elif kind is RandomDelayPolicy:
        matrix = entries = rng.uniform(low, high, size=shape)
    elif kind in (
        BiasedPartitionDelayPolicy, FlickeringPartitionDelayPolicy
    ):
        same = senders_mask[None, :] == _membership(
            receivers, policy.group_a
        )[:, None]
        entries = np.array([low, high])
        matrix = np.where(same, low, high)
    elif kind is SkewingDelayPolicy:
        # Sender-only mask: broadcast explicitly, or the matrix comes
        # out (1, senders) instead of (receivers, senders).
        entries = np.where(senders_mask, high, low)
        matrix = np.broadcast_to(entries, shape).copy()
    elif kind is EclipseDelayPolicy:
        dst_v = _membership(receivers, policy.victims)[:, None]
        entries = np.array([low, high])
        matrix = np.where(senders_mask[None, :] | dst_v, high, low)
    elif kind is PerLinkDelayPolicy:
        matrix = entries = delay_matrix(
            policy.fallback, config, senders, receivers, send_real, rng,
            senders_mask,
        )
        for (src, dst), value in policy.overrides.items():
            rows = [i for i, node in enumerate(receivers) if node == dst]
            cols = [j for j, node in enumerate(senders) if node == src]
            for i in rows:
                for j in cols:
                    matrix[i, j] = value
    elif kind in (MaximumDelayPolicy, DelayPolicy):
        entries = np.array([config.d])
        matrix = np.full(shape, config.d)
    else:
        # Generic subclass: fall back to the scalar protocol so any
        # custom policy stays correct (O(senders x receivers) calls).
        matrix = entries = np.empty(shape)
        for i, dst in enumerate(receivers):
            for j, src in enumerate(senders):
                matrix[i, j] = policy.delay(
                    config, src, dst, float(send_real[j]), None, True
                )
    if matrix.size and (
        entries.min() < low - EPS or entries.max() > high + EPS
    ):
        raise ModelViolation(
            f"{policy.describe()} produced a delay outside "
            f"[{low}, {high}]"
        )
    return matrix
