"""The round-batched CPS engine.

One iteration of the main loop advances *every* honest node through one
full CPS round with array operations:

1. pulse — evaluate each node's next pulse (real, local) time;
2. broadcast — each honest dealer's ``<r>_v`` leaves at local
   ``H_v(p^r_v) + theta S``; the round's delays
   (:mod:`repro.sim.vectorized.delays`) give every arrival time;
3. accept — the TCB window test ``P < h <= P + window`` over
   (receiver, dealer) pairs;
4. vote — offset estimates ``h - P - d + u - S`` where accepted (⊥
   elsewhere, 0 for self), the ``f - b`` discard applied by rank,
   midpoint of the two remaining extremes taken;
5. advance — next pulse at local ``P + Delta + T``.

This is exact — not approximate — for the scenarios the backend
accepts: with silent faulty nodes and admissible honest-link delays,
Lemma 10 puts every honest dealer's message inside every honest
receiver's round-``r`` window, the event engine's early/stale-message
guards reduce to the same ``P < h <= P + window`` comparison, and echo
rejection provably never fires, so simulating echoes (and per-message
event interleavings generally) cannot change any output.  Scenarios
where that argument breaks — actively Byzantine behaviours, membership
churn — raise :class:`UnsupportedScenarioError` instead of silently
degrading.

The kernel
----------
* **Clock table.**  All honest clocks live in one padded
  (nodes × segments) table (:class:`_VectorClock`).  Pulse, send and
  completion times are one batched ``H^{-1}`` call each per round;
  arrival local times are one batched ``H`` call per round on the
  class path and per block on the block path.  Both pick
  the segment ``bisect_right`` would and apply
  :class:`~repro.sim.clocks.HardwareClock`'s IEEE operations in its
  order, so they are bit-identical to the scalar clock.
* **Class-structured delays.**  When the delay policy's delays come as
  a few class rows (``delay_rows``: ``rows[row_class[receiver],
  sender]``), an unobserved round needs no (receivers × dealers)
  matrix.  Each class row of real arrivals ``rows + send_real`` gives
  its two smallest and two largest entries with their indices, so
  every receiver gets its earliest and latest arrival from the *other*
  dealers in O(n).  Within one clock segment ``local + rate * (t -
  start)`` is monotone non-decreasing in IEEE arithmetic, so ``max_j
  H_i(t_j) = H_i(max_j t_j)`` bit for bit: one ``H`` call on an
  (honest × 2) array gives every receiver's local extremes, and a
  receiver whose two extremes lie on different segments of its clock
  has its whole row evaluated instead.  That is all the vote needs
  when every arrival is inside its window and nothing is discarded.
* **Byte-budgeted blocks: the fallback.**  Every other round — random,
  per-link and custom delay policies, checks or a FULL trace, some
  arrival outside its window, a positive discard (fewer faulty nodes
  than ``f``) — runs over receiver blocks of ``BLOCK_BYTES // (8 *
  honest)`` rows (about 2 MiB per array, 52 rows at n = 10,000, one
  block at n <= 1,000).  The delay matrix is turned into arrival
  times in place and the local times go to one reused buffer,
  allocated on the first block, so a block touches a few cache-sized
  arrays instead of page-faulting fresh n-wide temporaries.  The
  choice is made per round from its inputs.
* **Fused accept and vote** (:class:`_BlockKernel`).  Both paths end
  in one finishing step that takes each receiver's earliest and latest
  arrival.  Every step returns exactly what the mask / ``where`` /
  full-sort formulation returns:

  - Plain row minima and maxima of ``h`` (self-links set to ``∓inf``)
    decide the window test for rows whose every message is inside it;
    only other blocks build the boolean mask.
  - ``latest`` is the (masked) row maximum of ``h`` plus the finalize
    wait: fp addition is monotone, so ``max(h) + w == max(h + w)``.
  - Without a discard the vote's extremes are the self-estimate 0 and
    the extreme accepted estimates, and ``(h - P) - shift`` is monotone
    in ``h``, so they come from the row extremes of ``h``.
  - With a discard the estimates are formed in place as
    ``(h - P) - shift``, ⊥ is written as ``+inf`` with ``np.putmask``
    (it sorts after every finite estimate, so ranks below the non-⊥
    count are unchanged), and ``ndarray.partition`` on the block's few
    distinct ranks places the same values at those ranks as a full
    sort.

Checks and FULL traces take the block path; they force the mask path
and read an unpartitioned copy of the estimates, which only matters at
the small n those observers run at.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence

try:  # gated dependency: the event engine must work without numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

from repro.core.cps import CpsRoundSummary
from repro.core.params import ProtocolParameters
from repro.sim.clocks import EPS, HardwareClock, validate_initial_skew
from repro.sim.errors import (
    ClockError,
    ConfigurationError,
    SimulationError,
)
from repro.sim.network import (
    DelayPolicy,
    MaximumDelayPolicy,
    NetworkConfig,
    RandomDelayPolicy,
)
from repro.sim.scheduler import SimulationResult
from repro.sim.trace import Trace, TraceLevel, TraceSpec
from repro.sim.vectorized.delays import (
    delay_matrix,
    delay_rng,
    delay_rows,
)
from repro.sync.crusader import BOT


class UnsupportedScenarioError(ConfigurationError):
    """The vectorized backend cannot run this scenario faithfully.

    Raised at build time (never mid-run) so campaign plans fail fast;
    the message names the unsupported feature and the escape hatch
    (``backend="event"``).
    """


def require_numpy() -> None:
    """Fail with an actionable message when numpy is absent.

    The core package deliberately keeps ``networkx`` as its only hard
    dependency; the vectorized backend is the one numpy consumer and
    gates on it here instead of at import time.
    """
    if np is None:
        raise ConfigurationError(
            "the vectorized backend needs numpy "
            "(pip install numpy, or use backend='event')"
        )


#: Byte budget of one ``(receivers, dealers)`` float64 block array.
#: The kernel reuses a few such buffers across blocks, so they stay
#: cache-sized instead of being page-faulted anew for every block.
BLOCK_BYTES = 2 << 20


def block_rows(nh: int) -> int:
    """Receiver rows per block for ``nh`` honest dealers."""
    return max(1, BLOCK_BYTES // (8 * nh))


class _VectorClock:
    """Every honest node's hardware clock as one padded segment table.

    Row ``i`` holds clock ``i``'s segments, followed by ``+inf``
    breakpoints (at least one) that no finite time reaches.  The
    segment of a time ``t`` is then the count of breakpoints ``<= t``
    minus one, clipped at 0 — the same index ``bisect_right`` and
    ``searchsorted(side="right")`` give — and evaluation performs
    :class:`HardwareClock`'s IEEE operations in its order, so the
    batched results are bit-identical to the scalar ones.
    """

    __slots__ = ("starts", "locals", "rates", "sizes", "constant", "origin")

    def __init__(self, clocks: Sequence[HardwareClock]) -> None:
        segments = [clock.segments() for clock in clocks]
        self.sizes = counts = np.array([len(row) for row in segments])
        width = int(counts.max())
        shape = (len(segments), width + 1)
        self.starts = np.full(shape, np.inf)
        self.locals = np.full(shape, np.inf)
        self.rates = np.ones(shape)
        flat = [segment for row in segments for segment in row]
        rows = np.repeat(np.arange(len(segments)), counts)
        cols = np.arange(len(flat)) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        self.starts[rows, cols] = [s.t_start for s in flat]
        self.locals[rows, cols] = [s.local_start for s in flat]
        self.rates[rows, cols] = [s.rate for s in flat]
        self.constant = width == 1
        self.origin = bool(np.all(self.starts[:, 0] == 0.0))

    def real_times(self, local: "np.ndarray") -> "np.ndarray":
        """Batched ``H^{-1}``: clock ``i``'s real time at ``local[i]``.

        Raises the :class:`ClockError` ``HardwareClock.real_time``
        would raise for the first clock read before its start.
        """
        first = self.locals[:, 0]
        early = local < first - EPS
        if early.any():
            i = int(np.argmax(early))
            raise ClockError(
                f"local time {float(local[i])} precedes clock start "
                f"{float(first[i])}"
            )
        index = np.count_nonzero(self.locals <= local[:, None], axis=1)
        index = np.maximum(index - 1, 0)[:, None]

        def pick(table: "np.ndarray") -> "np.ndarray":
            return np.take_along_axis(table, index, axis=1)[:, 0]

        return pick(self.starts) + (local - pick(self.locals)) / pick(
            self.rates
        )

    def segments(self, t: "np.ndarray") -> "np.ndarray":
        """Clock ``i``'s segment index at each time ``t[i, j]``, as
        :meth:`local_times` picks it (every clock, one row each)."""
        count = np.count_nonzero(
            self.starts[:, None, :] <= t[:, :, None], axis=2
        )
        return np.clip(count - 1, 0, (self.sizes - 1)[:, None])

    def local_times(
        self, rows: Any, t: "np.ndarray", out: "np.ndarray"
    ) -> "np.ndarray":
        """Batched ``H`` over clock rows ``rows`` (a slice or an index
        array): ``out[i, j] = H_k(t[i, j])`` for the clock
        ``k = rows[i]``; returns ``out``, which must not be ``t``."""
        row = np.arange(len(t))
        if self.constant:
            return self._affine(rows, row, 0, t, out)
        # A row's segment at its earliest time holds for the whole row
        # but past the few breakpoints inside the row's time range;
        # each of those re-evaluates the entries at or after it on the
        # next segment.
        starts = self.starts[rows]
        base = np.count_nonzero(starts <= t.min(axis=1)[:, None], axis=1)
        top = np.count_nonzero(starts <= t.max(axis=1)[:, None], axis=1)
        self._affine(rows, row, np.maximum(base - 1, 0), t, out)
        steps = int((top - base).max())
        if steps:
            later = np.empty_like(out)
            pad = starts.shape[1] - 1
            last = self.sizes[rows] - 1
            for step in range(steps):
                edge = starts[row, np.minimum(base + step, pad)]
                self._affine(
                    rows, row, np.minimum(base + step, last), t, later
                )
                np.copyto(out, later, where=t >= edge[:, None])
        return out

    def _affine(
        self,
        rows: Any,
        row: "np.ndarray",
        segment: Any,
        t: "np.ndarray",
        out: "np.ndarray",
    ) -> "np.ndarray":
        """``out[i] = local + rate * (t[i] - start)`` on segment
        ``segment[i]`` of the block's clock ``i``."""

        def pick(table: "np.ndarray") -> "np.ndarray":
            return table[rows][row, segment][:, None]

        if self.origin and not np.any(segment):
            # t - 0.0 == t: skip the pass (times here are positive).
            np.multiply(t, pick(self.rates), out=out)
        else:
            np.subtract(t, pick(self.starts), out=out)
            out *= pick(self.rates)
        out += pick(self.locals)
        return out


class _Vote(NamedTuple):
    """The acceptances and vote of receivers ``start`` onwards, row
    ``i`` for receiver ``start + i``."""

    counts: "np.ndarray"  # non-⊥ estimates, the self-estimate included
    discard: "np.ndarray"  # the f - b discard
    low: "np.ndarray"
    high: "np.ndarray"
    latest: "np.ndarray"  # latest accepted arrival (local), or -inf
    accept: Any  # (rows, dealers) mask, or None: all but the self-link
    estimates: Any  # unpartitioned estimates when observing, else None
    correction: "np.ndarray"  # the vote's midpoint
    completion: "np.ndarray"  # local time the round's TCBs complete


class _BlockKernel:
    """The fused acceptance-and-vote step.

    :meth:`finish` turns each receiver's earliest and latest arrival
    (local) into its vote; both the class path and the block path end
    there.  :meth:`vote` runs one receiver block: it works in reused
    ``(rows, dealers)`` buffers, allocated on first use, and overwrites
    the local-time block it is given.  Every result equals what the
    straightforward mask / ``where`` / full-sort formulation computes,
    bit for bit (see the module docstring for the argument).
    """

    __slots__ = (
        "n", "f", "honest", "window", "shift", "fin_wait", "rows",
        "_buffers",
    )

    def __init__(
        self, params: ProtocolParameters, honest: Sequence[int], rows: int
    ) -> None:
        self.n = params.n
        self.f = params.f
        self.honest = honest
        self.window = params.tcb_window
        self.shift = params.d - params.u + params.S
        self.fin_wait = params.tcb_finalize_wait
        self.rows = rows
        self._buffers: Any = None

    def buffers(self) -> Any:
        """The reused (local times, accept mask, scratch mask) block
        buffers."""
        if self._buffers is None:
            shape = (self.rows, len(self.honest))
            self._buffers = (
                np.empty(shape),
                np.empty(shape, dtype=bool),
                np.empty(shape, dtype=bool),
            )
        return self._buffers

    def vote(
        self,
        h: "np.ndarray",
        start: int,
        pulse_local: "np.ndarray",
        observing: bool,
    ) -> _Vote:
        """Accept and vote on local arrival times ``h`` of the block
        whose first receiver is honest row ``start`` and whose pulse
        local times are ``pulse_local``."""
        diagonal = (np.arange(len(h)), np.arange(start, start + len(h)))
        # Row extremes over the dealers' messages, self-links excluded.
        h[diagonal] = -np.inf
        latest = h.max(axis=1)
        h[diagonal] = np.inf
        earliest = h.min(axis=1)
        return self.finish(start, pulse_local, earliest, latest, h, observing)

    def finish(
        self,
        start: int,
        pulse_local: "np.ndarray",
        earliest: "np.ndarray",
        latest: "np.ndarray",
        h: Any = None,
        observing: bool = False,
    ) -> Optional[_Vote]:
        """The window test, the vote and the completion times of
        receivers ``start`` onwards, from each one's earliest and
        latest arrival from the other dealers.

        ``h`` is the block's local arrival times (self-links at
        ``+inf``), or ``None`` on the class path; then the result is
        ``None`` whenever the vote needs the whole matrix — some
        arrival outside its window, or a positive discard.
        """
        size = len(pulse_local)
        diagonal = (np.arange(size), np.arange(start, start + size))
        base = pulse_local[:, None]
        upper = base + self.window + EPS
        accept = None
        if observing or not (
            np.all(earliest > pulse_local) and np.all(latest <= upper[:, 0])
        ):
            if h is None:
                return None
            # Some message falls outside its window: the TCB test as a
            # mask, and the extremes over the accepted messages only.
            _local, accept_buf, mask_buf = self.buffers()
            accept = np.greater(h, base, out=accept_buf[:size])
            accept &= np.less_equal(h, upper, out=mask_buf[:size])
            accept[diagonal] = False
            counts = 1 + np.count_nonzero(accept, axis=1)
            latest = np.maximum.reduce(
                h, axis=1, where=accept, initial=-np.inf
            )
            earliest = np.minimum.reduce(
                h, axis=1, where=accept, initial=np.inf
            )
        else:
            counts = np.full(size, len(self.honest))
        discard = np.maximum(self.f - (self.n - counts), 0)
        if h is None and discard.any():
            return None
        if np.any(counts <= 2 * discard):
            bad = int(np.argmax(counts <= 2 * discard))
            raise SimulationError(
                f"need more than {2 * int(discard[bad])} non-bot "
                f"estimates at node {self.honest[start + bad]}, got "
                f"{int(counts[bad])}"
            )
        estimates = None
        if observing or discard.any():
            # h becomes the estimates in place; ⊥ is +inf, which sorts
            # after every finite estimate.
            h -= base
            h -= self.shift
            if accept is not None:
                np.putmask(
                    h,
                    np.logical_not(accept, out=self.buffers()[2][:size]),
                    np.inf,
                )
            h[diagonal] = 0.0
            if observing:
                estimates = h.copy()
            high_rank = counts - 1 - discard
            h.partition(
                np.unique(np.concatenate((discard, high_rank))), axis=1
            )
            low = h[diagonal[0], discard]
            high = h[diagonal[0], high_rank]
        else:
            # No discard: the vote's extremes are the extreme accepted
            # estimates or the self-estimate 0, and rounding is
            # monotone, so they follow from the extreme local times.
            low = np.minimum(earliest - pulse_local - self.shift, 0.0)
            high = np.maximum(latest - pulse_local - self.shift, 0.0)
        done = latest + self.fin_wait
        completion = np.where(
            self.n - counts > 0,
            np.maximum(done, pulse_local + self.window + 2.0 * EPS),
            done,
        )
        return _Vote(
            counts, discard, low, high, latest, accept, estimates,
            (low + high) / 2.0, completion,
        )


def _class_extremes(
    table: _VectorClock,
    row_class: "np.ndarray",
    arrival: "np.ndarray",
    rows_per_block: int,
) -> Any:
    """Each honest receiver's earliest and latest local arrival from
    the other dealers, without forming the (receivers × dealers)
    matrix.

    ``arrival[c, j]`` is dealer ``j``'s real arrival time at receivers
    of class ``row_class[i] = c``.  A class's two smallest and two
    largest entries give every receiver's real extremes with its own
    self-link left out.  Within one clock segment ``H`` is monotone in
    IEEE arithmetic, so the local extremes are ``H`` of the real ones;
    a receiver whose real extremes lie on different segments of its
    clock has its whole row evaluated instead (in blocks of
    ``rows_per_block``).
    """
    nh = arrival.shape[1]
    own = np.arange(nh)
    classes = np.arange(len(arrival))
    spans = np.empty((nh, 2))
    for col, (pick, reduce, fill) in enumerate(
        ((np.argmin, np.min, np.inf), (np.argmax, np.max, -np.inf))
    ):
        best = pick(arrival, axis=1)
        top = arrival[classes, best]
        arrival[classes, best] = fill
        runner_up = reduce(arrival, axis=1)
        arrival[classes, best] = top
        spans[:, col] = np.where(
            best[row_class] == own, runner_up[row_class], top[row_class]
        )
    local = table.local_times(slice(0, nh), spans, np.empty_like(spans))
    if not table.constant:
        segment = table.segments(spans)
        straddling = np.flatnonzero(segment[:, 0] != segment[:, 1])
        for first in range(0, len(straddling), rows_per_block):
            part = straddling[first:first + rows_per_block]
            full = table.local_times(
                part, arrival[row_class[part]], np.empty((len(part), nh))
            )
            diagonal = (np.arange(len(part)), part)
            full[diagonal] = np.inf
            local[part, 0] = full.min(axis=1)
            full[diagonal] = -np.inf
            local[part, 1] = full.max(axis=1)
    return local[:, 0], local[:, 1]


class VectorizedSimulation:
    """Array-batched CPS execution with the event engine's surface.

    Accepts the assembly-level inputs of
    :func:`repro.core.cps.assemble_cps_simulation` (parameters, clocks,
    faulty set, delay policy, trace spec, checks) and produces a
    :class:`~repro.sim.scheduler.SimulationResult`; ``run`` /
    ``attach_checks`` / ``honest`` match the scheduler's surface, so
    :func:`~repro.analysis.runner.run_pulse_trial`, the conformance
    monitors, and the campaign builders are backend-agnostic.

    Faulty nodes are *silent*: they never pulse, never send, and each
    contributes one ⊥ to every honest node's vote — exactly the
    ``silent`` registry adversary.  Anything else is rejected by the
    facade before construction.
    """

    def __init__(
        self,
        params: ProtocolParameters,
        clocks: Sequence[HardwareClock],
        faulty: Sequence[int] = (),
        delay_policy: Optional[DelayPolicy] = None,
        u_tilde: Optional[float] = None,
        seed: int = 0,
        trace: TraceSpec = "pulses",
        checks: Any = None,
    ) -> None:
        require_numpy()
        if len(clocks) != params.n:
            raise ConfigurationError(
                f"need {params.n} clocks, got {len(clocks)}"
            )
        # u_tilde only weakens links with a faulty endpoint; silent
        # faulty nodes never use their links, so it cannot affect any
        # vectorized execution — it is accepted (and validated) for
        # facade parity, nothing more.
        self.config = NetworkConfig(params.n, params.d, params.u, u_tilde)
        self.params = params
        self.f = params.f
        self.clocks = list(clocks)
        faulty_set = set(faulty)
        self.faulty = sorted(faulty_set)
        self.honest = [v for v in range(params.n) if v not in faulty_set]
        if not self.honest:
            raise ConfigurationError("no honest nodes")
        self.delay_policy = delay_policy or MaximumDelayPolicy()
        self.seed = seed
        self.trace = Trace.from_spec(trace)
        self.checks = checks
        #: Surface parity with the scheduler: the vectorized backend
        #: never carries membership dynamics (the facade rejects churn).
        self.dynamics = None
        self.warnings: List[str] = []
        validate_initial_skew(
            [self.clocks[v] for v in self.honest], params.S
        )

    # ------------------------------------------------------------------

    def attach_checks(self, checks: Any) -> None:
        """Install (or clear) the streaming conformance observer."""
        self.checks = checks

    # ------------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_pulses: Optional[int] = None,
    ) -> SimulationResult:
        """Execute whole pulse rounds until a stop condition.

        ``max_pulses`` counts rounds (every honest node pulses once per
        round).  ``until`` stops before the first round whose pulses
        are not all within the horizon — pulses beyond ``until`` are
        never recorded, but the cutoff is per *round*, not per event
        (the batching granularity of this backend).
        """
        if max_pulses is None and until is None:
            raise ConfigurationError(
                "vectorized runs need max_pulses and/or until"
            )
        params = self.params
        honest = self.honest
        nh = len(honest)
        n = params.n
        observing = self.checks is not None or (
            self.trace.level >= TraceLevel.FULL
        )
        table = _VectorClock([self.clocks[v] for v in honest])
        rng = (
            delay_rng(self.delay_policy)
            if isinstance(self.delay_policy, RandomDelayPolicy)
            else None
        )
        pulses: Dict[int, List[float]] = {v: [] for v in range(n)}
        events = 0
        end_time = 0.0
        rows_per_block = min(block_rows(nh), nh)
        kernel = _BlockKernel(params, honest, rows_per_block)
        # Next-pulse local targets; Figure 3 starts at local time S.
        local = np.full(nh, params.S)
        pulse_round = 0
        while max_pulses is None or pulse_round < max_pulses:
            pulse_round += 1
            pulse_real = table.real_times(local)
            if until is not None:
                inside = pulse_real <= until + EPS
                if not inside.all():
                    events += self._emit_pulses(
                        pulses, pulse_real, local, pulse_round, inside
                    )
                    end_time = until
                    break
            self._emit_pulses(pulses, pulse_real, local, pulse_round)
            if max_pulses is not None and pulse_round >= max_pulses:
                # The event engine halts the instant the slowest node
                # emits its quota-filling pulse, so the final round's
                # broadcasts, votes, and summaries never happen — match
                # that exactly (the TCB-consistency monitor's `checked`
                # count is sensitive to it).
                events += nh
                end_time = max(end_time, float(pulse_real.max()))
                break
            send_real = table.real_times(local + params.dealer_send_offset)
            classes = delay_rows(
                self.delay_policy, self.config, honest, honest, send_real
            )
            # The class path settles the round from each receiver's
            # arrival extremes; observers need every acceptance, and
            # ``finish`` declines rounds that need the whole matrix.
            vote = None
            if classes is not None and not observing:
                row_class, rows = classes
                vote = kernel.finish(
                    0,
                    local,
                    *_class_extremes(
                        table, row_class, rows + send_real, kernel.rows
                    ),
                )
            accepts: List[Any] = []
            summaries: List[Any] = []
            if vote is None:
                correction, completion_local, accepted_total = (
                    self._block_round(
                        kernel, table, classes, send_real, local, rng,
                        observing, pulse_round, accepts, summaries,
                    )
                )
            else:
                correction = vote.correction
                completion_local = vote.completion
                accepted_total = int(vote.counts.sum()) - nh
            completion_real = table.real_times(completion_local)
            end_time = max(end_time, float(completion_real.max()))
            if observing:
                self._emit_round(
                    accepts, summaries, completion_real, honest
                )
            # One modeled event per pulse, per delivered broadcast copy
            # (each dealer reaches all n-1 others), per echo fan-out of
            # an acceptance, and per timer the event engine would fire.
            events += (
                nh * (n - 1)
                + accepted_total * (n - 1)
                + 3 * nh
                + accepted_total
            )
            local = local + correction + params.T
        return SimulationResult(
            pulses=pulses,
            honest=list(honest),
            trace=self.trace,
            warnings=list(self.warnings),
            events_processed=events,
            end_time=end_time,
        )

    # ------------------------------------------------------------------

    def _block_round(
        self,
        kernel: _BlockKernel,
        table: _VectorClock,
        classes: Any,
        send_real: "np.ndarray",
        local: "np.ndarray",
        rng: Any,
        observing: bool,
        pulse_round: int,
        accepts: List[Any],
        summaries: List[Any],
    ) -> Any:
        """One round's votes over (receivers × dealers) blocks: the
        path for rounds the class path cannot settle.

        Returns ``(correction, completion_local, accepted)`` and, when
        ``observing``, fills ``accepts`` and ``summaries``.
        """
        honest = self.honest
        nh = len(honest)
        correction = np.empty(nh)
        completion_local = np.empty(nh)
        accepted = 0
        for start in range(0, nh, kernel.rows):
            stop = min(start + kernel.rows, nh)
            block = slice(start, stop)
            receivers = honest[start:stop]
            arrival = delay_matrix(
                self.delay_policy, self.config, honest, receivers,
                send_real, rng,
                None if classes is None else (classes[0][block], classes[1]),
            )
            arrival += send_real
            vote = kernel.vote(
                table.local_times(
                    block, arrival, kernel.buffers()[0][: stop - start]
                ),
                start,
                local[block],
                observing,
            )
            correction[block] = vote.correction
            completion_local[block] = vote.completion
            accepted += int(vote.counts.sum()) - (stop - start)
            if observing:
                self._collect_round(
                    accepts, summaries, start, receivers, vote.accept,
                    arrival, vote.estimates, vote.counts, vote.low,
                    vote.high, correction, pulse_round, local,
                )
        return correction, completion_local, accepted

    # ------------------------------------------------------------------

    def _emit_pulses(
        self,
        pulses: Dict[int, List[float]],
        pulse_real: "np.ndarray",
        local: "np.ndarray",
        index: int,
        inside: Optional["np.ndarray"] = None,
    ) -> int:
        """Record round ``index``'s pulses (those ``inside`` the
        horizon, if given) in time order; returns how many."""
        observed = (
            self.checks is not None
            or self.trace.level >= TraceLevel.PULSES
        )
        # Nothing but an observer sees the order across nodes.
        order = (
            np.argsort(pulse_real, kind="stable") if observed
            else np.arange(len(pulse_real))
        )
        if inside is not None:
            order = order[inside[order]]
        times = pulse_real.tolist()
        locals_ = local.tolist()
        for i in order.tolist():
            node = self.honest[i]
            pulses[node].append(times[i])
            if observed:
                self.trace.pulse(
                    time=times[i], node=node, index=index,
                    local_time=locals_[i],
                )
                if self.checks is not None:
                    self.checks.on_pulse(
                        times[i], node, index, locals_[i]
                    )
        return len(order)

    def _collect_round(
        self,
        accepts: List[Any],
        summaries: List[Any],
        start: int,
        receivers: Sequence[int],
        accept: "np.ndarray",
        arrival: "np.ndarray",
        estimates: "np.ndarray",
        counts: "np.ndarray",
        low: "np.ndarray",
        high: "np.ndarray",
        correction: "np.ndarray",
        pulse_round: int,
        local: "np.ndarray",
    ) -> None:
        """Materialize per-node annotations (small-n observation path).

        Only runs when checks or a FULL trace are attached — the
        O(n^2) Python-object cost would dominate large-scale runs, and
        those run unobserved by construction.
        """
        honest = self.honest
        for i, node in enumerate(receivers):
            row = start + i
            row_estimates: Dict[int, Any] = {}
            for j, dealer in enumerate(honest):
                if dealer == node:
                    row_estimates[node] = 0.0
                elif accept[i, j]:
                    row_estimates[dealer] = float(estimates[i, j])
                    accepts.append(
                        (
                            float(arrival[i, j]),
                            node,
                            (pulse_round, dealer),
                        )
                    )
                else:
                    row_estimates[dealer] = BOT
            for dealer in self.faulty:
                row_estimates[dealer] = BOT
            summaries.append(
                (
                    row,
                    CpsRoundSummary(
                        pulse_round=pulse_round,
                        pulse_local=float(local[row]),
                        estimates=row_estimates,
                        num_bot=int(self.params.n - counts[i]),
                        interval=(float(low[i]), float(high[i])),
                        correction=float(correction[row]),
                    ),
                )
            )

    def _emit_round(
        self,
        accepts: List[Any],
        summaries: List[Any],
        completion_real: "np.ndarray",
        honest: Sequence[int],
    ) -> None:
        """Feed one round's annotations in scheduler-like order:
        acceptances (by arrival time) strictly before round summaries
        (by completion time) — the order the monitors rely on."""
        for time, node, details in sorted(
            accepts, key=lambda item: (item[0], item[1])
        ):
            self._annotate(time, node, "tcb-accept", details)
        timed = [
            (float(completion_real[index]), honest[index], summary)
            for index, summary in summaries
        ]
        for time, node, summary in sorted(
            timed, key=lambda item: (item[0], item[1])
        ):
            self._annotate(time, node, "cps-round", summary)

    def _annotate(
        self, time: float, node: int, kind: str, details: Any
    ) -> None:
        self.trace.protocol(
            time=time, node=node, kind=kind, details=details
        )
        if self.checks is not None:
            self.checks.on_annotate(time, node, kind, details)
