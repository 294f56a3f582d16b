"""Distributed BS association (DBSA): alternating per-BS VCG allocation and
memory-sampled simultaneous user updates, with switching costs, live
events, and optional inter-cell interference tracking.

Each user keeps a FIFO memory of its recent better replies and associates
with a uniform sample from it; the run stops once the profile has stayed
constant for M+1 consecutive iterations.
"""

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import (Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .assoc_game import Evaluator, GameMode, _eval, better_reply_set, is_ne
from .net_model import InvalidArgumentError, NetworkInstance, exponential_fading
from .per_bs_alloc import Allocation, cells_of, members, solve_cell


@dataclass
class TraceRecord:
    iteration: int
    profile: Tuple[int, ...]
    throughput: float
    bs_throughput: Tuple[float, ...]
    event: Optional[str] = None


@dataclass
class MechanismState:
    """A DBSA run in progress."""
    profile: Tuple[int, ...]
    memories: List[Deque[int]]
    costs: np.ndarray
    memory_len: int
    rng: np.random.Generator
    iteration: int = 0
    trace: List[TraceRecord] = field(default_factory=list)
    stable: int = 0               # rounds since the profile last changed


# -- events ------------------------------------------------------------------

@dataclass
class AddUsers:
    gain: np.ndarray              # (n_new, K)
    noise: np.ndarray             # (n_new, K)
    positions: Optional[np.ndarray] = None
    gain_mean: Optional[np.ndarray] = None   # (n_new, W)
    costs: Union[float, Sequence[float]] = 0.0   # switching costs, one or per user


@dataclass
class RemoveUsers:
    indices: Sequence[int]


@dataclass
class RegenerateChannels:
    seed: int


Event = Union[AddUsers, RemoveUsers, RegenerateChannels]


def nearest_bs_profile(net: NetworkInstance) -> Tuple[int, ...]:
    """Among the BSs that own a channel, the geometric nearest when
    positions exist, otherwise the one with the highest mean normalized
    gain (lowest index on ties)."""
    positioned = net.user_pos is not None and net.bs_pos is not None
    if positioned:
        d = np.linalg.norm(net.user_pos[:, None, :] - net.bs_pos[None, :, :], axis=2)
    else:
        g = net.normalized_gain()
    score = np.full((net.num_users, net.num_bss), -np.inf)
    for w, chans in enumerate(net.channels_of_bs):
        if len(chans):
            score[:, w] = -d[:, w] if positioned else g[:, chans].mean(axis=1)
    return tuple(np.argmax(score, axis=1).tolist())


def _costs(costs: Union[float, Sequence[float]], n: int) -> np.ndarray:
    """Switching costs as an (n,) array: one for all users, or one each.
    Each must be >= 0 (+inf freezes its user): under a NaN cost no move
    clears the user's bar, and under a negative one a worse BS does."""
    try:
        out = np.broadcast_to(np.asarray(costs, dtype=float), (n,)).copy()
    except ValueError:
        raise InvalidArgumentError(
            f"need one switching cost or {n}, got {costs!r}") from None
    if not (out >= 0).all():
        raise InvalidArgumentError(
            f"switching costs must be >= 0 and not NaN, got {costs!r}")
    return out


def init_state(net: NetworkInstance, memory_len: int,
               costs: Union[float, Sequence[float]], seed: int) -> MechanismState:
    if memory_len < 1:
        raise InvalidArgumentError("memory length must be >= 1")
    costs = _costs(costs, net.num_users)
    memories = [deque(maxlen=memory_len) for _ in range(net.num_users)]
    return MechanismState(profile=nearest_bs_profile(net), memories=memories,
                          costs=costs, memory_len=memory_len,
                          rng=np.random.default_rng(seed))


def _round(ev: Evaluator, state: MechanismState) -> List:
    """The `[values, replies]` slot that `ev` keeps for a round from
    `state`'s profile under its costs (see `Evaluator`)."""
    key = (state.profile, tuple(state.costs.tolist()))
    slot = ev._rounds.get(key)
    if slot is None:
        slot = ev._rounds[key] = [None, None]
    return slot


def _record(state: MechanismState, ev: Evaluator) -> None:
    slot = _round(ev, state)
    if slot[0] is None:
        per_bs = tuple(ev.cell(w, s).value
                       for w, s in enumerate(cells_of(ev.net, state.profile)))
        slot[0] = (per_bs, float(sum(per_bs)))
    per_bs, total = slot[0]
    state.trace.append(TraceRecord(
        iteration=state.iteration, profile=state.profile,
        throughput=total, bs_throughput=per_bs))


def step(net: NetworkInstance, state: MechanismState, mode: GameMode,
         evaluator: Optional[Evaluator] = None) -> Tuple[Tuple[int, ...], ...]:
    """One synchronized round: every BS re-solves its cell (implicitly via
    the evaluator), then every user simultaneously pushes a better reply
    into its memory and samples its next association from the memory.
    Returns the round's better replies, per user, of the profile it left.

    The round's draws come from one `rng.integers` call, in user order:
    a better reply (only for a user that has one), then a memory slot.
    An array of bounds draws the same values, and leaves the generator in
    the same state, as one scalar call per bound.

    The better replies of a profile are asked of `better_reply_set` once
    per `Evaluator` object and costs: the Evaluator keeps them (a new one
    is built each call when `evaluator` is None)."""
    ev = _eval(net, mode, evaluator)
    a = state.profile
    slot = _round(ev, state)
    replies = slot[1]
    if replies is None:
        replies = slot[1] = tuple(map(tuple, better_reply_set(
            net, a, mode, ev, state.costs.tolist())))
    highs: List[int] = []
    for br, mem in zip(replies, state.memories):
        if br:
            highs.append(len(br))
        highs.append(min(len(mem) + 1, state.memory_len))
    draws = iter(state.rng.integers(0, highs).tolist() if highs else ())
    next_a = []
    for i, (br, mem) in enumerate(zip(replies, state.memories)):
        mem.appendleft(br[next(draws)] if br else a[i])
        next_a.append(mem[next(draws)])
    state.profile = tuple(next_a)
    state.iteration += 1
    state.stable = state.stable + 1 if state.profile == a else 0
    return replies


@dataclass
class RunResult:
    profile: Tuple[int, ...]
    trace: List[TraceRecord]
    converged: bool
    iterations: int
    is_ne: Optional[bool] = None
    # the first round whose profile had empty better-reply sets under the
    # run's costs (and, in interference mode, that round's reports)
    first_ne_round: Optional[int] = None


def run(net: NetworkInstance, memory_len: int, costs: Union[float, Sequence[float]],
        max_iter: int, seed: int, mode: GameMode = GameMode(),
        interference: bool = False,
        evaluator: Optional[Evaluator] = None) -> RunResult:
    """Iterate the mechanism until the stopping rule fires or max_iter is
    reached.  With `interference`, each BS round acts on new reports: the
    users' noise is refreshed from the other cells' latest power
    allocations, `net.noise` being the floor, and the round's `Evaluator`
    is built on `net` with reports `net.gain / noise`.  Interference only
    adds noise, so those reports are at most the floor's, and each round's
    Evaluator shares the screens of the first, on the floor's reports (see
    `Evaluator`); the instance's geometry the refresh reads is gathered
    once per run (`_interference_geometry`).  The refreshed noise
    is a local of the run; `net` is never written.  A refresh that leaves
    the noise equal keeps the round's `Evaluator` (same reports); after
    such a fixed point, a round whose profile did not change skips the
    refresh (same cells on the same reports give the same noise).  A shared
    `evaluator` supplies the reports and its cache; like every entry that
    takes one, `run` refuses one of another instance or mode (see
    `assoc_game._eval`).  Interference mode makes its own reports, so takes
    none.

    Each round is one `step` and one `_record`; a profile visited again
    under the same `Evaluator` and costs, in this run or an earlier one on
    the shared `evaluator`, reuses the better replies and trace values the
    Evaluator keeps (see `step`).  `first_ne_round` is read from the
    replies `step` returns, so it costs no solve; it is None when no
    stepped profile was a NE at the run's costs."""
    if max_iter < memory_len + 1:
        raise InvalidArgumentError("max_iter must be at least M+1")
    if interference and evaluator is not None:
        raise InvalidArgumentError("interference mode takes no evaluator")
    ev = floor = _eval(net, mode, evaluator)
    state = init_state(net, memory_len, costs, seed)
    _record(state, ev)
    geometry = _interference_geometry(net) if interference else None
    noise = net.noise             # the noise the round's reports are on
    fixed = False                 # the last refresh left the noise equal
    first_ne = None
    while state.iteration < max_iter and state.stable < memory_len:
        if interference and not (fixed and state.stable >= 1):
            allocs = {w: solve_cell(net, w, members(mask), ev.reports, mode.strategy)
                      for w, mask in enumerate(cells_of(net, state.profile)) if mask}
            new = update_interference_noise(net, state.profile, allocs,
                                            geometry)
            fixed = np.array_equal(new, noise)
            if not fixed:
                noise = new
                ev = Evaluator(net, mode, net.gain / noise, screens=floor)
        replies = step(net, state, mode, ev)
        if first_ne is None and not any(replies):
            first_ne = state.iteration - 1
        _record(state, ev)
    converged = state.stable >= memory_len
    ne = None
    if converged and not interference:
        ne = is_ne(net, state.profile, mode, ev)
    return RunResult(profile=state.profile, trace=state.trace,
                     converged=converged, iterations=state.iteration, is_ne=ne,
                     first_ne_round=first_ne)


def _rows(x: Optional[np.ndarray], keep: List[int]) -> Optional[np.ndarray]:
    return None if x is None else x[keep]


def _stack(x: Optional[np.ndarray], rows: Optional[np.ndarray],
           name: str) -> Optional[np.ndarray]:
    """Append arriving users' rows to an optional per-user array."""
    if x is None:
        return None
    if rows is None:
        raise InvalidArgumentError(f"{name} required for this instance")
    return np.vstack([x, np.atleast_2d(rows)])


def apply_event(net: NetworkInstance, state: MechanismState,
                event: Event) -> NetworkInstance:
    """Mutate the instance mid-run while keeping unaffected users' memories
    (tracking rather than restarting).  Returns the updated instance."""
    if isinstance(event, RemoveUsers):
        idx = sorted(set(int(j) for j in event.indices))
        for j in idx:
            if not 0 <= j < net.num_users:
                raise InvalidArgumentError(f"unknown user {j}")
        keep = [i for i in range(net.num_users) if i not in idx]
        # a floor shared by every user (row stride 0) stays one shared row
        noise = (np.broadcast_to(net.noise[:1], (len(keep), net.num_channels))
                 if net.noise.strides[0] == 0 else net.noise[keep])
        new_net = dataclasses.replace(
            net, gain=net.gain[keep], noise=noise,
            user_pos=_rows(net.user_pos, keep),
            gain_mean=_rows(net.gain_mean, keep))
        state.profile = tuple(state.profile[i] for i in keep)
        state.memories = [m for i, m in enumerate(state.memories) if i not in idx]
        state.costs = state.costs[keep]
        label = f"remove_users:{idx}"
    elif isinstance(event, AddUsers):
        gain = np.atleast_2d(np.asarray(event.gain, float))
        noise = np.atleast_2d(np.asarray(event.noise, float))
        n_new = gain.shape[0]
        costs = _costs(event.costs, n_new)    # checked before any state changes
        new_net = dataclasses.replace(
            net, gain=np.vstack([net.gain, gain]),
            noise=np.vstack([net.noise, noise]),
            user_pos=_stack(net.user_pos, event.positions, "positions"),
            gain_mean=_stack(net.gain_mean, event.gain_mean, "gain_mean"))
        state.profile += nearest_bs_profile(new_net)[net.num_users:]
        for _ in range(n_new):
            state.memories.append(deque(maxlen=state.memory_len))
        state.costs = np.concatenate([state.costs, costs])
        label = f"add_users:{n_new}"
    elif isinstance(event, RegenerateChannels):
        if net.gain_mean is None:
            raise InvalidArgumentError("instance carries no gain model to redraw from")
        gain = exponential_fading(net.gain_mean, net.channels_of_bs,
                                  np.random.default_rng(event.seed))
        new_net = dataclasses.replace(net, gain=gain)
        label = f"regenerate_channels:{event.seed}"
    else:
        raise InvalidArgumentError(f"unknown event {event!r}")
    state.stable = 0
    if state.trace:
        state.trace[-1].event = label
    return new_net


class _Geometry(NamedTuple):
    """What `update_interference_noise` reads of the instance alone.
    `cross_gain[w, pos, i]` is user i's gain on BS w's channel at block
    position pos; past the end of a short block it reads channel 0, which
    the refresh weights by a power of 0."""
    cross_gain: np.ndarray        # (W, n_sub, N)
    pos_of: np.ndarray            # (K,) each channel's position in its block
    owner: np.ndarray             # (K,) each channel's BS


def _interference_geometry(net: NetworkInstance) -> _Geometry:
    blocks = net.channels_of_bs
    n_sub = max(len(chans) for chans in blocks)
    at = np.zeros((len(blocks), n_sub), dtype=int)   # channel at each position
    pos_of = np.empty(net.num_channels, dtype=int)
    for w, chans in enumerate(blocks):
        at[w, :len(chans)] = chans
        pos_of[chans] = np.arange(len(chans))
    return _Geometry(net.gain.T[at], pos_of, net.bs_of_channel())


def update_interference_noise(net: NetworkInstance, a: Sequence[int],
                              allocations: Dict[int, Allocation],
                              geometry: Optional[_Geometry] = None
                              ) -> np.ndarray:
    """The refreshed noise entries, `net` left unchanged: the floor
    `net.noise` plus, on each of the serving BS's channels, the
    co-subcarrier transmit powers of every other BS weighted by the cross
    gains.  Per-BS channel blocks align by position (same conceptual
    subcarrier); a BS whose block is too short to have a channel at some
    position adds no interference there.  All BSs' terms come from one
    (W, n_sub, N) product, and the per-position sums run over the BSs in
    ascending order (`np.add.accumulate` adds in sequence).  `a` must be a
    profile `cells_of` takes; `geometry` is `_interference_geometry(net)`,
    gathered here when not given."""
    cells_of(net, a)
    cross_gain, pos_of, owner = geometry or _interference_geometry(net)
    n_sub = cross_gain.shape[1]
    power: List[float] = []       # (W, n_sub) row-major; 0 where nothing sends
    for w, chans in enumerate(net.channels_of_bs):
        alloc = allocations.get(w)
        power += [0.0] * len(chans) if alloc is None else alloc.power
        power += [0.0] * (n_sub - len(chans))
    # cross[w, pos, i]: what user i receives at block position pos from BS w
    cross = cross_gain * np.array(power).reshape(cross_gain.shape[:2] + (1,))
    a = np.asarray(a)
    cross[a, :, np.arange(len(a))] = 0.0   # a user's own BS does not interfere
    interf = np.add.accumulate(cross, axis=0)[-1]
    serving = owner == a[:, None]
    return net.noise + np.where(serving, interf[pos_of].T, 0.0)
