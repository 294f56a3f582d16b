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
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .assoc_game import Evaluator, GameMode, better_reply_set, is_ne
from .net_model import InvalidArgumentError, NetworkInstance
from .per_bs_alloc import Allocation, solve_cell


@dataclass
class TraceRecord:
    iteration: int
    profile: Tuple[int, ...]
    throughput: float
    bs_throughput: Tuple[float, ...]
    event: Optional[str] = None


@dataclass
class MechanismState:
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
    """Geometric nearest BS when positions exist; otherwise the BS with the
    highest mean normalized gain."""
    if net.user_pos is not None and net.bs_pos is not None:
        d = np.linalg.norm(net.user_pos[:, None, :] - net.bs_pos[None, :, :], axis=2)
        return tuple(np.argmin(d, axis=1).tolist())
    g = net.normalized_gain()
    means = np.stack([g[:, chans].mean(axis=1) for chans in net.channels_of_bs],
                     axis=1)
    return tuple(np.argmax(means, axis=1).tolist())


def _costs(costs: Union[float, Sequence[float]], n: int) -> np.ndarray:
    """Switching costs as an (n,) array: one for all users, or one each."""
    return np.broadcast_to(np.asarray(costs, dtype=float), (n,)).copy()


def init_state(net: NetworkInstance, memory_len: int,
               costs: Union[float, Sequence[float]], seed: int) -> MechanismState:
    if memory_len < 1:
        raise InvalidArgumentError("memory length must be >= 1")
    costs = _costs(costs, net.num_users)
    memories = [deque(maxlen=memory_len) for _ in range(net.num_users)]
    return MechanismState(profile=nearest_bs_profile(net), memories=memories,
                          costs=costs, memory_len=memory_len,
                          rng=np.random.default_rng(seed))


def _record(state: MechanismState, ev: Evaluator) -> None:
    per_bs = tuple(ev.cell(w, s).value
                   for w, s in enumerate(ev.cells_of(state.profile)))
    state.trace.append(TraceRecord(
        iteration=state.iteration, profile=state.profile,
        throughput=float(sum(per_bs)), bs_throughput=per_bs))


def step(net: NetworkInstance, state: MechanismState, mode: GameMode,
         evaluator: Optional[Evaluator] = None) -> None:
    """One synchronized round: every BS re-solves its cell (implicitly via
    the evaluator), then every user simultaneously pushes a better reply
    into its memory and samples its next association from the memory.

    The round's draws come from one `rng.integers` call, in user order:
    a better reply (only for a user that has one), then a memory slot.
    An array of bounds draws the same values, and leaves the generator in
    the same state, as one scalar call per bound."""
    ev = evaluator if evaluator is not None else Evaluator(net, mode)
    a = state.profile
    costs = state.costs.tolist()
    replies = [better_reply_set(net, a, i, mode, ev, margin=costs[i])
               for i in range(net.num_users)]
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


@dataclass
class RunResult:
    profile: Tuple[int, ...]
    trace: List[TraceRecord]
    converged: bool
    iterations: int
    is_ne: Optional[bool] = None


def run(net: NetworkInstance, memory_len: int, costs: Union[float, Sequence[float]],
        max_iter: int, seed: int, mode: GameMode = GameMode(),
        interference: bool = False,
        evaluator: Optional[Evaluator] = None) -> RunResult:
    """Iterate the mechanism until the stopping rule fires or max_iter is
    reached.  With `interference`, per-user noise entries are refreshed from
    the other cells' latest power allocations before each BS round; the
    noise refresh works on a copy, so the caller's instance is unchanged.
    A refresh that leaves the noise equal keeps the round's `Evaluator`
    (same reports); after such a fixed point, a round whose profile did not
    change skips the refresh (same cells on the same reports give the same
    noise).  An `evaluator` of `net` and `mode` supplies the reports and
    shares its cache; interference mode changes the instance, so takes
    none."""
    if max_iter < memory_len + 1:
        raise InvalidArgumentError("max_iter must be at least M+1")
    if evaluator is not None and (evaluator.net is not net or evaluator.mode != mode
                                  or interference):
        raise InvalidArgumentError("evaluator must be of this net and mode, "
                                   "without interference")
    if interference:
        net = dataclasses.replace(net, noise=net.noise.copy())
    state = init_state(net, memory_len, costs, seed)
    ev = evaluator if evaluator is not None else Evaluator(net, mode)
    _record(state, ev)
    fixed = False                 # the last refresh left the noise equal
    while state.iteration < max_iter and state.stable < memory_len:
        if interference and not (fixed and state.stable >= 1):
            allocs = {w: solve_cell(net, w, users, ev.reports, mode.strategy)
                      for w, users in enumerate(ev.cells_of(state.profile))
                      if users}
            noise = net.noise
            update_interference_noise(net, state.profile, allocs)
            fixed = np.array_equal(net.noise, noise)
            if not fixed:
                ev = Evaluator(net, mode)
        step(net, state, mode, ev)
        _record(state, ev)
    converged = state.stable >= memory_len
    ne = None
    if converged and not interference:
        ne = is_ne(net, state.profile, mode, ev)
    return RunResult(profile=state.profile, trace=state.trace,
                     converged=converged, iterations=state.iteration, is_ne=ne)


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
        new_net = dataclasses.replace(
            net, gain=net.gain[keep], noise=net.noise[keep],
            thermal_noise=net.thermal_noise[keep],
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
        new_net = dataclasses.replace(
            net, gain=np.vstack([net.gain, gain]),
            noise=np.vstack([net.noise, noise]),
            thermal_noise=np.vstack([net.thermal_noise, noise]),
            user_pos=_stack(net.user_pos, event.positions, "positions"),
            gain_mean=_stack(net.gain_mean, event.gain_mean, "gain_mean"))
        state.profile += nearest_bs_profile(new_net)[net.num_users:]
        for _ in range(n_new):
            state.memories.append(deque(maxlen=state.memory_len))
        state.costs = np.concatenate([state.costs, _costs(event.costs, n_new)])
        label = f"add_users:{n_new}"
    elif isinstance(event, RegenerateChannels):
        if net.gain_mean is None:
            raise InvalidArgumentError("instance carries no gain model to redraw from")
        rng = np.random.default_rng(event.seed)
        gain = np.zeros_like(net.gain)
        for w, chans in enumerate(net.channels_of_bs):
            gain[:, chans] = rng.exponential(
                scale=net.gain_mean[:, w][:, None],
                size=(net.num_users, len(chans)))
        new_net = dataclasses.replace(net, gain=gain)
        label = f"regenerate_channels:{event.seed}"
    else:
        raise InvalidArgumentError(f"unknown event {event!r}")
    state.stable = 0
    if state.trace:
        state.trace[-1].event = label
    return new_net


def update_interference_noise(net: NetworkInstance, a: Sequence[int],
                              allocations: Dict[int, Allocation]) -> None:
    """Refresh noise entries in place: thermal floor plus, on each of the
    serving BS's channels, the co-subcarrier transmit powers of every other
    BS weighted by the cross gains.  Per-BS channel blocks align by
    position (same conceptual subcarrier); a BS whose block is too short to
    have a channel at some position adds no interference there.  The
    per-position sums run over the BSs in ascending order."""
    a = np.asarray(a)
    n_sub = max(len(chans) for chans in net.channels_of_bs)
    # interf[i, pos]: what user i receives at block position pos from
    # every BS but its own
    interf = np.zeros((net.num_users, n_sub))
    pos_of = np.empty(net.num_channels, dtype=int)
    for w, chans in enumerate(net.channels_of_bs):
        pos_of[chans] = np.arange(len(chans))
        alloc = allocations.get(w)
        if alloc is not None:
            cross = net.gain[:, chans] * alloc.power
            cross[a == w] = 0.0       # a user's own BS does not interfere
            interf[:, :len(chans)] += cross
    serving = net.bs_of_channel() == a[:, None]
    net.noise = net.thermal_noise + np.where(serving, interf[:, pos_of], 0.0)
