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
from .per_bs_alloc import cells_of, solve_cell


@dataclass
class TraceRecord:
    iteration: int
    profile: Tuple[int, ...]
    throughput: float
    bs_throughput: Tuple[float, ...]
    utilities: Tuple[float, ...]
    event: Optional[str] = None


@dataclass
class MechanismState:
    profile: np.ndarray
    memories: List[Deque[int]]
    costs: np.ndarray
    memory_len: int
    rng: np.random.Generator
    iteration: int = 0
    trace: List[TraceRecord] = field(default_factory=list)
    history: List[Tuple[int, ...]] = field(default_factory=list)


# -- events ------------------------------------------------------------------

@dataclass
class AddUsers:
    gain: np.ndarray              # (n_new, K)
    noise: np.ndarray             # (n_new, K)
    positions: Optional[np.ndarray] = None


@dataclass
class RemoveUsers:
    indices: Sequence[int]


@dataclass
class RegenerateChannels:
    seed: int


Event = Union[AddUsers, RemoveUsers, RegenerateChannels]


def nearest_bs_profile(net: NetworkInstance) -> np.ndarray:
    """Geometric nearest BS when positions exist; otherwise the BS with the
    highest mean normalized gain."""
    if net.user_pos is not None and net.bs_pos is not None:
        d = np.linalg.norm(net.user_pos[:, None, :] - net.bs_pos[None, :, :], axis=2)
        return np.argmin(d, axis=1)
    g = net.normalized_gain()
    means = np.stack([g[:, chans].mean(axis=1) for chans in net.channels_of_bs],
                     axis=1)
    return np.argmax(means, axis=1)


def init_state(net: NetworkInstance, memory_len: int,
               costs: Union[float, Sequence[float]], seed: int) -> MechanismState:
    if memory_len < 1:
        raise InvalidArgumentError("memory length must be >= 1")
    costs = np.broadcast_to(np.asarray(costs, dtype=float),
                            (net.num_users,)).copy()
    profile = nearest_bs_profile(net)
    memories = [deque(maxlen=memory_len) for _ in range(net.num_users)]
    state = MechanismState(profile=profile, memories=memories, costs=costs,
                           memory_len=memory_len,
                           rng=np.random.default_rng(seed))
    state.history.append(tuple(int(x) for x in profile))
    return state


def _record(net: NetworkInstance, state: MechanismState, ev: Evaluator,
            event: Optional[str] = None) -> None:
    a = tuple(int(x) for x in state.profile)
    per_bs = tuple(ev.cell(w, s).value
                   for w, s in enumerate(ev.cells_of(a)))
    utils = tuple(ev.utility(a, i) for i in range(net.num_users))
    state.trace.append(TraceRecord(
        iteration=state.iteration, profile=a,
        throughput=float(sum(per_bs)), bs_throughput=per_bs,
        utilities=utils, event=event))


def step(net: NetworkInstance, state: MechanismState, mode: GameMode,
         evaluator: Optional[Evaluator] = None,
         reports: Optional[np.ndarray] = None) -> None:
    """One synchronized round: every BS re-solves its cell (implicitly via
    the evaluator), then every user simultaneously pushes a better reply
    into its memory and samples its next association from the memory."""
    ev = evaluator if evaluator is not None else Evaluator(net, mode, reports)
    frozen = tuple(int(x) for x in state.profile)
    next_a = state.profile.copy()
    for i in range(net.num_users):
        br = better_reply_set(net, frozen, i, mode, ev,
                              margin=float(state.costs[i]))
        if br:
            w_star = int(br[state.rng.integers(0, len(br))])
        else:
            w_star = frozen[i]
        state.memories[i].appendleft(w_star)
        mem = state.memories[i]
        next_a[i] = mem[state.rng.integers(0, len(mem))]
    state.profile = next_a
    state.iteration += 1
    state.history.append(tuple(int(x) for x in next_a))
    if len(state.history) > state.memory_len + 1:
        state.history.pop(0)


def _converged(state: MechanismState) -> bool:
    h = state.history
    m = state.memory_len
    if len(h) < m + 1:
        return False
    return all(h[-1] == h[-1 - j] for j in range(1, m + 1))


@dataclass
class RunResult:
    profile: Tuple[int, ...]
    trace: List[TraceRecord]
    converged: bool
    iterations: int
    is_ne: Optional[bool] = None


def run(net: NetworkInstance, memory_len: int, costs: Union[float, Sequence[float]],
        max_iter: int, seed: int, mode: GameMode = GameMode(),
        reports: Optional[np.ndarray] = None,
        interference: bool = False,
        check_ne: bool = True) -> RunResult:
    """Iterate the mechanism until the stopping rule fires or max_iter is
    reached.  With `interference`, per-user noise entries are refreshed from
    the other cells' latest power allocations before each BS round; the
    noise refresh works on a copy, so the caller's instance is unchanged."""
    if max_iter < memory_len + 1:
        raise InvalidArgumentError("max_iter must be at least M+1")
    if interference:
        net = dataclasses.replace(net, noise=net.noise.copy())
    state = init_state(net, memory_len, costs, seed)
    ev = Evaluator(net, mode, reports)
    _record(net, state, ev)
    converged = False
    iterations = max_iter
    for _ in range(max_iter):
        if interference:
            allocs = {w: solve_cell(net, w, users, ev.reports, mode.strategy)
                      for w, users in enumerate(cells_of(state.profile, net.num_bss))
                      if users}
            update_interference_noise(net, state.profile, allocs)
            ev = Evaluator(net, mode, reports)
        step(net, state, mode, ev)
        _record(net, state, ev)
        if _converged(state):
            converged = True
            iterations = state.iteration
            break
    profile = tuple(int(x) for x in state.profile)
    ne = None
    if check_ne and converged and not interference:
        ne = is_ne(net, profile, mode, ev)
    return RunResult(profile=profile,
                     trace=state.trace, converged=converged,
                     iterations=iterations, is_ne=ne)


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
        new_net = NetworkInstance(
            gain=net.gain[keep], noise=net.noise[keep],
            channels_of_bs=net.channels_of_bs, budget=net.budget,
            weight=net.weight, bandwidth=net.bandwidth, tau=net.tau,
            user_pos=None if net.user_pos is None else net.user_pos[keep],
            bs_pos=net.bs_pos,
            thermal_noise=net.thermal_noise[keep],
            gain_mean=None if net.gain_mean is None else net.gain_mean[keep])
        state.profile = state.profile[keep]
        state.memories = [m for i, m in enumerate(state.memories) if i not in idx]
        state.costs = state.costs[keep]
        label = f"remove_users:{idx}"
    elif isinstance(event, AddUsers):
        gain = np.atleast_2d(np.asarray(event.gain, float))
        noise = np.atleast_2d(np.asarray(event.noise, float))
        n_new = gain.shape[0]
        pos = None
        if net.user_pos is not None:
            if event.positions is None:
                raise InvalidArgumentError("positions required for this instance")
            pos = np.vstack([net.user_pos, np.atleast_2d(event.positions)])
        new_net = NetworkInstance(
            gain=np.vstack([net.gain, gain]),
            noise=np.vstack([net.noise, noise]),
            channels_of_bs=net.channels_of_bs, budget=net.budget,
            weight=net.weight, bandwidth=net.bandwidth, tau=net.tau,
            user_pos=pos, bs_pos=net.bs_pos,
            thermal_noise=np.vstack([net.thermal_noise, noise]),
            gain_mean=None)
        arrivals = nearest_bs_profile(new_net)[-n_new:]
        state.profile = np.concatenate([state.profile, arrivals])
        for _ in range(n_new):
            state.memories.append(deque(maxlen=state.memory_len))
        state.costs = np.concatenate([state.costs,
                                      np.full(n_new, float(state.costs[0]) if len(state.costs) else 0.0)])
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
        new_net = NetworkInstance(
            gain=gain, noise=net.noise, channels_of_bs=net.channels_of_bs,
            budget=net.budget, weight=net.weight, bandwidth=net.bandwidth,
            tau=net.tau, user_pos=net.user_pos, bs_pos=net.bs_pos,
            thermal_noise=net.thermal_noise, gain_mean=net.gain_mean)
        label = f"regenerate_channels:{event.seed}"
    else:
        raise InvalidArgumentError(f"unknown event {event!r}")
    state.history.clear()
    if state.trace:
        state.trace[-1].event = label
    return new_net


def update_interference_noise(net: NetworkInstance, a: Sequence[int],
                              allocations: Dict[int, "object"]) -> None:
    """Refresh noise entries in place: thermal floor plus, on each of the
    serving BS's channels, the co-subcarrier transmit powers of every other
    BS weighted by the cross gains.  Per-BS channel blocks align by
    position (same conceptual subcarrier); a BS whose block is too short to
    have a channel at some position adds no interference there."""
    noise = net.thermal_noise.copy()
    n_sub = max(len(chans) for chans in net.channels_of_bs)
    powers = np.zeros((net.num_bss, n_sub))
    for w, alloc in allocations.items():
        powers[w, :len(alloc.power)] = alloc.power
    for i in range(net.num_users):
        w_serv = a[i]
        serving = net.channels_of_bs[w_serv]
        for pos, k in enumerate(serving):
            interf = 0.0
            for w in range(net.num_bss):
                if w == w_serv or pos >= len(net.channels_of_bs[w]):
                    continue
                k_other = net.channels_of_bs[w][pos]
                interf += net.gain[i, k_other] * powers[w, pos]
            noise[i, k] += interf
    net.noise = noise
