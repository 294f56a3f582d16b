"""Network instance construction: synthetic scenarios, channel-report
perturbation, and the 3-SAT hardness gadget.

All instances use the orthogonal-spectrum representation: every base
station owns a disjoint block of global channel indices, and the gain /
noise tables cover every (user, channel) pair.  Rates downstream are in
nats/s unless a bandwidth rescaling says otherwise.
"""

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

LN2 = math.log(2.0)

# Free-space loss at 1 m for a 1.9 GHz carrier, in dB.  The indoor office
# path-loss formula needs a reference PL(1); this constant is configurable
# through ScenarioConfig.
DEFAULT_PL1_DB = 38.0

# ITU-R M.1225 Pedestrian-A power delay profile (4 taps).
PEDA_DELAYS_NS = np.array([0.0, 110.0, 190.0, 410.0])
PEDA_POWERS_DB = np.array([0.0, -9.7, -19.2, -22.8])


class InvalidArgumentError(ValueError):
    """Raised when an operation receives an out-of-contract argument."""


def _finite_nonnegative(a: np.ndarray) -> bool:
    """All entries in [0, inf); min and max propagate NaN, so NaN fails."""
    return a.min(initial=0.0) >= 0 and a.max(initial=0.0) < math.inf


def capacity_gap(ber: float) -> float:
    """SNR gap tau = -ln(5*BER)/1.5 for a target bit error rate."""
    if not 0.0 < ber < 0.2:
        raise InvalidArgumentError(f"BER must be in (0, 0.2), got {ber}")
    return -math.log(5.0 * ber) / 1.5


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class NetworkInstance:
    """Complete input for the joint association / allocation problem.

    gain[i, k] is the linear channel power gain |h|^2 of user i on global
    channel k; noise[i, k] the noise power in watts.  channels_of_bs[w]
    lists the disjoint global channel indices owned by BS w.  Gains are
    finite and nonnegative, noise powers positive and each quotient
    finite, so the true normalized gains are reports of the one kind the
    game takes (see `reports`).

    The library never writes into an instance: events build new ones.  So
    a generated instance holds its flat noise floor once, as a read-only
    broadcast view.
    """

    gain: np.ndarray              # (N, K)
    noise: np.ndarray             # (N, K)
    channels_of_bs: List[np.ndarray]
    budget: np.ndarray            # (W,) watts
    weight: np.ndarray            # (W,) alpha_w
    bandwidth: np.ndarray         # (W,) Hz per channel
    tau: float
    user_pos: Optional[np.ndarray] = None   # (N, 2)
    bs_pos: Optional[np.ndarray] = None     # (W, 2)
    gain_mean: Optional[np.ndarray] = None      # (N, W) mean gain per link

    def __post_init__(self):
        self.gain = np.asarray(self.gain, dtype=float)
        self.noise = np.asarray(self.noise, dtype=float)
        self.channels_of_bs = [np.asarray(c, dtype=int) for c in self.channels_of_bs]
        self.budget = np.asarray(self.budget, dtype=float)
        self.weight = np.asarray(self.weight, dtype=float)
        self.bandwidth = np.asarray(self.bandwidth, dtype=float)
        self.validate()

    @property
    def num_users(self) -> int:
        return self.gain.shape[0]

    @property
    def num_bss(self) -> int:
        return len(self.channels_of_bs)

    @property
    def num_channels(self) -> int:
        return self.gain.shape[1]

    def validate(self) -> None:
        n, k = self.gain.shape
        if self.noise.shape != (n, k):
            raise InvalidArgumentError("gain and noise shapes differ")
        seen = np.concatenate(self.channels_of_bs) if self.channels_of_bs else np.array([], int)
        if len(set(seen.tolist())) != len(seen):
            raise InvalidArgumentError("channel sets of BSs overlap")
        if sorted(seen.tolist()) != list(range(k)):
            raise InvalidArgumentError("channel sets do not partition all channels")
        if not _finite_nonnegative(self.gain):
            raise InvalidArgumentError("channel gains must be finite and nonnegative")
        # written as "not (x >= 0)" so that NaN fails too
        if not (self.noise > 0).all():
            raise InvalidArgumentError("noise powers must be strictly positive")
        with np.errstate(over="ignore"):
            if not self.normalized_gain().max(initial=0.0) < math.inf:
                raise InvalidArgumentError(
                    "normalized gains |h|^2 / n must be finite")
        if not (self.budget > 0).all():
            raise InvalidArgumentError("power budgets must be strictly positive")
        if not (self.weight >= 0).all():
            raise InvalidArgumentError("BS weights must be nonnegative")
        if not (self.bandwidth >= 0).all():
            raise InvalidArgumentError("bandwidths must be nonnegative")
        if not self.tau >= 1.0:
            raise InvalidArgumentError(f"capacity gap must be >= 1, got {self.tau}")

    def normalized_gain(self) -> np.ndarray:
        """True normalized gains |h|^2 / n, the quantity users report."""
        return self.gain / self.noise

    def reports(self, reports: Optional[np.ndarray] = None) -> np.ndarray:
        """The reports a game on this instance is played on, by default the
        true normalized gains: an (N, K) float table of finite, nonnegative
        entries, as users report |h|^2 / n.  Any other table is refused."""
        r = self.normalized_gain() if reports is None else np.asarray(reports, dtype=float)
        if r.shape != self.gain.shape or not _finite_nonnegative(r):
            raise InvalidArgumentError(
                f"reports must be finite and nonnegative, of shape {self.gain.shape}")
        return r

    def bs_of_channel(self) -> np.ndarray:
        owner = np.empty(self.num_channels, dtype=int)
        for w, chans in enumerate(self.channels_of_bs):
            owner[chans] = w
        return owner

    # -- JSON round trip for regression fixtures --------------------------

    def to_json(self) -> str:
        def arr(a):
            return None if a is None else np.asarray(a).tolist()
        payload = {
            "gain": arr(self.gain),
            "noise": arr(self.noise),
            "channels_of_bs": [c.tolist() for c in self.channels_of_bs],
            "budget": arr(self.budget),
            "weight": arr(self.weight),
            "bandwidth": arr(self.bandwidth),
            "tau": self.tau,
            "user_pos": arr(self.user_pos),
            "bs_pos": arr(self.bs_pos),
            "gain_mean": arr(self.gain_mean),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NetworkInstance":
        """The instance `to_json` wrote; an unknown or missing key is an
        error, but the second noise table of older files, `thermal_noise`,
        is read past."""
        d = json.loads(text)
        unknown = sorted(set(d) - {f.name for f in fields(cls)} - {"thermal_noise"})
        if unknown:
            raise InvalidArgumentError(f"unknown instance keys {unknown}")
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in d]
        if missing:
            raise InvalidArgumentError(f"missing instance keys {missing}")
        chans = [np.asarray(c, int) for c in d["channels_of_bs"]]
        k, w = sum(len(c) for c in chans), len(chans)

        def arr(x):
            return None if x is None else np.asarray(x, dtype=float)

        def table(x, width):      # a table of no rows is written as []
            a = arr(x)
            return a.reshape(0, width) if a is not None and a.shape == (0,) else a

        return cls(
            gain=table(d["gain"], k),
            noise=table(d["noise"], k),
            channels_of_bs=chans,
            budget=arr(d["budget"]),
            weight=arr(d["weight"]),
            bandwidth=arr(d["bandwidth"]),
            tau=float(d["tau"]),
            user_pos=table(d.get("user_pos"), 2),
            bs_pos=table(d.get("bs_pos"), 2),
            gain_mean=table(d.get("gain_mean"), w),
        )


@dataclass
class ScenarioConfig:
    """Parameters of a synthetic scenario draw.

    The seed fully determines all random draws; identical configs yield
    bit-identical instances.
    """

    mode: str = "indoor"          # indoor | outdoor
    num_users: int = 10
    num_bss: int = 4
    num_channels: int = 64        # total for indoor; per-BS FFT size for outdoor
    distribution_factor: float = 0.5
    ber: float = 1e-6
    total_bandwidth_hz: float = 80e6
    shadowing_var_db2: float = 64.0
    seed: int = 0
    power_dbm: float = 23.0
    noise_psd_dbm_hz: float = -100.0
    pl1_db: float = DEFAULT_PL1_DB
    area_m: float = 50.0
    # outdoor-only
    bs_distance_km: float = 2.8
    multipath_profile: str = "peda"

    def __post_init__(self):
        if self.mode not in ("indoor", "outdoor"):
            raise InvalidArgumentError(f"unknown scenario mode {self.mode!r}")
        if not 0.0 <= self.distribution_factor <= 1.0:
            raise InvalidArgumentError("distribution factor must be in [0, 1]")
        if not 0.0 < self.ber < 1.0:
            raise InvalidArgumentError("BER must be in (0, 1)")
        if self.multipath_profile != "peda":
            raise InvalidArgumentError("the only multipath profile is 'peda'")
        for name, low in (("num_users", 0), ("num_bss", 1), ("num_channels", 1)):
            if getattr(self, name) < low:
                raise InvalidArgumentError(f"{name} must be >= {low}")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """The config of the fields in `d`; an unknown key is an error."""
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidArgumentError(f"unknown scenario keys {unknown}")
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _split_channels(total: int, n_bss: int) -> List[np.ndarray]:
    """Partition channel indices 0..total-1 into n_bss near-equal blocks."""
    sizes = [total // n_bss + (1 if i < total % n_bss else 0) for i in range(n_bss)]
    out, start = [], 0
    for s in sizes:
        out.append(np.arange(start, start + s))
        start += s
    return out


def _indoor_positions(cfg: ScenarioConfig, rng: np.random.Generator):
    """Place D*100% of users/BSs uniformly in the area; the remaining users
    in the central quarter-area hotspot, the remaining BSs on the border."""
    a = cfg.area_m
    n_u_unif = int(round(cfg.distribution_factor * cfg.num_users))
    n_b_unif = int(round(cfg.distribution_factor * cfg.num_bss))

    users = np.empty((cfg.num_users, 2))
    users[:n_u_unif] = rng.uniform(0.0, a, size=(n_u_unif, 2))
    # hotspot: central area of half the side length
    lo, hi = a / 4.0, 3.0 * a / 4.0
    users[n_u_unif:] = rng.uniform(lo, hi, size=(cfg.num_users - n_u_unif, 2))

    bss = np.empty((cfg.num_bss, 2))
    bss[:n_b_unif] = rng.uniform(0.0, a, size=(n_b_unif, 2))
    for j in range(n_b_unif, cfg.num_bss):
        t = rng.uniform(0.0, 4.0 * a)   # arc-length along the border
        side, off = int(t // a), t % a
        bss[j] = [(off, 0.0), (a, off), (a - off, a), (0.0, a - off)][side]
    return users, bss


def _scenario_instance(cfg: ScenarioConfig, gain: np.ndarray,
                       chans: List[np.ndarray], df: float,
                       user_pos: np.ndarray, bs_pos: np.ndarray,
                       gain_mean: np.ndarray) -> NetworkInstance:
    """The instance both scenario generators build from their draws: flat
    thermal noise (one read-only view), equal BS budgets, unit weights,
    subcarrier spacing df."""
    w_cnt = len(chans)
    return NetworkInstance(
        gain=gain,
        noise=np.broadcast_to(dbm_to_watts(cfg.noise_psd_dbm_hz) * df, gain.shape),
        channels_of_bs=chans,
        budget=np.full(w_cnt, dbm_to_watts(cfg.power_dbm)),
        weight=np.ones(w_cnt),
        bandwidth=np.full(w_cnt, df),
        tau=capacity_gap(cfg.ber),
        user_pos=user_pos,
        bs_pos=bs_pos,
        gain_mean=gain_mean,
    )


def gen_indoor(cfg: ScenarioConfig, rng: np.random.Generator) -> NetworkInstance:
    """Office-area scenario: exponential per-channel gains with log-normal
    shadowing over the indoor office path-loss model."""
    if cfg.mode != "indoor":
        raise InvalidArgumentError("config mode must be 'indoor'")
    user_pos, bs_pos = _indoor_positions(cfg, rng)
    chans = _split_channels(cfg.num_channels, cfg.num_bss)
    df = cfg.total_bandwidth_hz / cfg.num_channels

    shadow_db = rng.normal(0.0, math.sqrt(cfg.shadowing_var_db2),
                           size=(cfg.num_users, cfg.num_bss))
    d = np.maximum(np.linalg.norm(user_pos[:, None] - bs_pos[None], axis=2), 1.0)
    pl_db = cfg.pl1_db + 26.0 * np.log10(d) + 14.1
    gain_mean = 10.0 ** (shadow_db / 10.0) / 10.0 ** (pl_db / 10.0)
    gain = exponential_fading(gain_mean, chans, rng)
    return _scenario_instance(cfg, gain, chans, df, user_pos, bs_pos, gain_mean)


def exponential_fading(gain_mean: np.ndarray, chans: Sequence[np.ndarray],
                       rng: np.random.Generator) -> np.ndarray:
    """(N, K) gains: gain[i, k] exponential with mean gain_mean[i, w] on
    each channel k of BS w.  One standard-exponential draw, consumed BS
    by BS and user by user within a BS, scaled by the mean: the numbers and
    the generator state of one `rng.exponential` call per BS."""
    n, k = gain_mean.shape[0], sum(len(c) for c in chans)
    draws = rng.standard_exponential(n * k)
    gain = np.empty((n, k))
    start = 0
    for w, c in enumerate(chans):
        stop = start + n * len(c)
        gain[:, c] = draws[start:stop].reshape(n, len(c)) * gain_mean[:, w, None]
        start = stop
    return gain


def hex_layout(d_km: float, n_cells: int = 7) -> np.ndarray:
    """Center cell plus a ring of six neighbors at distance d."""
    if not 1 <= n_cells <= 7:
        raise InvalidArgumentError(f"outdoor layout has 1..7 cells, got {n_cells}")
    pts = [(0.0, 0.0)]
    for j in range(n_cells - 1):
        ang = math.pi / 3.0 * j
        pts.append((d_km * math.cos(ang), d_km * math.sin(ang)))
    return np.asarray(pts)


def _peda_subcarrier_gains(rng: np.random.Generator, n_sub: int, bw_hz: float) -> np.ndarray:
    """Squared magnitude of the frequency response of an i.i.d. Rayleigh
    4-tap PedA realization, sampled at n_sub subcarriers (unit mean power)."""
    p_lin = 10.0 ** (PEDA_POWERS_DB / 10.0)
    p_lin = p_lin / p_lin.sum()
    taps = (rng.normal(size=4) + 1j * rng.normal(size=4)) * np.sqrt(p_lin / 2.0)
    f = np.arange(n_sub) * (bw_hz / n_sub)
    phase = np.exp(-2j * math.pi * np.outer(f, PEDA_DELAYS_NS * 1e-9))
    return np.abs(phase @ taps) ** 2


def gen_outdoor(cfg: ScenarioConfig, rng: np.random.Generator) -> NetworkInstance:
    """Hexagonal multicell scenario with Rayleigh frequency-selective fading
    and 8 dB log-normal shadowing.

    Every BS conceptually reuses the same subcarriers; the instance stores
    them as disjoint per-BS blocks aligned by position, so cross-BS gains
    on matching subcarriers are available for interference accounting.
    """
    if cfg.mode != "outdoor":
        raise InvalidArgumentError("config mode must be 'outdoor'")
    bs_pos = hex_layout(cfg.bs_distance_km, cfg.num_bss)
    radius = cfg.bs_distance_km * 1.5
    n = cfg.num_users
    # uniform in the disk covering the 7-cell cluster
    r = radius * np.sqrt(rng.uniform(size=n))
    th = rng.uniform(0.0, 2.0 * math.pi, size=n)
    user_pos = np.column_stack([r * np.cos(th), r * np.sin(th)])

    n_sub = cfg.num_channels
    w_cnt = len(bs_pos)
    k = n_sub * w_cnt
    chans = [np.arange(w * n_sub, (w + 1) * n_sub) for w in range(w_cnt)]
    df = cfg.total_bandwidth_hz / n_sub

    shadow_std_db = math.sqrt(cfg.shadowing_var_db2)
    gain = np.zeros((n, k))
    gain_mean = np.zeros((n, w_cnt))
    for w in range(w_cnt):
        d = np.maximum(np.linalg.norm(user_pos - bs_pos[w], axis=1), 0.05)
        pl_db = 128.1 + 36.7 * np.log10(d)
        sh_db = rng.normal(0.0, shadow_std_db, size=n)
        base = 10.0 ** ((sh_db - pl_db) / 10.0)
        gain_mean[:, w] = base
        for i in range(n):
            gain[i, chans[w]] = base[i] * _peda_subcarrier_gains(
                rng, n_sub, cfg.total_bandwidth_hz)

    return _scenario_instance(cfg, gain, chans, df, user_pos, bs_pos, gain_mean)


def generate(cfg: ScenarioConfig, rng: Optional[np.random.Generator] = None) -> NetworkInstance:
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return (gen_indoor if cfg.mode == "indoor" else gen_outdoor)(cfg, rng)


def _check_cer(cer_db: float) -> None:
    """Refuse a channel error ratio of NaN or -inf (+inf is error-free)."""
    if not cer_db > -math.inf:
        raise InvalidArgumentError(
            f"channel error ratio must be finite or +inf, got {cer_db}")


def inject_estimation_error(net: NetworkInstance, cer_db: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Perturb the true normalized gains with zero-mean Gaussian estimation
    error whose variance is set per channel by the channel error ratio
    CER = 10*log10(g / sigma^2).  cer_db = +inf means error-free reports;
    NaN and -inf are refused.  Perturbed gains are clamped at zero."""
    _check_cer(cer_db)
    g = net.normalized_gain()
    if cer_db == math.inf:
        return g.copy()
    var = g / (10.0 ** (cer_db / 10.0))
    eps = rng.normal(0.0, 1.0, size=g.shape) * np.sqrt(var)
    return np.maximum(g + eps, 0.0)


# ---------------------------------------------------------------------------
# 3-SAT reduction gadget
# ---------------------------------------------------------------------------

@dataclass
class SatInstance:
    """3-CNF formula: each clause is 3 (variable index, polarity) literals.
    polarity True means the positive literal."""

    num_vars: int
    clauses: List[List[Tuple[int, bool]]]

    def __post_init__(self):
        for c in self.clauses:
            if len(c) != 3:
                raise InvalidArgumentError("each clause must have exactly 3 literals")
            for v, _ in c:
                if not 0 <= v < self.num_vars:
                    raise InvalidArgumentError(f"literal variable {v} out of range")

    @classmethod
    def from_dimacs(cls, text: str) -> "SatInstance":
        num_vars = 0
        clauses: List[List[Tuple[int, bool]]] = []
        cur: List[Tuple[int, bool]] = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith(("c", "%")):
                continue
            if line.startswith("p"):
                parts = line.split()
                num_vars = int(parts[2])
                continue
            for tok in line.split():
                lit = int(tok)
                if lit == 0:
                    if cur:
                        clauses.append(cur)
                        cur = []
                else:
                    cur.append((abs(lit) - 1, lit > 0))
        if cur:
            clauses.append(cur)
        return cls(num_vars=num_vars, clauses=clauses)

    def is_satisfied_by(self, assignment: Sequence[bool]) -> bool:
        return all(any(assignment[v] == pol for v, pol in c) for c in self.clauses)

    def satisfiable(self) -> bool:
        m = self.num_vars
        return any(self.is_satisfied_by([(mask >> j) & 1 == 1 for j in range(m)])
                   for mask in range(1 << m))


def reduce_3sat(sat: SatInstance) -> Tuple[NetworkInstance, float]:
    """Build the association-game gadget whose optimal throughput separates
    satisfiable from unsatisfiable formulas, and the separating threshold.

    Per-channel bandwidth is 1/ln 2, so one unit of rate corresponds to one
    bit on a unit-SNR channel; the threshold identities (a clause BS at
    power 1 on a gain-1 channel contributes exactly 1) are exact in these
    units.  Threshold: 2*M*Q + M*Q*log2(3) + Q for M variables, Q clauses.
    """
    m_vars, q = sat.num_vars, len(sat.clauses)
    n_users = (2 * q + 1) * m_vars
    n_bss = 2 * m_vars + q
    k = 2 * m_vars * q + q

    # users: x[m][q'] , xbar[m][q'] , y[m]
    def u_x(m, j):
        return m * (2 * q + 1) + j

    def u_xbar(m, j):
        return m * (2 * q + 1) + q + j

    def u_y(m):
        return m * (2 * q + 1) + 2 * q

    # BSs: X_m -> 2m, Xbar_m -> 2m+1, C_j -> 2*m_vars + j
    chans = []
    for m in range(m_vars):
        chans.append(np.arange(2 * m * q, (2 * m + 1) * q))        # X_m
        chans.append(np.arange((2 * m + 1) * q, (2 * m + 2) * q))  # Xbar_m
    for j in range(q):
        chans.append(np.array([2 * m_vars * q + j]))               # C_j

    gain = np.zeros((n_users, k))
    for m in range(m_vars):
        gain[u_y(m), chans[2 * m]] = 3.0
        gain[u_y(m), chans[2 * m + 1]] = 3.0
        for j in range(q):
            gain[u_x(m, j), chans[2 * m][j]] = 2.0
            gain[u_xbar(m, j), chans[2 * m + 1][j]] = 2.0
    for j, clause in enumerate(sat.clauses):
        ch = chans[2 * m_vars + j]
        for v, pol in set(clause):   # repeated literals de-duplicate
            user = u_x(v, j) if pol else u_xbar(v, j)
            gain[user, ch] = 1.0

    budget = np.concatenate([np.full(2 * m_vars, float(q)), np.ones(q)])
    net = NetworkInstance(
        gain=gain,
        noise=np.ones((n_users, k)),
        channels_of_bs=chans,
        budget=budget,
        weight=np.ones(n_bss),
        bandwidth=np.full(n_bss, 1.0 / LN2),
        tau=1.0,
    )
    threshold = 2.0 * m_vars * q + m_vars * q * math.log2(3.0) + q
    return net, threshold
