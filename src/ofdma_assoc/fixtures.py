"""Hard-coded regression fixtures: the worked single-cell misreport network
and the two small networks of the taxless CA/CAPA counterexamples, with
the listed better-reply table the tests check them against."""

import numpy as np

from .net_model import NetworkInstance


def example1_network() -> NetworkInstance:
    """1 BS, 2 users, 3 channels, unit noise, tau=1, budget 3."""
    gain = np.array([[2.0, 2.0, 1.0],
                     [0.5, 0.5, 2.0]])
    return NetworkInstance(
        gain=gain, noise=np.ones((2, 3)),
        channels_of_bs=[np.arange(3)],
        budget=np.array([3.0]), weight=np.array([1.0]),
        bandwidth=np.array([1.0]), tau=1.0)


def example2_ca_network() -> NetworkInstance:
    """2 BSs x 2 channels, 3 users, budget 2 per BS; taxless CA game with no
    pure NE."""
    gain = np.array([[2.0, 0.1, 2.2, 0.1],
                     [0.5, 2.5, 0.1, 2.6],
                     [0.1, 2.4, 2.3, 0.2]])
    return NetworkInstance(
        gain=gain, noise=np.ones((3, 4)),
        channels_of_bs=[np.array([0, 1]), np.array([2, 3])],
        budget=np.array([2.0, 2.0]), weight=np.ones(2),
        bandwidth=np.ones(2), tau=1.0)


def example2_capa_network() -> NetworkInstance:
    """2 BSs x 2 channels, 3 users, budget 5 per BS; taxless CAPA game with
    no pure NE."""
    gain = np.array([[1 / 5, 1 / 5, 1 / 6.4, 1 / 11],
                     [1 / 6, 0.0, 0.0, 1 / 8],
                     [0.0, 1 / 4, 1 / 6, 0.0]])
    return NetworkInstance(
        gain=gain, noise=np.ones((3, 4)),
        channels_of_bs=[np.array([0, 1]), np.array([2, 3])],
        budget=np.array([5.0, 5.0]), weight=np.ones(2),
        bandwidth=np.ones(2), tau=1.0)


# one listed better-reply entry per profile: (profile, user, target BS)
EXAMPLE2_BR_TABLE = [
    ((0, 0, 0), 2, 1),
    ((0, 0, 1), 1, 1),
    ((0, 1, 1), 2, 0),
    ((0, 1, 0), 0, 1),
    ((1, 1, 0), 1, 0),
    ((1, 0, 0), 2, 1),
    ((1, 0, 1), 0, 0),
    ((1, 1, 1), 0, 0),
]

# The nominal CAPA better-reply table above is arithmetically inconsistent
# at this one profile: exact water-filling gives user 2 rate ln(15/8)
# staying put versus ln(11/6) after the listed move, so its better-reply
# set is actually empty and the profile is a pure NE of the taxless CAPA
# game.  (Robust: no column permutation of the gain table, no tau, and no
# budget rescaling removes the NE.)  Every other row checks out exactly.
EXAMPLE2_CAPA_DEVIANT_PROFILE = (1, 0, 0)
