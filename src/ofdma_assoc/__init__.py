"""Joint base-station association and downlink OFDMA resource allocation:
per-BS allocation strategies, VCG taxation, the association game, the
distributed dynamic mechanism, reference baselines, and a simulation CLI."""

from .net_model import (InvalidArgumentError, NetworkInstance, SatInstance,
                        ScenarioConfig, capacity_gap, dbm_to_watts, generate,
                        inject_estimation_error, reduce_3sat)
from .per_bs_alloc import (CA, CAPA, Allocation, NoUsableChannelError,
                           cells_of, members, realized_rates, reported_rates,
                           solve_ca, solve_capa, solve_cell, water_fill)
from .vcg import UserOutcome, misreport_search, tax, utility
from .assoc_game import (Evaluator, GameMode, better_reply_set,
                         deviation_identity_check, efficiency_ratio,
                         enumerate_nes, is_ne, system_throughput)
from .mechanism import (AddUsers, MechanismState, RegenerateChannels,
                        RemoveUsers, RunResult, apply_event, init_state,
                        nearest_bs_profile, run, step,
                        update_interference_noise)
from .baselines import (BaselineResult, SearchSpaceTooLargeError,
                        candidate_bss, exhaustive_opt, greedy0,
                        multi_connect_bound, nearest_bs)

__version__ = "1.0.0"
