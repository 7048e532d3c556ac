"""Simulation laboratory for classical realizations of two-particle spin
correlations: hidden-variable models, CHSH statistics against the three
bounds, master-probability feasibility, protocol runners with exact
communication/shared-randomness/detection accounting, and
measurement-dependence measures."""

__version__ = "0.1.0"

from .geometry import RandomStream, planar_setting, sgn, substream
from .models import (JointLaw2x2, ModelFlags, analytic_law, estimate_law, hall_density,
                     hall_outcomes, malus_marginal, mixed_law, singlet_law,
                     tb_extension_law, tb_outcomes)
from .inequalities import (CardDeckModel, ChshReport, CorrelatorEstimate,
                           MasterProb16, bayes_chain_check, card_deck_stats,
                           chsh_analytic, chsh_from_correlators, chsh_mc,
                           correlator, counterfactual_correlators,
                           fine_feasibility, two_deck_example)
from .protocols import (EfficiencyReport, ProtocolResult, Watch,
                        run_conspiracy_audit, run_detection_loophole,
                        run_shared_coin, run_signaling_experiment,
                        run_tb_freewill, run_tb_protocol,
                        run_watch_realization, watch_vector)
from .freewill import (DiscretizedModel, FreeWillReport,
                       dictated_settings_model,
                       discretized_setting_tied_model, measure_M,
                       mutual_information, setting_independent_model)

__all__ = [name for name in dir() if not name.startswith("_")]
