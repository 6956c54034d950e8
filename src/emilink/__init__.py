"""Deterministic link-level comparison of reflecting-surface and
decode-and-forward relay assisted communication under electromagnetic
interference."""

from .errors import NumericalError
from .scene import (ArrayLayout, LinkBudget, angles_between, dbm_to_watt,
                    los_channel, make_layout, pathloss_umi, watt_to_dbm, wave_vector)
from .emi import (AngularDensity, corr_directional, corr_isotropic, emi_quadratic_form,
                  psd_project)
from .irs import (IrsLink, irs_min_power_emi_aware, irs_power_and_rate, irs_rate,
                  irs_required_power, irs_sinr, irs_sinr_gradient, phases_emi_aware,
                  phases_noise_only)
from .relay import (CombinerKind, EffectiveGains, df_inner_max_rate,
                    df_min_power, df_min_power_batch, df_rate, effective_gain_first_phase,
                    effective_gain_second_phase, effective_gains_single,
                    repetition_required_power)
from .bench import (RUNNERS, Scenario, SweepResult, SweepRow, emit, format_csv,
                    format_svg, load_scenario, run_fig3, run_fig4,
                    run_fig5, run_fig6, run_fig7, run_fig8, scenario_from_config)

__version__ = "0.1.0"
