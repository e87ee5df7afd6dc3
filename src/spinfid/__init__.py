"""Free-induction-decay simulator for small coupled spin ensembles.

Simulates the transverse magnetization signal of one to four weakly
coupled spin-1/2 nuclei after an excitation pulse, averaged over a
static random frequency offset drawn fresh for each realization, and
provides the matching closed-form models: single-spin dephasing
envelopes, the coupling-split thermal-state decay, the coupling-immune
pseudo-pure decay, and a first-order treatment of the flip-flop terms
that the secular approximation drops.

Typical use::

    from spinfid import run_preset
    run_preset("fig2-pps")            # writes fig2-pps.csv

or, for full control::

    from spinfid import (NoiseModel, PulseSpec, SpinSystemSpec, TimeGrid,
                         apply_pulse, evolve_fid, pps_state)

    spec = SpinSystemSpec(polarization=1.0)
    rho = apply_pulse(pps_state(spec, "101"), PulseSpec(target=2))
    trace = evolve_fid(spec, rho, NoiseModel("lorentzian", 28.0), TimeGrid())
"""

# Each library module declares its public names once, in its own __all__;
# the package republishes exactly those.
from .analytic import *  # noqa: F403
from .config import *  # noqa: F403
from .csvio import *  # noqa: F403
from .engine import *  # noqa: F403
from .experiments import *  # noqa: F403
from .hamiltonians import *  # noqa: F403
from .noise import *  # noqa: F403
from .operators import *  # noqa: F403
from .states import *  # noqa: F403
from .validate import *  # noqa: F403
from . import analytic, config, csvio, engine, experiments, hamiltonians, noise, operators, states, validate

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analytic, config, csvio, engine, experiments, hamiltonians, noise, operators, states, validate)
    for name in module.__all__
] + ["__version__"]
