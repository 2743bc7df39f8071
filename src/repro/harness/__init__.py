"""``repro.harness`` — the experiments of the paper's evaluation (§9).

:mod:`~repro.harness.experiments` runs the studies,
:mod:`~repro.harness.benches` is the ``repro bench`` registry that prints
and checks them against :mod:`~repro.harness.paper`, and
:mod:`~repro.harness.calibration` holds the simulated K80 testbed.
"""

from repro.harness import calibration, experiments, identity

__all__ = ["calibration", "experiments", "identity"]
