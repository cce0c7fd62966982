"""Package metadata and console entry points.

Install in editable mode with ``pip install -e .`` (or, in environments
without the ``wheel`` package where PEP 660 editable installs are
unavailable, ``pip install -e . --no-use-pep517 --no-build-isolation``).

The ``repro-campaign`` console script runs a campaign spec from JSON on
either execution backend — see :mod:`repro.campaign.cli`.  The
``repro-parity`` console script is the governor/engine parity gate —
see :mod:`repro.testing.parity.cli`.
"""

from setuptools import find_packages, setup

setup(
    name="repro-biswas-date17",
    version="0.1.0",
    description=(
        "Reproduction of Biswas et al., 'Machine Learning for Run-Time Energy "
        "Optimisation in Many-Core Systems' (DATE 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={
        # Optional compiled closed-loop kernels (repro.sim.jitpath).  Without
        # numba the backend simply drops out of engine negotiation.
        "jit": ["numba>=0.59"],
    },
    entry_points={
        "console_scripts": [
            "repro-campaign=repro.campaign.cli:main",
            "repro-parity=repro.testing.parity.cli:main",
        ]
    },
)
