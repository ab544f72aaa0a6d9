"""Package metadata and entry points.

The offline environment ships setuptools without the ``wheel`` package, so
PEP 660 editable installs (``pip install -e .`` with build isolation) cannot
build an editable wheel; ``pip install -e . --no-build-isolation`` (or the
classic ``python setup.py develop``) is the supported install path, which is
why the metadata lives here rather than in a ``pyproject.toml``.

Installing exposes the ``repro`` console script — the unified experiment CLI
(equivalent to ``python -m repro.experiments``)::

    repro list
    repro run fig3 --nodes 200 --runs 10 --workers 4
    repro compare fig3
    repro report fig3      # markdown report + figures from the stored run

Figure rendering (PNG/SVG via matplotlib) is an optional extra::

    pip install -e .[plots] --no-build-isolation

Without it, ``repro report`` falls back to markdown tables for every figure.
"""

from pathlib import Path

from setuptools import find_packages, setup

_VERSION: dict[str, str] = {}
exec((Path(__file__).parent / "src" / "repro" / "version.py").read_text(), _VERSION)

setup(
    name="repro-bcbpt",
    version=_VERSION["__version__"],
    description=(
        "Discrete-event reproduction of the BCBPT proximity-clustering "
        "protocol (Sallal, Owenson, Adda; ICDCS 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
    ],
    extras_require={
        # Optional figure rendering for `repro report`; everything else
        # (including the markdown table fallback) works without it.
        "plots": ["matplotlib"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.experiments.cli:main",
        ],
    },
)
