"""Setuptools shim for offline editable installs (``pip install -e .``).

Package metadata lives in ``pyproject.toml``; this file only exists because the
reproduction environment has no ``wheel`` package, which the PEP 517 editable
path would require.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Computing Shortest Paths and Diameter in the Hybrid "
        "Network Model' (Kuhn & Schneider, PODC 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.25", "networkx>=3.0"],
    extras_require={
        # Optional compiled kernel plane (DESIGN.md §9): njit graph/message
        # kernels plus the scipy.sparse.csgraph fallback.  Everything works
        # without the extra -- kernels degrade to the pure numpy oracle.
        "fast": ["numba>=0.59", "scipy>=1.10"],
    },
)
