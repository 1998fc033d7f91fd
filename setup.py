"""Package metadata for ``pip install -e .`` (optional).

This file is the repository's whole build configuration (there is no
pyproject.toml).  Tests, tools and benchmarks run straight from the checkout
with ``PYTHONPATH=src`` and need no install.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Reprowd: crowdsourced data processing made reproducible (reproduction)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
