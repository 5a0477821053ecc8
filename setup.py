"""Setup script (legacy path kept so `pip install -e .` works offline,
where the `wheel` package required by PEP 660 editable installs is absent)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Few-shot domain adaptation for data drift mitigation in network "
        "management (ICDCS 2025 reproduction)"
    ),
    license="Apache-2.0",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.23", "scipy>=1.9"],
    extras_require={
        "graph": ["networkx>=2.8"],
        "dev": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
