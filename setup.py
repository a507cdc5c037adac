"""Setuptools shim.

The offline environment used for this reproduction ships setuptools without
the ``wheel`` package, so PEP 660 editable installs (which need
``bdist_wheel``) fail.  This shim lets ``pip install -e .`` fall back to the
legacy ``setup.py develop`` path.  It declares no metadata and there is no
``pyproject.toml``: the code runs from source with ``PYTHONPATH=src``, and its
dependencies (numpy, scipy; hypothesis, pytest and pytest-benchmark for the
tests) are the ones the CI workflows install.
"""

from setuptools import setup

setup()
