"""The distribution's metadata names the package it installs and takes
its version from it."""

import importlib
from pathlib import Path

import pytest

import bitsense
from bitsense.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_the_distribution_and_its_script_are_named_bitsense():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "bitsense"
    module, _, name = project["scripts"]["bitsense"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_the_distribution_version_is_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(PYPROJECT, expand=True)
    assert config["project"]["version"] == bitsense.__version__
