"""``python -m neuronprune``: the command-line interface."""

from .cli import entry

entry()
