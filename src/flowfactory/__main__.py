"""`python -m flowfactory` runs the command-line interface."""

from .cli import entry

entry()
