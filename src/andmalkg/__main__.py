"""python -m andmalkg: the andmalkg command line (see cli.py)."""

from .cli import run

run()
