"""``python -m boxball``: the command-line interface of :mod:`boxball.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
