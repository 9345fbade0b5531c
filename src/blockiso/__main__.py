"""`python -m blockiso`: the command-line front end, imported once."""

import sys

from .cli import main

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
