"""``python -m gaussl1``: the ``gaussl1`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
