"""``python -m liesym``: the same command line as the ``liesym`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
