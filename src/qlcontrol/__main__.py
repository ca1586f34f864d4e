"""``python -m qlcontrol``: the same command line as the ``qlcontrol`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
