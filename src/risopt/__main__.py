"""``python -m risopt``: the same entry point as the ``risopt`` console script."""

import sys

from risopt.cli import main

if __name__ == "__main__":
    sys.exit(main())
