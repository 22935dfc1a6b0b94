"""``python -m chiral444``: the same command line as the ``chiral444`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
