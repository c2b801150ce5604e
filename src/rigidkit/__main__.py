"""``python -m rigidkit``: the same command line as the ``rigidkit`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
