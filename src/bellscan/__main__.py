"""`python -m bellscan`: the same command line as the `bellscan` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
