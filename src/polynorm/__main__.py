"""`python -m polynorm ...`: the same command line as the `polynorm` script."""

from .cli import main

raise SystemExit(main())
