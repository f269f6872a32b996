"""`python -m tinycil ...` runs the `tinycil` command line."""

from .cli import main

raise SystemExit(main())
