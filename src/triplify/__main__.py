"""`python -m triplify`: the `triplify` command line."""

from .cli import main

raise SystemExit(main())
