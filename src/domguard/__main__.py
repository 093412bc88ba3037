"""``python -m domguard``: the same command line as the ``domguard`` script."""

from .cli import main

raise SystemExit(main())
