"""`python -m circmds`: the command-line interface of `circmds.cli`."""

import sys

from .cli import main

sys.exit(main())
