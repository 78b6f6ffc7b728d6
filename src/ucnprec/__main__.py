"""Run the CLI as `python -m ucnprec`."""

import sys

from .harness import main

sys.exit(main())
