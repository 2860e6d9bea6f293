"""Entry point for ``python -m vfpath``."""

import sys

from .cli import main

sys.exit(main())
