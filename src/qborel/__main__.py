"""``python -m qborel``: the ``qborel`` command line."""

import sys

from .cli import main

sys.exit(main())
