"""``python -m kmaxseg ...`` runs the command-line tool, as the ``kmaxseg`` script does."""

import sys

from .cli import main

sys.exit(main())
