"""``python -m hpkernels ...`` runs the ``hpk`` command line."""

import sys

from .cli import main

sys.exit(main())
