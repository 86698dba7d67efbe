"""`python -m parstab ...` runs the `parstab` command."""

import sys

from .cli import main

sys.exit(main())
