"""``python -m benchmarks.layers run|compare ...`` (see ``run.py``)."""

import sys

from benchmarks.layers.run import main

sys.exit(main())
