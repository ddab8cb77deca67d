import sys

from .run import main

sys.exit(main())
