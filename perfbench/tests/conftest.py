import sys
from pathlib import Path

# The repository root, so that `import perfbench` works under plain pytest.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
