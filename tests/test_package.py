"""The package is its modules: `import idemring` loads no submodule and
exports no name, and each submodule imports first and on its own."""

import subprocess
import sys
from pathlib import Path

import pytest

import idemring

PACKAGE = Path(idemring.__file__).resolve().parent
SRC = str(PACKAGE.parent)
# every library module (__main__ runs the CLI when imported)
SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))


def _fresh(code: str) -> list[str]:
    """The stdout lines of `code` run in a fresh interpreter (-S) with the
    package's source directory first on sys.path."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys\nsys.path.insert(0, sys.argv[1])\n{code}", SRC],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout.splitlines()


def test_unknown_names_raise_attribute_error():
    # Poly is defined in idemring.polyring and is not a name of the package;
    # `from idemring import classify` finds the submodule
    lines = _fresh(
        "import idemring\n"
        "print(sorted(m for m in sys.modules if m.startswith('idemring.')))\n"
        "print(hasattr(idemring, 'no_such_name'), hasattr(idemring, 'Poly'))\n"
        "for name in ('no_such_name', 'Poly'):\n"
        "    try:\n"
        "        exec(f'from idemring import {name}', {})\n"
        "    except ImportError:\n"
        "        print(name, 'ImportError')\n"
        "from idemring import classify\n"
        "print(classify is sys.modules['idemring.classify'])\n"
    )
    assert lines == ["[]", "False False", "no_such_name ImportError", "Poly ImportError", "True"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_imports_first_and_alone(name):
    # nothing fixes the order in which submodules load, so an import cycle
    # shows as a submodule that fails to import first
    assert _fresh(f"import idemring.{name}\nprint(idemring.{name}.__name__)") == [f"idemring.{name}"]
