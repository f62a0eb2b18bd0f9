"""``python -m modesub``: the command-line front end, as the console script
runs it (``MODESUB_THREADS`` caps the BLAS thread pools)."""

from .cli import entry

if __name__ == "__main__":
    entry()
