"""``python -m heckeblocks``: the command line of the ``heckeblocks`` script."""

from .cli import run

if __name__ == "__main__":
    run()
