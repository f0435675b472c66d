"""``python -m numrep``: the same command line as the ``numrep`` entry point."""

from .cli import run

if __name__ == "__main__":
    run()
