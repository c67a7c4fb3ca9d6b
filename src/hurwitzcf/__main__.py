"""``python -m hurwitzcf``: the command line of ``hurwitzcf.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
