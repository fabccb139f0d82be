"""Run the command-line front end: ``python -m quasik <command> ...``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
