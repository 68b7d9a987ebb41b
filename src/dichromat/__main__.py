"""``python -m dichromat``: the same entry point as the ``dichromat`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
