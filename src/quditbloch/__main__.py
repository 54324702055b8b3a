"""``python -m quditbloch``: the batch command-line front end."""

from .cli import main

if __name__ == "__main__":
    main()
