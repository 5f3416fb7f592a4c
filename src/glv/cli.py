"""Command line interface over the JSON document format.

Verbs: verify, convert, fill, generate, nerve.  Exit codes: 0 when the
requested operation succeeds; 1 when a well formed document breaks a law or
a requested filler does not exist, one line per failure naming the law and
its site; 2 on unreadable files, malformed documents, kind mismatches,
example parameters that describe no example and running out of memory, with
one "error:" line.

The verbs live in glv.commands.  Importing this module loads every glv
module but not click: ``main`` and the other names of glv.commands are read
from there on first use, so a program that imports glv.cli and runs no verb
does not hold click in memory.
"""

from . import documents, sampling  # noqa: F401  with them, every glv module


def __getattr__(name: str):
    from . import commands

    return getattr(commands, name)


if __name__ == "__main__":
    from glv.commands import main

    main()
