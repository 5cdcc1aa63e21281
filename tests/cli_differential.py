"""``netexposure.cli.main``'s parse of an argv against the full grammar's.

``outcomes(argv)`` runs ``main`` twice at an 80-column terminal with
handlers that only record the namespace they receive: once as it is, and
once with every argv parsed by the full two-level grammar
(``cli._parser``), which builds all six commands with their arguments and
skips ``main``'s command-first path, its one optimisation. Each run gives
its exit code, stdout, stderr and that namespace. It needs only the standard library and ``netexposure.cli``, so
any interpreter can run it as a script:

    PYTHONPATH=src python tests/cli_differential.py < argvs.json

reads a JSON list of argvs and prints, as JSON, those whose runs differ.
"""

import contextlib
import io
import json
import os
import sys
from unittest import mock

from netexposure import cli


def _full_grammar(argv):
    return cli._parser().parse_args(argv)


def _run(argv, parse=None) -> dict:
    out, err, seen = io.StringIO(), io.StringIO(), []

    def record(args):
        seen.append(sorted(vars(args).items()))
        return cli.EXIT_OK

    stubs = {name: (help_text, add_arguments, record)
             for name, (help_text, add_arguments, _) in cli._COMMANDS.items()}
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": "80"}))
        stack.enter_context(mock.patch.dict(cli._COMMANDS, stubs))
        if parse is not None:
            stack.enter_context(mock.patch.object(cli, "_parse", parse))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # help
            code = exc.code
    # repr: a nan parsed on both sides is the same text, not an equal float
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "namespace": repr(seen)}


def outcomes(argv) -> tuple[dict, dict]:
    """``main``'s outcome of argv, and the full grammar's."""
    return _run(argv), _run(argv, _full_grammar)


if __name__ == "__main__":
    differ = []
    for argv in json.load(sys.stdin):
        ours, full = outcomes(argv)
        if ours != full:
            differ.append({"argv": argv, "main": ours, "full": full})
    json.dump(differ, sys.stdout, indent=1)
