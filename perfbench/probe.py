"""Set-up probe: a fresh interpreter imports majorlens.cli and runs one
warm-up request, given as a JSON argument list, then exits with the
request's exit code. run.py times it from spawn to exit."""
import contextlib
import io
import json
import sys

import majorlens.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = majorlens.cli.run(json.loads(sys.argv[1]))
sys.exit(code)
