"""Set-up probe: import the CLI, parse argv and config, then print "ready".

`run.py` starts this script in a fresh interpreter and times it from the
start of the process until the line arrives, which is the set-up a user
pays before `trajtopo` does any work.
"""

import json
import sys
from pathlib import Path

from trajtopo import cli, pipeline


def main() -> None:
    args = cli.build_parser().parse_args(sys.argv[1:])
    if args.command == "run":
        pipeline.load_config(args.config)
    elif getattr(args, "config", None):
        json.loads(Path(args.config).read_text(encoding="utf-8"))
    print("ready", flush=True)


if __name__ == "__main__":
    main()
