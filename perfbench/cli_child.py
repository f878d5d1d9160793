"""Run one ratiotails command with the layer tracer installed.

    python cli_child.py SPANS_JSON ARG...

Runs ``ratiotails.cli.main(ARG...)`` in this process, writes the spans it
recorded to SPANS_JSON and exits with the command's exit code.
"""

import json
import sys

import layers


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.install()
    import ratiotails.cli as cli
    try:
        return cli.main(argv)
    finally:
        tracer.restore()
        with open(spans_file, "w") as fh:
            json.dump([span.as_dict() for span in tracer.spans], fh)


if __name__ == "__main__":
    sys.exit(main())
