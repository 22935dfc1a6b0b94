"""One set-up sample, taken in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR FAMILIES   (e.g. ``src P,Q``)

Times ``import chiral444``, ``presentation_U()`` (parsing the bundled base
presentation) and ``reference_triple(f)`` for each family, each in its own
span, and prints one JSON object: the total set-up time and the spans, with
times in seconds from the start of the import.  Interpreter start-up is not
included.
"""

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src = Path(argv[1]).resolve()
    families = argv[2].split(",")
    sys.path.insert(0, str(src))
    spans = []
    t0 = time.perf_counter()

    def mark(name, start):
        spans.append({"name": name, "start": start - t0,
                      "end": time.perf_counter() - t0})

    import chiral444
    from chiral444.families import presentation_U, reference_triple
    mark("setup.import", t0)
    if not Path(chiral444.__file__).resolve().is_relative_to(src):
        print(f"chiral444 imported from {chiral444.__file__}, not {src}",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    presentation_U()
    mark("words.parse", start)
    for f in families:
        start = time.perf_counter()
        reference_triple(f)
        mark("families.reference", start)
    print(json.dumps({"setup_s": time.perf_counter() - t0, "spans": spans}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
