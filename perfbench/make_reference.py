"""Regenerate ``reference/allobjects.json``: the all-objects oracle answers.

Answers the base instance (seed ``None``) with ``det+`` on the
``reference`` Det kernel, the repository's differential oracle, and
stores one probability per base object with the instance fingerprint.
Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from allobjects import REFERENCE  # noqa: E402
from instances import ALLOBJECTS, fingerprint, make_instance  # noqa: E402


def main() -> None:
    from repro import SkylineProbabilityEngine

    instance = make_instance(ALLOBJECTS, None)
    engine = SkylineProbabilityEngine(instance.dataset(), instance.preferences())
    probabilities = engine.skyline_probabilities(method="det+", det_kernel="reference")
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(
        json.dumps(
            {
                "instance": vars(ALLOBJECTS),
                "fingerprint": fingerprint(instance.base_objects),
                "oracle": "det+ with det_kernel='reference'",
                "probabilities": probabilities,
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
