"""What the CLI needs before it knows its subcommand, and the CSV layout.

The drive-log defaults, the task-class and chaining enums, the preset names
and the JSON text layout live here.  :mod:`tortb.drivelog`,
:mod:`tortb.model`, :mod:`tortb.calibration` and :mod:`tortb.fileio`
re-export what they use of them; the CLI reads them from here to build its
flags and print its output, and :mod:`tortb.simulate` to write its logs, so
parsing arguments loads none of those modules.
"""

from enum import Enum
from typing import Any

# Analysis defaults: log sample rate, lateral-displacement windows before and
# after the TOR, takeover threshold as a fraction of full input range.
SAMPLE_RATE_HZ = 20.0
PRE_WINDOW_S = 5.0
POST_WINDOW_S = 5.0
TOT_THRESHOLD = 0.05

#: The drive-log CSV header: five value columns, then the TOR flag.
CSV_HEADER = ("t", "lat_disp", "acc", "steering", "brake", "tor_flag")

# Slack for float comparisons on sample timestamps (the sample period is
# 0.05 s at 20 Hz, so 1e-9 can never move a boundary across a sample).
_T_EPS = 1e-9

#: Names of the bundled scenario presets, the keys of ``model.SCENARIO_PRESETS``.
SCENARIO_NAMES = ("S1", "S2", "S3")


class NdrtClass(Enum):
    """How the non-driving-related task occupies the driver's hands."""

    HANDS_FREE = "handsfree"
    HAND_HELD = "handheld"


class Chaining(Enum):
    """Which precision of a solved value feeds into later anchors."""

    USE_RAW = "raw"
    USE_ROUNDED = "rounded"


def json_text(payload: Any) -> str:
    """The one JSON text layout: sorted keys, a 2-space indent and a final LF."""
    import json
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
