"""Drive-log defaults and the CSV layout.

:mod:`tortb.drivelog` uses them and re-exports them; the CLI reads them
from here to build its flags, and :mod:`tortb.simulate` to write its logs,
so parsing arguments and simulating do not load the drive-log module.
"""

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
