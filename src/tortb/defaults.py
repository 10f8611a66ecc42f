"""Drive-log analysis defaults.

:mod:`tortb.drivelog` uses them and re-exports them; the CLI reads them
from here to build its flags, so parsing arguments imports no numpy.
"""

# Analysis defaults: log sample rate, lateral-displacement windows before and
# after the TOR, takeover threshold as a fraction of full input range.
SAMPLE_RATE_HZ = 20.0
PRE_WINDOW_S = 5.0
POST_WINDOW_S = 5.0
TOT_THRESHOLD = 0.05
