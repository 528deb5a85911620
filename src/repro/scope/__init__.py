"""``repro.scope``: triggered waveform capture and measurements.

The platform's oscilloscope.  Three layers, modeled on litescope's
core/frontend/host split:

* **core** (:mod:`repro.scope.capture`) -- per-node probes, an edge
  trigger and a ring buffer that holds one pre/post-trigger window.
  Threaded through :func:`repro.spice.transient` via its ``scope=``
  parameter, the window replaces the dense record, so waveform memory
  is O(window) instead of O(steps), and the run ends on the sample
  that closes the window.
* **measure** (:mod:`repro.scope.measure`) -- propagation delay,
  rise/fall slew, output swing and settling time, each returning a
  small report object.
* **host** (:mod:`repro.scope.vcd`) -- the VCD writer a captured
  window dumps through, and the reader that round-trips it.

Quick taste::

    from repro.scope import EdgeTrigger, Probe, ScopeSession, measure
    from repro.spice import transient

    session = ScopeSession(
        probes=[Probe("s2_outp", "s2_outn", label="y2"),
                Probe("s3_outp", "s3_outn", label="y3")],
        trigger=EdgeTrigger("y2", level=0.0, direction="rising"),
        pre_samples=32, post_samples=128)
    transient(circuit, t_stop, scope=session)
    seg = session.segment()
    report = measure.propagation_delay(
        seg.time, seg.signal("y2"), seg.signal("y3"), level_in=0.0,
        level_out=0.0, edge_out=None)
    print(report.describe())
    open("capture.vcd", "w").write(seg.to_vcd())
"""

from . import measure
from .capture import (
    CaptureSegment,
    EdgeTrigger,
    Probe,
    ScopeSession,
)
from .measure import (
    DelayReport,
    SettlingReport,
    SlewReport,
    SwingReport,
    crossings,
    output_swing,
    propagation_delay,
    settling_time,
    transition_time,
)
from .vcd import (
    VcdDocument,
    VcdWriter,
    exact_timescale,
    parse_vcd,
)

__all__ = [
    "CaptureSegment", "EdgeTrigger", "Probe", "ScopeSession",
    "measure",
    "DelayReport", "SettlingReport", "SlewReport", "SwingReport",
    "crossings", "output_swing", "propagation_delay", "settling_time",
    "transition_time",
    "VcdDocument", "VcdWriter", "exact_timescale", "parse_vcd",
]
