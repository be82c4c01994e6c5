"""Values the CLI's options accept, defined once without numpy so the parser
loads no numeric layer: the trace resolution (re-exported by goh), the
bounds on a Lyndon basis (read by freelie.generate_basis) and the demo
scenario names (re-exported by scenarios, in its pipeline order)."""

# a trace adds about 12 B per grid node to the peak (tracemalloc and
# ru_maxrss at res 1024 and 2048), about 0.2 GB at RES_MAX
RES_MAX = 4096

# a Lyndon basis adds about 0.6 kB per word to the peak of `goh-atlas basis`
# (ru_maxrss 78 MB at (2,20), 111 013 words; 136 MB at (2,21), 210 871; 442
# MB at (20,5), 682 766), about 0.16 GB at BASIS_MAX.  A rank-1 basis is one
# word at any step, but Duval's generation writes a list of step letters and
# the layer sizes cost O(step^2) to sum (3 ms at STEP_MAX, 34 ms at step
# 1000), so the step has its own bound.
BASIS_MAX = 250_000
STEP_MAX = 256

SCENARIO_NAMES = ("heisenberg", "f23-line", "f24", "f25", "martinet",
                  "f27-spiral")


def check_resolution(resolution) -> int:
    """resolution as an int, if it is an integer from 2 to RES_MAX.

    The one rule for a trace's grid resolution (`trace_variety`, the CLI's
    --res, `run_scenario`); any other value is a ValueError naming it.
    """
    try:
        res = int(resolution)
    except (TypeError, ValueError, OverflowError):
        res = None
    if res is None or res != resolution or not 2 <= res <= RES_MAX:
        raise ValueError(f"resolution must be an integer from 2 to "
                         f"{RES_MAX}, got {resolution!r}")
    return res
