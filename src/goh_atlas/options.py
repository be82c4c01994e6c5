"""Values the CLI's options accept, defined once without numpy so the parser
loads no numeric layer: the trace resolution (re-exported by goh), the
spiral sample count, the containment degree, the bounds on a Lyndon basis
(read by freelie.generate_basis) and on a structure table
(freelie.structure_table and the CLI) and the demo scenario names
(re-exported by scenarios)."""

# a trace adds about 12 B per grid node to the peak (tracemalloc and
# ru_maxrss at res 1024 and 2048), about 0.2 GB at RES_MAX
RES_MAX = 4096

# a sample adds about 3.5 kB to the peak of `demo f27-spiral` (ru_maxrss 221
# MB at SAMPLES_MAX) and 0.42 kB to that of `spiral` (157 MB at 300 000)
SAMPLES_MAX = 50_000

# a containment probe of degree d stacks (d + 1)(d + 2)/2 monomial columns
# over the curve's points, about 25 B per point and monomial at the peak of
# `contain` (ru_maxrss 174 MB at degree 14 and 331 MB at DEGREE_MAX, 231
# monomials, on the 50 001 points of `spiral --samples 50000`); a curve file
# has no point bound of its own, so the degree bounds the columns
DEGREE_MAX = 20

# a Lyndon basis adds about 0.6 kB per word to the peak of `goh-atlas basis`
# (ru_maxrss 78 MB at (2,20), 111 013 words; 136 MB at (2,21), 210 871; 442
# MB at (20,5), 682 766), about 0.16 GB at BASIS_MAX.  A rank-1 basis is one
# word at any step, but Duval's generation writes a list of step letters and
# the layer sizes cost O(step^2) to sum (3 ms at STEP_MAX, 34 ms at step
# 1000), so the step has its own bound.
BASIS_MAX = 250_000
STEP_MAX = 256

# a structure table of an n-word basis holds n x n dicts, almost all of
# them empty, with int constants: about 82 B per cell of ru_maxrss over the
# basis (74 at (2,10), 82 at (2,12), (4,6), (3,8) and (2,13), n = 1377: 164
# MB in all), about 0.18 GB at TABLE_MAX, so a realization past it is
# refused before the table is allocated
TABLE_MAX = 1_500

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


def check_table_size(n: int) -> None:
    """The one rule for the size of a structure table (`freelie.
    structure_table`, every command that realizes a frame): a basis of more
    than TABLE_MAX words is a ValueError naming it."""
    if n > TABLE_MAX:
        raise ValueError(f"{n} basis words are more than the {TABLE_MAX} "
                         f"a structure table takes")
