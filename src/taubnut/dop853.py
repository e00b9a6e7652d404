"""The Dormand-Prince 8(5,3) Runge-Kutta tableau and its 7th-order dense
output, stepped in float arithmetic on the planar state (u, v).

Coefficients of Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I*, 2nd ed., Sec. II.10 (the DOP853 code), as IEEE doubles.  Rows
are sparse, {column: coefficient}, and summed in column order; stages 12-15
are the three extra stages of the dense output (stage 12 is the FSAL stage
f(y_new), its row the 8th-order weights).  Right-hand sides take (u, v)
alone and return (u', v').  A step and a dense output each run as one
straight-line function, generated from the rows on first use (1.5-2 ms,
which every process would pay at import), that keeps the slopes in locals."""

from __future__ import annotations

import functools
import math

N_STAGES = 12           # stages of one step; stage 12 is f(y_new)
N_STAGES_EXTENDED = 16  # plus the three extra stages of the dense output
ERROR_ORDER = 7         # step control: error_norm ~ h^(ERROR_ORDER + 1)

_A_ROWS = {
    1: {0: 0.05260015195876773},
    2: {0: 0.0197250569845379, 1: 0.0591751709536137},
    3: {0: 0.02958758547680685, 2: 0.08876275643042054},
    4: {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    5: {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    6: {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
        5: -0.017578125},
    7: {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
        5: -0.015319437748624402, 6: 0.008273789163814023},
    8: {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
        5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    9: {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
        5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
        8: -0.020331201708508627},
    10: {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
         5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
         8: 2.4936055526796523, 9: -3.0467644718982196},
    11: {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
         5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
         8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    12: {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
         7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
         10: 0.20136540080403034, 11: 0.04471061572777259},
    13: {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
         8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
         11: 0.007567897660545699, 12: -0.008298},
    14: {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
         7: -0.05492374857139099, 10: -0.00010834732869724932,
         11: 0.0003825710908356584, 12: -0.00034046500868740456,
         13: 0.1413124436746325},
    15: {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
         7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
         13: 2.9475147891527724, 14: -9.15095847217987},
}

_STAGE_ROWS = [tuple(_A_ROWS.get(s, {}).items()) for s in range(N_STAGES_EXTENDED)]

# Error estimators over K[0..12]: the 5th-order one, and the 3rd-order one
# B - bhh with bhh = (0.2440944881889764, 0.7338466882816118, 0.02205882352941176)
# at stages 0, 8 and 11.
_ERROR_ROWS = [tuple(row.items()) for row in (
    {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
     7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
     10: 0.08192320648511571, 11: -0.022355307863886294},
    {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.02265179219836082})]

# Coefficients of the dense output's four highest terms (the first three
# come from y_old, y_new and the end slopes), over all 16 stages.
_DENSE_ROWS = [tuple(row.items()) for row in (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564})]


@functools.cache
def kernels() -> tuple:
    """The straight-line functions (step, dense), stage s's slopes in locals
    ku{s}, kv{s}.  step(rhs, u, v, h, ku0, kv0) returns y_new, the error rows'
    sums ((e5u, e3u), (e5v, e3v)) and the slopes K = (ku0, ..., ku12, kv0,
    ..., kv12) of the step of size h; dense(rhs, u, v, u_new, v_new, h, K)
    adds stages 13-15 and returns the dense output's Horner terms, per component."""
    def row_sum(c, row):   # 0.0 + a0 * kc_j0 + a1 * kc_j1 + ..., the float a loop gives
        return " + ".join(["0.0", *(f"{a!r} * k{c}{j}" for j, a in row)])

    def slopes(s, name):   # of stage s at its state, which name := stores
        state = ", ".join(f"{c} + ({row_sum(c, _STAGE_ROWS[s])}) * h" for c in "uv")
        return f"    ku{s}, kv{s} = rhs({name}({state}))"

    def terms(c):   # the Horner scheme starts at 0.0; d = c_new - c, the step's change
        d = f"({c}_new - {c})"
        low = [f"2.0 * {d} - h * (k{c}{N_STAGES} + k{c}0)", f"h * k{c}0 - {d}", d]
        return "0.0 + " + ", ".join([f"h * ({row_sum(c, row)})" for row in _DENSE_ROWS[::-1]] + low)
    K = ", ".join(f"k{c}{s}" for c in "uv" for s in range(N_STAGES + 1))
    errors = ", ".join(f"({', '.join(row_sum(c, row) for row in _ERROR_ROWS)})" for c in "uv")
    source = ["def step(rhs, u, v, h, ku0, kv0):", *(slopes(s, "") for s in range(1, N_STAGES)),
              slopes(N_STAGES, "y_new := "), f"    return y_new, ({errors}), ({K})",
              "def dense(rhs, u, v, u_new, v_new, h, K):", f"    {K} = K",
              *(slopes(s, "") for s in range(N_STAGES + 1, N_STAGES_EXTENDED)),
              f"    return ({terms('u')}), ({terms('v')})"]
    exec("\n".join(source), namespace := {})
    return namespace["step"], namespace["dense"]


def error_norm(sums, h: float, scale: tuple[float, float]) -> float:
    """RMS norm of the step's error estimate relative to ``scale`` from the error
    rows' sums ((e5u, e3u), (e5v, e3v)): the 5th-order estimate e5, damped by
    the 3rd-order one e3 where the two disagree, |h| |e5|^2 / sqrt(2 (|e5|^2
    + 0.01 |e3|^2)), written with hypot so that no square under- or overflows."""
    (e5u, e3u), (e5v, e3v) = sums
    su, sv = scale
    n5 = math.hypot(e5u / su, e5v / sv)
    if n5 == 0.0:
        return 0.0
    n3 = math.hypot(e3u / su, e3v / sv)
    return abs(h) * n5 * (n5 / math.hypot(n5, 0.1 * n3)) / math.sqrt(2.0)
