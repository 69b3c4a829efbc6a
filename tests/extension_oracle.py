"""30-digit values of the extension U(x, z) on a fixed grid.

``tests/golden/extension_oracle.txt`` holds one line ``set;s;z;x;U`` per
grid point, with U to 30 significant digits.  ``tests/test_extension.py``
reads the file and compares ``evaluate_extension`` with it, so the tests do
not run mpmath.  Each value is the subordination integral in v = -log u,

    U = m + (1/Gamma(sigma)) int exp(-e^{-v} - sigma v) ((P_tau chi_E)(x) - m) dv,

with m = gamma(E), sigma = s/2 and tau = (z^2/4) e^v, taken by ``mp.quad``
at ``mp.dps = 30`` from v = -8 to 10 - log(z^2/4), split at 60 breakpoints.
The rows (P_tau chi_E)(x) are sums of ``mp.ncdf``.  Outside that range the
integrand is below e^{-2900}.  Regenerate the file (about 5 minutes) with

    python tests/extension_oracle.py
"""
from pathlib import Path

import mpmath as mp

ORACLE = Path(__file__).parent / "golden" / "extension_oracle.txt"

SETS = {
    "(0,1)|(1.5,inf)": [(0, 1), (1.5, mp.inf)],
    "(-1.2,-0.3)|(0.4,2)": [(-1.2, -0.3), (0.4, 2)],
    "(-inf,-0.5)": [(-mp.inf, -0.5)],
}
ORDERS = ("0.02", "0.5", "0.98")
HEIGHTS = ("1e-6", "0.05", "3")
POINTS = ("-3", "0.3", "4", "12", "40")


def extension_value(intervals, s, z, x):
    """U(x, z) of the union of ``intervals`` at order s, to mp.dps digits."""
    sigma = mp.mpf(s) / 2
    z, x = mp.mpf(z), mp.mpf(x)
    ends = [(mp.mpf(a), mp.mpf(b)) for a, b in intervals]
    m = sum(mp.ncdf(b) - mp.ncdf(a) for a, b in ends)
    lq = mp.log(z * z / 4)

    def integrand(v):
        tau = mp.exp(v + lq)
        c, d = mp.exp(-tau), mp.sqrt(-mp.expm1(-2 * tau))
        row = sum(mp.ncdf((b - c * x) / d) - mp.ncdf((a - c * x) / d) for a, b in ends)
        return mp.exp(-mp.exp(-v) - sigma * v) * (row - m)

    return m + mp.quad(integrand, mp.linspace(-8, 10 - lq, 60)) / mp.gamma(sigma)


def render() -> str:
    lines = ["# set;s;z;x;U  (mpmath, 30 digits; see tests/extension_oracle.py)\n"]
    with mp.workdps(30):
        for text, intervals in SETS.items():
            for s in ORDERS:
                for z in HEIGHTS:
                    for x in POINTS:
                        value = extension_value(intervals, s, z, x)
                        lines.append(f"{text};{s};{z};{x};{mp.nstr(value, 30)}\n")
    return "".join(lines)


if __name__ == "__main__":
    ORACLE.write_text(render(), encoding="utf-8")
