"""Confirm the expected reports under bench/expected/ without trusting the
code the benchmark measures.

    python3 bench/audit_expected.py

Cohomology reports are rebuilt line by line from numbers that come from
the independent dense oracle (tests/dense_oracle.py, through the reports'
top degree, 5) and
from closed forms, and must match the files byte for byte:

- Sweedler H4 with its distinguished character: the Hochschild complex is
  the cobar complex of H4, so HH^n = Ext_{H4*}(k, k) = k[y]^{Z/2} with y of
  degree 1 and g y = -y, which is 1 in even and 0 in odd degrees; Connes'
  exact sequence then gives HC^2k = k + 1 and HC^odd = 0.
- k[G] for a finite group G with any character: k^G is semisimple, so
  HH = 1, 0, 0, ... and HC = 1, 0, 1, 0, ...

In both cases rank_b is fixed by HH: rank b_n = dim C^(n-1) - HH^(n-1) -
rank b_(n-1).  Relation reports must list every check as passing, and the
pairing value must equal sum_i phi(E_ii) computed from the input file.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

from dense_oracle import oracle_dimensions  # noqa: E402

import run  # noqa: E402


def render_cohomology(name, character, method, dims, hh, hc):
    """The cohomology report format, rebuilt from dimension columns."""
    top = len(hh) - 1
    lines = ["report: cohomology", f"algebra: {name}", f"character: {character}",
             f"max-degree: {top}", f"method: {method}",
             "columns: degree dim rank_b HH HC(lambda) HC(bB) flag"]
    rank_b = [0]
    for n in range(1, top + 1):
        rank_b.append(dims[n - 1] - hh[n - 1] - rank_b[n - 1])
    for n in range(top + 1):
        lam = hc[n] if method in ("lambda", "both") else "-"
        bb = hc[n] if method in ("bB", "both") and n < top else "-"
        flag = " flag=boundary-unreliable" if method != "lambda" and n >= top - 1 else ""
        lines.append(f"degree {n}: dim={dims[n]} rank_b={rank_b[n]} HH={hh[n]} "
                     f"HC_lambda={lam} HC_bB={bb}{flag}")
    lines.append("stabilization: " + " ".join(
        f"HC^{n}{'=' if hc[n] == hc[n + 2] else '!='}HC^{n + 2}"
        for n in range(top - 1)))
    return "\n".join(lines) + "\n"


def check_oracle(H, delta_values, hh, hc, degree, label):
    start = time.perf_counter()
    got = oracle_dimensions(H, delta_values, degree)
    if got != (hh[:degree + 1], hc[:degree + 1]):
        raise SystemExit(f"{label}: dense oracle gives {got}, closed form "
                         f"{hh[:degree + 1]}, {hc[:degree + 1]}")
    print(f"{label}: dense oracle agrees through degree {degree} "
          f"({time.perf_counter() - start:.1f} s)")


def expect(name, text):
    actual = (run.EXPECTED_DIR / name).read_text(encoding="utf-8")
    if actual != text:
        raise SystemExit(f"{name} differs from its independent reconstruction:"
                         f"\n{text}")
    print(f"{name}: matches")


def main():
    hc_mods = run.import_package()
    hopf, fields = hc_mods["hopf"], hc_mods["fields"]
    top = 5

    H = hopf.sweedler_h4()
    hh = [1 - n % 2 for n in range(top + 1)]
    hc = [n // 2 + 1 if n % 2 == 0 else 0 for n in range(top + 1)]
    check_oracle(H, list(H.character("delta").values), hh, hc, top,
                 "sweedler-h4/delta")
    expect("sweedler-cohomology.txt", render_cohomology(
        "sweedler-h4", "delta", "both", [4 ** n for n in range(top + 1)], hh, hc))

    F = fields.CyclotomicField(4)
    Q = hopf.cyclic_group_algebra(4, field=F)
    delta = [F.one(), F.zeta(), -F.one(), -F.zeta()]
    hh = [1] + [0] * top
    hc = [1 - n % 2 for n in range(top + 1)]
    check_oracle(Q, delta, hh, hc, top, "QZ4/delta")
    expect("cyclotomic-lambda.txt", render_cohomology(
        "QZ4", "delta", "lambda", [4 ** n for n in range(top + 1)], hh, hc))

    for _, name in run.WORKLOADS["relation-checks"]:
        if name == "pair.txt":
            continue
        lines = (run.EXPECTED_DIR / name).read_text(encoding="utf-8").splitlines()
        checks = [l for l in lines if l.startswith("check ")]
        if not checks or any(not l.endswith(" status=pass") for l in checks) \
                or lines[-1] != f"summary: pass={len(checks)} fail=0":
            raise SystemExit(f"{name}: not every check passes")
        print(f"{name}: all {len(checks)} checks pass")

    data = json.loads((ROOT / "data" / "pair-qz2.json").read_text())
    if data["cochain"]["degree"] != 0:
        raise SystemExit("pair-qz2.json: expected a degree-0 cochain")
    phi = {row[0]: Fraction(row[1]) for row in data["cochain"]["entries"]}
    value = sum(phi.get(b, 0) * Fraction(c)
                for r, col, b, c in data["idempotent"] if r == col)
    expect("pair.txt", f"report: pairing\nalgebra: {data['algebra']['name']}\n"
           f"q: {data['q']}\nvalue: {value}\n")


if __name__ == "__main__":
    main()
