"""scripts/usc_gap_scan.py on a small grid."""

from helpers import script

usc_gap_scan = script("usc_gap_scan")


def test_scan_covers_n_2_and_both_regimes(capsys):
    # 2 x 2 grid: at n = 3, t = 1.6 keeps both constraints active and
    # t = 2.5 > n - 1 leaves the first slack; n = 2 pins t^2 and is slack
    assert usc_gap_scan.main(["--n", "3", "--x-grid", "0.1,0.01", "--t-grid", "1.6,2.5"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("t=")]
    assert len(rows) == 4
    assert [r[:2] for r in rows] == [
        ["t=1.60", "limit=2.560000"],
        ["t=2.50", "limit=6.250000"],
        ["t=1.60", "limit=1.011358"],
        ["t=2.50", "limit=1.481481"],
    ]
    # n = 2: ratio t^2 (1-x)^2, slack and certified
    assert rows[0][2:] == ["2.073600s*", "2.509056s*"]
    assert [cell.rstrip("*")[-1] for r in rows[2:] for cell in r[2:]] == ["a", "a", "s", "s"]
