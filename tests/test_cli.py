import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dswlab import __version__
from dswlab.cli import DMATRIX_SWEEP_DEFAULT_KAPPAS, THETA_TABLE_DEFAULT_PAIRS, build_parser, main
from dswlab.spectra import _BLAS_PIN, unstable_modes
from dswlab.waves import params_from_kappa, profile_residual


def read_csv(path):
    header, cols, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif cols is None:
            cols = line.split(",")
        else:
            rows.append(line.split(","))
    return header, cols, rows


def header_value(header, key):
    for line in header:
        for tok in line.replace("# ", "").split():
            if tok.startswith(key + "="):
                return tok.split("=", 1)[1]
    raise KeyError(key)


def header_keys(header):
    """The keys of each provenance header line after the command's name line."""
    return [[tok.split("=", 1)[0] for tok in line[2:].split() if "=" in tok]
            for line in header[1:]]


class TestWaveCommand:
    def test_header_carries_speed(self, tmp_path):
        out = tmp_path / "wave.csv"
        assert main(["wave", "--L", "2", "--kappa", "0.1", "--out", str(out)]) == 0
        header, cols, rows = read_csv(out)
        assert float(header_value(header, "c")) == pytest.approx(9.87007, rel=5e-6)
        assert cols == ["xi", "psi", "phi"]
        assert len(rows) == 256
        assert float(header_value(header, "residual_ode")) < 1e-8

    def test_speed_route_matches_modulus_route(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["wave", "--L", "2", "--kappa", "0.1", "--out", str(a)])
        main(["wave", "--L", "2", "--c", "9.870071698075456", "--out", str(b)])
        ra = np.array(read_csv(a)[2], dtype=float)
        rb = np.array(read_csv(b)[2], dtype=float)
        assert np.max(np.abs(ra - rb)) < 1e-9

    def test_residual_is_that_of_the_printed_grid(self, tmp_path):
        # 16 points under-resolve the wave (2.5, 0.8): 7.2e-3 there, 1.7e-11 at 64
        out = tmp_path / "wave.csv"
        assert main(["wave", "--L", "2.5", "--kappa", "0.8", "--N", "16", "--out", str(out)]) == 0
        header, _, rows = read_csv(out)
        r1, r2 = profile_residual(params_from_kappa(2.5, 0.8), 16)
        assert header_value(header, "residual_ode") == repr(r1)
        assert header_value(header, "residual_energy") == repr(r2)
        assert len(rows) == 16

    def test_header_keys(self, tmp_path):
        # each field once: the integration constants E = D1 = 0 are not printed
        out = tmp_path / "wave.csv"
        assert main(["wave", "--L", "2", "--kappa", "0.3", "--N", "16", "--out", str(out)]) == 0
        header, _, _ = read_csv(out)
        assert header[0] == f"# dswlab {__version__} :: wave"
        assert header_keys(header) == [["L", "kappa", "c", "N"], ["eta1", "eta3", "eta4"],
                                       ["beta_sq", "F1", "h"], ["a", "alpha", "K"],
                                       ["residual_ode", "residual_energy"]]

    def test_any_grid_size(self, tmp_path):
        out = tmp_path / "wave.csv"
        assert main(["wave", "--L", "2", "--kappa", "0.3", "--N", "100", "--out", str(out)]) == 0
        assert len(read_csv(out)[2]) == 100

    def test_invalid_modulus_exits_nonzero(self, capsys):
        assert main(["wave", "--L", "2", "--kappa", "1.5"]) == 2
        assert "modulus" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["wave", "spectrum"])
    @pytest.mark.parametrize("route", [["--kappa", "0.3"], ["--c", "5"]])
    def test_infinite_period_exits_2(self, tmp_path, capsys, command, route):
        out = tmp_path / "out.csv"
        assert main([command, "--L", "inf", *route, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: period L must be positive and finite (got inf)\n"
        assert not out.exists()

    def test_below_threshold_speed_reported(self, capsys):
        assert main(["wave", "--L", "2", "--c", "1.0"]) == 2
        assert "4 pi^2" in capsys.readouterr().err

    @pytest.mark.parametrize("L,message", [
        ("1e-200", "speed 5.0 is at or below 4 pi^2/L^2 = inf; no periodic wave of period 1e-200"),
        ("1e200", "speed 5.0 exceeds the separatrix limit c(kappa=0.999999999) for L=1e+200"),
    ], ids=["tiny", "huge"])
    def test_speed_at_an_extreme_period_exits_2(self, tmp_path, capsys, L, message):
        # L**2 used to underflow to a ZeroDivisionError (tiny) or overflow (huge)
        out = tmp_path / "wave.csv"
        assert main(["wave", "--L", L, "--c", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_non_finite_speed_exits_2_naming_it(self, tmp_path, capsys, c):
        # nan used to end in scipy's "The function value at x=1e-09 is NaN"
        out = tmp_path / "wave.csv"
        assert main(["wave", "--L", "2", "--c", c, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: speed c must be finite (got {c})\n"
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["wave", "--L", "2", "--kappa", "0.33", "--out", str(a)])
        main(["wave", "--L", "2", "--kappa", "0.33", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestThetaTable:
    def test_default_reproduces_printed_rows(self, tmp_path):
        out = tmp_path / "theta.csv"
        assert main(["theta-table", "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert cols == ["L", "kappa", "c", "p_prime_0", "q_prime_L", "theta",
                        "n_minus", "n_zero"]
        assert len(rows) == len(THETA_TABLE_DEFAULT_PAIRS) == 15

    def test_single_pair_row(self, tmp_path):
        out = tmp_path / "one.csv"
        main(["theta-table", "--pairs", "2:0.1", "--out", str(out)])
        _, _, rows = read_csv(out)
        assert len(rows) == 1
        row = dict(zip(["L", "kappa", "c", "p_prime_0", "q_prime_L", "theta",
                        "n_minus", "n_zero"], rows[0]))
        assert float(row["theta"]) == pytest.approx(0.00130764, rel=5e-4)
        assert (int(row["n_minus"]), int(row["n_zero"])) == (1, 1)

    def test_last_printed_label_follows_scaling_law(self, tmp_path):
        # at the printed label (50, 0.1) the true theta is 25x the (2, 0.1)
        # value; the printed table cell belongs to kappa = 0.2 (NOTES.md)
        out = tmp_path / "fifty.csv"
        main(["theta-table", "--pairs", "50:0.1,50:0.2", "--out", str(out)])
        _, _, rows = read_csv(out)
        assert float(rows[0][5]) == pytest.approx(25 * 0.00130764, rel=5e-4)
        assert float(rows[1][5]) == pytest.approx(0.564921, rel=5e-4)

    def test_empty_pair_list(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["theta-table", "--pairs", "", "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert cols is not None and rows == []

    @pytest.mark.parametrize("item", ["2", "2:0.3:1"])
    def test_malformed_pair_exits_2_naming_the_item(self, tmp_path, capsys, item):
        out = tmp_path / "bad.csv"
        assert main(["theta-table", "--pairs", f"2:0.3,{item}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --pairs item {item!r} is not of the form L:kappa\n")
        assert not out.exists()

    def test_failed_row_is_reported_and_fails_the_command(self, tmp_path, capsys):
        # a refused row is named in the header once the table is written; a modulus
        # out of range is an input error, which stops the command with no file
        out = tmp_path / "bad.csv"
        assert main(["theta-table", "--pairs", "2:0.3,1e41:0.3", "--out", str(out)]) == 1
        header, _, rows = read_csv(out)
        assert [row[:2] for row in rows] == [["2.0", "0.3"]]
        assert header[-1] == "# row (1e+41, 0.3) failed: fundamental-period identity violated"
        out.unlink()
        assert main(["theta-table", "--pairs", "2:0.3,2:1.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: modulus must lie in (0, 0.999999999] (got 1.5)\n"
        assert not out.exists()

    def test_refused_row_is_reported_without_warnings(self, tmp_path, capsys):
        # the wave (1e200, 0.3) fails its invariants; numpy used to warn on the way
        out = tmp_path / "bad.csv"
        assert main(["theta-table", "--pairs", "2:0.3,1e200:0.3", "--out", str(out)]) == 1
        header, _, rows = read_csv(out)
        assert [row[:2] for row in rows] == [["2.0", "0.3"]]
        assert header[-1] == "# row (1e+200, 0.3) failed: fundamental-period identity violated"
        assert capsys.readouterr().err == ""


class TestDMatrixSweep:
    def test_single_point(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["dmatrix-sweep", "--L", "1", "--kappas", "0.5",
                     "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert len(rows) == 1
        row = dict(zip(cols, rows[0]))
        assert float(row["det"]) < 0
        assert row["status"] == "ok"
        assert int(row["k_ham"]) == 1
        assert float(row["A2"]) < 0

    def test_columns(self, tmp_path):
        # A2 once: the pairing's A5 is A2 and has no column
        out = tmp_path / "d.csv"
        assert main(["dmatrix-sweep", "--L", "1", "--kappas", "0.5", "--out", str(out)]) == 0
        assert read_csv(out)[1] == ["kappa", "D11", "D12", "D13", "D22", "D23", "D33", "det",
                                    "n_D", "k_ham", "A1", "A2", "A3", "A4", "A6", "status"]

    def test_small_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["dmatrix-sweep", "--L", "1", "--kappas", "0.2,0.4,0.6,0.8", "--out", str(out)])
        _, cols, rows = read_csv(out)
        assert len(rows) == 4
        for r in rows:
            row = dict(zip(cols, r))
            assert float(row["det"]) < 0
            assert int(row["n_D"]) == 1
            assert float(row["A2"]) < 0

    def test_empty_modulus_list(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["dmatrix-sweep", "--L", "1", "--kappas", "", "--out", str(out)]) == 0
        header, cols, rows = read_csv(out)
        assert header_value(header, "kappas") == "0"
        assert cols is not None and rows == []

    def test_default_rows_are_the_labelled_moduli(self, tmp_path):
        # each default row sits at its printed label 0.05, 0.10, ..., 0.95, as a
        # typed --kappas list gives it (a 0.05 step would print 0.15000000000000002)
        labels = ",".join(f"{0.05 * i:.2f}" for i in range(1, 20))
        assert DMATRIX_SWEEP_DEFAULT_KAPPAS == [float(s) for s in labels.split(",")]
        default, typed = tmp_path / "default.csv", tmp_path / "typed.csv"
        assert main(["dmatrix-sweep", "--L", "1", "--out", str(default)]) == 0
        assert main(["dmatrix-sweep", "--L", "1", "--kappas", labels, "--out", str(typed)]) == 0
        assert default.read_bytes() == typed.read_bytes()
        _, cols, rows = read_csv(default)
        assert [r[0] for r in rows] == [repr(k) for k in DMATRIX_SWEEP_DEFAULT_KAPPAS]
        assert all(dict(zip(cols, r))["status"] == "ok" and dict(zip(cols, r))["n_D"] == "1"
                   for r in rows)

    @pytest.mark.parametrize("item", ["x", "0.3:0.4", " "])
    def test_malformed_modulus_exits_2_naming_the_item(self, tmp_path, capsys, item):
        out = tmp_path / "sweep.csv"
        assert main(["dmatrix-sweep", "--L", "1", "--kappas", f"0.3,{item}",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --kappas item {item!r} is not a number\n"
        assert not out.exists()

    @pytest.mark.usefixtures("fresh_records")
    def test_quadratures_computed_once_per_row(self, tmp_path, monkeypatch):
        # one sampler pass a row: its D and its A columns read one record
        from dswlab import index_engine

        passes = []
        sampler = index_engine._cosine_series
        monkeypatch.setattr(index_engine, "_cosine_series",
                            lambda f, K: passes.append(K) or sampler(f, K))
        out = tmp_path / "d.csv"
        assert main(["dmatrix-sweep", "--L", "1", "--kappas", "0.3,0.6",
                     "--out", str(out)]) == 0
        assert len(passes) == 2

    def test_degenerate_row_keeps_its_quadratures(self, tmp_path, monkeypatch):
        from dswlab import index_engine, params_from_kappa

        def degenerate(d):
            raise index_engine.DegenerateDMatrixError("det D = 0")

        monkeypatch.setattr(index_engine, "hamiltonian_index", degenerate)
        out = tmp_path / "d.csv"
        assert main(["dmatrix-sweep", "--L", "1", "--kappas", "0.5",
                     "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        row = dict(zip(cols, rows[0]))
        assert row["status"] == "degenerate"
        assert (row["n_D"], row["k_ham"], row["det"]) == ("-1", "-1", "nan")
        A = index_engine.a_integrals(params_from_kappa(1.0, 0.5))
        assert [row[name] for name in A._fields] == [repr(float(a)) for a in A]

    @staticmethod
    def assert_row_of_the_unit_period(tmp_path, capsys, L):
        """D = S D_1 S with S = diag(L^1.5, L^1.5, L^-0.5): the verdict is D_1's, and
        D33 is D_1's over L."""
        from dswlab.index_engine import assemble_dmatrix

        out = tmp_path / "d.csv"
        assert main(["dmatrix-sweep", "--L", repr(L), "--kappas", "0.3",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, cols, rows = read_csv(out)
        row = dict(zip(cols, rows[0]))
        assert (row["status"], row["n_D"], row["k_ham"]) == ("ok", "1", "1")
        d33 = assemble_dmatrix(params_from_kappa(1.0, 0.3)).entries[2, 2] / L
        assert float(row["D33"]) == pytest.approx(d33, rel=1e-14)

    def test_a_modulus_whose_d_rounds_is_a_failed_row(self, tmp_path, capsys):
        # the quadrature means round past criterion 4's bound below kappa ~ 3.7e-5: the
        # header names the row, the others are written, and the command exits 1
        out = tmp_path / "d.csv"
        assert main(["dmatrix-sweep", "--L", "1", "--kappas", "0.3,1e-9,1e-4",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        header, cols, rows = read_csv(out)
        assert [r[0] for r in rows] == ["0.3", "0.0001"]
        assert all(dict(zip(cols, r))["status"] == "ok" for r in rows)
        assert re.fullmatch(r"# row 1e-09 failed: the quadrature means behind D round by "
                            r"\S+ > 1e-06 at kappa = 1e-09", header[-1])

    def test_modulus_out_of_range_exits_2_with_no_file(self, tmp_path, capsys):
        # an input error stops the table, as in theta-table; a refusal fails one row
        out = tmp_path / "d.csv"
        assert main(["dmatrix-sweep", "--L", "1", "--kappas", "0.3,1.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: modulus must lie in (0, 0.999999999] (got 1.5)\n"
        assert not out.exists()

    def test_huge_period_gives_a_row(self, tmp_path, capsys):
        # det(D/|D|) used to call this row degenerate, and c**4 at L lost 32% of D33
        self.assert_row_of_the_unit_period(tmp_path, capsys, 1e40)

    def test_tiny_period_gives_a_row(self, tmp_path, capsys):
        # D33 used to overflow to -inf here and exit 1
        self.assert_row_of_the_unit_period(tmp_path, capsys, 1e-37)


class TestSpectrum:
    def test_summary_counts(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", "2", "--kappa", "0.3", "--N", "256",
                     "--out", str(out)]) == 0
        header, _, _ = read_csv(out)
        text = "\n".join(header)
        # the reference material claims k_r = 1 here; the computed spectrum is
        # purely imaginary (NOTES.md), and the header reports both identity checks
        assert "k_r=0" in text
        assert "count_identity_vs_measured_nH=True" in text
        assert "count_identity_vs_formula=False" in text  # the 2-n(D) formula count disagrees

    def test_every_upper_imaginary_row_carries_its_krein_sign(self, tmp_path):
        # each row is the upper member +i omega of a pair; the header states
        # that none has Krein sign -1. omega reaches 6e7 here
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", "1", "--kappa", "0.9", "--N", "128",
                     "--out", str(out)]) == 0
        header, _, rows = read_csv(out)
        omega = [float(w) for (w,) in rows]
        assert all(w > 0 for w in omega) and max(omega) > 1e6
        assert "k_i_minus=0" in "\n".join(header)

    @pytest.mark.parametrize("L, kappa, N", [("2", "0.3", 255), ("2", "0.3", 256),
                                             ("1", "0.9", 128)])
    def test_one_row_per_certified_frequency(self, tmp_path, L, kappa, N):
        # the rows are the omega of the report's +i omega, ascending, at 17 digits;
        # the zero cluster leaves N - 2 pairs at odd N and N - 3 at even N
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", L, "--kappa", kappa, "--N", str(N),
                     "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert cols == ["omega"]
        omega = unstable_modes(params_from_kappa(float(L), float(kappa)), N).eigenvalues.imag
        assert [w for (w,) in rows] == [repr(float(w)) for w in omega[0::2]]
        values = [float(w) for (w,) in rows]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert len(rows) == (N - 2 if N % 2 else N - 3)

    @pytest.mark.parametrize("L, kappa", [("1", "1e-9"), ("2.7", "1e-6")])
    def test_a_wave_whose_d_rounds_is_refused(self, tmp_path, capsys, L, kappa):
        # n_D = 2 used to be printed here, from a D with no correct digit
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", L, "--kappa", kappa, "--N", "64",
                     "--out", str(out)]) == 1
        assert re.fullmatch(r"spectrum failed: the quadrature means behind D round by \S+ "
                            rf"> 1e-06 at kappa = {float(kappa)!r}\n", capsys.readouterr().err)
        assert not out.exists()

    def test_eigensolve_failure_exits_with_its_message(self, tmp_path, monkeypatch, capsys):
        from dswlab import spectra

        def fail(p, N):
            raise spectra.EigensolveError("zero cluster not separated")

        monkeypatch.setattr(spectra, "unstable_modes", fail)
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", "2", "--kappa", "0.3", "--out", str(out)]) == 1
        assert "spectrum failed: zero cluster not separated" in capsys.readouterr().err
        assert not out.exists()

    def test_header_reports_the_certificate(self, tmp_path):
        # the margin, its core grid and the kernel residual sit on the line
        # after the count identities; the lines before it keep their place
        out, again = tmp_path / "spectrum.csv", tmp_path / "again.csv"
        for path in (out, again):
            assert main(["spectrum", "--L", "2", "--kappa", "0.3", "--N", "256",
                         "--out", str(path)]) == 0
        assert out.read_bytes() == again.read_bytes()
        header, _, _ = read_csv(out)
        fields = dict(item.split("=") for item in header[5][2:].split())
        assert list(fields) == ["margin", "core_N", "kernel_residual"]
        assert float(fields["margin"]) == pytest.approx(6.3323282281, rel=1e-10)
        assert fields["core_N"] == "37"
        assert float(fields["kernel_residual"]) < 1e-10

    def test_indefinite_hessian_exits_with_the_inertia(self, tmp_path, monkeypatch, capsys):
        # a profile that does not solve its equation at the speed given: no certificate
        from dataclasses import replace

        from dswlab import cli, params_from_kappa

        def slow_wave(L, kappa):
            p = params_from_kappa(L, kappa)
            return replace(p, c=0.3 * p.c)

        monkeypatch.setattr(cli, "params_from_kappa", slow_wave)
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", "2", "--kappa", "0.3", "--N", "128",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "spectrum failed: the constrained Hessian of the even block" in err
        assert "inertia (n-, n0, n+) = (2, 0, 123)" in err
        assert not out.exists()

    @pytest.mark.parametrize("L", ["1e40", "1e-37"])
    def test_extreme_period_gives_the_counts(self, tmp_path, capsys, L):
        # at 1e40 det(D/|D|) used to refuse the index; at 1e-37 the kernel residual
        # overflowed (psi ~ 1e74) and D33 was -inf
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", L, "--kappa", "0.3", "--N", "64",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, _, _ = read_csv(out)
        assert "# n_Lplus=(1, 1) n_H=(1, 1) n_D=1 k_ham_formula=1" in header
        assert float(header_value(header, "kernel_residual")) < 1e-10

    def test_lapack_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        # LinAlgError is a ValueError: unguarded, it would exit 2 as an input error
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", "2", "--kappa", "0.3", "--N", "64",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "spectrum failed: SVD did not converge\n"
        assert not out.exists()

    def test_odd_grid_gives_the_even_grid_counts(self, tmp_path):
        # odd N has no Nyquist mode: the zero cluster is the 4-member generalized
        # kernel, and the N - 2 rows, one per pair, carry the counts of N = 256
        runs = {}
        for N in ("255", "256"):
            out = tmp_path / f"spectrum_{N}.csv"
            assert main(["spectrum", "--L", "2", "--kappa", "0.3", "--N", N,
                         "--out", str(out)]) == 0
            runs[N] = read_csv(out)
        (odd_header, _, odd_rows), (even_header, _, _) = runs["255"], runs["256"]
        assert len(odd_rows) == 255 - 2
        assert odd_header[2:5] == even_header[2:5]  # k_r..., n_Lplus..., identity checks
        assert "k_r=0 k_c=0 k_i_minus=0" in odd_header[2]

    @pytest.mark.parametrize("N", ["0", "1", "2"])
    def test_grid_below_three_exits_2(self, tmp_path, capsys, N):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", "2", "--kappa", "0.3", "--N", N,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: N must be >= 3 (got {N})\n"
        assert not out.exists()

    def test_unresolved_grid_exits_with_the_kernel_residual(self, tmp_path, capsys):
        # 8 points do not resolve the wave (1, 0.9): (psi', phi') is not the kernel of H
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", "1", "--kappa", "0.9", "--N", "8",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("spectrum failed: (psi', phi') is not the kernel of H: "
                       "kernel residual 2.446e-01 > 1e-08\n")
        assert not out.exists()

    def test_other_errors_are_not_swallowed(self, tmp_path, monkeypatch):
        from dswlab import spectra

        def fail(p, N):
            raise RuntimeError("a bug, not an eigensolve failure")

        monkeypatch.setattr(spectra, "unstable_modes", fail)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["spectrum", "--L", "2", "--kappa", "0.3", "--out", str(tmp_path / "s.csv")])

    def test_header_names_the_blas_build_last(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", "2", "--kappa", "0.3", "--N", "64",
                     "--out", str(out)]) == 0
        header, _, _ = read_csv(out)
        blas = _BLAS_PIN
        assert len(header) == 7
        assert header[-1] == ("# blas_threads=unpinned blas_config=unknown" if blas is None
                              else f"# blas_threads=1 blas_config={blas.config}")


class TestSimulate:
    def test_zero_initial_data(self, tmp_path):
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--zero", "--N", "64", "--T", "0.2", "--dt", "1e-3",
                     "--out-prefix", prefix]) == 0
        _, cols, rows = read_csv(tmp_path / "run_conservation.csv")
        assert cols == ["t", "m_u", "m_v", "e_mixed", "l2"]
        vals = np.array(rows, dtype=float)
        assert np.all(vals[:, 1:] == 0.0)
        _, tcols, trows = read_csv(tmp_path / "run_trajectory.csv")
        assert tcols == ["t", "x", "u", "v"]

    def test_header_reports_step_actually_used(self, tmp_path):
        # T/dt = 12.5: the run takes 13 steps of T/13 and ends at T
        prefix = str(tmp_path / "z")
        assert main(["simulate", "--zero", "--N", "32", "--T", "0.05", "--dt", "4e-3",
                     "--out-prefix", prefix]) == 0
        header, _, rows = read_csv(tmp_path / "z_conservation.csv")
        assert float(header_value(header, "dt_used")) == 0.05 / 13
        assert float(rows[-1][0]) == 0.05
        assert main(["simulate", "--zero", "--N", "32", "--T", "0.05", "--dt", "5e-3",
                     "--out-prefix", prefix]) == 0
        header, _, _ = read_csv(tmp_path / "z_conservation.csv")
        with pytest.raises(KeyError):
            header_value(header, "dt_used")

    def test_wave_run_writes_drift(self, tmp_path):
        prefix = str(tmp_path / "wave")
        assert main(["simulate", "--wave", "--L", "2", "--kappa", "0.3", "--N", "64",
                     "--T", "0.05", "--dt", "5e-5", "--out-prefix", prefix]) == 0
        header, _, _ = read_csv(tmp_path / "wave_conservation.csv")
        assert float(header_value(header, "max_rel_drift")) < 1e-9

    def test_any_grid_size(self, tmp_path):
        # 10 steps, 11 samples of the 96 grid points each
        prefix = str(tmp_path / "r")
        assert main(["simulate", "--N", "96", "--T", "0.01", "--dt", "1e-3",
                     "--out-prefix", prefix]) == 0
        _, _, rows = read_csv(tmp_path / "r_trajectory.csv")
        per_sample = Counter(row[0] for row in rows)
        assert len(per_sample) == 11 and set(per_sample.values()) == {96}

    @pytest.mark.parametrize("data, keys", [
        (["--wave", "--L", "2", "--kappa", "0.3"], ["L", "N", "T", "dt", "frame_speed"]),
        (["--seed", "5"], ["L", "N", "T", "dt", "frame_speed", "seed"]),
        (["--zero"], ["L", "N", "T", "dt", "frame_speed"]),
    ], ids=["wave", "random", "zero"])
    def test_header_keys(self, tmp_path, data, keys):
        assert main(["simulate", *data, "--N", "16", "--T", "0.01", "--dt", "1e-3",
                     "--out-prefix", str(tmp_path / "s")]) == 0
        for name, tail in (("s_conservation.csv", [["max_rel_drift"]]), ("s_trajectory.csv", [])):
            header, _, _ = read_csv(tmp_path / name)
            assert header[0] == f"# dswlab {__version__} :: simulate"
            assert header_keys(header) == [keys] + tail

    def test_growth_experiment_is_not_an_option(self, tmp_path, capsys):
        # the stability verdict is spectrum's certificate; the experiment is criterion 7's
        assert main(["simulate", "--wave", "--L", "2", "--kappa", "0.3", "--perturb", "1e-6",
                     "--out-prefix", str(tmp_path / "g")]) == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --perturb 1e-6\n"
        assert not list(tmp_path.iterdir())

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        # numpy's "expected non-negative integer" named no flag
        assert main(["simulate", "--seed", "-1", "--N", "16", "--T", "0.01", "--dt", "1e-3",
                     "--out-prefix", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0 (got -1)\n"
        assert not list(tmp_path.iterdir())

    def test_wave_without_period_exits_2(self, tmp_path, capsys):
        prefix = tmp_path / "w"
        assert main(["simulate", "--wave", "--kappa", "0.3", "--out-prefix", str(prefix)]) == 2
        assert capsys.readouterr().err == "error: --wave requires --L\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", [["--kappa", "0.3"], ["--c", "9.9"], ["--frame", "lab"]],
                             ids=["kappa", "c", "frame"])
    def test_wave_flag_without_wave_exits_2(self, tmp_path, capsys, flag):
        # zero data at L = 2 pi would ignore the flag
        prefix = tmp_path / "z"
        assert main(["simulate", "--zero", *flag, "--N", "32", "--T", "0.01", "--dt", "1e-3",
                     "--out-prefix", str(prefix)]) == 2
        assert capsys.readouterr().err == f"error: {flag[0]} requires --wave\n"
        assert not list(tmp_path.iterdir())

    def test_modulus_and_speed_together_exit_2(self, tmp_path, capsys):
        prefix = tmp_path / "b"
        assert main(["simulate", "--wave", "--L", "2", "--kappa", "0.3", "--c", "9.9",
                     "--out-prefix", str(prefix)]) == 2
        assert capsys.readouterr().err == "error: give one of --kappa or --c, not both\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("data", [["--zero", "--L", "0"], ["--zero", "--L", "-1"],
                                      ["--seed", "1", "--L", "-2"]],
                             ids=["zero-0", "zero-negative", "random-negative"])
    def test_invalid_period_exits_2(self, tmp_path, capsys, data):
        # zero data used to run at L = 2 pi for --L 0 and at the negative period
        # for --L -1; random data failed with "grid samples must be finite"
        assert main(["simulate", *data, "--N", "32", "--T", "0.01", "--dt", "1e-3",
                     "--out-prefix", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == (
            f"error: period L must be positive and finite (got {float(data[-1])!r})\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name,run", [("T", ["--T", "inf", "--dt", "1e-3"]),
                                          ("dt", ["--T", "0.01", "--dt", "inf"]),
                                          ("T/dt", ["--T", "1e300", "--dt", "1e-300"])],
                             ids=["T", "dt", "T-over-dt"])
    def test_infinite_run_length_exits_2(self, tmp_path, capsys, name, run):
        # inf used to end in an OverflowError (T and T/dt) or a ZeroDivisionError (dt)
        assert main(["simulate", "--zero", "--N", "32", *run,
                     "--out-prefix", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == f"error: {name} must be positive and finite (got inf)\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("data", [["--zero"], ["--wave", "--L", "2", "--kappa", "0.3"]],
                             ids=["zero", "wave"])
    def test_seed_without_random_data_exits_2(self, tmp_path, capsys, data):
        # the run would ignore the seed; it used to, without a word
        assert main(["simulate", *data, "--seed", "5", "--N", "32", "--T", "0.01",
                     "--dt", "1e-3", "--out-prefix", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == (
            "error: --seed requires random data, neither --wave nor --zero\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", [[], ["--seed", "7"]], ids=["default", "7"])
    def test_random_data_names_its_seed(self, tmp_path, seed):
        assert main(["simulate", *seed, "--N", "16", "--T", "0.01", "--dt", "1e-3",
                     "--out-prefix", str(tmp_path / "r")]) == 0
        for name in ("r_conservation.csv", "r_trajectory.csv"):
            header, _, _ = read_csv(tmp_path / name)
            assert header_value(header, "seed") == (seed[1] if seed else "0")

    @pytest.mark.parametrize("L, T, dt", [("1e-36", "1e-3", "1e-4"), ("1e-6", "1e-3", "1e-4"),
                                          ("1", "1e105", "1e104")],
                             ids=["L1e-36", "L1e-6", "huge-step"])
    def test_comoving_wave_stays_put_at_any_scale(self, tmp_path, capsys, L, T, dt):
        # the co-moving wave is an ETD fixed point at any step and period: its coefficients
        # of size ~L^-2 pass the blow-up check, which is relative to the run's start, and
        # z = dt k^3 of size 1e105 to 1e112 leaves every ETD weight finite
        assert main(["simulate", "--wave", "--L", L, "--kappa", "0.3", "--N", "16",
                     "--T", T, "--dt", dt, "--out-prefix", str(tmp_path / "w")]) == 0
        assert capsys.readouterr().err == ""
        header, _, _ = read_csv(tmp_path / "w_conservation.csv")
        assert float(header_value(header, "max_rel_drift")) < 1e-12

    def test_blow_up_exits_1_naming_the_interval(self, tmp_path, capsys):
        # the lab-frame wave (2, 0.3) at N = 256, dt = 0.05 is outside the step envelope
        assert main(["simulate", "--wave", "--L", "2", "--kappa", "0.3", "--frame", "lab",
                     "--N", "256", "--T", "5", "--dt", "5e-2",
                     "--out-prefix", str(tmp_path / "b")]) == 1
        assert capsys.readouterr().err == (
            "simulate failed: solution blew up between t = 0.85 and 0.9\n")
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["wave", "--L", "2", "--kappa", "0.3", "--N", "0"],
    ["wave", "--L", "2", "--kappa", "0.3", "--N", "-5"],
    ["simulate", "--N", "0"],
    ["simulate", "--zero", "--N", "-5"],
    ["simulate", "--wave", "--L", "2", "--kappa", "0.3", "--N", "0"],
], ids=["wave-0", "wave-negative", "simulate-0", "simulate-zero-negative", "simulate-wave-0"])
def test_nonpositive_grid_exits_2_naming_N(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path / "w.csv")] if argv[0] == "wave" else [
        "--out-prefix", str(tmp_path / "s")]
    assert main(argv + out) == 2
    N = argv[argv.index("--N") + 1]
    assert capsys.readouterr().err == f"error: a grid needs N >= 1 points (got N = {N})\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["wave", "--L", "2", "--kappa", "0.3", "--N", "16", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["wave", "--kappa", "0.3"], "the following arguments are required: --L"),
    (["simulate", "--N", "x"], "argument --N: invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
    (["simulate", "--wave", "--zero"], "argument --zero: not allowed with argument --wave"),
], ids=["unknown-flag", "missing-flag", "bad-type", "missing-command", "exclusive-flags"])
def test_argparse_errors_exit_2_in_one_line(tmp_path, capsys, monkeypatch, argv, message):
    # argparse's own reports are input errors like any other: one line, no usage block
    monkeypatch.chdir(tmp_path)   # where simulate would write its files
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["wave", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dswlab wave ")


PERIOD_IDENTITY = "fundamental-period identity violated"


@pytest.mark.parametrize("argv,message", [
    (["wave", "--L", "1e200", "--kappa", "0.3"], PERIOD_IDENTITY),
    (["wave", "--L", "1e-170", "--kappa", "0.3"], PERIOD_IDENTITY),
    (["spectrum", "--L", "1e200", "--kappa", "0.3", "--N", "16"], PERIOD_IDENTITY),
    (["dmatrix-sweep", "--L", "1e200", "--kappas", "0.3"], PERIOD_IDENTITY),
], ids=["wave-huge", "wave-tiny", "spectrum-huge", "dmatrix-sweep-huge"])
def test_extreme_period_is_refused_in_one_line(tmp_path, capsys, argv, message):
    # c ~ 1/L^2 leaves the float range and the wave fails its invariants;
    # each of these used to end in a traceback
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    if argv[0] == "dmatrix-sweep":   # a table names its failed row in its header
        header, _, rows = read_csv(out)
        assert rows == [] and header[-1] == f"# row 0.3 failed: {message}"
        assert capsys.readouterr().err == ""
    else:
        assert capsys.readouterr().err == f"{argv[0]} failed: {message}\n"
        assert not out.exists()


def period_run(command, L, kappa, tmp_path):
    """(argv, its output files) of one command at the wave (L, kappa)."""
    wave = ["--L", L, "--kappa", kappa]
    if command == "simulate":
        T = float(L) ** 3 * 1e-3   # a thousandth of the time the wave takes to cross a period
        return (["simulate", "--wave", *wave, "--N", "16", "--T", repr(T), "--dt", repr(T / 10),
                 "--out-prefix", str(tmp_path / "s")],
                [tmp_path / "s_conservation.csv", tmp_path / "s_trajectory.csv"])
    argv = {"wave": ["wave", *wave, "--N", "16"],
            "theta-table": ["theta-table", "--pairs", f"{L}:{kappa}"],
            "dmatrix-sweep": ["dmatrix-sweep", "--L", L, "--kappas", kappa],
            "spectrum": ["spectrum", *wave, "--N", "128"]}[command]
    return argv + ["--out", str(tmp_path / "out.csv")], [tmp_path / "out.csv"]


COMMANDS = ["wave", "theta-table", "dmatrix-sweep", "spectrum", "simulate"]


@pytest.mark.parametrize("kappa", ["0.3", "0.9"])
@pytest.mark.parametrize("L", ["1e-37", "1e40"])
@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_answers_at_the_ends_of_the_period_range(tmp_path, capsys, command, L,
                                                               kappa):
    argv, outputs = period_run(command, L, kappa, tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert all(path.exists() for path in outputs)


@pytest.mark.parametrize("kappa", ["0.3", "0.9"])
@pytest.mark.parametrize("L", ["1e-38", "1e41"])
@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_refuses_past_the_period_range(tmp_path, capsys, command, L, kappa):
    # the one per-period check of params_from_kappa: the period identity leaves the float
    # range there, c^2 eta4^2 ~ L^-8
    argv, outputs = period_run(command, L, kappa, tmp_path)
    assert main(argv) == 1
    if command in ("theta-table", "dmatrix-sweep"):   # a table names its failed row
        header, _, rows = read_csv(outputs[0])
        label = f"({float(L)!r}, {kappa})" if command == "theta-table" else kappa
        assert rows == [] and header[-1] == f"# row {label} failed: {PERIOD_IDENTITY}"
        assert capsys.readouterr().err == ""
    else:
        assert capsys.readouterr().err == f"{command} failed: {PERIOD_IDENTITY}\n"
        assert not any(path.exists() for path in outputs)


class TestNormalFormCheck:
    def test_passes_with_defaults(self, tmp_path):
        out = tmp_path / "nf.csv"
        assert main(["normalform-check", "--trials", "20", "--out", str(out)]) == 0
        header, _, rows = read_csv(out)
        assert "passed=True" in "\n".join(header)
        assert header[1] == "# trials=20 seed=0 max_support=32 tol=1e-13"
        assert len(rows) == 20

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_exits_2(self, tmp_path, capsys, trials):
        # a gate over zero trials used to pass
        out = tmp_path / "nf.csv"
        assert main(["normalform-check", "--trials", trials, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --trials must be >= 1 (got {trials})\n"
        assert not out.exists()

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        # numpy's "expected non-negative integer" named no flag
        out = tmp_path / "nf.csv"
        assert main(["normalform-check", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0 (got -1)\n"
        assert not out.exists()


class TestBlasThreadCount:
    """The same flags give the same bytes whatever OPENBLAS_NUM_THREADS says.

    Each run is a fresh interpreter, since OpenBLAS reads the variable when
    numpy loads it. Before the certificate pinned one thread, spectrum's rows
    differed between 1 and 2 threads (456 of 514 lines at this wave);
    simulate (the dense DFT pair's GEMMs at N = 255) and dmatrix-sweep were
    equal already, and are guards.
    """

    RUNS = {
        "spectrum": ["spectrum", "--L", "2.5355", "--kappa", "0.8604", "--N", "256"],
        "simulate": ["simulate", "--seed", "5", "--N", "255", "--T", "0.2", "--dt", "1e-3"],
        "dmatrix-sweep": ["dmatrix-sweep", "--L", "2.7"],
    }

    @staticmethod
    def outputs(tmp_path, argv, threads):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        cwd = tmp_path / f"threads-{threads}"
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-m", "dswlab.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout, {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}

    @pytest.mark.parametrize("command", RUNS)
    def test_bytes_do_not_depend_on_the_thread_count(self, tmp_path, command):
        if command == "spectrum" and _BLAS_PIN is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread setter: the certificate is unpinned")
        one, two, unset = (self.outputs(tmp_path, self.RUNS[command], threads)
                           for threads in ("1", "2", None))
        assert one[0] or one[1]
        assert one == two == unset


def test_every_option_is_documented():
    # each option of each command is named in README's "Command line" section
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = next(a for a in build_parser()._actions if a.choices).choices
    missing = [f"{name} {opt}" for name, sp in commands.items() for action in sp._actions
               for opt in action.option_strings
               if opt not in ("-h", "--help") and not re.search(re.escape(opt) + r"(?![\w-])",
                                                                 section)]
    assert missing == []
