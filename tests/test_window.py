"""Array windows: cell states, freezing, combination, serialization."""

import pytest

from recur2d import (ArrayWindow, Bounds, FrozenWindowError, MixedFieldError,
                     RATIONALS, ShapeMismatch, emit_series_terms, from_fraction,
                     from_int, one, prime_field, window_from_cells,
                     window_linear_combine, zero)


def s(n, fd=RATIONALS):
    return from_int(n, fd)


class TestBounds:
    def test_dimensions(self):
        b = Bounds(-1, 3, -1, 3)
        assert b.height == 5 and b.width == 5

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatch):
            Bounds(2, 1, 0, 0)
        with pytest.raises(ShapeMismatch):
            Bounds(0, 0, 5, 4)

    def test_contains(self):
        b = Bounds(0, 2, 0, 2)
        assert b.contains(0, 0) and b.contains(2, 2)
        assert not b.contains(3, 0) and not b.contains(0, -1)

    def test_coords_row_major(self):
        b = Bounds(0, 1, 5, 6)
        assert list(b.coords()) == [(0, 5), (0, 6), (1, 5), (1, 6)]


class TestCellStates:
    def test_unknown_by_default(self):
        w = ArrayWindow(Bounds(0, 1, 0, 1), RATIONALS)
        assert w.get(0, 0) is None
        assert not w.is_complete()

    def test_known_zero_is_not_unknown(self):
        w = ArrayWindow(Bounds(0, 0, 0, 0), RATIONALS)
        w.set(0, 0, zero(RATIONALS))
        assert w.get(0, 0) == zero(RATIONALS)
        assert w.is_complete()

    def test_out_of_bounds_reads_are_unknown(self):
        w = ArrayWindow(Bounds(0, 0, 0, 0), RATIONALS)
        assert w.get(10, 10) is None
        assert w.get(-1, 0) is None

    def test_out_of_bounds_write_rejected(self):
        w = ArrayWindow(Bounds(0, 0, 0, 0), RATIONALS)
        with pytest.raises(ValueError):
            w.set(1, 0, s(1))

    def test_wrong_field_write_rejected(self):
        w = ArrayWindow(Bounds(0, 0, 0, 0), RATIONALS)
        with pytest.raises(MixedFieldError):
            w.set(0, 0, one(prime_field(7)))

    def test_freeze_blocks_writes(self):
        w = ArrayWindow(Bounds(0, 0, 0, 0), RATIONALS)
        w.freeze()
        assert w.frozen
        with pytest.raises(FrozenWindowError):
            w.set(0, 0, s(1))

    def test_copy_is_mutable_again(self):
        w = ArrayWindow(Bounds(0, 0, 0, 0), RATIONALS)
        w.set(0, 0, s(3))
        w.freeze()
        c = w.copy()
        assert not c.frozen
        c.set(0, 0, s(4))
        assert w.get(0, 0) == s(3) and c.get(0, 0) == s(4)

    def test_known_cells_row_major(self):
        w = window_from_cells(Bounds(0, 1, 0, 1), RATIONALS,
                              {(1, 0): s(3), (0, 1): s(2)})
        assert [(r, c) for r, c, _ in w.known_cells()] == [(0, 1), (1, 0)]
        assert list(w.unknown_coords()) == [(0, 0), (1, 1)]


class TestLinearCombine:
    def test_sum_of_windows(self):
        a = window_from_cells(Bounds(0, 0, 0, 1), RATIONALS,
                              {(0, 0): s(1), (0, 1): s(2)})
        b = window_from_cells(Bounds(0, 0, 0, 1), RATIONALS,
                              {(0, 0): s(10), (0, 1): s(20)})
        out = window_linear_combine([(s(2), a), (s(-1), b)])
        assert out.get(0, 0) == s(-8)
        assert out.get(0, 1) == s(-16)

    def test_unknown_poisons(self):
        a = window_from_cells(Bounds(0, 0, 0, 1), RATIONALS, {(0, 0): s(1)})
        b = window_from_cells(Bounds(0, 0, 0, 1), RATIONALS,
                              {(0, 0): s(1), (0, 1): s(1)})
        out = window_linear_combine([(s(1), a), (s(1), b)])
        assert out.get(0, 0) == s(2)
        assert out.get(0, 1) is None

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatch):
            window_linear_combine([])

    def test_bounds_mismatch_rejected(self):
        a = ArrayWindow(Bounds(0, 0, 0, 0), RATIONALS)
        b = ArrayWindow(Bounds(0, 1, 0, 0), RATIONALS)
        with pytest.raises(ShapeMismatch):
            window_linear_combine([(s(1), a), (s(1), b)])

    def test_scaling_identity(self):
        a = window_from_cells(Bounds(0, 1, 0, 1), RATIONALS,
                              {(0, 0): s(5), (1, 1): s(-2)})
        out = window_linear_combine([(one(RATIONALS), a)])
        assert out == a


def golden_windows():
    """A Q window with negative multi-digit and fractional cells, a Known zero
    and Unknowns under negative labels wider than some cells; an F_7 window."""
    q = window_from_cells(Bounds(-100, -99, -12, -10), RATIONALS, {
        (-100, -12): s(-345), (-100, -11): s(0),
        (-99, -11): from_fraction(-7, 3, RATIONALS), (-99, -10): s(5)})
    f7 = prime_field(7)
    p = window_from_cells(Bounds(-10, -9, -1, 0), f7, {
        (-10, -1): s(-4, f7), (-9, -1): s(0, f7), (-9, 0): s(13, f7)})
    return q, p


class TestSerialization:
    def test_ascii_golden(self):
        q, p = golden_windows()
        assert q.to_ascii() == (" r\\c   -12   -11  -10\n"
                                "-100  -345     0    ?\n"
                                " -99     ?  -7/3    5\n")
        assert p.to_ascii() == ("r\\c       -1        0\n"
                                "-10  3 mod 7        ?\n"
                                " -9  0 mod 7  6 mod 7\n")

    def test_tsv_golden(self):
        q, p = golden_windows()
        assert q.to_tsv() == "-345\t0\t?\n?\t-7/3\t5\n"
        assert p.to_tsv() == "3 mod 7\t?\n0 mod 7\t6 mod 7\n"

    def test_json_golden(self):
        q, p = golden_windows()
        assert q.to_json_obj() == {
            "bounds": {"r_min": -100, "r_max": -99, "c_min": -12, "c_max": -10},
            "cells": [{"r": -100, "c": -12, "value": "-345"},
                      {"r": -100, "c": -11, "value": "0"},
                      {"r": -99, "c": -11, "value": "-7/3"},
                      {"r": -99, "c": -10, "value": "5"}]}
        assert list(q.to_json_obj()["bounds"]) == ["r_min", "r_max", "c_min", "c_max"]
        assert p.to_json_obj() == {
            "bounds": {"r_min": -10, "r_max": -9, "c_min": -1, "c_max": 0},
            "cells": [{"r": -10, "c": -1, "value": "3 mod 7"},
                      {"r": -9, "c": -1, "value": "0 mod 7"},
                      {"r": -9, "c": 0, "value": "6 mod 7"}]}

    def test_tsv(self):
        w = window_from_cells(Bounds(0, 1, 0, 1), RATIONALS,
                              {(0, 0): s(1), (1, 1): s(-2)})
        assert w.to_tsv() == "1\t?\n?\t-2\n"

    def test_json_round_trip(self):
        w = window_from_cells(Bounds(-1, 1, 0, 2), RATIONALS,
                              {(-1, 0): s(7), (0, 1): s(0), (1, 2): s(-3)})
        back = ArrayWindow.from_json_obj(w.to_json_obj(), RATIONALS)
        assert back == w

    def test_json_round_trip_prime(self):
        f7 = prime_field(7)
        w = window_from_cells(Bounds(0, 1, 0, 1), f7,
                              {(0, 0): s(3, f7), (1, 0): s(6, f7)})
        back = ArrayWindow.from_json_obj(w.to_json_obj(), f7)
        assert back == w

    def test_ascii_labels(self):
        w = window_from_cells(Bounds(-1, 0, -1, 0), RATIONALS,
                              {(-1, -1): s(1)})
        text = w.to_ascii()
        lines = text.splitlines()
        assert lines[0].split() == ["r\\c", "-1", "0"]
        assert lines[1].split() == ["-1", "1", "?"]
        assert lines[2].split() == ["0", "?", "?"]

    def test_series_terms_skip_zeros_and_unknowns(self):
        w = window_from_cells(Bounds(0, 1, 0, 1), RATIONALS,
                              {(0, 0): s(0), (0, 1): s(4), (1, 0): s(-1)})
        assert emit_series_terms(w) == [(0, 1, s(4)), (1, 0, s(-1))]
