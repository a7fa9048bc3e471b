"""The one CSV layer: record headers, the value rule, and the bytes each writer produces.

The expected bytes were written by the per-module writers that the layer
replaced, so these tests pin the file format itself, not only its stability.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from frustumkit.cropbox import CURVE_CSV_HEADER, CurvePoint, curve_point_to_csv_row
from frustumkit.csvio import csv_value, csv_values, write_csv
from frustumkit.evalkit import EVAL_CSV_HEADER, CategoryEval, write_category_csv, write_histogram_csv
from frustumkit.head import ANCHOR_CSV_HEADER, Anchor, write_anchor_csv
from frustumkit.pipesim import DRIFT_CSV_HEADER, DriftRow, StageTiming, drift_row_to_csv, simulate, write_trace_csv
from frustumkit.voxelizer import VoxelGrid, write_sparse_csv


@pytest.mark.parametrize(
    "header, expected",
    [
        (CURVE_CSV_HEADER, "fr,fc,mode,side_m,height_m,recall_xy,recall_z,recall_volume,bound,bound_satisfied"),
        (DRIFT_CSV_HEADER, "drift_px,mean_ioi_3d,recall_volume,n_items,n_lost"),
        (EVAL_CSV_HEADER, "category,n_gt,n_det,ap,recall,mean_d_xyz,mean_d_wdh,mean_orientation_score"),
        (ANCHOR_CSV_HEADER, "category,a_w,a_d,a_h"),
    ],
    ids=["curve", "drift", "eval", "anchor"],
)
def test_record_headers_keep_their_columns(header, expected):
    assert header == expected


@pytest.mark.parametrize(
    "value, text",
    [
        (True, "1"),
        (False, "0"),
        (np.True_, "1"),
        (np.False_, "0"),
        (586, "586"),
        (np.int64(7), "7"),
        (0.1, "0.1"),
        (2.0, "2"),
        (np.float64(1 / 3), "0.333333333333"),
        (math.nan, ""),
        (10**12, "1e+12"),
        (1e12, "1e+12"),
        (10**12 - 1, "999999999999"),
        ("x,y", "x,y"),
        ("lampé", "lampé"),
    ],
)
def test_value_rule(value, text):
    assert csv_value(value) == text


def test_curve_and_drift_lines():
    assert (
        curve_point_to_csv_row(CurvePoint(3, 3, "median", 1.5, np.float64(2.0), 2 / 3, 1.0, 0.5, 1 / 3, np.True_))
        == "3,3,median,1.5,2,0.666666666667,1,0.5,0.333333333333,1"
    )
    assert (
        curve_point_to_csv_row(CurvePoint(1, 1, "average", 1e12, 10**12, 0.0, 0.0, 0.0, -1.0, False))
        == "1,1,average,1e+12,1e+12,0,0,0,-1,0"
    )
    assert drift_row_to_csv(DriftRow(2.5, np.float64(0.1), 0.0, 586, 0)) == "2.5,0.1,0,586,0"


def test_lf_table(tmp_path):
    path = tmp_path / "stale.csv"
    rows = [DriftRow(0.0, 1.0, 1.0, 3, 0), DriftRow(4.0, 0.75, 0.5, 3, 1)]
    write_csv(path, DRIFT_CSV_HEADER, map(csv_values, rows), "\n")
    assert path.read_bytes() == b"drift_px,mean_ioi_3d,recall_volume,n_items,n_lost\n0,1,1,3,0\n4,0.75,0.5,3,1\n"


def test_trace_with_int_stage_times(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(simulate(2, StageTiming(t_2d=10**12, t_3d=2**60), "pipelined"), str(path))
    assert path.read_bytes() == (
        b"frame,start_2d,done_2d,start_3d,done_3d,latency\r\n"
        b"0,0,1e+12,1e+12,1.15292250461e+18,1.15292250461e+18\r\n"
        b"1,1.15292150461e+18,1.15292250461e+18,1.15292250461e+18,2.30584400921e+18,1.15292250461e+18\r\n"
    )


def test_anchor_quoting_and_utf8(tmp_path):
    path = tmp_path / "anchors.csv"
    anchors = {
        "x,y": Anchor("x,y", 10**12, 2, 0.3),
        "lampé": Anchor("lampé", 0.25, np.float64(1 / 3), 1e-7),
    }
    write_anchor_csv(anchors, str(path))
    assert path.read_bytes() == (
        b"category,a_w,a_d,a_h\r\n" b"lamp\xc3\xa9,0.25,0.333333333333,1e-07\r\n" b'"x,y",1e+12,2,0.3\r\n'
    )


def test_category_nan_and_numpy_values(tmp_path):
    path = tmp_path / "categories.csv"
    row = CategoryEval("chair", 3, 2, np.float64(2 / 3), 0.5, math.nan, np.float64(0.125), math.nan)
    write_category_csv([row], str(path))
    assert path.read_bytes() == (
        b"category,n_gt,n_det,ap,recall,mean_d_xyz,mean_d_wdh,mean_orientation_score\r\n"
        b"chair,3,2,0.666666666667,0.5,,0.125,\r\n"
    )


def test_histogram_bytes(tmp_path):
    path = tmp_path / "hist.csv"
    write_histogram_csv([0.05, 0.15, 0.15, 1.0], str(path))
    assert path.read_bytes() == (
        b"bin_lo,bin_hi,count\r\n0,0.1,1\r\n0.1,0.2,2\r\n0.2,0.3,0\r\n0.3,0.4,0\r\n0.4,0.5,0\r\n"
        b"0.5,0.6,0\r\n0.6,0.7,0\r\n0.7,0.8,0\r\n0.8,0.9,0\r\n0.9,1,1\r\n"
    )


def test_sparse_counts_pass_through_unformatted(tmp_path):
    path = tmp_path / "sparse.csv"
    grid = VoxelGrid((2, 3, 4), (0.5, 0.5, 0.5), (0.0, 0.0, 0.0), [1, 13, 23], [1, 5, 10**12])
    write_sparse_csv(grid, str(path))
    assert path.read_bytes() == b"ix,iy,iz,count\r\n0,0,1,1\r\n1,0,1,5\r\n1,2,3,1000000000000\r\n"
