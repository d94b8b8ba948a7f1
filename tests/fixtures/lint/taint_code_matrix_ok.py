"""FIXTURE (ok): the code matrices only reach the envelope through a release.

Mirrors the bad fixture shape-for-shape: the raw rows feed a registered
mechanism (``release``) first, so nothing un-noised crosses the sink.
"""


def first_row_envelope(mech, dataset, names):
    codes = dataset.code_matrix(names)
    noisy = mech.release(codes[0])  # sanitized
    return {"status": "ok", "result": {"row": noisy}}


def first_point_envelope(mech, dataset, names, tables):
    points = dataset.lookup_matrix(names, tables)
    noisy = mech.release(points[0])  # sanitized
    return {"status": "ok", "result": {"point": noisy}}


def first_column_point_envelope(mech, dataset, names, tables):
    columns = dataset.lookup_columns(names, tables)
    noisy = mech.release(columns[:, 0])  # sanitized
    return {"status": "ok", "result": {"point": noisy}}
