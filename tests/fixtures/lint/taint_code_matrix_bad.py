"""FIXTURE (bad): rows of the raw code matrices reach a response envelope.

``Dataset.code_matrix``, ``Dataset.lookup_matrix`` and the attribute-major
``Dataset.lookup_columns`` (like ``to_matrix``) return every tuple's domain
codes or their encodings; a helper that echoes
one row back to the caller leaks a raw tuple with no DP release between.
"""


def first_row_envelope(dataset, names):
    codes = dataset.code_matrix(names)  # source: raw tuples as codes
    return {"status": "ok", "result": {"row": codes[0].tolist()}}  # FIRES


def first_point_envelope(dataset, names, tables):
    points = dataset.lookup_matrix(names, tables)  # source: encoded tuples
    return {"status": "ok", "result": {"point": points[0].tolist()}}  # FIRES


def first_column_point_envelope(dataset, names, tables):
    columns = dataset.lookup_columns(names, tables)  # source: encoded tuples
    return {"status": "ok", "result": {"point": columns[:, 0].tolist()}}  # FIRES
