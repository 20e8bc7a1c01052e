"""The bytes ``peerlearn run`` writes: the metrics table, chunk by chunk, and the summary."""

from __future__ import annotations

import json
import math
import re

import numpy as np

# A chunk of the metrics table holds about this many cells, so writing it
# takes memory independent of the trial count. Rendering takes about 235
# bytes a value cell (mostly ``_render_fast``'s index): 1.3 MB a chunk of
# gaussian rows with 7 values and 3 labels, under 1.9 MB for any chunk.
_CHUNK_CELLS = 2**13


def _metric_columns(scenario):
    """Column names and each cell's %-format; ``mse`` is an empty cell without a test set."""
    if scenario.engine == "discrete":
        n_params = scenario.theta_set.n_points
        columns = ["trial", "round", "node", "estimate_index"]
        columns += [f"belief_{m}" for m in range(n_params)]
        return columns, ["%d"] * 4 + ["%.12g"] * n_params
    dim = len(scenario.prior_mean)
    columns = ["trial", "round", "node", *(f"mu_{m}" for m in range(dim)),
               *(f"sigma_{m}" for m in range(dim)), "mse"]
    mse = "%.12g" if scenario.test_set is not None else ""
    return columns, ["%d"] * 3 + ["%.12g"] * (2 * dim) + [mse]


def _metric_chunks(scenario, first: int, results, n_cells: int):
    """The rows of ``results``, trials ``first`` on, as ``(trial, start, values)``.

    ``values`` holds the cells after trial, round and node of about
    ``_CHUNK_CELLS // n_cells`` of the trial's rows, from row ``start`` on:
    the estimate index and beliefs (as probabilities) for discrete runs, or
    the means, variances and test MSE for gaussian ones. A trial's rows run
    over (round, node), so its row ``r`` is round ``r // N`` at node ``r % N``.
    """
    n_rows = scenario.n_rounds * scenario.graph.n_nodes
    step = max(1, _CHUNK_CELLS // n_cells)
    for t, result in enumerate(results, first):
        if scenario.engine == "discrete":
            blocks = [result.estimate_history, result.belief_history]
        else:
            blocks = [result.mean_history, result.variance_diag_history, result.mse_history]
        blocks = [b.reshape(n_rows, -1) for b in blocks if b is not None]
        for start in range(0, n_rows, step):
            values = [b[start:start + step] for b in blocks]
            if scenario.engine == "discrete":
                values[1] = np.exp(values[1])
            values = np.column_stack(values)  # drops the block copies before rendering
            yield t, start, values


# Fixed-notation cells. '%.12g' writes x in fixed notation when the exponent
# X of its rounding to 12 significant digits lies in [-4, 11]. Such a cell's
# text follows from its 12 digits, X, its count k of significant digits and
# its sign: each (X, k, sign) has one pattern of indices into the cell's 16
# source bytes, its digits then "-", ".", "0" and a pad byte (0), which is
# dropped from the text. The digits come from a table of 4-digit groups.
_POW10 = np.array([float(10**j) for j in range(17)])
_QUADS = np.arange(10**4)
_QUAD_DIGITS = (48 + _QUADS[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8)
_QUAD_WORDS = _QUAD_DIGITS.view(np.uint32)[:, 0]
_QUAD_TRAILING_ZEROS = sum(_QUADS % 10**j == 0 for j in range(1, 5))
_SOURCE_TAIL = np.frombuffer(b"-.0\0", dtype=np.uint32)[0]


def _number_patterns() -> np.ndarray:
    """Source-byte indices of each fixed-notation text, padded to 18 bytes.

    Row ``((X + 4) * 13 + k) * 2 + negative`` is the number with leading
    digit at ``10**X`` and ``k`` significant digits; zero has X = 0, k = 0.
    """
    minus, point, zero, pad = 12, 13, 14, 15
    patterns = np.full((16, 13, 2, 18), pad)
    for x in range(-4, 12):
        for k in range(13):
            if x >= 0:
                text = [*range(x + 1), *([point, *range(x + 1, k)] if k > x + 1 else [])]
            else:
                text = [zero, point, *[zero] * (-x - 1), *range(k)]
            patterns[x + 4, k, 0, :len(text)] = text
            patterns[x + 4, k, 1, :len(text) + 1] = [minus, *text]
    return patterns.reshape(-1, 18)


_NUMBER_PATTERNS = _number_patterns()


def _in_fixed_range(values: np.ndarray) -> np.ndarray:
    """A cheap superset of the values that ``'%.12g'`` writes in fixed notation."""
    a = np.abs(values)
    return ((a >= 9.9999e-05) & (a < 1e12)) | (a == 0)


def _fixed_notation(values: np.ndarray, in_range=None):
    """Which cells take the fixed-notation path, with their pattern rows and source bytes.

    Returns ``fast``, ``key`` (each cell's row of ``_NUMBER_PATTERNS``, valid
    where fast) and ``source`` (each cell's 16 source bytes as 4 words).
    ``in_range``, if given, is ``_in_fixed_range(values)``, and becomes
    ``fast``. The digits are ``rint(y)`` for ``y = |x| * 10**(11 - e)``,
    ``e`` the floor of ``log10|x|``. The power is exact for e in [-5, 11],
    so ``y`` is the exact product correctly rounded. Below 1e12 every half
    lies on the grid of doubles, so ``y`` is on the exact product's side of
    each half unless it is a half itself, and only there can ``rint`` round
    the other way. A ``log10`` one off near a power of ten leaves ``y``
    within an ulp of 1e11 or 1e12, which rounds right (a carry to 1e12
    raises X). A cell is not fast, and is flagged, when it is out of range,
    a half, -0.0 (``%d`` writes "0"), or in range by ``_in_fixed_range`` yet
    written in exponent notation: a carry to 1e+12, or a value just below
    1e-4. A flagged cell's key may lie off the table.
    """
    fast = _in_fixed_range(values) if in_range is None else in_range
    zero = values == 0
    a = np.where(fast & ~zero, np.abs(values), 1.0)
    e = np.clip(np.floor(np.log10(a)), -5, 11).astype(np.intp)
    y = a * _POW10[11 - e]
    digits = np.rint(y)
    fast &= y - np.floor(y) != 0.5
    fast &= ~(zero & np.signbit(values))
    carry = digits == 1e12
    x = e + carry
    fast &= (x >= -4) & (x <= 11)
    digits[carry] = 1e11
    digits[zero] = 0
    # Exact in floats: each quotient's fraction stays clear of the next integer.
    high = np.floor(digits / 1e8)
    rest = digits - high * 1e8
    mid = np.floor(rest / 1e4)
    high, mid, low = (q.astype(np.intp) for q in (high, mid, rest - mid * 1e4))
    zeros = _QUAD_TRAILING_ZEROS
    k = 12 - zeros[low] - (low == 0) * (zeros[mid] + (mid == 0) * zeros[high])
    key = ((x + 4) * 13 + k) * 2 + np.signbit(values)
    source = np.empty(values.shape + (4,), np.uint32)
    source[..., 0] = _QUAD_WORDS[high]
    source[..., 1] = _QUAD_WORDS[mid]
    source[..., 2] = _QUAD_WORDS[low]
    source[..., 3] = _SOURCE_TAIL
    return fast, key, source


def _count_text(n: int, trail: str) -> np.ndarray:
    """The text of 0, ..., n - 1, each then ``trail``: rows of bytes padded in front with 0."""
    numbers = np.arange(n)
    width = len(str(n - 1))
    text = np.empty((n, width + len(trail)), np.uint8)
    for j in range(width):
        power = 10 ** (width - 1 - j)
        text[:, j] = (48 + numbers // power % 10) * ((numbers >= power) | (power == 1))
    text[:, width:] = np.frombuffer(trail.encode(), np.uint8)
    return text


def _render_fast(key: np.ndarray, source: np.ndarray, trails: np.ndarray, labels=None,
                 flagged=None, texts=None) -> bytes:
    """The text of rows of cells, each cell followed by its column's trail.

    ``key`` and ``source`` are ``_fixed_notation``'s. ``trails`` is
    ``(columns, width)`` bytes and ``labels``, if given, the ``(rows, width)``
    bytes that lead each row, both padded with 0. The cells at the flat
    indices ``flagged``, if given, take their text from ``texts`` (``"S18"``)
    in place of their pattern's. All are copied into one canvas of bytes,
    and the padding dropped.
    """
    rows, cols = key.shape
    width = 0 if labels is None else labels.shape[1]
    cell = 18 + trails.shape[1]
    canvas = np.empty((rows, width + cols * cell), np.uint8)
    if labels is not None:
        canvas[:, :width] = labels
    cells = canvas[:, width:].reshape(rows, cols, cell)  # a view: the split axis is contiguous
    index = np.take(_NUMBER_PATTERNS, key, axis=0, mode="clip")  # a flagged key may be off it
    index += 16 * np.arange(rows * cols).reshape(rows, cols, 1)
    cells[..., :18] = np.take(source.view(np.uint8).ravel(), index)
    if flagged is not None:
        cells[(*np.divmod(flagged, cols), slice(18))] = texts.view(np.uint8).reshape(-1, 18)
    cells[..., 18:] = trails
    return canvas[canvas != 0].tobytes()


def _row_renderer(row: str, sep: str, n_rounds: int = 0, n_nodes: int = 0):
    """A function from a chunk of rows to their text, joined by ``sep``.

    ``row`` is one row's %-template. Without ``n_nodes``, ``render(values)``
    takes whole rows. With it, the template's first three cells are a row's
    trial, round and node, and ``render(values, trial, start)`` takes the
    other cells of the trial's rows from ``start`` on (see
    ``_metric_chunks``). A chunk whose cells all pass ``_in_fixed_range`` is
    built whole by ``_render_fast``: value cells from their digits, the rare
    flagged cell (see ``_fixed_notation``) from its own %-format, and trial,
    round and node, trails included, by copy from a table of every (round,
    node)'s text behind the trial's, built at the first such chunk and kept.
    Any other chunk, with a cell in exponent notation, ``nan`` or ``inf``,
    goes whole through the template. A ``%d`` value cell takes the same
    path: integer-valued floats below 1e12 read the same in both formats.
    """
    lead, *trails = re.split(r"%(?:d|\.12g)", row)
    trails[-1] += sep + lead  # a rendered row runs on to the next row's lead
    n_labels = 3 if n_nodes else 0
    value_trails = trails[n_labels:]
    value_formats = re.findall(r"%(?:d|\.12g)", row)[n_labels:]
    trail_bytes = np.zeros((len(value_trails), max(map(len, value_trails))), np.uint8)
    for j, trail in enumerate(value_trails):
        trail_bytes[j, :len(trail)] = list(trail.encode())
    joint, lead_bytes = len(sep) + len(lead), lead.encode()
    table = None  # each (round, node)'s label text, the trial's in front
    table_trial = None

    def labels(trial, start, stop):
        """The text of trial, round and node of the trial's rows ``start:stop``, or None."""
        nonlocal table, table_trial
        if not n_labels:
            return None
        if trial != table_trial:
            text = np.frombuffer(f"{trial}{trails[0]}".encode(), np.uint8)
            if table is None or len(str(trial)) != len(str(table_trial)):
                rounds, nodes = _count_text(n_rounds, trails[1]), _count_text(n_nodes, trails[2])
                table = np.empty((n_rounds, n_nodes, len(text) + rounds.shape[1] + nodes.shape[1]),
                                 np.uint8)
                table[..., len(text):-nodes.shape[1]] = rounds[:, None]
                table[..., -nodes.shape[1]:] = nodes
                table = table.reshape(n_rounds * n_nodes, -1)
            table[:, :len(text)] = text
            table_trial = trial
        return table[start:stop]

    def template(values, trial, start):
        if n_labels:
            round_, node = np.divmod(np.arange(start, start + len(values)), n_nodes)
            values = np.column_stack([np.full(len(values), trial), round_, node, values])
        return (sep.join([row] * len(values)) % tuple(values.ravel().tolist())).encode()

    def render(values, trial=0, start=0):
        in_range = _in_fixed_range(values)
        if not in_range.all():
            return template(values, trial, start)
        fast, key, source = _fixed_notation(values, in_range)
        flagged = np.flatnonzero(~fast)
        texts = [value_formats[i % values.shape[1]] % values.flat[i] for i in flagged.tolist()]
        text = _render_fast(key, source, trail_bytes, labels(trial, start, start + len(values)),
                            flagged, np.array(texts, "S18"))
        return lead_bytes + text[:len(text) - joint]

    return render


class MetricsWriter:
    """The metrics table, written to ``handle`` group of trials by group, chunk by chunk.

    The head goes out at once, each ``write`` appends a group's rows and
    ``finish`` writes the tail; the row separator carries over from one
    group to the next. A chunk whose cells all lie in ``_in_fixed_range``
    is rendered with numpy (see ``_row_renderer``), byte for byte as the
    %-template would write it: value cells from their digits, the rare tie
    or -0.0 from its own %-format, and trial, round and node by copy from a
    table of their text, which each ``write`` builds for itself and drops.
    Any other chunk goes whole through the template. ``metrics.json`` is
    ``{"columns": [...], "rows": [[...], ...]}``, each cell a string with
    the CSV's text.
    """

    def __init__(self, handle, scenario, fmt: str):
        columns, cells = _metric_columns(scenario)
        if fmt == "csv":
            head, row, sep, tail = ",".join(columns) + "\n", ",".join(cells) + "\n", "", ""
        else:
            head = '{"columns":%s,"rows":[' % json.dumps(columns, separators=(",", ":"))
            row, sep, tail = "[%s]" % ",".join(f'"{c}"' for c in cells), ",", "]}\n"
        self._handle, self._scenario, self._n_cells = handle, scenario, len(cells)
        self._row, self._row_sep = row, sep
        self._sep, self._tail = sep.encode(), tail.encode()
        self._lead = b""  # what the next chunk follows: the separator, once a row is out
        handle.write(head.encode())

    def write(self, trials: range, results) -> None:
        """Append the rows of ``results``, the results of ``trials``."""
        scenario = self._scenario
        render = _row_renderer(self._row, self._row_sep, scenario.n_rounds, scenario.graph.n_nodes)
        for trial, start, values in _metric_chunks(scenario, trials.start, results, self._n_cells):
            self._handle.write(self._lead)
            self._handle.write(render(values, trial, start))
            self._lead = self._sep

    def finish(self) -> None:
        self._handle.write(self._tail)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return "inf" if math.isinf(value) else float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def _summary_dict(report, scenario) -> dict:
    summary = {
        "engine": report.engine,
        "trials": report.trials,
        "n_rounds": scenario.n_rounds,
        "master_seed": int(scenario.master_seed),
        "cooperative": scenario.cooperative,
        "stationary": _jsonable(report.spectral.stationary),
        "lambda_max": _jsonable(report.spectral.lambda_max),
        "mixing_bound": _jsonable(report.spectral.mixing_bound),
        "empirical_error": report.empirical_error,
        "sample_bound": report.sample_bound,
        "assumption_violated": report.assumption_violated,
        "first_all_success_round": report.first_all_success_round,
        "runtime_seconds": report.runtime_seconds,
    }
    if report.sample_bound_reason is not None:
        summary["sample_bound_reason"] = report.sample_bound_reason
    if report.separation is not None:
        summary["clamp_events"] = report.clamp_events
        summary["global_optima"] = list(report.separation.global_optima)
        summary["separation_rate"] = _jsonable(
            (report.bound_inputs or report.separation).separation_rate)
    if report.final_mse_per_node is not None:
        summary["final_mse_per_node"] = _jsonable(report.final_mse_per_node)
        summary["baseline_final_mse"] = _jsonable(report.baseline_final_mse)
    return summary
