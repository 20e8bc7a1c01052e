"""The bytes ``peerlearn run`` writes: the metrics table, chunk by chunk, and the summary."""

from __future__ import annotations

import json
import math
import re

import numpy as np

# A chunk of the metrics table holds about this many cells, so writing it
# takes memory independent of the trial count. Rendering takes about 90
# bytes a value cell (100 in JSON), most of it for the slots: 0.51 MB a chunk
# of gaussian rows with 7 values and 3 labels, under 0.8 MB for any chunk of
# 2**13 cells.
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
# its sign, and fits a slot of 19 bytes, 0 where the text has none: the
# sign, "0.000" up to the first digit when X < 0, then 13 bytes of digits
# with the point after the first X + 1 when X >= 0. The digits come from a
# table of 4-digit groups. Every other byte is a mask by place: an array of
# (place, 1, 1) compared with each cell's X, k or sign over a chunk's
# (rows, cols), so an exponent tail would be one more block of places.
_POW10 = np.array([float(10**j) for j in range(17)])
_QUADS = np.arange(10**4)
_QUAD_DIGITS = (48 + _QUADS[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8)
_QUAD_TRAILING_ZEROS = sum(_QUADS % 10**j == 0 for j in range(1, 5)).astype(np.int8)
_QUAD_UNITS = np.array([1e8, 1e4, 1.0]).reshape(3, 1, 1)
_PREFIX = np.frombuffer(b"0.000", np.uint8).reshape(5, 1, 1)
_PREFIX_BELOW = np.array([0, 0, -1, -2, -3], np.int8).reshape(5, 1, 1)  # kept where X is less
_PLACES = np.arange(13, dtype=np.int8).reshape(13, 1, 1)


def _in_fixed_range(values: np.ndarray) -> np.ndarray:
    """A cheap superset of the values that ``'%.12g'`` writes in fixed notation."""
    a = np.abs(values)
    return ((a >= 9.9999e-05) & (a < 1e12)) | (a == 0)


def _fixed_notation(values: np.ndarray, in_range=None):
    """Which cells take the fixed-notation path, and the slots of their text.

    Returns ``fast`` and ``slots``, ``(19,) + values.shape`` bytes: slot
    byte ``j`` of every cell is ``slots[j]``, so that each step runs over
    the cells. ``in_range``, if given, is ``_in_fixed_range(values)``, and
    becomes ``fast``. The digits are ``rint(y)`` for ``y = |x| * 10**(11 - e)``,
    ``e`` the floor of ``log10|x|``. The power is exact for e in [-5, 11],
    so ``y`` is the exact product correctly rounded. Below 1e12 every half
    lies on the grid of doubles, so ``y`` is on the exact product's side of
    each half unless it is a half itself, and only there can ``rint`` round
    the other way. A ``log10`` one off near a power of ten leaves ``y``
    within an ulp of 1e11 or 1e12, which rounds right (a carry to 1e12
    raises X). A cell is not fast, and is flagged, when it is out of range,
    a half, -0.0 (``%d`` writes "0"), or in range by ``_in_fixed_range`` yet
    written in exponent notation: a carry to 1e+12, or a value just below
    1e-4. A flagged cell's X may be -5 or 12; its %-text overwrites its slot.
    """
    fast = _in_fixed_range(values) if in_range is None else in_range
    zero, negative = values == 0, np.signbit(values)
    y = np.where(fast & ~zero, np.abs(values), 1.0)
    e = np.clip(np.floor(np.log10(y)), -5, 11).astype(np.int8)
    y *= np.take(_POW10, 11 - e)
    fast &= y - np.floor(y) != 0.5
    fast &= ~(zero & negative)
    digits = np.rint(y, out=y)
    carry = digits == 1e12
    x = e + carry
    fast &= (x >= -4) & (x <= 11)
    digits[carry] = 1e11
    digits[zero] = 0
    # Exact in floats: each quotient's fraction stays clear of the next integer.
    quads = np.floor(digits / _QUAD_UNITS)  # digits // 1e8, // 1e4 and // 1
    quads[1:] -= 1e4 * quads[:-1]
    quads = quads.astype(np.intp)
    zeros = _QUAD_TRAILING_ZEROS[quads]  # 4 for a group of 0
    k = 12 - zeros[2] - (zeros[2] == 4) * (zeros[1] + (zeros[1] == 4) * zeros[0])
    # The place of the point among the digits, 13 (none) when X < 0, and
    # the digit bytes kept: through the last significant digit, or the units.
    point = np.where(x < 0, 13, x + 1)
    end = np.where(x < 0, k, np.maximum(point, k + (k > point)))
    slots = np.empty((20,) + values.shape, np.uint8)  # byte 19 takes the points of none
    np.multiply(negative, np.uint8(45), out=slots[0])  # '-'
    np.multiply(x < _PREFIX_BELOW, _PREFIX, out=slots[1:6])
    # Digit j goes to place j + 1, then moves to place j before the point,
    # which is never at place 0, so place 0 needs no value of its own.
    text = slots[6:19]
    quads = np.take(_QUAD_DIGITS, quads, axis=0)  # the groups' text, 4 bytes each
    text[1:].reshape(3, 4, *values.shape)[...] = np.moveaxis(quads, -1, 1)
    step = text[1:] - text[:-1]
    step *= _PLACES[:-1] < point
    text[:-1] += step
    cells = np.arange(values.size).reshape(values.shape)
    slots.reshape(-1)[(point + 6).astype(np.intp) * values.size + cells] = 46  # '.'
    text *= _PLACES < end
    return fast, slots[:19]


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


def _render_fast(slots: np.ndarray, trails: np.ndarray, labels, flagged: np.ndarray,
                 texts: np.ndarray) -> bytes:
    """The text of rows of cells, each cell followed by its column's trail.

    ``slots`` are ``_fixed_notation``'s, ``(19, rows, cols)``. ``trails`` is
    ``(columns, width)`` bytes and ``labels`` the blocks of bytes that lead
    each row, in order: each ``(width,)`` for every row or ``(rows, width)``,
    all padded with 0. The cells at the flat indices ``flagged`` take their
    text from ``texts`` (``"S19"``) in place of their slot's. All are
    copied into one canvas of bytes, the slots by one transposed copy, and
    the padding dropped.
    """
    _, rows, cols = slots.shape
    width = sum(block.shape[-1] for block in labels)
    cell = 19 + trails.shape[1]
    canvas = np.empty((rows, width + cols * cell), np.uint8)
    at = 0
    for block in labels:
        canvas[:, at:at + block.shape[-1]] = block
        at += block.shape[-1]
    cells = canvas[:, width:].reshape(rows, cols, cell)  # a view: the split axis is contiguous
    cells[..., :19] = slots.transpose(1, 2, 0)
    cells[(*np.divmod(flagged, cols), slice(19))] = texts.view(np.uint8).reshape(-1, 19)
    cells[..., 19:] = trails
    return canvas.tobytes().translate(None, b"\0")


def _row_renderer(row: str, sep: str, n_rounds: int, n_nodes: int):
    """A function from a chunk of rows to their text, joined by ``sep``.

    ``row`` is one row's %-template, whose first three cells are a row's
    trial, round and node. ``render(values, trial, start)`` takes the
    other cells of the trial's rows from ``start`` on (see
    ``_metric_chunks``). A chunk whose cells all pass ``_in_fixed_range`` is
    built whole by ``_render_fast``: value cells from the byte slots that
    ``_fixed_notation`` builds from their digits, the rare flagged cell
    from its own %-format in place of its slot, the trial's text in front
    of each row, and round and node, trails included, by copy from a table
    of every (round, node)'s text, built once.
    Any other chunk, with a cell in exponent notation, ``nan`` or ``inf``,
    goes whole through the template. A ``%d`` value cell takes the same
    path: integer-valued floats below 1e12 read the same in both formats.
    """
    lead, *trails = re.split(r"%(?:d|\.12g)", row)
    trails[-1] += sep + lead  # a rendered row runs on to the next row's lead
    value_trails = trails[3:]
    value_formats = re.findall(r"%(?:d|\.12g)", row)[3:]
    trail_bytes = np.zeros((len(value_trails), max(map(len, value_trails))), np.uint8)
    for j, trail in enumerate(value_trails):
        trail_bytes[j, :len(trail)] = list(trail.encode())
    joint, lead_bytes = len(sep) + len(lead), lead.encode()
    rounds, nodes = _count_text(n_rounds, trails[1]), _count_text(n_nodes, trails[2])
    # each (round, node)'s text, trails included
    table = np.hstack([np.repeat(rounds, n_nodes, axis=0), np.tile(nodes, (n_rounds, 1))])

    def render(values, trial, start):
        in_range = _in_fixed_range(values)
        if not in_range.all():
            round_, node = np.divmod(np.arange(start, start + len(values)), n_nodes)
            cells = np.column_stack([np.full(len(values), trial), round_, node, values])
            return (sep.join([row] * len(values)) % tuple(cells.ravel().tolist())).encode()
        fast, slots = _fixed_notation(values, in_range)
        flagged = np.flatnonzero(~fast)
        texts = [value_formats[i % values.shape[1]] % values.flat[i] for i in flagged.tolist()]
        labels = (np.frombuffer(f"{trial}{trails[0]}".encode(), np.uint8),
                  table[start:start + len(values)])  # trial, then round and node
        text = _render_fast(slots, trail_bytes, labels, flagged, np.array(texts, "S19"))
        return lead_bytes + text[:len(text) - joint]

    return render


class MetricsWriter:
    """The metrics table, written to ``handle`` group of trials by group, chunk by chunk.

    The head goes out at once, each ``write`` appends a group's rows and
    ``finish`` writes the tail; the row separator carries over from one
    group to the next. A chunk whose cells all lie in ``_in_fixed_range``
    is rendered with numpy (see ``_row_renderer``), byte for byte as the
    %-template would write it: value cells from fixed 19-byte slots of their
    digits, the rare tie or -0.0 from its own %-format, the trial's text,
    and round and node by copy from a table of their text, which each
    ``write`` builds once and drops; one pass drops the slots' padding.
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
