"""The alphanumeric comparison protocol (paper Section 4.2, Figures 8-10).

Goal: the third party computes the edit distance between every cross-site
string pair without any party revealing a string.  The trick (Section 2.3)
is that the edit-distance DP does not need the strings -- a 0/1
*character comparison matrix* (CCM) is "equally expressive" -- and a CCM
can be assembled from additively masked characters:

* **DHJ (initiator)** shifts each character of each string by a fresh
  draw of ``rng_JT`` modulo the alphabet size, re-initialising the
  generator after every string (Figure 8), so *every* string is masked
  with the same random prefix vector ``R``::

      s'[p] = (s[p] + R[p]) mod |A|

* **DHK (responder)** cannot unmask (it lacks ``r_JT``); it subtracts its
  own characters, producing the intermediary matrix (Figure 9)::

      M[q][p] = (s'[p] - t[q]) mod |A|

* **TP** regenerates ``R`` and binarises (Figure 10)::

      CCM[q][p] = 0  if (M[q][p] - R[p]) mod |A| == 0  else 1

  then runs the edit-distance DP on the CCM.

Orientation is one row per responder (target) character, one column per
initiator (source) character -- matching Figures 9-10 and
:mod:`repro.distance.ccm`.

Worked check (paper Figure 7, alphabet {a,b,c,d}): s = "abc" with
R = (0, 1, 3) masks to s' = "acb"; t = "bd" yields
M = [[d, b, a], [b, d, c]] as letters; unmasking gives
CCM = [[1, 0, 1], [1, 1, 1]], whose single zero says s[1] == t[0] = 'b'.
The test suite pins this trace literally.

Vectorization
-------------
The per-string / per-row re-initialisation of Figures 8 and 10 means the
mask vector ``R`` is the *same stream prefix* every time, so one
:meth:`~repro.crypto.prng.ReseedablePRNG.next_below_block` draw (plus one
``reset``) covers all strings/rows.  CCMs are built and binarised in
blocks, one per shape: the responder groups both string lists by length
and computes every (own length, initiator length) group as one ``uint8``
tensor, each CCM a view of it; the third party stacks the received CCMs
of each shape, unmasks the stack in one comparison (both mask variants)
and hands it straight to the batched edit-distance DP.  Ragged string
lengths take the same code with more groups, and both sides chunk a
group under the DP's cell budget.  Outputs are bitwise identical to the
scalar reference in :mod:`repro.core.reference` -- not a single
protocol message changes.  (Exactness note: a scalar Figure 8/10 run
consumes its *entry* stream for the first string/row and the
*post-reset* stream afterwards; the vectorized code reproduces both, so
equivalence holds even for generators passed in mid-stream.)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crypto.prng import ReseedablePRNG
from repro.data.alphabet import Alphabet
from repro.distance.edit import batch_chunk, edit_distances_from_ccms
from repro.exceptions import ProtocolError


def _require_byte_codes(alphabet: Alphabet) -> None:
    if alphabet.size > 256:
        raise ProtocolError(
            f"alphabet of size {alphabet.size} exceeds the uint8 wire encoding"
        )


def _require_2d(intermediary: np.ndarray) -> None:
    if intermediary.ndim != 2:
        raise ProtocolError(
            f"intermediary CCM must be 2-D, got shape {intermediary.shape}"
        )


def initiator_mask_strings(
    strings: Sequence[str],
    alphabet: Alphabet,
    rng_jt: ReseedablePRNG,
) -> list[str]:
    """Figure 8 -- DHJ masks every string with the shared random vector.

    The per-string re-initialisation means character position ``p`` of
    *any* string is always shifted by the same ``R[p]``; that is what
    lets the TP unmask CCM columns without knowing which strings meet.
    One block draw therefore serves every string (the first string reads
    the entry-state stream, the rest the post-reset stream, exactly as
    the scalar loop does).
    """
    strings = list(strings)
    if not strings:
        return []
    codes = [alphabet.encode_validated(text) for text in strings]
    size = alphabet.size
    first_masks = rng_jt.next_below_block(codes[0].size, size)
    rng_jt.reset()
    if len(codes) > 1:
        longest = max(c.size for c in codes[1:])
        rest_masks = rng_jt.next_below_block(longest, size)
        rng_jt.reset()
    masked = [alphabet.decode_array((codes[0] + first_masks) % size)]
    for arr in codes[1:]:
        masked.append(alphabet.decode_array((arr + rest_masks[: arr.size]) % size))
    return masked


def _length_groups(codes: Sequence[np.ndarray]) -> list[tuple[list[int], np.ndarray]]:
    """Indices of equal-length code arrays with their ``uint8`` stack, one
    entry per length in first-seen order."""
    groups: dict[int, list[int]] = {}
    for index, arr in enumerate(codes):
        groups.setdefault(arr.size, []).append(index)
    return [
        (indices, np.array([codes[i] for i in indices], dtype=np.uint8))
        for indices in groups.values()
    ]


def responder_ccm_matrices(
    own_strings: Sequence[str],
    masked_initiator: Sequence[str],
    alphabet: Alphabet,
) -> list[list[np.ndarray]]:
    """Figure 9 -- DHK builds intermediary CCMs for every string pair.

    ``result[m][n][q, p] = (code(s'_n[p]) - code(t_m[q])) mod |A|`` as a
    uint8 array.  No randomness is involved on this side; the masking
    DHJ applied already hides the source characters from DHK.  Strings
    are encoded once and grouped by length; each pair of length groups
    is one broadcast subtraction over an ``(own, initiator, rows, cols)``
    tensor, chunked over own strings under the DP's cell budget, and
    every CCM is a view of its tensor.
    """
    _require_byte_codes(alphabet)
    own_codes = [alphabet.encode_validated(own) for own in own_strings]
    masked_codes = [alphabet.encode_array(masked) for masked in masked_initiator]
    # uint8 subtraction wraps modulo 256; adding |A| wherever it wrapped
    # (the own code was the larger) makes the result modulo |A|.
    wrap = np.uint8(alphabet.size % 256)
    masked_groups = _length_groups(masked_codes)
    placeholder = np.empty((0, 0), dtype=np.uint8)
    result = [[placeholder] * len(masked_codes) for _ in own_codes]
    for own_indices, own_block in _length_groups(own_codes):
        for masked_indices, masked_block in masked_groups:
            source = masked_block[None, :, None, :]
            step = batch_chunk(len(masked_indices) * own_block.shape[1], masked_block.shape[1])
            for start in range(0, len(own_indices), step):
                target = own_block[start : start + step, None, :, None]
                tensor = source - target
                tensor += wrap * (source < target)
                for m, ccms in zip(own_indices[start : start + step], tensor):
                    row = result[m]
                    for n, ccm in zip(masked_indices, ccms):
                        row[n] = ccm
    return result


def _mask_vectors(
    rng_jt: ReseedablePRNG, first_cols: int, longest: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Entry-state masks for the first decoded row, post-reset masks for
    every later row (the Figure 10 per-row re-initialisation)."""
    first_masks = rng_jt.next_below_block(first_cols, size)
    rng_jt.reset()
    rest_masks = rng_jt.next_below_block(longest, size)
    rng_jt.reset()
    return first_masks, rest_masks


def _residues(stack: np.ndarray, size: int) -> np.ndarray:
    """Intermediary codes modulo ``|A|``, the values Figure 10 unmasks,
    in a dtype that holds every mask (so masks cast to it compare exactly).

    A responder's ``uint8`` codes are already reduced and pass through
    untouched; any other dtype, an out-of-range code or an alphabet
    beyond ``uint8`` takes the exact int64 reduction of the scalar
    reference."""
    if stack.dtype == np.uint8 and size <= 256 and int(stack.max(initial=0)) < size:
        return stack
    return stack.astype(np.int64) % size


def _flatten(
    intermediary_matrices: Sequence[Sequence[np.ndarray]],
) -> tuple[list[np.ndarray], int, int]:
    """Row-major CCMs of a rectangular ``[m][n]`` grid, checked 2-D,
    with the grid's row and column counts."""
    rows = [list(row) for row in intermediary_matrices]
    n_cols = len(rows[0]) if rows else 0
    flat: list[np.ndarray] = []
    for row in rows:
        if len(row) != n_cols:
            raise ProtocolError("ragged intermediary CCM matrix")
        for intermediary in row:
            _require_2d(intermediary)
        flat.extend(row)
    return flat, len(rows), n_cols


def third_party_decode_ccm(
    intermediary: np.ndarray,
    alphabet: Alphabet,
    rng_jt: ReseedablePRNG,
) -> np.ndarray:
    """Figure 10 (inner loops) -- TP binarises one intermediary CCM.

    The generator is re-initialised after every *row*: each row spans the
    same source-character positions, so it consumes the same mask prefix
    ``R[0..p-1]`` -- regenerated here with one block draw per stream
    state instead of one scalar draw per cell.
    """
    _require_2d(intermediary)
    rows, cols = intermediary.shape
    if rows == 0:
        return np.ones((0, cols), dtype=np.uint8)
    first_masks, rest_masks = _mask_vectors(rng_jt, cols, cols, alphabet.size)
    codes = _residues(intermediary, alphabet.size)
    ccm = (codes != rest_masks).astype(np.uint8)
    ccm[0] = codes[0] != first_masks
    return ccm


def third_party_distances(
    intermediary_matrices: Sequence[Sequence[np.ndarray]],
    alphabet: Alphabet,
    rng_jt: ReseedablePRNG,
) -> np.ndarray:
    """Figure 10 (full) -- binarise every CCM and run the edit-distance DP.

    Returns the cross-site block ``J_K[m][n]`` = edit distance between
    responder string ``m`` and initiator string ``n`` as an int64 array.
    Equal-shape CCMs are unmasked as one stack and share one batched DP.
    Every row reads the post-reset mask vector except row 0 of the first
    CCM with rows, which a scalar run unmasks with the generator's entry
    stream.
    """
    flat, n_rows, n_cols = _flatten(intermediary_matrices)
    size = alphabet.size
    populated = [(p, m.shape[1]) for p, m in enumerate(flat) if m.shape[0]]
    if not populated:
        return edit_distances_from_ccms(flat).reshape(n_rows, n_cols)
    first, first_cols = populated[0]
    longest = max(cols for _p, cols in populated)
    first_masks, rest_masks = _mask_vectors(rng_jt, first_cols, longest, size)

    def unmask(positions: list[int], stack: np.ndarray) -> np.ndarray:
        codes = _residues(stack, size)
        costs = codes != rest_masks[: stack.shape[2]].astype(codes.dtype)
        if positions[0] == first:
            costs[0, 0] = codes[0, 0] != first_masks
        return costs

    return edit_distances_from_ccms(flat, unmask).reshape(n_rows, n_cols)


# -- fresh-masks extension (addresses the paper's Section 6 open problem) ------
#
# Figure 8's per-string re-initialisation means every string is masked
# with the *same* random vector R, which leaks positional letter
# statistics across strings (exploited by
# :mod:`repro.attacks.language`).  The paper defers "attacks using
# statistics of the input language" to future work; the variant below is
# that future work: one continuous mask stream, never reset, so every
# character of every string gets a fresh offset.  Communication costs
# are unchanged -- only the TP's bookkeeping differs (it reconstructs
# per-string mask vectors from the CCM column counts it receives).


def initiator_mask_strings_fresh(
    strings: Sequence[str],
    alphabet: Alphabet,
    rng_jt: ReseedablePRNG,
) -> list[str]:
    """Mask every character with a fresh draw (no per-string reset)."""
    strings = list(strings)
    codes = [alphabet.encode_validated(text) for text in strings]
    size = alphabet.size
    masks = rng_jt.next_below_block(sum(c.size for c in codes), size)
    masked = []
    offset = 0
    for arr in codes:
        masked.append(alphabet.decode_array((arr + masks[offset : offset + arr.size]) % size))
        offset += arr.size
    return masked


def third_party_distances_fresh(
    intermediary_matrices: Sequence[Sequence[np.ndarray]],
    alphabet: Alphabet,
    rng_jt: ReseedablePRNG,
) -> np.ndarray:
    """TP side of the fresh-masks variant.

    The mask vector of initiator string ``n`` occupies stream positions
    ``sum(len(s_0..n-1)) .. +len(s_n)``; string lengths are read off the
    CCM column counts, so no extra message is needed.  Each stack of
    equal-shape CCMs gathers its CCMs' mask vectors in one index.
    """
    flat, n_rows, n_cols = _flatten(intermediary_matrices)
    lengths = [m.shape[1] for m in flat[:n_cols]]
    for p, intermediary in enumerate(flat):
        if intermediary.shape[1] != lengths[p % n_cols]:
            raise ProtocolError(
                f"CCM column count {intermediary.shape} does not match "
                f"initiator string {p % n_cols} length {lengths[p % n_cols]}"
            )
    size = alphabet.size
    stream = rng_jt.next_below_block(sum(lengths), size)
    starts = np.cumsum([0] + lengths[:-1], dtype=np.int64)

    def unmask(positions: list[int], stack: np.ndarray) -> np.ndarray:
        codes = _residues(stack, size)
        columns = starts[np.asarray(positions) % n_cols, None] + np.arange(stack.shape[2])
        return codes != stream[columns].astype(codes.dtype)[:, None, :]

    return edit_distances_from_ccms(flat, unmask).reshape(n_rows, n_cols)
