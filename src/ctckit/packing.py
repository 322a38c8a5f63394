"""Time-major packed layout of a length-sorted batch.

A batch of B sequences with non-increasing lengths L_0 >= ... >= L_{B-1}
is stored as one (N, ...) array, N = sum(L_b), step by step: at step t
the n_t sequences still running are always the first n_t of the batch
(because of the sort), and their frames t occupy the rows
``offsets[t] .. offsets[t] + n_t``. A recurrence over the batch then
updates a prefix of rows per step, and every per-frame operation (input
projection, output layer, weight gradients, lattice emissions) is one
array operation over all N rows. Padding frames never enter the layout,
so nothing computed on it depends on the padded width of a batch.

A single sequence is the batch of one whose packed rows are its frames
in order.
"""

import numpy as np


class Packing:
    """Row bookkeeping for the packed frames of a length-sorted batch."""

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or lengths.size == 0 or lengths[-1] < 1 \
                or np.any(lengths[1:] > lengths[:-1]):
            raise ValueError(
                "packing needs a non-empty, non-increasing list of positive "
                "lengths, got %r" % (lengths.tolist(),)
            )
        self.lengths = lengths
        steps = np.arange(lengths[0])
        self.batch_sizes = (lengths[None, :] > steps[:, None]).sum(axis=1)
        self.offsets = np.concatenate(([0], np.cumsum(self.batch_sizes)))
        self.num_frames = int(self.offsets[-1])
        # (first row, active sequences) per step, as Python ints for slicing
        self.steps = list(zip(self.offsets[:-1].tolist(),
                              self.batch_sizes.tolist()))
        self.time_of_row = np.repeat(steps, self.batch_sizes)
        self.seq_of_row = np.arange(self.num_frames) - self.offsets[self.time_of_row]
        # row of the same sequence one step earlier, for rows at t >= 1
        first = self.steps[0][1]
        self.prev_rows = (self.offsets[self.time_of_row[first:] - 1]
                          + self.seq_of_row[first:])
        self.last_rows = self.offsets[lengths - 1] + np.arange(lengths.size)
        # frame t of a sequence <-> frame L - 1 - t of the same sequence;
        # the map is its own inverse
        self.reverse = (
            self.offsets[lengths[self.seq_of_row] - 1 - self.time_of_row]
            + self.seq_of_row
        )

    def pack(self, padded, index):
        """Gather the valid frames of ``padded`` (B', T_max, ...) into rows.

        Sequence b of the packing is ``padded[index[b]]``.
        """
        return padded[np.asarray(index)[self.seq_of_row], self.time_of_row]
