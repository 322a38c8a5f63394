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

# Bytes of bookkeeping a step holds: its (first row, size) tuple in
# ``Packing.steps`` with its list slot and the first row's int, and its
# entries of ``batch_sizes`` and ``offsets``. tracemalloc saw 108-112
# for packings of one and two sequences.
STEP_BYTES = 112


class Packing:
    """Row bookkeeping for the packed frames of a length-sorted batch."""

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or lengths.size == 0 or lengths[-1] < 1 \
                or (lengths[1:] > lengths[:-1]).any():
            raise ValueError(
                "packing needs a non-empty, non-increasing list of positive "
                "lengths, got %r" % (lengths.tolist(),)
            )
        self.lengths = lengths
        # whether sequence b runs at step t: row-major, the packed rows
        running = np.arange(lengths[0])[:, None] < lengths
        self.time_of_row, self.seq_of_row = np.nonzero(running)
        self.batch_sizes = np.bincount(self.time_of_row)
        self.offsets = np.zeros(len(running) + 1, dtype=np.int64)
        np.add.accumulate(self.batch_sizes, out=self.offsets[1:])
        self.num_frames = len(self.seq_of_row)
        # (first row, active sequences) per step, as Python ints for slicing
        self.steps = list(zip(self.offsets[:-1].tolist(),
                              self.batch_sizes.tolist()))
        # row of the same sequence one step earlier, for rows at t >= 1
        first = lengths.size
        self.prev_rows = (self.offsets[self.time_of_row[first:] - 1]
                          + self.seq_of_row[first:])
        # frame t of a sequence <-> frame L - 1 - t of the same sequence;
        # the map is its own inverse
        self.reverse = (
            self.offsets[(lengths - 1)[self.seq_of_row] - self.time_of_row]
            + self.seq_of_row
        )
        self.last_rows = self.reverse[:first]  # frame 0 of sequence b is row b

    def pack(self, rows, starts):
        """Gather frame t of sequence b from ``rows[starts[b] + t]``, in one index.

        ``rows`` holds sequences one after another, or is a padded
        (B', T_max, ...) batch reshaped to (B' * T_max, ...), with
        ``starts = index * T_max``; its padding is never read.
        """
        return rows.take(np.asarray(starts)[self.seq_of_row] + self.time_of_row, 0)

    def rows(self, b):
        """Packed rows of sequence b, in time order."""
        return self.offsets[:self.lengths[b]] + b
