//! The append-only row store behind both memos of this crate: the
//! `string → slot` cache of [`crate::CachedEmbedder`] and the `token → slot`
//! memo inside [`crate::FastTextModel`].  One arena type, two key spaces.

use crate::cache::UNRESOLVED_SLOT;

/// Rows per arena chunk (256 KiB of `f32` at 64 dimensions).
pub(crate) const CHUNK_ROWS: usize = 1024;

/// Rows the model's token memo admits before it stops growing: 64 chunks,
/// 16 MiB of vectors at 64 dimensions, 25 MiB at 100 — room for the working
/// vocabulary of real text, bounded whatever the input does.
pub(crate) const TOKEN_MEMO_ROWS: usize = 64 * CHUNK_ROWS;

/// Append-only row store in chunks of [`CHUNK_ROWS`] rows.  A chunk is
/// allocated zeroed and whole, so the operating system backs its pages only
/// as rows are written, and it is never reallocated.
pub(crate) struct Arena {
    dim: usize,
    chunks: Vec<Box<[f32]>>,
    rows: usize,
}

impl Arena {
    pub(crate) fn new(dim: usize) -> Self {
        Self {
            dim,
            chunks: Vec::new(),
            rows: 0,
        }
    }

    /// Width of every row.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Rows reserved so far.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Appends one (zeroed) row and returns its slot.
    pub(crate) fn reserve(&mut self) -> u32 {
        let slot = u32::try_from(self.rows).expect("arena holds fewer than 2^32 rows");
        assert_ne!(slot, UNRESOLVED_SLOT, "arena is full");
        if self.rows == self.chunks.len() * CHUNK_ROWS {
            self.chunks
                .push(vec![0.0; CHUNK_ROWS * self.dim].into_boxed_slice());
        }
        self.rows += 1;
        slot
    }

    /// Chunk index and element range of a slot's row.
    fn locate(&self, slot: u32) -> (usize, std::ops::Range<usize>) {
        let (chunk, row) = (slot as usize / CHUNK_ROWS, slot as usize % CHUNK_ROWS);
        (chunk, row * self.dim..(row + 1) * self.dim)
    }

    pub(crate) fn row(&self, slot: u32) -> &[f32] {
        let (chunk, range) = self.locate(slot);
        &self.chunks[chunk][range]
    }

    pub(crate) fn row_mut(&mut self, slot: u32) -> &mut [f32] {
        let (chunk, range) = self.locate(slot);
        &mut self.chunks[chunk][range]
    }
}
