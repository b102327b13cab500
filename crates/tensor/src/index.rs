//! Row-major index arithmetic and broadcasting iterators.

/// Row-major strides for a shape.
fn strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * shape[i + 1];
    }
    s
}

/// Computes the broadcast output shape of two concrete shapes.
///
/// Returns `None` when the shapes are incompatible.
pub fn broadcast_output_shape(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = vec![0; rank];
    for i in 0..rank {
        let x = if i < a.len() { a[a.len() - 1 - i] } else { 1 };
        let y = if i < b.len() { b[b.len() - 1 - i] } else { 1 };
        out[rank - 1 - i] = if x == y {
            x
        } else if x == 1 {
            y
        } else if y == 1 {
            x
        } else {
            return None;
        };
    }
    Some(out)
}

/// Converts between flat offsets and multi-dimensional coordinates for one
/// shape.
#[derive(Debug, Clone)]
pub struct Indexer {
    shape: Vec<usize>,
    strides: Vec<usize>,
}

impl Indexer {
    /// Builds an indexer for a shape.
    pub fn new(shape: &[usize]) -> Self {
        Indexer {
            shape: shape.to_vec(),
            strides: strides(shape),
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Flat offset of a coordinate.
    pub fn offset(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.shape.len());
        coords.iter().zip(&self.strides).map(|(c, s)| c * s).sum()
    }

    /// Coordinates of a flat offset.
    pub fn coords(&self, offset: usize) -> Vec<usize> {
        let mut out = vec![0; self.shape.len()];
        self.coords_into(offset, &mut out);
        out
    }

    /// Coordinates of a flat offset, written into `out` (one slot per
    /// axis): the allocation-free form of [`Indexer::coords`] for loops
    /// over every element.
    pub fn coords_into(&self, mut offset: usize, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.shape.len());
        for (c, s) in out.iter_mut().zip(&self.strides) {
            *c = offset / s;
            offset %= s;
        }
    }
}

/// Maps flat offsets in a broadcast output shape back to flat offsets in a
/// (possibly lower-rank, possibly size-1-dim) source shape.
#[derive(Debug, Clone)]
pub struct BroadcastIndexer {
    out_strides: Vec<usize>,
    /// Per output axis: the source stride (0 when the source broadcasts
    /// along that axis).
    src_strides: Vec<usize>,
}

impl BroadcastIndexer {
    /// Builds a mapping from `out_shape` coordinates to offsets in
    /// `src_shape` (right-aligned, NumPy rules).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the shapes are not broadcast-compatible.
    pub fn new(out_shape: &[usize], src_shape: &[usize]) -> Self {
        let out_strides = strides(out_shape);
        let src_nat = strides(src_shape);
        let rank = out_shape.len();
        let mut src_strides = vec![0; rank];
        for i in 0..src_shape.len() {
            let out_axis = rank - 1 - i;
            let src_axis = src_shape.len() - 1 - i;
            debug_assert!(
                src_shape[src_axis] == out_shape[out_axis] || src_shape[src_axis] == 1,
                "not broadcast-compatible: {src_shape:?} into {out_shape:?}"
            );
            src_strides[out_axis] = if src_shape[src_axis] == 1 {
                0
            } else {
                src_nat[src_axis]
            };
        }
        BroadcastIndexer {
            out_strides,
            src_strides,
        }
    }

    /// Source flat offset for an output flat offset.
    pub fn src_offset(&self, mut out_offset: usize) -> usize {
        let mut src = 0;
        for (os, ss) in self.out_strides.iter().zip(&self.src_strides) {
            let c = out_offset / os;
            out_offset %= os;
            src += c * ss;
        }
        src
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_shapes_concrete() {
        assert_eq!(broadcast_output_shape(&[2, 3], &[3]), Some(vec![2, 3]));
        assert_eq!(
            broadcast_output_shape(&[2, 1, 4], &[3, 1]),
            Some(vec![2, 3, 4])
        );
        assert_eq!(broadcast_output_shape(&[2], &[3]), None);
        assert_eq!(broadcast_output_shape(&[], &[3]), Some(vec![3]));
    }

    #[test]
    fn indexer_roundtrip() {
        let ix = Indexer::new(&[2, 3, 4]);
        assert_eq!(ix.numel(), 24);
        for off in 0..24 {
            let c = ix.coords(off);
            assert_eq!(ix.offset(&c), off);
        }
        assert_eq!(ix.offset(&[1, 2, 3]), 23);
    }

    #[test]
    fn broadcast_indexer_scalar() {
        let bi = BroadcastIndexer::new(&[2, 2], &[]);
        for off in 0..4 {
            assert_eq!(bi.src_offset(off), 0);
        }
    }

    #[test]
    fn broadcast_indexer_row() {
        // src [3] into out [2,3]: offsets repeat 0,1,2,0,1,2.
        let bi = BroadcastIndexer::new(&[2, 3], &[3]);
        let got: Vec<usize> = (0..6).map(|o| bi.src_offset(o)).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn broadcast_indexer_col() {
        // src [2,1] into out [2,3]: 0,0,0,1,1,1.
        let bi = BroadcastIndexer::new(&[2, 3], &[2, 1]);
        let got: Vec<usize> = (0..6).map(|o| bi.src_offset(o)).collect();
        assert_eq!(got, vec![0, 0, 0, 1, 1, 1]);
    }
}
