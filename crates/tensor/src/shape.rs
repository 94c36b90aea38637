//! Shape arithmetic: volumes, strides, and NumPy-style broadcasting.

use crate::error::{Result, TensorError};

/// Product of the dimensions, i.e. the number of elements a shape holds.
pub fn volume(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Compute the NumPy-style broadcast of two shapes.
///
/// Shapes are aligned at their trailing dimensions; each pair of aligned
/// dimensions must be equal or one of them must be `1`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes are not
/// broadcast-compatible.
pub fn broadcast_shapes(lhs: &[usize], rhs: &[usize], op: &'static str) -> Result<Vec<usize>> {
    let rank = lhs.len().max(rhs.len());
    let mut out = vec![0; rank];
    for i in 0..rank {
        let l = dim_from_end(lhs, i);
        let r = dim_from_end(rhs, i);
        let d = if l == r {
            l
        } else if l == 1 {
            r
        } else if r == 1 {
            l
        } else {
            return Err(TensorError::ShapeMismatch {
                lhs: lhs.to_vec(),
                rhs: rhs.to_vec(),
                op,
            });
        };
        out[rank - 1 - i] = d;
    }
    Ok(out)
}

fn dim_from_end(shape: &[usize], i: usize) -> usize {
    if i < shape.len() {
        shape[shape.len() - 1 - i]
    } else {
        1
    }
}

/// How one operand's elements line up with the broadcast output's,
/// classified once per call from the shapes alone. Output axes of length
/// 1 do not count; on the others an operand either *keeps* the axis (its
/// dimension is the output's) or *broadcasts* it (its dimension is 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Every axis kept: output element `i` reads element `i`.
    Whole,
    /// Inner axes kept, outer ones broadcast: element `i % len`, as `[N]`
    /// over `[Z, N]`. Every axis broadcast (a scalar) is `Tile(1)`.
    Tile(usize),
    /// Inner axes broadcast, outer ones kept: element `i / len`, as
    /// `[Z, 1]` over `[Z, N]`.
    Repeat(usize),
    /// Anything else, as `[3, 1, 4]` over `[3, 2, 4]`: walked by an
    /// [`Odometer`].
    General,
}

/// Where one operand's elements sit over one run of the output.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Run {
    /// Consecutive elements from this offset.
    Seg(usize),
    /// The element at this offset, repeated.
    Splat(usize),
}

impl Run {
    /// The operand offset of the run's `j`th element.
    #[inline]
    pub(crate) fn at(self, j: usize) -> usize {
        match self {
            Run::Seg(i) => i + j,
            Run::Splat(i) => i,
        }
    }
}

/// One elementwise call's broadcast of `K` operand shapes, planned without
/// allocating. [`Broadcast::for_each_run`] walks the output in runs over
/// which every operand is one [`Run`], so a kernel's inner loop is a plain
/// loop over slices and splatted values.
#[derive(Debug)]
pub(crate) struct Broadcast<'a, const K: usize> {
    shapes: [&'a [usize]; K],
    rank: usize,
    len: usize,
    classes: [Class; K],
    /// The run length: it divides `len` and every `Tile` and `Repeat`
    /// period, so no run straddles a period.
    run: usize,
}

impl<'a, const K: usize> Broadcast<'a, K> {
    /// The broadcast of `shapes`, or `None` when they do not broadcast
    /// together (aligned at their trailing axes, each axis's dimensions
    /// must be one value or 1).
    pub(crate) fn new(shapes: [&'a [usize]; K]) -> Option<Self> {
        let rank = shapes.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut b = Broadcast {
            shapes,
            rank,
            len: 1,
            classes: [Class::Whole; K],
            run: 1,
        };
        for axis in 0..rank {
            let d = b.out_dim(axis);
            let clash = |s: &&[usize]| ![1, d].contains(&dim_from_end(s, axis));
            if shapes.iter().any(clash) {
                return None;
            }
            b.len *= d;
        }
        let classes = shapes.map(|s| b.classify(s));
        b.classes = classes;
        b.run = if b.classes.contains(&Class::General) {
            // Every period is a multiple of the innermost axis.
            b.out_dim(0)
        } else {
            let periods = b.classes.iter().filter_map(|c| match *c {
                Class::Tile(len) if len > 1 => Some(len),
                Class::Repeat(len) => Some(len),
                _ => None,
            });
            // Periods are products of the output's innermost axes, so the
            // shortest divides the others.
            periods.min().unwrap_or(b.len)
        };
        Some(b)
    }

    /// The number of output elements.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The output's rank.
    pub(crate) fn rank(&self) -> usize {
        self.rank
    }

    /// The output's dimension `axis` places from the end.
    pub(crate) fn out_dim(&self, axis: usize) -> usize {
        let mut dims = self.shapes.iter().map(|s| dim_from_end(s, axis));
        dims.find(|&d| d != 1).unwrap_or(1)
    }

    /// The output's shape, outermost axis first.
    pub(crate) fn out_shape(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.rank).rev().map(|axis| self.out_dim(axis))
    }

    /// Whether `shape` is the output's shape.
    pub(crate) fn is_out_shape(&self, shape: &[usize]) -> bool {
        shape.len() == self.rank && shape.iter().copied().eq(self.out_shape())
    }

    fn classify(&self, shape: &[usize]) -> Class {
        // The axes that count, innermost first: kept or not, and length.
        let mut axes = (0..self.rank).filter_map(|axis| {
            let d = self.out_dim(axis);
            (d != 1).then(|| (dim_from_end(shape, axis) == d, d))
        });
        let Some((innermost_kept, mut stretch)) = axes.next() else {
            return Class::Whole;
        };
        // How often keeping and broadcasting alternate going outward, and
        // the length of the innermost stretch before the first switch.
        let (mut last, mut switches) = (innermost_kept, 0);
        for (kept, d) in axes {
            if kept != last {
                (last, switches) = (kept, switches + 1);
            }
            if switches == 0 {
                stretch *= d;
            }
        }
        match (innermost_kept, switches) {
            (true, 0) => Class::Whole,
            (false, 0) => Class::Tile(1),
            (true, 1) => Class::Tile(stretch),
            (false, 1) => Class::Repeat(stretch),
            _ => Class::General,
        }
    }

    /// Walk the output in order, one run at a time: `f` gets where each
    /// operand's elements sit and how many output elements the run holds.
    pub(crate) fn for_each_run(&self, mut f: impl FnMut([Run; K], usize)) {
        if self.len == 0 {
            return;
        }
        let mut odometers: [Option<Odometer>; K] = std::array::from_fn(|k| {
            (self.classes[k] == Class::General).then(|| Odometer::new(self.shapes[k], self))
        });
        for start in (0..self.len).step_by(self.run) {
            let runs = std::array::from_fn(|k| match self.classes[k] {
                Class::Whole => Run::Seg(start),
                Class::Tile(1) => Run::Splat(0),
                Class::Tile(len) => Run::Seg(start % len),
                Class::Repeat(len) => Run::Splat(start / len),
                Class::General => odometers[k]
                    .as_mut()
                    .expect("built for every general operand")
                    .next(),
            });
            f(runs, self.run);
        }
    }
}

/// A general operand's offset at the start of each run, walked over the
/// output's outer axes by carrying instead of dividing.
#[derive(Debug)]
struct Odometer {
    at: usize,
    /// Whether the operand keeps the innermost axis (else it broadcasts it).
    seg: bool,
    /// Per outer axis, innermost first: output dimension, the operand's
    /// stride along it (0 where it broadcasts), and the coordinate.
    axes: Vec<[usize; 3]>,
}

impl Odometer {
    fn new<const K: usize>(shape: &[usize], b: &Broadcast<'_, K>) -> Odometer {
        let mut stride = dim_from_end(shape, 0);
        let axes = (1..b.rank)
            .map(|axis| {
                let d = dim_from_end(shape, axis);
                let step = if d == 1 { 0 } else { stride };
                stride *= d;
                [b.out_dim(axis), step, 0]
            })
            .collect();
        Odometer {
            at: 0,
            seg: dim_from_end(shape, 0) == b.out_dim(0),
            axes,
        }
    }

    fn next(&mut self) -> Run {
        let run = if self.seg {
            Run::Seg(self.at)
        } else {
            Run::Splat(self.at)
        };
        for [dim, step, coord] in &mut self.axes {
            self.at += *step;
            *coord += 1;
            if *coord < *dim {
                break;
            }
            self.at -= *dim * *step;
            *coord = 0;
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_strides() {
        assert_eq!(volume(&[2, 3, 4]), 24);
        assert_eq!(volume(&[]), 1);
    }

    #[test]
    fn broadcast_compatible_shapes() {
        assert_eq!(broadcast_shapes(&[4], &[4], "t").unwrap(), vec![4]);
        assert_eq!(broadcast_shapes(&[3, 1], &[1, 4], "t").unwrap(), vec![3, 4]);
        assert_eq!(broadcast_shapes(&[], &[2, 2], "t").unwrap(), vec![2, 2]);
        assert_eq!(
            broadcast_shapes(&[5, 1, 3], &[7, 1], "t").unwrap(),
            vec![5, 7, 3]
        );
    }

    #[test]
    fn broadcast_incompatible_shapes() {
        assert!(broadcast_shapes(&[3], &[4], "t").is_err());
        assert!(broadcast_shapes(&[2, 3], &[3, 2], "t").is_err());
    }

    /// The class of `shape` broadcast against `other`, and the offset
    /// into `shape`'s elements that each output element reads.
    fn walk(shape: &[usize], other: &[usize]) -> (Class, Vec<usize>) {
        let b = Broadcast::new([shape, other]).unwrap();
        let mut offsets = Vec::new();
        b.for_each_run(|[run, _], len| offsets.extend((0..len).map(|j| run.at(j))));
        (b.classes[0], offsets)
    }

    #[test]
    fn broadcast_map_identity() {
        assert_eq!(walk(&[2, 3], &[2, 3]), (Class::Whole, (0..6).collect()));
        // Axes of length 1 do not count.
        assert_eq!(
            walk(&[1, 3], &[2, 1, 3]),
            (Class::Tile(3), vec![0, 1, 2, 0, 1, 2])
        );
        assert_eq!(walk(&[2, 1, 3], &[1, 3]), (Class::Whole, (0..6).collect()));
    }

    #[test]
    fn broadcast_map_scalar() {
        assert_eq!(walk(&[], &[2, 2]), (Class::Tile(1), vec![0; 4]));
        assert_eq!(walk(&[1, 1], &[2, 2]), (Class::Tile(1), vec![0; 4]));
        assert_eq!(walk(&[], &[]), (Class::Whole, vec![0]));
    }

    #[test]
    fn broadcast_map_column() {
        // Shape [2, 1] broadcast to [2, 3]: rows repeat along columns.
        assert_eq!(
            walk(&[2, 1], &[2, 3]),
            (Class::Repeat(3), vec![0, 0, 0, 1, 1, 1])
        );
    }

    #[test]
    fn broadcast_map_missing_leading_dim() {
        // Shape [3] broadcast to [2, 3]: whole vector repeats per row.
        assert_eq!(
            walk(&[3], &[2, 3]),
            (Class::Tile(3), vec![0, 1, 2, 0, 1, 2])
        );
    }

    #[test]
    fn broadcast_map_general_carries_instead_of_dividing() {
        // [3, 1, 2] against [2, 1]: the output is [3, 2, 2], each operand
        // keeps and broadcasts axes in turn.
        let (class, offsets) = walk(&[3, 1, 2], &[2, 1]);
        assert_eq!(class, Class::General);
        assert_eq!(offsets, vec![0, 1, 0, 1, 2, 3, 2, 3, 4, 5, 4, 5]);
        let (class, offsets) = walk(&[2, 1], &[3, 1, 2]);
        assert_eq!(class, Class::General);
        assert_eq!(offsets, vec![0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn broadcast_map_rejects_bad_shapes() {
        assert!(Broadcast::new([&[4][..], &[2, 3]]).is_none());
        assert!(Broadcast::new([&[2, 3][..], &[3, 2]]).is_none());
        assert!(Broadcast::new([&[0][..], &[3]]).is_none());
        assert!(Broadcast::new([&[0][..], &[1], &[2, 0]]).is_some());
    }
}
