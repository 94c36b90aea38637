//! What the batched runtimes decide the same way, once: how wide a
//! batch of inputs is, which block a superstep runs (the paper's §2
//! "free choice"), what reading an unbound variable is, and how a
//! superstep's result lands in a full-width `[Z, elem..]` buffer — under
//! the active mask, or from one row per active member onto those
//! members' lanes. Algorithm 1 ([`LocalStaticVm`](crate::LocalStaticVm))
//! writes its per-invocation environment and Algorithm 2
//! ([`PcVm`](crate::PcVm)) its stack tops and registers through the
//! same [`land`], so the two cannot drift on what a masked or gathered
//! write means; [`DynamicVm`](crate::DynamicVm), which never masks,
//! shares the input check and the lookup.

use autobatch_ir::Var;
use autobatch_tensor::Tensor;

use crate::error::{Result, VmError};
use crate::options::BlockHeuristic;

/// The batch width `Z` of a run's inputs: axis 0 of every one of them.
pub(crate) fn batch_size(inputs: &[Tensor]) -> Result<usize> {
    let first = inputs.first().ok_or_else(|| VmError::BadInputs {
        what: "no inputs".into(),
    })?;
    if first.rank() == 0 {
        return Err(VmError::BadInputs {
            what: "inputs must have a leading batch dimension".into(),
        });
    }
    let z = first.shape()[0];
    for t in inputs {
        if t.rank() == 0 || t.shape()[0] != z {
            return Err(VmError::BadInputs {
                what: format!("inconsistent batch sizes: {} vs {:?}", z, t.shape()),
            });
        }
    }
    Ok(z)
}

/// The value `v` is bound to, or [`VmError::Unbound`] naming where it
/// was read.
pub(crate) fn lookup<'t>(bound: Option<&'t Tensor>, v: &Var, context: &str) -> Result<&'t Tensor> {
    bound.ok_or_else(|| VmError::Unbound {
        var: v.clone(),
        context: context.to_string(),
    })
}

/// The block the next superstep runs, given the program counter of
/// every member eligible to run (`>= n_blocks` means it has finished);
/// `None` when nobody is left. `counts` is a buffer the caller lends to
/// [`BlockHeuristic::MostActive`], which breaks ties towards the
/// earliest block.
pub(crate) fn select_block(
    pcs: impl Iterator<Item = usize>,
    n_blocks: usize,
    heuristic: BlockHeuristic,
    counts: &mut Vec<usize>,
) -> Option<usize> {
    let running = pcs.filter(|&pc| pc < n_blocks);
    match heuristic {
        BlockHeuristic::EarliestBlock => running.min(),
        BlockHeuristic::MostActive => {
            counts.clear();
            counts.resize(n_blocks, 0);
            running.for_each(|pc| counts[pc] += 1);
            let busiest = counts
                .iter()
                .enumerate()
                .max_by(|(i, a), (j, b)| a.cmp(b).then(j.cmp(i)))?;
            (*busiest.1 > 0).then_some(busiest.0)
        }
    }
}

/// The lanes a superstep's writes land on. `idx` is `Some` when the
/// values being written hold one row per active member (a gathered
/// superstep) instead of all `Z` rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes<'a> {
    pub(crate) active: &'a [bool],
    pub(crate) idx: Option<&'a [usize]>,
}

/// Land a superstep's `value` in a full-width slot: under the mask, or
/// — compacted rows of a gathered superstep — straight onto the active
/// lanes, in place. A slot nobody wrote yet, or whose element shape or
/// dtype the value does not share, starts from zeros either way (lanes
/// the write does not name hold zeros, which the masked semantics never
/// exposes to a well-formed program), unless the mask names every lane
/// and the value can simply be adopted.
///
/// A value whose member axis disagrees with the lanes — a kernel or a
/// corrupted program produced the wrong batch width — is refused
/// instead of silently corrupting lanes.
pub(crate) fn land(slot: &mut Option<Tensor>, value: &Tensor, lanes: Lanes<'_>) -> Result<()> {
    let z = lanes.active.len();
    let rows = lanes.idx.map_or(z, <[usize]>::len);
    if value.rank() == 0 || value.shape()[0] != rows {
        return Err(VmError::BadInputs {
            what: format!(
                "write of batch width {:?} onto {rows} of {z} lanes",
                value.shape()
            ),
        });
    }
    if slot
        .as_ref()
        .is_some_and(|old| old.dtype() != value.dtype() || old.shape()[1..] != value.shape()[1..])
    {
        *slot = None;
    }
    match (lanes.idx, slot) {
        (Some(idx), slot) => store_rows(slot, z, idx, value)?,
        (None, Some(old)) => old.masked_assign_rows(lanes.active, value)?,
        (None, slot) if lanes.active.iter().all(|&a| a) => *slot = Some(value.clone()),
        (None, slot) => {
            // The value is full width: zeros of its own shape.
            slot.insert(Tensor::zeros(value.dtype(), value.shape()))
                .masked_assign_rows(lanes.active, value)?;
        }
    }
    Ok(())
}

/// Write `rows` (`[lanes.len(), elem..]`) into the given lanes of a
/// `[z, elem..]` buffer, creating it zeroed if nobody has written it
/// yet.
pub(crate) fn store_rows(
    slot: &mut Option<Tensor>,
    z: usize,
    lanes: &[usize],
    rows: &Tensor,
) -> Result<()> {
    let buf = slot.get_or_insert_with(|| zeroed(z, rows));
    buf.scatter_rows(lanes, rows)?;
    Ok(())
}

/// A zeroed `[z, elem..]` buffer for rows like `row` (`[_, elem..]`).
pub(crate) fn zeroed(z: usize, row: &Tensor) -> Tensor {
    let mut shape = row.shape().to_vec();
    shape[0] = z;
    Tensor::zeros(row.dtype(), &shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn land_writes_the_same_lanes_masked_and_gathered() {
        let old = Tensor::from_i64(&[10, 20, 30, 40], &[4]).unwrap();
        let active = [false, true, false, true];
        let full = Tensor::from_i64(&[1, 2, 3, 4], &[4]).unwrap();
        let rows = full.gather_rows(&[1, 3]).unwrap();
        let masked = Lanes {
            active: &active,
            idx: None,
        };
        let gathered = Lanes {
            active: &active,
            idx: Some(&[1, 3]),
        };
        for start in [None, Some(old)] {
            let (mut a, mut b) = (start.clone(), start.clone());
            land(&mut a, &full, masked).unwrap();
            land(&mut b, &rows, gathered).unwrap();
            assert_eq!(a, b);
            let kept = start.map_or([0, 0], |_| [10, 30]);
            assert_eq!(a.unwrap().as_i64().unwrap(), &[kept[0], 2, kept[1], 4]);
        }
        // The wrong batch width is refused in either mode.
        for (value, lanes) in [(&rows, masked), (&full, gathered)] {
            let err = land(&mut None, value, lanes);
            assert!(matches!(err, Err(VmError::BadInputs { .. })), "{err:?}");
        }
    }
}
