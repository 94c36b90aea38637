//! Batched evaluation of [`Prim`]s and the external-kernel registry.
//!
//! All virtual machines funnel every primitive through [`eval_prim`]:
//! inputs arrive as tensors whose axis 0 is the batch of *rows being
//! processed* (the whole batch under masking, the active subset under
//! gather/scatter), accompanied by the original member id of each row so
//! counter-based RNG draws are independent of execution strategy.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use autobatch_ir::{Arity, Prim, ScalarKernel};
use autobatch_tensor::{CounterRng, DType, Element, Tensor};

use crate::error::{Result, VmError};

/// A batched kernel registered by name and invoked via
/// [`Prim::External`] — e.g. a model's log-density gradient.
///
/// Implementations must treat batch members independently (the contract
/// every batching argument in the paper rests on).
pub trait ExternalKernel: Send + Sync + fmt::Debug {
    /// Input/output operand counts.
    fn arity(&self) -> Arity;
    /// Evaluate on a batch: every input has the same axis-0 length, and
    /// every output must too.
    ///
    /// # Errors
    ///
    /// Returns a tensor error on shape/dtype violations.
    fn eval(&self, inputs: &[Tensor]) -> autobatch_tensor::Result<Vec<Tensor>>;
    /// Floating-point work per batch member, for the cost model.
    fn flops_per_member(&self, inputs: &[Tensor]) -> f64;
    /// Independent elements the kernel can process in parallel *per
    /// member* (e.g. a logistic-regression gradient parallelizes over its
    /// data rows, not just its output coordinates). Defaults to the first
    /// input's per-member element count.
    fn parallel_per_member(&self, inputs: &[Tensor]) -> usize {
        inputs
            .first()
            .map(|t| {
                if t.rank() <= 1 {
                    1
                } else {
                    t.len() / t.shape()[0].max(1)
                }
            })
            .unwrap_or(1)
    }
}

/// A registry of external kernels, keyed by name.
#[derive(Debug, Default, Clone)]
pub struct KernelRegistry {
    kernels: BTreeMap<String, Arc<dyn ExternalKernel>>,
}

impl KernelRegistry {
    /// An empty registry.
    pub fn new() -> KernelRegistry {
        KernelRegistry::default()
    }

    /// Register (or replace) a kernel under `name`.
    pub fn register(&mut self, name: impl Into<String>, kernel: Arc<dyn ExternalKernel>) {
        self.kernels.insert(name.into(), kernel);
    }

    /// Look up a kernel.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnknownKernel`] if absent.
    pub fn get(&self, name: &str) -> Result<&Arc<dyn ExternalKernel>> {
        self.kernels
            .get(name)
            .ok_or_else(|| VmError::UnknownKernel {
                name: name.to_string(),
            })
    }
}

/// Pad the lower-rank operand with singleton element dimensions so that
/// per-member broadcasting works: `[Z]` against `[Z, d]` becomes
/// `[Z, 1]` against `[Z, d]`. Operands of one rank come back as they
/// are, borrowed.
fn align_pair<'t>(a: &'t Tensor, b: &'t Tensor) -> Result<(Cow<'t, Tensor>, Cow<'t, Tensor>)> {
    let padded = |t: &Tensor, rank: usize| -> Result<Cow<'t, Tensor>> {
        let mut shape = t.shape().to_vec();
        shape.resize(rank, 1);
        Ok(Cow::Owned(t.reshape(&shape)?))
    };
    Ok(match a.rank().cmp(&b.rank()) {
        Ordering::Equal => (Cow::Borrowed(a), Cow::Borrowed(b)),
        Ordering::Less => (padded(a, b.rank())?, Cow::Borrowed(b)),
        Ordering::Greater => (Cow::Borrowed(a), padded(b, a.rank())?),
    })
}

/// Evaluate one primitive on a batch of rows.
///
/// - `inputs`: operand tensors, axis 0 = rows (length `members.len()`),
///   borrowed where the caller keeps them: no operand handle is cloned
///   to evaluate a primitive, and operands of one rank are zipped as
///   they are (a lower-rank operand is reshaped, which shares its
///   payload).
/// - `members`: original batch-member id of each row (RNG independence).
/// - `rng`: the counter-based random source.
/// - `registry`: external kernels.
/// - `spare`: unshared tensors of any dtype whose buffers a result may
///   be written into. A constant, a comparison, and a primitive-table row
///   with a scalar kernel (other than `id`, which shares its operand)
///   run one into-buffer kernel, bit-identical to the allocating tensor
///   kernel of the same function: it takes a spare of its result's dtype
///   out and writes it in place. With no spare of that dtype, or `spare`
///   empty, it writes a share of its first operand instead, which
///   allocates the result's payload as the allocating kernel would.
/// - `out`: cleared, then given one tensor per primitive output. A
///   caller that keeps it across calls evaluates a primitive without
///   allocating a vector for its results.
///
/// # Errors
///
/// Returns arity, dtype, shape, or unknown-kernel errors; `out` then
/// holds no complete set of results.
pub fn eval_prim(
    prim: &Prim,
    inputs: &[&Tensor],
    members: &[u64],
    rng: &CounterRng,
    registry: &KernelRegistry,
    spare: &mut Vec<Tensor>,
    out: &mut Vec<Tensor>,
) -> Result<()> {
    out.clear();
    let rows = members.len();
    if let Some(a) = prim.arity() {
        if inputs.len() != a.ins {
            return Err(VmError::KernelArity {
                name: prim.to_string(),
                expected: (a.ins, a.outs),
                got: (inputs.len(), a.outs),
            });
        }
    }
    let result = match prim {
        Prim::ConstBool(c) => apply(ScalarKernel::Const(*c), inputs, rows, spare)?,
        Prim::Lt => compare(inputs, spare, |a: f64, b| a < b, |a: i64, b| a < b)?,
        Prim::Le => compare(inputs, spare, |a: f64, b| a <= b, |a: i64, b| a <= b)?,
        Prim::Gt => compare(inputs, spare, |a: f64, b| a > b, |a: i64, b| a > b)?,
        Prim::Ge => compare(inputs, spare, |a: f64, b| a >= b, |a: i64, b| a >= b)?,
        Prim::EqE => compare(inputs, spare, |a: f64, b| a == b, |a: i64, b| a == b)?,
        Prim::NeE => compare(inputs, spare, |a: f64, b| a != b, |a: i64, b| a != b)?,
        Prim::FillLike(c) => Tensor::full(inputs[0].shape(), *c),
        Prim::Id => inputs[0].clone(),
        Prim::Not => inputs[0].not()?,
        Prim::And | Prim::Or | Prim::Xor => {
            let (a, b) = align_pair(inputs[0], inputs[1])?;
            match prim {
                Prim::And => a.and(&b)?,
                Prim::Or => a.or(&b)?,
                _ => a.xor(&b)?,
            }
        }
        Prim::Select => {
            let (a, b) = align_pair(inputs[1], inputs[2])?;
            let (c, a2) = align_pair(inputs[0], &a)?;
            let (_, b2) = align_pair(inputs[0], &b)?;
            c.select(&a2, &b2)?
        }
        Prim::ToF64 => inputs[0].to_f64(),
        Prim::ToI64 => inputs[0].to_i64(),
        Prim::ToBool => inputs[0].to_bool(),
        Prim::SumElems => inputs[0].sum_last_axis()?,
        Prim::Dot => inputs[0].dot_last_axis(inputs[1])?,
        Prim::RandUniform | Prim::RandNormal | Prim::RandExponential => {
            let counters = inputs[0].as_i64()?;
            let sample = match prim {
                Prim::RandUniform => rng.uniform_batch_for(members, counters, &[]),
                Prim::RandNormal => rng.normal_batch_for(members, counters, &[]),
                Prim::RandExponential => rng.exponential_batch_for(members, counters, &[]),
                _ => unreachable!(),
            };
            let next = inputs[0].add(&Tensor::scalar(1i64))?;
            out.extend([sample, next]);
            return Ok(());
        }
        Prim::RandNormalLike => {
            let counters = inputs[0].as_i64()?;
            let elem = &inputs[1].shape()[1..];
            let sample = rng.normal_batch_for(members, counters, elem);
            let next = inputs[0].add(&Tensor::scalar(1i64))?;
            out.extend([sample, next]);
            return Ok(());
        }
        Prim::External(name) => {
            let k = registry.get(name)?;
            let a = k.arity();
            if inputs.len() != a.ins {
                return Err(VmError::KernelArity {
                    name: name.to_string(),
                    expected: (a.ins, a.outs),
                    got: (inputs.len(), a.outs),
                });
            }
            let outs = k.eval(owned(inputs, out));
            out.clear();
            let outs = outs?;
            if outs.len() != a.outs {
                return Err(VmError::KernelArity {
                    name: name.to_string(),
                    expected: (a.ins, a.outs),
                    got: (inputs.len(), outs.len()),
                });
            }
            out.extend(outs);
            return Ok(());
        }
        // The rest are the rows of the primitive table with a scalar
        // kernel: the numeric constants, the unary maps and the
        // broadcasting arithmetic. The kernel of the first operand's
        // dtype runs, else the row's only one, which then reports the
        // dtype it cannot take.
        _ => match (prim.scalar_kernels(), inputs.first().map(|t| t.dtype())) {
            ((_, Some(k)), Some(DType::I64)) | ((None, Some(k)), _) => {
                apply(k, inputs, rows, spare)?
            }
            ((Some(k), _), _) => apply(k, inputs, rows, spare)?,
            ((None, None), _) => unreachable!("{prim:?} has an arm of its own"),
        },
    };
    out.push(result);
    Ok(())
}

/// `inputs` as the slice of tensors an [`ExternalKernel`] takes: a lone
/// operand as it is, several as shares collected into `buf`, whose
/// allocation a caller that keeps it reuses.
pub(crate) fn owned<'t>(inputs: &[&'t Tensor], buf: &'t mut Vec<Tensor>) -> &'t [Tensor] {
    if let [t] = inputs {
        return std::slice::from_ref(*t);
    }
    buf.clear();
    buf.extend(inputs.iter().map(|&t| t.clone()));
    buf
}

/// Take a tensor of `dtype` out of `spare`, the most recently given
/// first.
pub(crate) fn take_spare(spare: &mut Vec<Tensor>, dtype: DType) -> Option<Tensor> {
    let i = spare.iter().rposition(|t| t.dtype() == dtype)?;
    Some(spare.swap_remove(i))
}

/// The scalar kernel `k` on `inputs` by its into-buffer kernel: `[rows]`
/// copies of a constant, or the kernel mapped over one operand or zipped
/// over two. The result is written into a spare of its dtype or, with
/// none at hand, into a share of the first (aligned) operand, which the
/// write gives a payload of its own; a constant with no spare is built
/// as it stands.
fn apply<T: Element>(
    k: ScalarKernel<T>,
    inputs: &[&Tensor],
    rows: usize,
    spare: &mut Vec<Tensor>,
) -> Result<Tensor> {
    let buf = take_spare(spare, T::DTYPE);
    Ok(match k {
        ScalarKernel::Const(c) => match buf {
            Some(mut buf) => {
                buf.refill_with(&[rows], |v| v.resize(rows, c));
                buf
            }
            None => Tensor::new(T::wrap(vec![c; rows]), &[rows])?,
        },
        ScalarKernel::Un(f) => {
            let mut buf = buf.unwrap_or_else(|| inputs[0].clone());
            inputs[0].map_into(f, &mut buf)?;
            buf
        }
        ScalarKernel::Bin(f) => {
            let (a, b) = align_pair(inputs[0], inputs[1])?;
            let mut buf = buf.unwrap_or_else(|| Tensor::clone(&a));
            a.zip_into(&b, f, &mut buf)?;
            buf
        }
    })
}

/// The comparison `f64s` / `i64s` on two operands of one of those
/// dtypes, into a spare `bool` tensor or, with none at hand, a share of
/// the first (aligned) operand, as [`apply`] writes.
fn compare(
    inputs: &[&Tensor],
    spare: &mut Vec<Tensor>,
    f64s: impl Fn(f64, f64) -> bool,
    i64s: impl Fn(i64, i64) -> bool,
) -> Result<Tensor> {
    let (a, b) = align_pair(inputs[0], inputs[1])?;
    let mut buf = take_spare(spare, DType::Bool).unwrap_or_else(|| Tensor::clone(&a));
    match a.dtype() {
        DType::F64 => a.zip_into(&b, f64s, &mut buf)?,
        _ => a.zip_into(&b, i64s, &mut buf)?,
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::prim_cost;
    use autobatch_tensor::DType;

    fn env() -> (CounterRng, KernelRegistry) {
        (CounterRng::new(1), KernelRegistry::new())
    }

    /// [`eval_prim`] into a fresh result buffer.
    fn eval(
        prim: &Prim,
        inputs: &[Tensor],
        members: &[u64],
        rng: &CounterRng,
        reg: &KernelRegistry,
    ) -> Result<Vec<Tensor>> {
        let inputs: Vec<&Tensor> = inputs.iter().collect();
        let mut out = Vec::new();
        eval_prim(prim, &inputs, members, rng, reg, &mut Vec::new(), &mut out).map(|()| out)
    }

    #[test]
    fn a_reused_result_buffer_holds_only_the_last_results() {
        let (rng, reg) = env();
        let counters = Tensor::from_i64(&[5, 5], &[2]).unwrap();
        let mut out = Vec::new();
        eval_prim(
            &Prim::RandUniform,
            &[&counters],
            &[0, 1],
            &rng,
            &reg,
            &mut Vec::new(),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let x = Tensor::from_f64(&[1.0, -2.0], &[2]).unwrap();
        eval_prim(
            &Prim::Neg,
            &[&x],
            &[0, 1],
            &rng,
            &reg,
            &mut Vec::new(),
            &mut out,
        )
        .unwrap();
        assert_eq!(out, vec![Tensor::from_f64(&[-1.0, 2.0], &[2]).unwrap()]);
    }

    #[test]
    fn const_produces_batch_width() {
        let (rng, reg) = env();
        let out = eval(&Prim::ConstF64(2.5), &[], &[0, 1, 2], &rng, &reg).unwrap();
        assert_eq!(out[0].shape(), &[3]);
        assert_eq!(out[0].as_f64().unwrap(), &[2.5; 3]);
    }

    #[test]
    fn scalar_vector_broadcast_per_member() {
        let (rng, reg) = env();
        let s = Tensor::from_f64(&[2.0, 3.0], &[2]).unwrap();
        let v = Tensor::from_f64(&[1.0, 1.0, 1.0, 1.0], &[2, 2]).unwrap();
        let out = eval(&Prim::Mul, &[s, v], &[0, 1], &rng, &reg).unwrap();
        assert_eq!(out[0].shape(), &[2, 2]);
        assert_eq!(out[0].as_f64().unwrap(), &[2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn select_broadcasts_condition_over_vectors() {
        let (rng, reg) = env();
        let c = Tensor::from_bool(&[true, false], &[2]).unwrap();
        let a = Tensor::full(&[2, 3], 1.0);
        let b = Tensor::full(&[2, 3], 9.0);
        let out = eval(&Prim::Select, &[c, a, b], &[0, 1], &rng, &reg).unwrap();
        assert_eq!(out[0].as_f64().unwrap(), &[1.0, 1.0, 1.0, 9.0, 9.0, 9.0]);
    }

    #[test]
    fn rng_prims_advance_counter_and_depend_on_member() {
        let (rng, reg) = env();
        let counters = Tensor::from_i64(&[5, 5], &[2]).unwrap();
        let out = eval(
            &Prim::RandUniform,
            std::slice::from_ref(&counters),
            &[0, 1],
            &rng,
            &reg,
        )
        .unwrap();
        let u = out[0].as_f64().unwrap();
        assert_ne!(u[0], u[1], "different members draw differently");
        assert_eq!(out[1].as_i64().unwrap(), &[6, 6]);
        // Same member/counter reproduces.
        let again = eval(&Prim::RandUniform, &[counters], &[0, 1], &rng, &reg).unwrap();
        assert_eq!(again[0].as_f64().unwrap(), u);
    }

    #[test]
    fn rand_normal_like_matches_template_shape() {
        let (rng, reg) = env();
        let counters = Tensor::from_i64(&[0, 1], &[2]).unwrap();
        let template = Tensor::zeros(DType::F64, &[2, 4]);
        let out = eval(
            &Prim::RandNormalLike,
            &[counters, template],
            &[0, 1],
            &rng,
            &reg,
        )
        .unwrap();
        assert_eq!(out[0].shape(), &[2, 4]);
    }

    #[test]
    fn unknown_external_kernel_errors() {
        let (rng, reg) = env();
        let q = Tensor::zeros(DType::F64, &[2, 3]);
        let err = eval(&Prim::external("grad"), &[q], &[0, 1], &rng, &reg);
        assert!(matches!(err, Err(VmError::UnknownKernel { .. })));
    }

    #[derive(Debug)]
    struct Doubler;
    impl ExternalKernel for Doubler {
        fn arity(&self) -> Arity {
            Arity { ins: 1, outs: 1 }
        }
        fn eval(&self, inputs: &[Tensor]) -> autobatch_tensor::Result<Vec<Tensor>> {
            Ok(vec![inputs[0].add(&inputs[0])?])
        }
        fn flops_per_member(&self, inputs: &[Tensor]) -> f64 {
            (inputs[0].len() / inputs[0].shape()[0].max(1)) as f64
        }
    }

    #[test]
    fn external_kernel_roundtrip_and_cost() {
        let (rng, mut reg) = env();
        reg.register("double", Arc::new(Doubler));
        let x = Tensor::from_f64(&[1.0, 2.0], &[2, 1]).unwrap();
        let out = eval(
            &Prim::external("double"),
            std::slice::from_ref(&x),
            &[0, 1],
            &rng,
            &reg,
        )
        .unwrap();
        assert_eq!(out[0].as_f64().unwrap(), &[2.0, 4.0]);
        let cost = prim_cost(&Prim::external("double"), &[&x], &out, &reg);
        assert_eq!(cost.flops, 2.0); // 1 flop/member × 2 members
        assert!(cost.bytes > 0.0);
    }

    #[test]
    fn prim_cost_scales_with_elements() {
        let (_, reg) = env();
        let a = Tensor::zeros(DType::F64, &[4, 8]);
        let out = vec![Tensor::zeros(DType::F64, &[4, 8])];
        let c = prim_cost(&Prim::Add, &[&a, &a], &out, &reg);
        assert_eq!(c.flops, 32.0);
        assert_eq!(c.parallel, 32);
    }

    #[test]
    fn arity_mismatch_detected() {
        let (rng, reg) = env();
        let x = Tensor::zeros(DType::F64, &[1]);
        assert!(matches!(
            eval(&Prim::Add, &[x], &[0], &rng, &reg),
            Err(VmError::KernelArity { .. })
        ));
    }
}
