//! The abstract domain of the static verifier: a dtype × element-shape
//! lattice with divergence and constant-condition tracking.
//!
//! # The lattice
//!
//! Each program variable is mapped to an [`AbsValue`], the product of
//! four component lattices:
//!
//! - **dtype** ([`AbsDType`]): `F64 | I64 | Bool`, with `Any` as top.
//!   There is no bottom — an unanalyzed variable is simply absent from
//!   the environment.
//! - **element shape** ([`AbsShape`]): the per-member shape with the
//!   batch axis stripped (a `[Z, 3, 2]` batched tensor has element shape
//!   `[3, 2]`), with `Any` as top. Joining two distinct concrete shapes
//!   goes straight to `Any`.
//! - **divergence**: a boolean, `true` when the value may differ across
//!   batch members (it depends on program inputs or on sampled
//!   randomness). Joins are disjunction. A branch whose condition is
//!   divergent is a *member-divergent* branch: the static signal that
//!   lanes will split there.
//! - **known condition**: `Option<bool>`, tracking boolean constants so
//!   statically-dead branch edges can be pruned. Joining two different
//!   constants gives `None` (unknown).
//!
//! All components only ever move up, and every chain is finite, so the
//! dataflow fixpoints in the verifiers terminate.
//!
//! # Transfer functions
//!
//! [`transfer`] mirrors, primitive by primitive, the dynamic semantics
//! of `autobatch-core`'s `eval_prim` / `autobatch-tensor`'s elementwise
//! kernels: arithmetic requires both operands `F64` or both `I64`,
//! comparisons produce `Bool` and reject `Bool` operands, logic requires
//! `Bool`, casts never fail, broadcasting pads the lower-rank element
//! shape with trailing ones (exactly `align_pair` + `broadcast_shapes`),
//! and reductions drop the trailing element axis. `External` primitives
//! are trusted: their outputs are `Any` and their inputs are not
//! checked, so the verifier's guarantees are conditional on registered
//! kernels honoring their registry contract.
//!
//! When an operand's dtype is `Any` *because it flows unmodified from a
//! program input*, a failed requirement is not an error: it is recorded
//! as an inferred constraint on that input (see
//! [`Constraints`]), refining the program's signature instead of
//! rejecting the program.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::IrError;
use crate::prim::Prim;
use crate::var::{BlockId, FuncId, Var};

/// Abstract dtype lattice: three concrete points plus top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AbsDType {
    /// Unknown / any dtype (top).
    Any,
    /// 64-bit float.
    F64,
    /// 64-bit integer.
    I64,
    /// Boolean.
    Bool,
}

impl AbsDType {
    /// Least upper bound.
    pub fn join(self, other: AbsDType) -> AbsDType {
        if self == other {
            self
        } else {
            AbsDType::Any
        }
    }
}

impl fmt::Display for AbsDType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsDType::Any => write!(f, "any"),
            AbsDType::F64 => write!(f, "f64"),
            AbsDType::I64 => write!(f, "i64"),
            AbsDType::Bool => write!(f, "bool"),
        }
    }
}

/// Abstract per-member element shape: a concrete shape or top.
///
/// The batch axis is excluded throughout: a batched `[Z, 3]` tensor has
/// element shape `[3]`, and a batched scalar has element shape `[]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbsShape {
    /// Unknown shape (top).
    Any,
    /// A concrete element shape.
    Elem(Vec<usize>),
}

impl AbsShape {
    /// Scalar element shape `[]`.
    pub fn scalar() -> AbsShape {
        AbsShape::Elem(Vec::new())
    }

    /// Least upper bound: distinct concrete shapes join to `Any`.
    pub fn join(&self, other: &AbsShape) -> AbsShape {
        match (self, other) {
            (AbsShape::Elem(a), AbsShape::Elem(b)) if a == b => AbsShape::Elem(a.clone()),
            _ => AbsShape::Any,
        }
    }

    /// The concrete element shape, if known.
    pub fn as_elem(&self) -> Option<&[usize]> {
        match self {
            AbsShape::Elem(s) => Some(s),
            AbsShape::Any => None,
        }
    }

    /// Abstract broadcast, mirroring the runtime's `align_pair` +
    /// `broadcast_shapes`: the lower-rank element shape is padded with
    /// *trailing* ones, then dimensions must agree or be one.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when two concrete shapes
    /// cannot broadcast.
    pub fn broadcast(&self, other: &AbsShape) -> Result<AbsShape, String> {
        let (a, b) = match (self, other) {
            (AbsShape::Elem(a), AbsShape::Elem(b)) => (a, b),
            _ => return Ok(AbsShape::Any),
        };
        let rank = a.len().max(b.len());
        let dim = |s: &[usize], i: usize| if i < s.len() { s[i] } else { 1 };
        let mut out = Vec::with_capacity(rank);
        for i in 0..rank {
            let (x, y) = (dim(a, i), dim(b, i));
            if x == y || y == 1 {
                out.push(x);
            } else if x == 1 {
                out.push(y);
            } else {
                return Err(format!(
                    "element shapes {a:?} and {b:?} do not broadcast (dim {i}: {x} vs {y})"
                ));
            }
        }
        Ok(AbsShape::Elem(out))
    }
}

impl fmt::Display for AbsShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsShape::Any => write!(f, "[?]"),
            AbsShape::Elem(s) => {
                write!(f, "[")?;
                for (i, d) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// An abstract value: one point of the product lattice described in the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct AbsValue {
    /// Abstract dtype.
    pub dtype: AbsDType,
    /// Abstract per-member element shape.
    pub shape: AbsShape,
    /// May the value differ across batch members?
    pub divergent: bool,
    /// Statically-known boolean value, when the value is a constant
    /// condition (used to prune dead branch edges).
    pub known_cond: Option<bool>,
    /// When the value is an unmodified copy of program input `i`,
    /// `Some(i)`: dtype requirements on it become inferred input
    /// constraints rather than errors.
    pub origin: Option<usize>,
}

impl AbsValue {
    /// A fully-unknown, possibly-divergent value (top).
    pub fn any() -> AbsValue {
        AbsValue {
            dtype: AbsDType::Any,
            shape: AbsShape::Any,
            divergent: true,
            known_cond: None,
            origin: None,
        }
    }

    /// The abstract value of program input `index` before anything is
    /// known about it.
    pub fn input(index: usize) -> AbsValue {
        AbsValue {
            origin: Some(index),
            ..AbsValue::any()
        }
    }

    /// A non-divergent value of the given dtype and shape (constants).
    pub fn uniform(dtype: AbsDType, shape: AbsShape) -> AbsValue {
        AbsValue {
            dtype,
            shape,
            divergent: false,
            known_cond: None,
            origin: None,
        }
    }

    /// Least upper bound of every component.
    pub fn join(&self, other: &AbsValue) -> AbsValue {
        AbsValue {
            dtype: self.dtype.join(other.dtype),
            shape: self.shape.join(&other.shape),
            divergent: self.divergent || other.divergent,
            known_cond: match (self.known_cond, other.known_cond) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            origin: match (self.origin, other.origin) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
        }
    }
}

impl fmt::Display for AbsValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.dtype, self.shape)?;
        if self.divergent {
            write!(f, " div")?;
        }
        Ok(())
    }
}

/// A concrete tensor specification: the per-request form of an
/// [`AbsValue`], used when checking admitted inputs against a program's
/// inferred signature.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TensorSpec {
    /// Concrete dtype.
    pub dtype: AbsDType,
    /// Concrete per-member element shape (batch axis excluded).
    pub elem_shape: Vec<usize>,
}

impl TensorSpec {
    /// Build a spec.
    pub fn new(dtype: AbsDType, elem_shape: impl Into<Vec<usize>>) -> TensorSpec {
        TensorSpec {
            dtype,
            elem_shape: elem_shape.into(),
        }
    }

    /// The abstract value admitting exactly this spec (divergent, since
    /// every member carries its own data).
    pub fn abs_value(&self, origin: usize) -> AbsValue {
        AbsValue {
            dtype: self.dtype,
            shape: AbsShape::Elem(self.elem_shape.clone()),
            divergent: true,
            known_cond: None,
            origin: Some(origin),
        }
    }
}

impl fmt::Display for TensorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.dtype, self.elem_shape)
    }
}

/// Dtype constraints inferred for the program inputs: requirements that
/// `Any`-dtype values flowing unmodified from an input ran into.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraints {
    /// Per-input required dtype (`Any` = unconstrained).
    pub dtypes: Vec<AbsDType>,
}

impl Constraints {
    /// Unconstrained over `n` inputs.
    pub fn none(n: usize) -> Constraints {
        Constraints {
            dtypes: vec![AbsDType::Any; n],
        }
    }

    /// Record that input `index` must have dtype `want`.
    ///
    /// # Errors
    ///
    /// Returns a description when the input was already constrained to a
    /// different concrete dtype.
    pub fn require(&mut self, index: usize, want: AbsDType) -> Result<(), String> {
        let slot = &mut self.dtypes[index];
        if *slot == AbsDType::Any {
            *slot = want;
            Ok(())
        } else if *slot == want {
            Ok(())
        } else {
            Err(format!(
                "input {index} is used both as {slot} and as {want}"
            ))
        }
    }
}

/// A failed transfer: the op would raise a dtype/shape error at runtime.
/// The verifiers wrap this with block/op provenance into
/// [`IrError::TypeError`].
pub type TransferError = String;

fn require_dtype(
    v: &AbsValue,
    want: AbsDType,
    what: &str,
    cons: &mut Constraints,
) -> Result<(), TransferError> {
    if v.dtype == want {
        return Ok(());
    }
    if v.dtype == AbsDType::Any {
        if let Some(i) = v.origin {
            cons.require(i, want)?;
        }
        // Unknown non-input values (e.g. external-kernel outputs) pass
        // optimistically; concrete signature inference re-checks them.
        return Ok(());
    }
    Err(format!("{what}: expected {want}, got {}", v.dtype))
}

fn numeric_pair(
    a: &AbsValue,
    b: &AbsValue,
    what: &str,
    cons: &mut Constraints,
) -> Result<AbsDType, TransferError> {
    use AbsDType::*;
    match (a.dtype, b.dtype) {
        (Bool, _) | (_, Bool) => Err(format!("{what}: boolean operand")),
        (F64, F64) => Ok(F64),
        (I64, I64) => Ok(I64),
        (F64, I64) | (I64, F64) => Err(format!("{what}: mixed f64/i64 operands")),
        (Any, d @ (F64 | I64)) => {
            require_dtype(a, d, what, cons)?;
            Ok(d)
        }
        (d @ (F64 | I64), Any) => {
            require_dtype(b, d, what, cons)?;
            Ok(d)
        }
        (Any, Any) => Ok(Any),
    }
}

fn out1(dtype: AbsDType, shape: AbsShape, divergent: bool) -> Vec<AbsValue> {
    vec![AbsValue {
        dtype,
        shape,
        divergent,
        known_cond: None,
        origin: None,
    }]
}

fn drop_last_axis(shape: &AbsShape, what: &str) -> Result<AbsShape, TransferError> {
    match shape {
        AbsShape::Any => Ok(AbsShape::Any),
        AbsShape::Elem(s) => {
            if s.is_empty() {
                Err(format!(
                    "{what}: element shape is scalar; reducing would consume the batch axis"
                ))
            } else {
                Ok(AbsShape::Elem(s[..s.len() - 1].to_vec()))
            }
        }
    }
}

fn rng_counter(v: &AbsValue, what: &str, cons: &mut Constraints) -> Result<(), TransferError> {
    require_dtype(v, AbsDType::I64, what, cons)?;
    if let Some(s) = v.shape.as_elem() {
        if !s.is_empty() {
            return Err(format!("{what}: counter must be scalar, got {:?}", s));
        }
    }
    Ok(())
}

/// Abstract transfer function for one primitive application.
///
/// `ins` are the operands' abstract values; `n_outs` is the op's
/// declared output count (already arity-checked by `validate`). Dtype
/// requirements hitting `Any` values that originate from program inputs
/// are recorded into `cons` instead of failing.
///
/// # Errors
///
/// Returns a [`TransferError`] when the op is guaranteed (or unable to
/// be proven safe) to raise a dtype/shape error at runtime on some
/// input matching the abstract operands.
pub fn transfer(
    prim: &Prim,
    ins: &[AbsValue],
    n_outs: usize,
    cons: &mut Constraints,
) -> Result<Vec<AbsValue>, TransferError> {
    use AbsDType::*;
    use Prim::*;
    let div = |vs: &[AbsValue]| vs.iter().any(|v| v.divergent);
    match prim {
        ConstF64(_) => Ok(vec![AbsValue::uniform(F64, AbsShape::scalar())]),
        ConstI64(_) => Ok(vec![AbsValue::uniform(I64, AbsShape::scalar())]),
        ConstBool(b) => Ok(vec![AbsValue {
            known_cond: Some(*b),
            ..AbsValue::uniform(Bool, AbsShape::scalar())
        }]),
        // fill_like produces the same constant in every member; only the
        // shape is taken from the operand.
        FillLike(_) => Ok(out1(F64, ins[0].shape.clone(), false)),
        Id => Ok(vec![ins[0].clone()]),
        Neg | Abs | Exp | Ln | Sqrt | Square | Sigmoid | Softplus | Floor | Sin | Cos | Tanh => {
            require_dtype(&ins[0], F64, &format!("{prim}"), cons)?;
            Ok(out1(F64, ins[0].shape.clone(), ins[0].divergent))
        }
        NegI => {
            require_dtype(&ins[0], I64, "negi", cons)?;
            Ok(out1(I64, ins[0].shape.clone(), ins[0].divergent))
        }
        Not => {
            require_dtype(&ins[0], Bool, "not", cons)?;
            Ok(vec![AbsValue {
                dtype: Bool,
                shape: ins[0].shape.clone(),
                divergent: ins[0].divergent,
                known_cond: ins[0].known_cond.map(|b| !b),
                origin: None,
            }])
        }
        Add | Sub | Mul | Div | Pow | Min2 | Max2 => {
            let d = numeric_pair(&ins[0], &ins[1], &format!("{prim}"), cons)?;
            let s = ins[0].shape.broadcast(&ins[1].shape)?;
            Ok(out1(d, s, div(ins)))
        }
        Lt | Le | Gt | Ge | EqE | NeE => {
            numeric_pair(&ins[0], &ins[1], &format!("{prim}"), cons)?;
            let s = ins[0].shape.broadcast(&ins[1].shape)?;
            Ok(out1(Bool, s, div(ins)))
        }
        And | Or | Xor => {
            require_dtype(&ins[0], Bool, &format!("{prim}"), cons)?;
            require_dtype(&ins[1], Bool, &format!("{prim}"), cons)?;
            let s = ins[0].shape.broadcast(&ins[1].shape)?;
            Ok(out1(Bool, s, div(ins)))
        }
        Select => {
            require_dtype(&ins[0], Bool, "select condition", cons)?;
            let d = match (ins[1].dtype, ins[2].dtype) {
                (a, b) if a == b => a,
                (Any, b) => b,
                (a, Any) => a,
                (a, b) => {
                    return Err(format!("select: branch dtypes differ ({a} vs {b})"));
                }
            };
            let s = ins[0]
                .shape
                .broadcast(&ins[1].shape.broadcast(&ins[2].shape)?)?;
            Ok(out1(d, s, div(ins)))
        }
        ToF64 => Ok(out1(F64, ins[0].shape.clone(), ins[0].divergent)),
        ToI64 => Ok(out1(I64, ins[0].shape.clone(), ins[0].divergent)),
        ToBool => Ok(out1(Bool, ins[0].shape.clone(), ins[0].divergent)),
        SumElems => {
            require_dtype(&ins[0], F64, "sum_elems", cons)?;
            let s = drop_last_axis(&ins[0].shape, "sum_elems")?;
            Ok(out1(F64, s, ins[0].divergent))
        }
        Dot => {
            require_dtype(&ins[0], F64, "dot", cons)?;
            require_dtype(&ins[1], F64, "dot", cons)?;
            let s = drop_last_axis(&ins[0].shape.broadcast(&ins[1].shape)?, "dot")?;
            Ok(out1(F64, s, div(ins)))
        }
        RandUniform | RandNormal | RandExponential => {
            rng_counter(&ins[0], &format!("{prim}"), cons)?;
            Ok(vec![
                AbsValue {
                    dtype: F64,
                    shape: AbsShape::scalar(),
                    divergent: true,
                    known_cond: None,
                    origin: None,
                },
                AbsValue {
                    dtype: I64,
                    shape: AbsShape::scalar(),
                    divergent: ins[0].divergent,
                    known_cond: None,
                    origin: None,
                },
            ])
        }
        RandNormalLike => {
            rng_counter(&ins[0], "rand_normal_like", cons)?;
            Ok(vec![
                AbsValue {
                    dtype: F64,
                    shape: ins[1].shape.clone(),
                    divergent: true,
                    known_cond: None,
                    origin: None,
                },
                AbsValue {
                    dtype: I64,
                    shape: AbsShape::scalar(),
                    divergent: ins[0].divergent,
                    known_cond: None,
                    origin: None,
                },
            ])
        }
        // Registered kernels are trusted: outputs unknown, inputs
        // unchecked. The soundness guarantee is conditional on external
        // kernels honoring their registry contract.
        External(_) => Ok(vec![AbsValue::any(); n_outs]),
    }
}

/// A verifier's abstract state at a program point: the variables
/// definitely assigned there, and what is known of each.
pub(crate) type Env = BTreeMap<Var, AbsValue>;

/// Why abstract execution cannot go past a program point; [`Stuck::at`]
/// turns it into the verifier's diagnostic.
pub(crate) enum Stuck {
    /// A read of a variable that is not definitely assigned.
    Unassigned(Var),
    /// The message of a runtime dtype/shape error in waiting.
    Type(TransferError),
}

impl Stuck {
    /// The diagnostic for being stuck in `block` (of `func`, where the IR
    /// has functions) at op `op`, or at the terminator.
    pub(crate) fn at(self, func: Option<FuncId>, block: BlockId, op: Option<usize>) -> IrError {
        match self {
            Stuck::Unassigned(var) => IrError::UnassignedRead { var, func, block },
            Stuck::Type(what) => IrError::TypeError {
                func,
                block,
                op,
                what,
            },
        }
    }
}

/// `var`'s abstract value where the state is `env`.
pub(crate) fn lookup(env: &Env, var: &Var) -> Result<AbsValue, Stuck> {
    env.get(var)
        .cloned()
        .ok_or_else(|| Stuck::Unassigned(var.clone()))
}

/// One primitive, abstractly: read its operands `ins` from `env` and
/// [`transfer`] them to its `n_outs` outputs, for the verifier to bind.
pub(crate) fn eval_prim(
    prim: &Prim,
    ins: &[Var],
    n_outs: usize,
    env: &Env,
    cons: &mut Constraints,
) -> Result<Vec<AbsValue>, Stuck> {
    let vals = ins
        .iter()
        .map(|v| lookup(env, v))
        .collect::<Result<Vec<_>, _>>()?;
    transfer(prim, &vals, n_outs, cons).map_err(Stuck::Type)
}

/// What a legal branch condition is, and where the branch can go: `cond`
/// must be `Bool` (an `Any` flowing from a program input is constrained
/// to it) and a per-member scalar, since branching indexes it by member.
/// Returns whether the `then` and the `else` edge are live — a known
/// constant prunes the other — and whether this is a member-divergent
/// branch: both edges live under a condition that may differ by member.
pub(crate) fn branch_edges(
    cond: &AbsValue,
    cons: &mut Constraints,
) -> Result<(bool, bool, bool), Stuck> {
    match cond.dtype {
        AbsDType::Bool => {}
        AbsDType::Any => {
            if let Some(idx) = cond.origin {
                cons.require(idx, AbsDType::Bool).map_err(Stuck::Type)?;
            }
        }
        other => {
            return Err(Stuck::Type(format!(
                "branch condition must be bool, got {other}"
            )))
        }
    }
    if let AbsShape::Elem(s) = &cond.shape {
        if !s.is_empty() {
            return Err(Stuck::Type(format!(
                "branch condition must be a per-member scalar, got element shape {}",
                cond.shape
            )));
        }
    }
    let (then_live, else_live) = match cond.known_cond {
        Some(true) => (true, false),
        Some(false) => (false, true),
        None => (true, true),
    };
    Ok((
        then_live,
        else_live,
        then_live && else_live && cond.divergent,
    ))
}

/// A static bound on a stack's depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepthBound {
    /// The stack never exceeds this many frames.
    Bounded(usize),
    /// No static bound (the program is recursive, or pushes inside a
    /// loop).
    Unbounded,
}

impl DepthBound {
    /// True when the bound is known and at most `limit`.
    pub fn fits(self, limit: usize) -> bool {
        match self {
            DepthBound::Bounded(n) => n <= limit,
            DepthBound::Unbounded => false,
        }
    }

    /// Pointwise maximum.
    pub fn max(self, other: DepthBound) -> DepthBound {
        match (self, other) {
            (DepthBound::Bounded(a), DepthBound::Bounded(b)) => DepthBound::Bounded(a.max(b)),
            _ => DepthBound::Unbounded,
        }
    }
}

impl fmt::Display for DepthBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepthBound::Bounded(n) => write!(f, "{n}"),
            DepthBound::Unbounded => write!(f, "unbounded"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(dtype: AbsDType, shape: &[usize]) -> AbsValue {
        AbsValue {
            dtype,
            shape: AbsShape::Elem(shape.to_vec()),
            divergent: true,
            known_cond: None,
            origin: None,
        }
    }

    #[test]
    fn broadcast_pads_trailing() {
        let a = AbsShape::Elem(vec![3]);
        let b = AbsShape::Elem(vec![3, 4]);
        assert_eq!(a.broadcast(&b).unwrap(), AbsShape::Elem(vec![3, 4]));
        let c = AbsShape::Elem(vec![2]);
        assert!(a.broadcast(&c).is_err());
    }

    #[test]
    fn arith_rejects_mixed_and_bool() {
        let mut cons = Constraints::none(0);
        assert!(transfer(
            &Prim::Add,
            &[v(AbsDType::F64, &[]), v(AbsDType::I64, &[])],
            1,
            &mut cons
        )
        .is_err());
        assert!(transfer(
            &Prim::Add,
            &[v(AbsDType::Bool, &[]), v(AbsDType::Bool, &[])],
            1,
            &mut cons
        )
        .is_err());
        let out = transfer(
            &Prim::Add,
            &[v(AbsDType::I64, &[]), v(AbsDType::I64, &[])],
            1,
            &mut cons,
        )
        .unwrap();
        assert_eq!(out[0].dtype, AbsDType::I64);
    }

    #[test]
    fn comparisons_produce_bool() {
        let mut cons = Constraints::none(0);
        let out = transfer(
            &Prim::Le,
            &[v(AbsDType::I64, &[]), v(AbsDType::I64, &[])],
            1,
            &mut cons,
        )
        .unwrap();
        assert_eq!(out[0].dtype, AbsDType::Bool);
        assert!(transfer(
            &Prim::Lt,
            &[v(AbsDType::Bool, &[]), v(AbsDType::Bool, &[])],
            1,
            &mut cons
        )
        .is_err());
    }

    #[test]
    fn input_requirements_become_constraints() {
        let mut cons = Constraints::none(1);
        let input = AbsValue::input(0);
        let out = transfer(&Prim::Exp, &[input], 1, &mut cons).unwrap();
        assert_eq!(out[0].dtype, AbsDType::F64);
        assert_eq!(cons.dtypes[0], AbsDType::F64);
    }

    #[test]
    fn conflicting_input_uses_error() {
        let mut cons = Constraints::none(1);
        let input = AbsValue::input(0);
        transfer(&Prim::Exp, std::slice::from_ref(&input), 1, &mut cons).unwrap();
        assert!(transfer(&Prim::NegI, &[input], 1, &mut cons).is_err());
    }

    #[test]
    fn sum_elems_rejects_scalar_elements() {
        let mut cons = Constraints::none(0);
        assert!(transfer(&Prim::SumElems, &[v(AbsDType::F64, &[])], 1, &mut cons).is_err());
        let out = transfer(&Prim::SumElems, &[v(AbsDType::F64, &[4])], 1, &mut cons).unwrap();
        assert_eq!(out[0].shape, AbsShape::scalar());
    }

    #[test]
    fn constants_are_uniform_and_known() {
        let mut cons = Constraints::none(0);
        let out = transfer(&Prim::ConstBool(true), &[], 1, &mut cons).unwrap();
        assert_eq!(out[0].known_cond, Some(true));
        assert!(!out[0].divergent);
        let neg = transfer(&Prim::Not, &out, 1, &mut cons).unwrap();
        assert_eq!(neg[0].known_cond, Some(false));
    }

    #[test]
    fn depth_bound_algebra() {
        assert!(DepthBound::Bounded(3).fits(3));
        assert!(!DepthBound::Bounded(4).fits(3));
        assert!(!DepthBound::Unbounded.fits(usize::MAX));
        assert_eq!(
            DepthBound::Bounded(3).max(DepthBound::Bounded(1)),
            DepthBound::Bounded(3)
        );
    }
}
