//! The primitive operation vocabulary.
//!
//! Primitives are the `f ::= sin | cos | ...` leaves of the paper's
//! Figures 2 and 4: opaque batched kernels the autobatching runtimes
//! invoke but never look inside. The set here is the n-ary
//! generalization the paper alludes to, extended with the kernels the
//! NUTS evaluation needs (per-member reductions, counter-based RNG, and
//! externally registered model kernels such as the target-density
//! gradient).

use std::fmt;
use std::sync::Arc;

/// A primitive operation.
///
/// Each primitive has a fixed number of input and output operands
/// (see [`Prim::arity`]), except [`Prim::External`], whose arity is
/// declared by the kernel registered under that name in the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum Prim {
    // --- constants (per batch member scalars) ---------------------------
    /// Constant `f64` scalar.
    ConstF64(f64),
    /// Constant `i64` scalar.
    ConstI64(i64),
    /// Constant `bool` scalar.
    ConstBool(bool),
    /// Unary: a tensor shaped like the input, filled with the constant.
    FillLike(f64),

    // --- data movement ---------------------------------------------------
    /// Unary identity (copy).
    Id,

    // --- unary float math ------------------------------------------------
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Square root.
    Sqrt,
    /// Square.
    Square,
    /// Logistic sigmoid.
    Sigmoid,
    /// Stable `log(1+exp(x))`.
    Softplus,
    /// Floor.
    Floor,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Hyperbolic tangent.
    Tanh,
    /// Integer negation.
    NegI,
    /// Boolean NOT.
    Not,

    // --- binary math (same-dtype, broadcasting) --------------------------
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Power.
    Pow,
    /// Elementwise minimum.
    Min2,
    /// Elementwise maximum.
    Max2,

    // --- comparisons (result bool) ----------------------------------------
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Equality.
    EqE,
    /// Inequality.
    NeE,

    // --- boolean ----------------------------------------------------------
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Logical XOR.
    Xor,

    // --- ternary ----------------------------------------------------------
    /// `select(cond, a, b)`.
    Select,

    // --- casts ------------------------------------------------------------
    /// Cast to `f64`.
    ToF64,
    /// Cast to `i64`.
    ToI64,
    /// Cast to `bool`.
    ToBool,

    // --- per-member reductions over the element axis ----------------------
    /// `[Z, d] → [Z]` sum of each member's elements.
    SumElems,
    /// Binary dot product over the element axis: `[Z, d] × [Z, d] → [Z]`.
    Dot,

    // --- counter-based RNG -------------------------------------------------
    /// `(rng: i64) → (u: f64, rng': i64)` with `u ~ Uniform[0, 1)`.
    RandUniform,
    /// `(rng: i64) → (x: f64, rng': i64)` with `x ~ Normal(0, 1)`.
    RandNormal,
    /// `(rng: i64) → (e: f64, rng': i64)` with `e ~ Exponential(1)`.
    RandExponential,
    /// `(rng: i64, template) → (x, rng': i64)` with `x` shaped like
    /// `template`, i.i.d. standard normal entries.
    RandNormalLike,

    // --- externally registered kernels --------------------------------------
    /// A kernel registered in the runtime's kernel registry under this
    /// name (e.g. the model gradient `"grad"`). The registry declares its
    /// arity and flop cost.
    External(Arc<str>),
}

/// Input/output arity of a primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arity {
    /// Number of input operands.
    pub ins: usize,
    /// Number of output operands.
    pub outs: usize,
}

impl Prim {
    /// An [`Prim::External`] primitive by kernel name.
    pub fn external(name: impl AsRef<str>) -> Prim {
        Prim::External(Arc::from(name.as_ref()))
    }

    /// The fixed arity of the primitive, or `None` for
    /// [`Prim::External`] (whose arity the kernel registry declares).
    pub fn arity(&self) -> Option<Arity> {
        use Prim::*;
        let (i, o) = match self {
            ConstF64(_) | ConstI64(_) | ConstBool(_) => (0, 1),
            FillLike(_) | Id | Neg | Abs | Exp | Ln | Sqrt | Square | Sigmoid | Softplus
            | Floor | Sin | Cos | Tanh | NegI | Not | ToF64 | ToI64 | ToBool | SumElems => (1, 1),
            Add | Sub | Mul | Div | Pow | Min2 | Max2 | Lt | Le | Gt | Ge | EqE | NeE | And
            | Or | Xor | Dot => (2, 1),
            Select => (3, 1),
            RandUniform | RandNormal | RandExponential => (1, 2),
            RandNormalLike => (2, 2),
            External(_) => return None,
        };
        Some(Arity { ins: i, outs: o })
    }

    /// A short kernel tag for tracing (externals use their registry name,
    /// so e.g. gradient utilization can be measured under `"grad"`).
    /// Borrowed, so a runtime can tag every launch of its hot loop
    /// without formatting a string.
    pub fn kernel_tag(&self) -> &str {
        use Prim::*;
        match self {
            External(name) => name,
            ConstF64(_) | ConstI64(_) | ConstBool(_) => "const",
            FillLike(_) => "fill",
            Id => "id",
            Neg => "neg",
            Abs => "abs",
            Exp => "exp",
            Ln => "ln",
            Sqrt => "sqrt",
            Square => "square",
            Sigmoid => "sigmoid",
            Softplus => "softplus",
            Floor => "floor",
            Sin => "sin",
            Cos => "cos",
            Tanh => "tanh",
            NegI => "negi",
            Not => "not",
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Pow => "pow",
            Min2 => "min2",
            Max2 => "max2",
            Lt => "lt",
            Le => "le",
            Gt => "gt",
            Ge => "ge",
            EqE => "eqe",
            NeE => "nee",
            And => "and",
            Or => "or",
            Xor => "xor",
            Select => "select",
            ToF64 => "tof64",
            ToI64 => "toi64",
            ToBool => "tobool",
            SumElems => "sumelems",
            Dot => "dot",
            RandUniform => "randuniform",
            RandNormal => "randnormal",
            RandExponential => "randexponential",
            RandNormalLike => "randnormallike",
        }
    }

    /// True when the primitive is a pure elementwise map: every output
    /// element depends only on the same-index input elements (after
    /// broadcasting), with no internal state, randomness, or
    /// cross-element reduction. Constants count — they broadcast one
    /// scalar over the batch. This is the legality condition for the
    /// runtime's fused fast path: any straight-line run of elementwise
    /// primitives may execute as a single loop without changing a bit
    /// of any output.
    pub fn is_elementwise(&self) -> bool {
        use Prim::*;
        matches!(
            self,
            ConstF64(_)
                | ConstI64(_)
                | ConstBool(_)
                | FillLike(_)
                | Id
                | Neg
                | Abs
                | Exp
                | Ln
                | Sqrt
                | Square
                | Sigmoid
                | Softplus
                | Floor
                | Sin
                | Cos
                | Tanh
                | NegI
                | Not
                | Add
                | Sub
                | Mul
                | Div
                | Pow
                | Min2
                | Max2
                | Lt
                | Le
                | Gt
                | Ge
                | EqE
                | NeE
                | And
                | Or
                | Xor
                | Select
                | ToF64
                | ToI64
                | ToBool
        )
    }

    /// Approximate floating-point cost per output element, used by the
    /// cost model for non-external kernels. Transcendentals are priced
    /// as a handful of flops, matching throughput-optimized vector math
    /// libraries.
    pub fn flops_per_element(&self) -> f64 {
        use Prim::*;
        match self {
            ConstF64(_) | ConstI64(_) | ConstBool(_) | FillLike(_) | Id | ToF64 | ToI64
            | ToBool => 0.0,
            Neg | Abs | NegI | Not | Floor | Square => 1.0,
            Add | Sub | Mul | Min2 | Max2 | Lt | Le | Gt | Ge | EqE | NeE | And | Or | Xor
            | Select => 1.0,
            Div => 4.0,
            Sqrt => 6.0,
            Exp | Ln | Sigmoid | Softplus | Sin | Cos | Tanh | Pow => 10.0,
            SumElems | Dot => 2.0,
            RandUniform => 10.0,
            RandNormal | RandExponential | RandNormalLike => 30.0,
            External(_) => 0.0, // priced by the registered kernel instead
        }
    }
}

impl fmt::Display for Prim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prim::ConstF64(c) => write!(f, "const({c})"),
            Prim::ConstI64(c) => write!(f, "const({c}i)"),
            Prim::ConstBool(c) => write!(f, "const({c})"),
            Prim::FillLike(c) => write!(f, "fill_like({c})"),
            Prim::External(name) => write!(f, "ext:{name}"),
            other => f.write_str(other.kernel_tag()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arities() {
        assert_eq!(Prim::Add.arity(), Some(Arity { ins: 2, outs: 1 }));
        assert_eq!(Prim::ConstF64(1.0).arity(), Some(Arity { ins: 0, outs: 1 }));
        assert_eq!(Prim::Select.arity(), Some(Arity { ins: 3, outs: 1 }));
        assert_eq!(Prim::RandNormal.arity(), Some(Arity { ins: 1, outs: 2 }));
        assert_eq!(Prim::external("grad").arity(), None);
    }

    #[test]
    fn display_and_tags() {
        assert_eq!(Prim::Add.to_string(), "add");
        assert_eq!(Prim::ConstF64(2.5).to_string(), "const(2.5)");
        assert_eq!(Prim::external("grad").to_string(), "ext:grad");
        assert_eq!(Prim::external("grad").kernel_tag(), "grad");
        assert_eq!(Prim::ConstI64(1).kernel_tag(), "const");
        // Every payload-free primitive is tagged by its lowercased name.
        use Prim::*;
        for p in [
            Id,
            Neg,
            Abs,
            Exp,
            Ln,
            Sqrt,
            Square,
            Sigmoid,
            Softplus,
            Floor,
            Sin,
            Cos,
            Tanh,
            NegI,
            Not,
            Add,
            Sub,
            Mul,
            Div,
            Pow,
            Min2,
            Max2,
            Lt,
            Le,
            Gt,
            Ge,
            EqE,
            NeE,
            And,
            Or,
            Xor,
            Select,
            ToF64,
            ToI64,
            ToBool,
            SumElems,
            Dot,
            RandUniform,
            RandNormal,
            RandExponential,
            RandNormalLike,
        ] {
            assert_eq!(p.kernel_tag(), format!("{p:?}").to_ascii_lowercase());
        }
    }

    #[test]
    fn flop_costs_are_nonnegative() {
        for p in [
            Prim::Add,
            Prim::Exp,
            Prim::Dot,
            Prim::RandNormal,
            Prim::external("x"),
        ] {
            assert!(p.flops_per_element() >= 0.0);
        }
    }

    #[test]
    fn external_equality_by_name() {
        assert_eq!(Prim::external("grad"), Prim::external("grad"));
        assert_ne!(Prim::external("grad"), Prim::external("logp"));
    }
}
