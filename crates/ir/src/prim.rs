//! The primitive operation vocabulary.
//!
//! Primitives are the `f ::= sin | cos | ...` leaves of the paper's
//! Figures 2 and 4: opaque batched kernels the autobatching runtimes
//! invoke but never look inside. The set here is the n-ary
//! generalization the paper alludes to, extended with the kernels the
//! NUTS evaluation needs (per-member reductions, counter-based RNG, and
//! externally registered model kernels such as the target-density
//! gradient).
//!
//! Everything a runtime reads about a primitive (its kernel tag, arity,
//! flop estimate and per-dtype scalar kernel) is written once, in the
//! primitive's row of the `prims!` table below.

use std::fmt;
use std::sync::Arc;

use autobatch_tensor::scalar_ops as so;
use ScalarKernel::{Bin, Const, Un};

/// What a primitive computes at one element of one element type: the
/// [`scalar_ops`](autobatch_tensor::scalar_ops) function its batched
/// kernel maps over the tensor. A runtime that chains these in one loop
/// is bit-identical to running the batched kernels one by one.
#[derive(Debug, Clone, Copy)]
pub enum ScalarKernel<T> {
    /// Every element is this constant.
    Const(T),
    /// `f(a)`.
    Un(fn(T) -> T),
    /// `f(a, b)`.
    Bin(fn(T, T) -> T),
}

/// Input/output arity of a primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arity {
    /// Number of input operands.
    pub ins: usize,
    /// Number of output operands.
    pub outs: usize,
}

/// Declares [`Prim`] and everything the runtimes read about a primitive
/// from one row per payload-free primitive; each accessor expands to a
/// `match`, so reading a row costs a jump, not a search. The five
/// primitives with a payload are written out by hand.
macro_rules! prims {
    ($(
        $(#[$doc:meta])*
        $name:ident = $tag:literal, ($ins:literal, $outs:literal), $flops:literal, $f:expr, $i:expr;
    )*) => {
        /// A primitive operation.
        ///
        /// Each primitive has a fixed number of input and output operands
        /// (see [`Prim::arity`]), except [`Prim::External`], whose arity is
        /// declared by the kernel registered under that name in the runtime.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Prim {
            /// Constant `f64` scalar.
            ConstF64(f64),
            /// Constant `i64` scalar.
            ConstI64(i64),
            /// Constant `bool` scalar.
            ConstBool(bool),
            /// Unary: a tensor shaped like the input, filled with the constant.
            FillLike(f64),
            $($(#[$doc])* $name,)*
            /// A kernel registered in the runtime's kernel registry under this
            /// name (e.g. the model gradient `"grad"`). The registry declares its
            /// arity and flop cost.
            External(Arc<str>),
        }

        impl Prim {
            /// Every payload-free primitive, one per row of the table, in
            /// declaration order.
            pub const ROWS: &'static [Prim] = &[$(Prim::$name),*];

            /// The fixed arity of the primitive, or `None` for
            /// [`Prim::External`] (whose arity the kernel registry declares).
            pub fn arity(&self) -> Option<Arity> {
                let (ins, outs) = match self {
                    Prim::ConstF64(_) | Prim::ConstI64(_) | Prim::ConstBool(_) => (0, 1),
                    Prim::FillLike(_) => (1, 1),
                    Prim::External(_) => return None,
                    $(Prim::$name => ($ins, $outs),)*
                };
                Some(Arity { ins, outs })
            }

            /// A short kernel tag for tracing (externals use their registry name,
            /// so e.g. gradient utilization can be measured under `"grad"`).
            /// Borrowed, so a runtime can tag every launch of its hot loop
            /// without formatting a string.
            pub fn kernel_tag(&self) -> &str {
                match self {
                    Prim::ConstF64(_) | Prim::ConstI64(_) | Prim::ConstBool(_) => "const",
                    Prim::FillLike(_) => "fill",
                    Prim::External(name) => name,
                    $(Prim::$name => $tag,)*
                }
            }

            /// Approximate floating-point cost per output element, used by the
            /// cost model for non-external kernels. Transcendentals are priced
            /// as a handful of flops, matching throughput-optimized vector math
            /// libraries.
            pub fn flops_per_element(&self) -> f64 {
                match self {
                    Prim::ConstF64(_) | Prim::ConstI64(_) | Prim::ConstBool(_) => 0.0,
                    Prim::FillLike(_) => 0.0,
                    Prim::External(_) => 0.0, // priced by the registered kernel instead
                    $(Prim::$name => $flops,)*
                }
            }

            /// The primitive's scalar kernel on `f64` and on `i64` elements;
            /// `None` on a side whose batched kernel refuses that dtype or
            /// is no per-element map. A primitive with a kernel is
            /// *fusable*: a straight-line run of them may execute as one
            /// loop over elements without changing a bit of any output.
            pub fn scalar_kernels(&self) -> (Option<ScalarKernel<f64>>, Option<ScalarKernel<i64>>) {
                match self {
                    Prim::ConstF64(c) => (Some(Const(*c)), None),
                    Prim::ConstI64(c) => (None, Some(Const(*c))),
                    Prim::ConstBool(_) | Prim::FillLike(_) | Prim::External(_) => (None, None),
                    $(Prim::$name => ($f, $i),)*
                }
            }
        }
    };
}

prims! {
    // variant = tag, (ins, outs), flops per element, f64 kernel, i64 kernel;

    // --- data movement ---------------------------------------------------
    /// Unary identity (copy).
    Id = "id", (1, 1), 0.0, Some(Un(so::id_f64)), Some(Un(so::id_i64));

    // --- unary float math ------------------------------------------------
    /// Negation.
    Neg = "neg", (1, 1), 1.0, Some(Un(so::neg_f64)), None;
    /// Absolute value.
    Abs = "abs", (1, 1), 1.0, Some(Un(so::abs_f64)), None;
    /// Exponential.
    Exp = "exp", (1, 1), 10.0, Some(Un(so::exp_f64)), None;
    /// Natural logarithm.
    Ln = "ln", (1, 1), 10.0, Some(Un(so::ln_f64)), None;
    /// Square root.
    Sqrt = "sqrt", (1, 1), 6.0, Some(Un(so::sqrt_f64)), None;
    /// Square.
    Square = "square", (1, 1), 1.0, Some(Un(so::square_f64)), None;
    /// Logistic sigmoid.
    Sigmoid = "sigmoid", (1, 1), 10.0, Some(Un(so::sigmoid_f64)), None;
    /// Stable `log(1+exp(x))`.
    Softplus = "softplus", (1, 1), 10.0, Some(Un(so::softplus_f64)), None;
    /// Floor.
    Floor = "floor", (1, 1), 1.0, Some(Un(so::floor_f64)), None;
    /// Sine.
    Sin = "sin", (1, 1), 10.0, Some(Un(so::sin_f64)), None;
    /// Cosine.
    Cos = "cos", (1, 1), 10.0, Some(Un(so::cos_f64)), None;
    /// Hyperbolic tangent.
    Tanh = "tanh", (1, 1), 10.0, Some(Un(so::tanh_f64)), None;
    /// Integer negation.
    NegI = "negi", (1, 1), 1.0, None, Some(Un(so::neg_i64));
    /// Boolean NOT.
    Not = "not", (1, 1), 1.0, None, None;

    // --- binary math (same-dtype, broadcasting) --------------------------
    /// Addition.
    Add = "add", (2, 1), 1.0, Some(Bin(so::add_f64)), Some(Bin(so::add_i64));
    /// Subtraction.
    Sub = "sub", (2, 1), 1.0, Some(Bin(so::sub_f64)), Some(Bin(so::sub_i64));
    /// Multiplication.
    Mul = "mul", (2, 1), 1.0, Some(Bin(so::mul_f64)), Some(Bin(so::mul_i64));
    /// Division.
    Div = "div", (2, 1), 4.0, Some(Bin(so::div_f64)), Some(Bin(so::div_i64));
    /// Power.
    Pow = "pow", (2, 1), 10.0, Some(Bin(so::pow_f64)), Some(Bin(so::pow_i64));
    /// Elementwise minimum.
    Min2 = "min2", (2, 1), 1.0, Some(Bin(so::min2_f64)), Some(Bin(so::min2_i64));
    /// Elementwise maximum.
    Max2 = "max2", (2, 1), 1.0, Some(Bin(so::max2_f64)), Some(Bin(so::max2_i64));

    // --- comparisons (result bool) ----------------------------------------
    /// Less-than.
    Lt = "lt", (2, 1), 1.0, None, None;
    /// Less-or-equal.
    Le = "le", (2, 1), 1.0, None, None;
    /// Greater-than.
    Gt = "gt", (2, 1), 1.0, None, None;
    /// Greater-or-equal.
    Ge = "ge", (2, 1), 1.0, None, None;
    /// Equality.
    EqE = "eqe", (2, 1), 1.0, None, None;
    /// Inequality.
    NeE = "nee", (2, 1), 1.0, None, None;

    // --- boolean ----------------------------------------------------------
    /// Logical AND.
    And = "and", (2, 1), 1.0, None, None;
    /// Logical OR.
    Or = "or", (2, 1), 1.0, None, None;
    /// Logical XOR.
    Xor = "xor", (2, 1), 1.0, None, None;

    // --- ternary ----------------------------------------------------------
    /// `select(cond, a, b)`.
    Select = "select", (3, 1), 1.0, None, None;

    // --- casts ------------------------------------------------------------
    /// Cast to `f64`.
    ToF64 = "tof64", (1, 1), 0.0, None, None;
    /// Cast to `i64`.
    ToI64 = "toi64", (1, 1), 0.0, None, None;
    /// Cast to `bool`.
    ToBool = "tobool", (1, 1), 0.0, None, None;

    // --- per-member reductions over the element axis ----------------------
    /// `[Z, d] → [Z]` sum of each member's elements.
    SumElems = "sumelems", (1, 1), 2.0, None, None;
    /// Binary dot product over the element axis: `[Z, d] × [Z, d] → [Z]`.
    Dot = "dot", (2, 1), 2.0, None, None;

    // --- counter-based RNG -------------------------------------------------
    /// `(rng: i64) → (u: f64, rng': i64)` with `u ~ Uniform[0, 1)`.
    RandUniform = "randuniform", (1, 2), 10.0, None, None;
    /// `(rng: i64) → (x: f64, rng': i64)` with `x ~ Normal(0, 1)`.
    RandNormal = "randnormal", (1, 2), 30.0, None, None;
    /// `(rng: i64) → (e: f64, rng': i64)` with `e ~ Exponential(1)`.
    RandExponential = "randexponential", (1, 2), 30.0, None, None;
    /// `(rng: i64, template) → (x, rng': i64)` with `x` shaped like
    /// `template`, i.i.d. standard normal entries.
    RandNormalLike = "randnormallike", (2, 2), 30.0, None, None;
}

impl Prim {
    /// An [`Prim::External`] primitive by kernel name.
    pub fn external(name: impl AsRef<str>) -> Prim {
        Prim::External(Arc::from(name.as_ref()))
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
        for p in Prim::ROWS {
            assert_eq!(p.kernel_tag(), format!("{p:?}").to_ascii_lowercase());
        }
    }

    #[test]
    fn flop_costs_are_nonnegative() {
        for p in Prim::ROWS.iter().chain([&Prim::external("x")]) {
            assert!(p.flops_per_element() >= 0.0, "{p:?}");
        }
    }

    #[test]
    fn external_equality_by_name() {
        assert_eq!(Prim::external("grad"), Prim::external("grad"));
        assert_ne!(Prim::external("grad"), Prim::external("logp"));
    }
}
