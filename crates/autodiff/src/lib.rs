//! # autobatch-autodiff
//!
//! A compact reverse-mode automatic differentiation tape over
//! [`Tensor`]s, used to derive and cross-check the gradients of the
//! target log-densities in `autobatch-models` (the NUTS workloads of the
//! paper's §4 evaluation).
//!
//! The tape covers exactly the operation vocabulary those densities
//! need: elementwise arithmetic, `dot`/`sum` reductions, `matvec` against
//! constant matrices, and the usual scalar nonlinearities. Values are
//! tensors of shape `[d]` (vectors) or `[]` (scalars); `backward` seeds
//! the output with 1 and accumulates adjoints by the standard reverse
//! sweep.
//!
//! # Examples
//!
//! ```
//! use autobatch_autodiff::Tape;
//! use autobatch_tensor::Tensor;
//!
//! // f(x) = x · x  ⇒  ∇f = 2x
//! let mut tape = Tape::new();
//! let x = tape.input(Tensor::from_f64(&[1.0, 2.0, 3.0], &[3])?);
//! let y = tape.dot(x, x)?;
//! let grads = tape.backward(y)?;
//! assert_eq!(grads[&x].as_f64()?, &[2.0, 4.0, 6.0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;

use autobatch_tensor::{Result, Tensor, TensorError};

/// Handle to a value on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

#[derive(Debug, Clone)]
enum Op {
    Input,
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Neg(NodeId),
    Scale(NodeId, f64),
    Dot(NodeId, NodeId),
    Sum(NodeId),
    MatVec(usize, NodeId),
    Exp(NodeId),
    Ln(NodeId),
    Sigmoid(NodeId),
    Softplus(NodeId),
    Square(NodeId),
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    value: Tensor,
}

/// A reverse-mode differentiation tape.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    consts: Vec<Tensor>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    fn push(&mut self, op: Op, value: Tensor) -> NodeId {
        self.nodes.push(Node { op, value });
        NodeId(self.nodes.len() - 1)
    }

    /// Register an input (differentiable leaf).
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(Op::Input, value)
    }

    /// Register a constant matrix for [`Tape::matvec`].
    pub fn constant_matrix(&mut self, m: Tensor) -> usize {
        self.consts.push(m);
        self.consts.len() - 1
    }

    /// Elementwise `a + b`.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let v = self.value(a).add(self.value(b))?;
        Ok(self.push(Op::Add(a, b), v))
    }

    /// Elementwise `a - b`.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let v = self.value(a).sub(self.value(b))?;
        Ok(self.push(Op::Sub(a, b), v))
    }

    /// Elementwise `a * b`.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let v = self.value(a).mul(self.value(b))?;
        Ok(self.push(Op::Mul(a, b), v))
    }

    /// Elementwise negation.
    ///
    /// # Errors
    ///
    /// Propagates dtype errors.
    pub fn neg(&mut self, a: NodeId) -> Result<NodeId> {
        let v = self.value(a).neg()?;
        Ok(self.push(Op::Neg(a), v))
    }

    /// `c * a` for a scalar constant `c`.
    ///
    /// # Errors
    ///
    /// Propagates dtype errors.
    pub fn scale(&mut self, a: NodeId, c: f64) -> Result<NodeId> {
        let v = self.value(a).mul(&Tensor::scalar(c))?;
        Ok(self.push(Op::Scale(a, c), v))
    }

    /// Dot product over the whole vector: `[d] × [d] → []`.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn dot(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let s = self.value(a).mul(self.value(b))?.sum_all()?;
        Ok(self.push(Op::Dot(a, b), Tensor::scalar(s)))
    }

    /// Sum of all elements: `[d] → []`.
    ///
    /// # Errors
    ///
    /// Propagates dtype errors.
    pub fn sum(&mut self, a: NodeId) -> Result<NodeId> {
        let s = self.value(a).sum_all()?;
        Ok(self.push(Op::Sum(a), Tensor::scalar(s)))
    }

    /// `M · a` for a registered constant matrix.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn matvec(&mut self, m: usize, a: NodeId) -> Result<NodeId> {
        let v = self.consts[m].matvec(self.value(a))?;
        Ok(self.push(Op::MatVec(m, a), v))
    }

    /// Elementwise exponential.
    ///
    /// # Errors
    ///
    /// Propagates dtype errors.
    pub fn exp(&mut self, a: NodeId) -> Result<NodeId> {
        let v = self.value(a).exp()?;
        Ok(self.push(Op::Exp(a), v))
    }

    /// Elementwise natural log.
    ///
    /// # Errors
    ///
    /// Propagates dtype errors.
    pub fn ln(&mut self, a: NodeId) -> Result<NodeId> {
        let v = self.value(a).ln()?;
        Ok(self.push(Op::Ln(a), v))
    }

    /// Elementwise logistic sigmoid.
    ///
    /// # Errors
    ///
    /// Propagates dtype errors.
    pub fn sigmoid(&mut self, a: NodeId) -> Result<NodeId> {
        let v = self.value(a).sigmoid()?;
        Ok(self.push(Op::Sigmoid(a), v))
    }

    /// Elementwise stable `log(1 + exp(x))`.
    ///
    /// # Errors
    ///
    /// Propagates dtype errors.
    pub fn softplus(&mut self, a: NodeId) -> Result<NodeId> {
        let v = self.value(a).softplus()?;
        Ok(self.push(Op::Softplus(a), v))
    }

    /// Elementwise square.
    ///
    /// # Errors
    ///
    /// Propagates dtype errors.
    pub fn square(&mut self, a: NodeId) -> Result<NodeId> {
        let v = self.value(a).square()?;
        Ok(self.push(Op::Square(a), v))
    }

    /// Reverse sweep from a scalar output; returns adjoints of all
    /// [`Tape::input`] nodes.
    ///
    /// # Errors
    ///
    /// Returns an error if `output` is not scalar (single-element) or on
    /// shape violations during accumulation.
    pub fn backward(&self, output: NodeId) -> Result<BTreeMap<NodeId, Tensor>> {
        if self.value(output).len() != 1 {
            return Err(TensorError::DataLength {
                expected: 1,
                got: self.value(output).len(),
            });
        }
        let mut adj: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        adj[output.0] = Some(Tensor::full(self.value(output).shape(), 1.0));
        for i in (0..self.nodes.len()).rev() {
            let Some(g) = adj[i].clone() else { continue };
            match &self.nodes[i].op {
                Op::Input => {}
                Op::Add(a, b) => {
                    accumulate(&mut adj, *a, reduce_to(&g, self.value(*a))?)?;
                    accumulate(&mut adj, *b, reduce_to(&g, self.value(*b))?)?;
                }
                Op::Sub(a, b) => {
                    accumulate(&mut adj, *a, reduce_to(&g, self.value(*a))?)?;
                    accumulate(&mut adj, *b, reduce_to(&g.neg()?, self.value(*b))?)?;
                }
                Op::Mul(a, b) => {
                    let ga = g.mul(self.value(*b))?;
                    let gb = g.mul(self.value(*a))?;
                    accumulate(&mut adj, *a, reduce_to(&ga, self.value(*a))?)?;
                    accumulate(&mut adj, *b, reduce_to(&gb, self.value(*b))?)?;
                }
                Op::Neg(a) => accumulate(&mut adj, *a, g.neg()?)?,
                Op::Scale(a, c) => {
                    accumulate(&mut adj, *a, g.mul(&Tensor::scalar(*c))?)?;
                }
                Op::Dot(a, b) => {
                    let ga = self.value(*b).mul(&g)?;
                    let gb = self.value(*a).mul(&g)?;
                    accumulate(&mut adj, *a, ga)?;
                    accumulate(&mut adj, *b, gb)?;
                }
                Op::Sum(a) => {
                    let ones = Tensor::full(self.value(*a).shape(), 1.0);
                    accumulate(&mut adj, *a, ones.mul(&g)?)?;
                }
                Op::MatVec(m, a) => {
                    let ga = self.consts[*m].transpose()?.matvec(&g)?;
                    accumulate(&mut adj, *a, ga)?;
                }
                Op::Exp(a) => {
                    accumulate(&mut adj, *a, g.mul(&self.nodes[i].value)?)?;
                }
                Op::Ln(a) => {
                    let inv = Tensor::full(self.value(*a).shape(), 1.0).div(self.value(*a))?;
                    accumulate(&mut adj, *a, g.mul(&inv)?)?;
                }
                Op::Sigmoid(a) => {
                    let s = &self.nodes[i].value;
                    let one_minus = Tensor::full(s.shape(), 1.0).sub(s)?;
                    accumulate(&mut adj, *a, g.mul(&s.mul(&one_minus)?)?)?;
                }
                Op::Softplus(a) => {
                    let s = self.value(*a).sigmoid()?;
                    accumulate(&mut adj, *a, g.mul(&s)?)?;
                }
                Op::Square(a) => {
                    let two_a = self.value(*a).mul(&Tensor::scalar(2.0))?;
                    accumulate(&mut adj, *a, g.mul(&two_a)?)?;
                }
            }
        }
        let mut out = BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if matches!(node.op, Op::Input) {
                let grad = adj[i]
                    .clone()
                    .unwrap_or_else(|| Tensor::zeros(node.value.dtype(), node.value.shape()));
                out.insert(NodeId(i), grad);
            }
        }
        Ok(out)
    }
}

/// Reduce an adjoint to the shape of the primal value (reverses the
/// scalar ⊕ vector broadcasting the forward pass may have done).
fn reduce_to(g: &Tensor, like: &Tensor) -> Result<Tensor> {
    if g.shape() == like.shape() {
        return Ok(g.clone());
    }
    if like.len() == 1 {
        // Forward broadcast scalar → vector: reverse sums.
        return Tensor::scalar(g.sum_all()?).reshape(like.shape());
    }
    // Scalar adjoint flowing into a vector primal: spread it.
    Tensor::full(like.shape(), 1.0).mul(g)
}

fn accumulate(adj: &mut [Option<Tensor>], id: NodeId, g: Tensor) -> Result<()> {
    adj[id.0] = Some(match adj[id.0].take() {
        Some(prev) => prev.add(&g)?,
        None => g,
    });
    Ok(())
}

/// Central-difference numerical gradient of `f` at `x` (for tests).
///
/// # Panics
///
/// Panics if `x` is not `f64` or shapes change under perturbation.
pub fn finite_difference<F: Fn(&Tensor) -> f64>(f: F, x: &Tensor, eps: f64) -> Tensor {
    let base = x
        .as_f64()
        .expect("finite_difference needs f64 input")
        .to_vec();
    let mut grad = vec![0.0; base.len()];
    for i in 0..base.len() {
        let mut plus = base.clone();
        plus[i] += eps;
        let mut minus = base.clone();
        minus[i] -= eps;
        let fp = f(&Tensor::from_f64(&plus, x.shape()).expect("shape preserved"));
        let fm = f(&Tensor::from_f64(&minus, x.shape()).expect("shape preserved"));
        grad[i] = (fp - fm) / (2.0 * eps);
    }
    Tensor::from_f64(&grad, x.shape()).expect("shape preserved")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec3() -> Tensor {
        Tensor::from_f64(&[0.5, -1.0, 2.0], &[3]).unwrap()
    }

    #[test]
    fn quadratic_gradient() {
        let mut t = Tape::new();
        let x = t.input(vec3());
        let y = t.dot(x, x).unwrap();
        let g = t.backward(y).unwrap();
        assert_eq!(g[&x].as_f64().unwrap(), &[1.0, -2.0, 4.0]);
    }

    #[test]
    fn chain_rule_through_nonlinearities() {
        // f(x) = sum(sigmoid(2x)) — check against finite differences.
        let x0 = vec3();
        let f = |x: &Tensor| {
            let mut t = Tape::new();
            let x = t.input(x.clone());
            let s = t.scale(x, 2.0).unwrap();
            let s = t.sigmoid(s).unwrap();
            let y = t.sum(s).unwrap();
            t.value(y).item().unwrap().as_f64().unwrap()
        };
        let mut t = Tape::new();
        let x = t.input(x0.clone());
        let s = t.scale(x, 2.0).unwrap();
        let s = t.sigmoid(s).unwrap();
        let y = t.sum(s).unwrap();
        let g = t.backward(y).unwrap();
        let fd = finite_difference(f, &x0, 1e-6);
        for (a, b) in g[&x].as_f64().unwrap().iter().zip(fd.as_f64().unwrap()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn matvec_gradients() {
        // f(x) = (Mx)·(Mx); ∇f = 2 MᵀMx.
        let m = Tensor::from_f64(&[1.0, 2.0, 0.0, 1.0, -1.0, 1.0], &[2, 3]).unwrap();
        let x0 = vec3();
        let mut t = Tape::new();
        let mid = t.constant_matrix(m.clone());
        let x = t.input(x0.clone());
        let mx = t.matvec(mid, x).unwrap();
        let y = t.dot(mx, mx).unwrap();
        let g = t.backward(y).unwrap();
        let fd = finite_difference(
            |x| {
                let mx = m.matvec(x).unwrap();
                mx.mul(&mx).unwrap().sum_all().unwrap()
            },
            &x0,
            1e-6,
        );
        for (a, b) in g[&x].as_f64().unwrap().iter().zip(fd.as_f64().unwrap()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn mixed_graph_matches_finite_differences() {
        // f(x) = softplus(sum(x)) + 0.5·x·x
        let x0 = vec3();
        let build = |x0: &Tensor, t: &mut Tape| {
            let x = t.input(x0.clone());
            let s = t.sum(x).unwrap();
            let sp = t.softplus(s).unwrap();
            let q = t.dot(x, x).unwrap();
            let hq = t.scale(q, 0.5).unwrap();
            let y = t.add(sp, hq).unwrap();
            (x, y)
        };
        let mut t = Tape::new();
        let (x, y) = build(&x0, &mut t);
        let g = t.backward(y).unwrap();
        let fd = finite_difference(
            |x0| {
                let mut t = Tape::new();
                let (_, y) = build(x0, &mut t);
                t.value(y).item().unwrap().as_f64().unwrap()
            },
            &x0,
            1e-6,
        );
        for (a, b) in g[&x].as_f64().unwrap().iter().zip(fd.as_f64().unwrap()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn unused_input_gets_zero_gradient() {
        let mut t = Tape::new();
        let x = t.input(vec3());
        let z = t.input(vec3());
        let y = t.dot(x, x).unwrap();
        let g = t.backward(y).unwrap();
        assert_eq!(g[&z].as_f64().unwrap(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn non_scalar_output_rejected() {
        let mut t = Tape::new();
        let x = t.input(vec3());
        assert!(t.backward(x).is_err());
    }

    #[test]
    fn square_and_addconst() {
        // f(x) = sum((x + 1)²); ∇ = 2(x+1).
        let x0 = vec3();
        let mut t = Tape::new();
        let x = t.input(x0.clone());
        let one = t.input(Tensor::scalar(1.0));
        let p = t.add(x, one).unwrap();
        let sq = t.square(p).unwrap();
        let y = t.sum(sq).unwrap();
        let g = t.backward(y).unwrap();
        assert_eq!(g[&x].as_f64().unwrap(), &[3.0, 0.0, 6.0]);
    }

    #[test]
    fn fan_out_accumulates() {
        // y = x·x + sum(x): adjoints add across uses.
        let x0 = vec3();
        let mut t = Tape::new();
        let x = t.input(x0.clone());
        let d = t.dot(x, x).unwrap();
        let s = t.sum(x).unwrap();
        let y = t.add(d, s).unwrap();
        let g = t.backward(y).unwrap();
        assert_eq!(g[&x].as_f64().unwrap(), &[2.0, -1.0, 5.0]);
    }
}
