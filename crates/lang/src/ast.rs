//! Abstract syntax of the surface language.
//!
//! The language is deliberately the paper's implied source fragment: an
//! imperative, statically typed, first-order language with `if`/`else`,
//! `while`, multi-output functions, recursion, a small builtin
//! vocabulary (math, per-member vector ops, counter-based RNG), and
//! `extern` declarations for model kernels such as `grad`.

use crate::error::Pos;

/// A surface type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Per-member `f64` scalar.
    Float,
    /// Per-member `i64` scalar.
    Int,
    /// Per-member boolean.
    Bool,
    /// Per-member `f64` vector.
    Vec,
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ty::Float => write!(f, "float"),
            Ty::Int => write!(f, "int"),
            Ty::Bool => write!(f, "bool"),
            Ty::Vec => write!(f, "vec"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Boolean NOT.
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Pos),
    /// Float literal.
    Float(f64, Pos),
    /// Boolean literal.
    Bool(bool, Pos),
    /// Variable reference.
    Var(String, Pos),
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        expr: Box<Expr>,
        /// Position.
        pos: Pos,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Position.
        pos: Pos,
    },
    /// Call of a user function, builtin, or extern kernel.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Position.
        pos: Pos,
    },
}

impl Expr {
    /// The position of the expression.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::Int(_, p)
            | Expr::Float(_, p)
            | Expr::Bool(_, p)
            | Expr::Var(_, p)
            | Expr::Unary { pos: p, .. }
            | Expr::Binary { pos: p, .. }
            | Expr::Call { pos: p, .. } => *p,
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let x = e;` or `let (a, b) = f(..);`
    Let {
        /// Bound names (more than one for multi-output calls).
        names: Vec<String>,
        /// The initializer.
        value: Expr,
        /// Position.
        pos: Pos,
    },
    /// `x = e;` or `(a, b) = f(..);` on already-declared variables.
    Assign {
        /// Target names.
        names: Vec<String>,
        /// The value.
        value: Expr,
        /// Position.
        pos: Pos,
    },
    /// `if cond { .. } else { .. }`.
    If {
        /// Condition (scalar bool).
        cond: Expr,
        /// Then branch.
        then_blk: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_blk: Vec<Stmt>,
        /// Position.
        pos: Pos,
    },
    /// `while cond { .. }`.
    While {
        /// Condition (scalar bool).
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
        /// Position.
        pos: Pos,
    },
}

/// A named, typed binding (parameter or output).
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: Ty,
    /// Position.
    pub pos: Pos,
}

/// A function definition. Functions return by assigning their named
/// outputs; control falling off the end returns them.
#[derive(Debug, Clone, PartialEq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Binding>,
    /// Outputs.
    pub outputs: Vec<Binding>,
    /// Body.
    pub body: Vec<Stmt>,
    /// Position.
    pub pos: Pos,
}

/// An extern kernel declaration, e.g. `extern grad(vec) -> (vec);`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternDef {
    /// Kernel name (must be registered in the runtime's registry).
    pub name: String,
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Output types.
    pub outputs: Vec<Ty>,
    /// Position.
    pub pos: Pos,
}

/// A whole module: extern declarations plus function definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Extern kernels.
    pub externs: Vec<ExternDef>,
    /// Functions.
    pub fns: Vec<FnDef>,
}
