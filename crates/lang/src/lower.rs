//! Lowering from the surface AST to the [`lsab`](autobatch_ir::lsab) CFG
//! language — the job AutoGraph does for the paper's Python frontend.
//!
//! Structured `if`/`while` become the standard `Branch`/`Jump` block
//! encodings; expressions flatten into primitive ops on fresh
//! temporaries; user calls become `Call` ops (which the program-counter
//! lowering later turns into explicit stack discipline).
//!
//! Note that `&&` and `||` are *strict* (both sides evaluate): in a
//! batched semantics every operand is computed for the whole batch
//! anyway, so short-circuiting would buy nothing and complicate the CFG.

use std::collections::BTreeMap;

use autobatch_ir::build::{FunctionBuilder, ProgramBuilder};
use autobatch_ir::{lsab, FuncId, Prim, Var};

use crate::ast::*;
use crate::error::{LangError, Result};
use crate::parser::parse;
use crate::types::{check_module, Tables, TypeEnv, RNG_SCALAR, UNARY_MATH};

/// Compile surface source text into a validated [`lsab::Program`] with
/// `entry` as the entry function.
///
/// # Errors
///
/// Returns lexing/parsing/type errors with positions, or an unknown-entry
/// error.
///
/// # Examples
///
/// ```
/// let src = "
///     fn double(x: float) -> (y: float) {
///         y = x + x;
///     }
/// ";
/// let program = autobatch_lang::compile(src, "double")?;
/// assert_eq!(program.funcs.len(), 1);
/// # Ok::<(), autobatch_lang::LangError>(())
/// ```
pub fn compile(src: &str, entry: &str) -> Result<lsab::Program> {
    let module = parse(src)?;
    compile_module(&module, entry)
}

/// Compile an already-parsed module.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_module(module: &Module, entry: &str) -> Result<lsab::Program> {
    let tables = check_module(module)?;
    let mut pb = ProgramBuilder::new();
    let mut fn_ids: BTreeMap<String, FuncId> = BTreeMap::new();
    for f in &module.fns {
        let params: Vec<&str> = f.params.iter().map(|b| b.name.as_str()).collect();
        let outputs: Vec<&str> = f.outputs.iter().map(|b| b.name.as_str()).collect();
        fn_ids.insert(f.name.clone(), pb.declare(&f.name, &params, &outputs));
    }
    let entry_id = *fn_ids.get(entry).ok_or_else(|| {
        LangError::new(
            format!("entry function `{entry}` not found"),
            Default::default(),
        )
    })?;
    let ctx = Ctx {
        tables: &tables,
        fn_ids: &fn_ids,
    };
    for f in &module.fns {
        let mut err: Option<LangError> = None;
        pb.define(fn_ids[&f.name], |fb| {
            let mut env: TypeEnv = TypeEnv::new();
            for b in f.params.iter().chain(&f.outputs) {
                env.insert(b.name.clone(), b.ty);
            }
            if let Err(e) = lower_block(&ctx, fb, &f.body, &mut env) {
                err = Some(e);
                fb.ret(); // keep the builder well-formed for the error path
                return;
            }
            fb.ret();
        });
        if let Some(e) = err {
            return Err(e);
        }
    }
    pb.finish(entry_id).map_err(|e| {
        LangError::new(
            format!("internal lowering produced invalid IR: {e}"),
            Default::default(),
        )
    })
}

struct Ctx<'a> {
    tables: &'a Tables,
    fn_ids: &'a BTreeMap<String, FuncId>,
}

fn lower_block(
    ctx: &Ctx<'_>,
    fb: &mut FunctionBuilder,
    stmts: &[Stmt],
    env: &mut TypeEnv,
) -> Result<()> {
    for s in stmts {
        match s {
            Stmt::Let { names, value, .. } | Stmt::Assign { names, value, .. } => {
                let is_let = matches!(s, Stmt::Let { .. });
                if names.len() == 1 {
                    let (v, ty) = lower_expr(ctx, fb, env, value)?;
                    fb.copy(&Var::new(&names[0]), &v);
                    if is_let {
                        env.insert(names[0].clone(), ty);
                    }
                } else {
                    let tys = lower_multi_call(ctx, fb, env, names, value)?;
                    if is_let {
                        for (n, t) in names.iter().zip(tys) {
                            env.insert(n.clone(), t);
                        }
                    }
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let (c, _) = lower_expr(ctx, fb, env, cond)?;
                let tb = fb.new_block();
                let eb = fb.new_block();
                let join = fb.new_block();
                fb.branch(&c, tb, eb);
                fb.switch_to(tb);
                let mut tenv = env.clone();
                lower_block(ctx, fb, then_blk, &mut tenv)?;
                fb.jump(join);
                fb.switch_to(eb);
                let mut eenv = env.clone();
                lower_block(ctx, fb, else_blk, &mut eenv)?;
                fb.jump(join);
                fb.switch_to(join);
            }
            Stmt::While { cond, body, .. } => {
                let hb = fb.new_block();
                let bb = fb.new_block();
                let xb = fb.new_block();
                fb.jump(hb);
                fb.switch_to(hb);
                let (c, _) = lower_expr(ctx, fb, env, cond)?;
                fb.branch(&c, bb, xb);
                fb.switch_to(bb);
                let mut benv = env.clone();
                lower_block(ctx, fb, body, &mut benv)?;
                fb.jump(hb);
                fb.switch_to(xb);
            }
        }
    }
    Ok(())
}

/// Lower a multi-output call statement into the named target variables.
fn lower_multi_call(
    ctx: &Ctx<'_>,
    fb: &mut FunctionBuilder,
    env: &mut TypeEnv,
    names: &[String],
    value: &Expr,
) -> Result<Vec<Ty>> {
    let Expr::Call { name, args, pos } = value else {
        return Err(LangError::new(
            "only calls can bind multiple values".to_string(),
            value.pos(),
        ));
    };
    let mut arg_vars = Vec::with_capacity(args.len());
    let mut arg_tys = Vec::with_capacity(args.len());
    for a in args {
        let (v, t) = lower_expr(ctx, fb, env, a)?;
        arg_vars.push(v);
        arg_tys.push(t);
    }
    let sig = ctx.tables.call_signature(name, &arg_tys, *pos)?;
    let outs: Vec<Var> = names.iter().map(Var::new).collect();
    if let Some(fid) = ctx.fn_ids.get(name) {
        fb.call_into(&outs, *fid, &arg_vars);
    } else if ctx.tables.externs.contains_key(name) {
        fb.assign_multi(&outs, Prim::external(name), &arg_vars);
    } else {
        let prim = match name.as_str() {
            "uniform" => Prim::RandUniform,
            "normal" => Prim::RandNormal,
            "exponential" => Prim::RandExponential,
            "normal_like" => Prim::RandNormalLike,
            other => {
                return Err(LangError::new(
                    format!("`{other}` is not multi-valued"),
                    *pos,
                ))
            }
        };
        fb.assign_multi(&outs, prim, &arg_vars);
    }
    Ok(sig.outputs)
}

/// Lower an expression, returning the variable holding it and its type.
fn lower_expr(
    ctx: &Ctx<'_>,
    fb: &mut FunctionBuilder,
    env: &TypeEnv,
    e: &Expr,
) -> Result<(Var, Ty)> {
    match e {
        Expr::Int(v, _) => Ok((fb.const_i64(*v), Ty::Int)),
        Expr::Float(v, _) => Ok((fb.const_f64(*v), Ty::Float)),
        Expr::Bool(v, _) => Ok((fb.const_bool(*v), Ty::Bool)),
        Expr::Var(name, pos) => {
            let ty = env
                .get(name)
                .copied()
                .ok_or_else(|| LangError::new(format!("unknown variable `{name}`"), *pos))?;
            Ok((Var::new(name), ty))
        }
        Expr::Unary { op, expr, pos } => {
            let (v, t) = lower_expr(ctx, fb, env, expr)?;
            let (prim, ty) = match (op, t) {
                (UnOp::Neg, Ty::Int) => (Prim::NegI, Ty::Int),
                (UnOp::Neg, Ty::Float) => (Prim::Neg, Ty::Float),
                (UnOp::Neg, Ty::Vec) => (Prim::Neg, Ty::Vec),
                (UnOp::Not, Ty::Bool) => (Prim::Not, Ty::Bool),
                _ => {
                    return Err(LangError::new(
                        format!("operator `{op:?}` cannot take {t}"),
                        *pos,
                    ))
                }
            };
            Ok((fb.emit(prim, &[v]), ty))
        }
        Expr::Binary { op, lhs, rhs, pos } => {
            let (a, ta) = lower_expr(ctx, fb, env, lhs)?;
            let (b, tb) = lower_expr(ctx, fb, env, rhs)?;
            let ty = crate::types::binary_type(*op, ta, tb, *pos)?;
            let prim = match op {
                BinOp::Add => Prim::Add,
                BinOp::Sub => Prim::Sub,
                BinOp::Mul => Prim::Mul,
                BinOp::Div => Prim::Div,
                BinOp::Lt => Prim::Lt,
                BinOp::Le => Prim::Le,
                BinOp::Gt => Prim::Gt,
                BinOp::Ge => Prim::Ge,
                BinOp::Eq => Prim::EqE,
                BinOp::Ne => Prim::NeE,
                BinOp::And => Prim::And,
                BinOp::Or => Prim::Or,
            };
            Ok((fb.emit(prim, &[a, b]), ty))
        }
        Expr::Call { name, args, pos } => {
            let mut arg_vars = Vec::with_capacity(args.len());
            let mut arg_tys = Vec::with_capacity(args.len());
            for a in args {
                let (v, t) = lower_expr(ctx, fb, env, a)?;
                arg_vars.push(v);
                arg_tys.push(t);
            }
            let sig = ctx.tables.call_signature(name, &arg_tys, *pos)?;
            let [out_ty] = sig.outputs.as_slice() else {
                return Err(LangError::new(
                    format!("`{name}` returns multiple values; bind with `let (..)`"),
                    *pos,
                ));
            };
            if let Some(fid) = ctx.fn_ids.get(name) {
                let outs = fb.call(*fid, &arg_vars, 1);
                return Ok((outs.into_iter().next().expect("one output"), *out_ty));
            }
            if ctx.tables.externs.contains_key(name) {
                return Ok((fb.emit(Prim::external(name), &arg_vars), *out_ty));
            }
            let prim = builtin_prim(name, &arg_tys)
                .ok_or_else(|| LangError::new(format!("unknown function `{name}`"), *pos))?;
            Ok((fb.emit(prim, &arg_vars), *out_ty))
        }
    }
}

/// Map a single-output builtin to its primitive.
fn builtin_prim(name: &str, args: &[Ty]) -> Option<Prim> {
    if UNARY_MATH.contains(&name) {
        // A unary math builtin is named by its primitive's kernel tag.
        return Prim::ROWS.iter().find(|p| p.kernel_tag() == name).cloned();
    }
    if RNG_SCALAR.contains(&name) || name == "normal_like" {
        return None; // multi-valued; handled at statement level
    }
    Some(match name {
        "min" => Prim::Min2,
        "max" => Prim::Max2,
        "pow" => Prim::Pow,
        "select" => Prim::Select,
        "dot" => Prim::Dot,
        "sum" => Prim::SumElems,
        "zeros_like" => Prim::FillLike(0.0),
        "float" => Prim::ToF64,
        "int" => Prim::ToI64,
        "bool" => Prim::ToBool,
        _ => {
            let _ = args;
            return None;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_fibonacci_to_valid_ir() {
        let src = "
            fn fibonacci(n: int) -> (out: int) {
                if n <= 1 { out = 1; }
                else {
                    let left = fibonacci(n - 2);
                    let right = fibonacci(n - 1);
                    out = left + right;
                }
            }
        ";
        let p = compile(src, "fibonacci").unwrap();
        p.validate().unwrap();
        assert_eq!(p.funcs[0].name, "fibonacci");
    }

    #[test]
    fn unknown_entry_is_error() {
        let err = compile("fn f(x: int) -> (y: int) { y = x; }", "main").unwrap_err();
        assert!(err.message.contains("entry"));
    }

    #[test]
    fn while_and_externs_compile() {
        let src = "
            extern grad(vec) -> (vec);
            fn steps(q: vec, n: int, eps: float) -> (out: vec) {
                let i = 0;
                out = q;
                while i < n {
                    out = out + eps * grad(out);
                    i = i + 1;
                }
            }
        ";
        let p = compile(src, "steps").unwrap();
        p.validate().unwrap();
    }

    #[test]
    fn multi_output_functions_compile() {
        let src = "
            fn divmod(a: int, b: int) -> (q: int, r: int) {
                q = a / b;
                r = a - q * b;
            }
            fn main(a: int, b: int) -> (s: int) {
                let (q, r) = divmod(a, b);
                s = q + r;
            }
        ";
        let p = compile(src, "main").unwrap();
        p.validate().unwrap();
        assert_eq!(p.funcs.len(), 2);
    }

    #[test]
    fn every_unary_math_builtin_is_a_unary_float_map() {
        use autobatch_ir::ScalarKernel;
        for name in UNARY_MATH {
            let prim = builtin_prim(name, &[Ty::Float]).expect("a row is tagged by the name");
            assert!(
                matches!(prim.scalar_kernels(), (Some(ScalarKernel::Un(_)), None)),
                "{name}"
            );
        }
    }

    #[test]
    fn pow_builtin_compiles_and_types() {
        let p = compile(
            "fn f(x: float, q: vec) -> (r: float) { r = pow(x, 2.0) + sum(pow(q, 0.5)); }",
            "f",
        )
        .unwrap();
        p.validate().unwrap();
        // Int exponents are rejected (cast explicitly).
        assert!(compile("fn f(x: float) -> (r: float) { r = pow(x, 2); }", "f").is_err());
    }

    #[test]
    fn rng_statement_compiles() {
        let src = "
            fn draw(rng: int) -> (x: float, rng_out: int) {
                let (u, r1) = uniform(rng);
                let (g, r2) = normal(r1);
                x = u + g;
                rng_out = r2;
            }
        ";
        let p = compile(src, "draw").unwrap();
        p.validate().unwrap();
    }

    #[test]
    fn type_error_positions_survive_compile() {
        let err = compile("fn f(x: int) -> (y: float) { y = x + 1.0; }", "f").unwrap_err();
        assert_eq!(err.pos.line, 1);
    }
}
