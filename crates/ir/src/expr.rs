//! Pure value expressions evaluated by the simulators.
//!
//! Expressions are side-effect free: every hardware-visible action (FIFO and
//! AXI accesses, array stores, output writes) is an [`crate::Op`], never an
//! expression. Values are 64-bit signed integers, which is sufficient to model
//! the integer/fixed-point arithmetic of the paper's benchmark designs.

use crate::ids::VarId;
use std::fmt;

/// Binary operators available in [`Expr::Binary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    Min,
    Max,
}

/// Unary operators available in [`Expr::Unary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
    LogicalNot,
}

/// A pure expression over module-local variables.
///
/// # Example
///
/// ```
/// use omnisim_ir::expr::Expr;
/// use omnisim_ir::ids::VarId;
///
/// let e = Expr::var(VarId(0)).mul(Expr::imm(2)).add(Expr::imm(1));
/// assert_eq!(e.eval(&|_| 10), 21);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A constant value.
    Const(i64),
    /// The current value of a module-local variable.
    Var(VarId),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Selects between two expressions based on a condition (`cond ? a : b`).
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Creates a constant expression.
    pub fn imm(value: i64) -> Self {
        Expr::Const(value)
    }

    /// Creates a variable reference expression.
    pub fn var(id: VarId) -> Self {
        Expr::Var(id)
    }

    /// Builds a select expression `self ? if_true : if_false`.
    pub fn select(self, if_true: Expr, if_false: Expr) -> Self {
        Expr::Select(Box::new(self), Box::new(if_true), Box::new(if_false))
    }

    /// Evaluates the expression with `lookup` providing variable values.
    ///
    /// Division and remainder by zero evaluate to zero, mirroring the
    /// "defined but meaningless" behaviour a hardware divider would exhibit
    /// instead of trapping.
    pub fn eval(&self, lookup: &impl Fn(VarId) -> i64) -> i64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Var(id) => lookup(*id),
            Expr::Unary(op, a) => {
                let a = a.eval(lookup);
                match op {
                    UnOp::Neg => a.wrapping_neg(),
                    UnOp::Not => !a,
                    UnOp::LogicalNot => i64::from(a == 0),
                }
            }
            Expr::Binary(op, a, b) => {
                let a = a.eval(lookup);
                let b = b.eval(lookup);
                match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Shl => a.wrapping_shl(b as u32 & 63),
                    BinOp::Shr => a.wrapping_shr(b as u32 & 63),
                    BinOp::Lt => i64::from(a < b),
                    BinOp::Le => i64::from(a <= b),
                    BinOp::Gt => i64::from(a > b),
                    BinOp::Ge => i64::from(a >= b),
                    BinOp::Eq => i64::from(a == b),
                    BinOp::Ne => i64::from(a != b),
                    BinOp::Min => a.min(b),
                    BinOp::Max => a.max(b),
                }
            }
            Expr::Select(c, t, f) => {
                if c.eval(lookup) != 0 {
                    t.eval(lookup)
                } else {
                    f.eval(lookup)
                }
            }
        }
    }

    /// Collects every variable referenced by this expression into `out`.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(id) => out.push(*id),
            Expr::Unary(_, a) => a.collect_vars(out),
            Expr::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Select(c, t, f) => {
                c.collect_vars(out);
                t.collect_vars(out);
                f.collect_vars(out);
            }
        }
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }
}

macro_rules! expr_method {
    ($(#[$doc:meta])* $name:ident, $op:ident) => {
        impl Expr {
            $(#[$doc])*
            // The names deliberately mirror `std::ops` — this is a builder
            // DSL producing IR nodes, not an arithmetic implementation.
            #[allow(clippy::should_implement_trait)]
            pub fn $name(self, rhs: Expr) -> Expr {
                Expr::bin(BinOp::$op, self, rhs)
            }
        }
    };
}

expr_method!(
    /// Builds `self + rhs`.
    add, Add
);
expr_method!(
    /// Builds `self - rhs`.
    sub, Sub
);
expr_method!(
    /// Builds `self * rhs`.
    mul, Mul
);
expr_method!(
    /// Builds `self / rhs` (zero when `rhs` is zero).
    div, Div
);
expr_method!(
    /// Builds `self % rhs` (zero when `rhs` is zero).
    rem, Rem
);
expr_method!(
    /// Builds the bitwise AND of the operands.
    bitand, And
);
expr_method!(
    /// Builds the bitwise OR of the operands.
    bitor, Or
);
expr_method!(
    /// Builds the bitwise XOR of the operands.
    bitxor, Xor
);
expr_method!(
    /// Builds `self << rhs`.
    shl, Shl
);
expr_method!(
    /// Builds `self >> rhs` (arithmetic shift).
    shr, Shr
);
expr_method!(
    /// Builds the comparison `self < rhs` (1 or 0).
    lt, Lt
);
expr_method!(
    /// Builds the comparison `self <= rhs` (1 or 0).
    le, Le
);
expr_method!(
    /// Builds the comparison `self > rhs` (1 or 0).
    gt, Gt
);
expr_method!(
    /// Builds the comparison `self >= rhs` (1 or 0).
    ge, Ge
);
expr_method!(
    /// Builds the comparison `self == rhs` (1 or 0).
    eq, Eq
);
expr_method!(
    /// Builds the comparison `self != rhs` (1 or 0).
    ne, Ne
);
expr_method!(
    /// Builds `min(self, rhs)`.
    min, Min
);
expr_method!(
    /// Builds `max(self, rhs)`.
    max, Max
);

impl Expr {
    /// Builds the arithmetic negation of this expression.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(self))
    }

    /// Builds the logical negation (`== 0`) of this expression.
    pub fn logical_not(self) -> Expr {
        Expr::Unary(UnOp::LogicalNot, Box::new(self))
    }
}

impl From<i64> for Expr {
    fn from(value: i64) -> Self {
        Expr::Const(value)
    }
}

impl From<VarId> for Expr {
    fn from(value: VarId) -> Self {
        Expr::Var(value)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(id) => write!(f, "{id}"),
            Expr::Unary(op, a) => write!(f, "({op:?} {a})"),
            Expr::Binary(op, a, b) => write!(f, "({a} {op:?} {b})"),
            Expr::Select(c, t, e) => write!(f, "({c} ? {t} : {e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(vals: &[i64]) -> impl Fn(VarId) -> i64 + '_ {
        move |id: VarId| vals[id.index()]
    }

    #[test]
    fn arithmetic_evaluation() {
        let e = Expr::var(VarId(0))
            .add(Expr::imm(3))
            .mul(Expr::var(VarId(1)));
        assert_eq!(e.eval(&env(&[2, 4])), 20);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(Expr::imm(5).div(Expr::imm(0)).eval(&env(&[])), 0);
        assert_eq!(Expr::imm(5).rem(Expr::imm(0)).eval(&env(&[])), 0);
    }

    #[test]
    fn comparisons_produce_booleans() {
        assert_eq!(Expr::imm(1).lt(Expr::imm(2)).eval(&env(&[])), 1);
        assert_eq!(Expr::imm(3).lt(Expr::imm(2)).eval(&env(&[])), 0);
        assert_eq!(Expr::imm(3).eq(Expr::imm(3)).eval(&env(&[])), 1);
    }

    #[test]
    fn select_behaves_like_ternary() {
        let e = Expr::var(VarId(0)).select(Expr::imm(10), Expr::imm(20));
        assert_eq!(e.eval(&env(&[1])), 10);
        assert_eq!(e.eval(&env(&[0])), 20);
    }

    #[test]
    fn logical_not() {
        assert_eq!(Expr::imm(0).logical_not().eval(&env(&[])), 1);
        assert_eq!(Expr::imm(7).logical_not().eval(&env(&[])), 0);
    }

    #[test]
    fn min_max_and_shifts() {
        assert_eq!(Expr::imm(3).min(Expr::imm(9)).eval(&env(&[])), 3);
        assert_eq!(Expr::imm(3).max(Expr::imm(9)).eval(&env(&[])), 9);
        assert_eq!(Expr::imm(1).shl(Expr::imm(4)).eval(&env(&[])), 16);
        assert_eq!(Expr::imm(-16).shr(Expr::imm(2)).eval(&env(&[])), -4);
    }

    #[test]
    fn collect_vars_lists_every_reference() {
        let e = Expr::var(VarId(0))
            .add(Expr::var(VarId(2)))
            .select(Expr::var(VarId(1)), Expr::imm(0));
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        vars.sort();
        assert_eq!(vars, vec![VarId(0), VarId(1), VarId(2)]);
    }

    #[test]
    fn wrapping_semantics() {
        let e = Expr::imm(i64::MAX).add(Expr::imm(1));
        assert_eq!(e.eval(&env(&[])), i64::MIN);
    }
}
