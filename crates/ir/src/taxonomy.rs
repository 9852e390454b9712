//! The paper's dataflow-design taxonomy (§3): Type A, B and C, and the
//! simulation-requirement levels L1–L3 they imply.
//!
//! * **Type A** — non-dataflow or blocking-only FIFO access, acyclic module
//!   dependencies, one possible behaviour per FIFO access. Functionality and
//!   performance simulation are both concurrency- and cycle-independent (L1).
//! * **Type B** — may use non-blocking accesses, infinite loops or cyclic
//!   dependencies, but program behaviour does not depend on the outcome of a
//!   non-blocking access. Functionality simulation needs multi-threading
//!   (L2); performance simulation needs exact hardware cycles (L3).
//! * **Type C** — as Type B, but the outcome of a non-blocking access changes
//!   program behaviour (drops, branches, state updates). Both simulations are
//!   concurrency- and cycle-dependent (L3).
//!
//! Type-A-versus-not classification is exact (it only needs syntactic
//! features). Distinguishing B from C requires knowing whether a non-blocking
//! outcome can change *observable* behaviour, which in general needs value
//! analysis; [`classify`] uses a conservative taint heuristic that matches the
//! hand labels of Table 4 for every design in the benchmark suite, and
//! designs may carry an explicit label where the heuristic is insufficient.

use crate::design::{Design, ModuleKind};
use crate::ids::{ModuleId, VarId};
use crate::op::{Op, Terminator};
use crate::validate::fifo_endpoints;
use std::collections::HashSet;
use std::fmt;

/// The design classes of the paper's taxonomy (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DesignClass {
    /// Blocking-only, acyclic, single-behaviour designs.
    TypeA,
    /// Non-blocking / cyclic / infinite-loop designs with a single behaviour
    /// per FIFO access.
    TypeB,
    /// Designs whose behaviour depends on non-blocking access outcomes.
    TypeC,
}

impl fmt::Display for DesignClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignClass::TypeA => write!(f, "A"),
            DesignClass::TypeB => write!(f, "B"),
            DesignClass::TypeC => write!(f, "C"),
        }
    }
}

/// Simulation requirement levels (Fig. 4, top row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimLevel {
    /// Concurrency-independent, cycle-independent.
    L1,
    /// Concurrency-dependent, cycle-independent.
    L2,
    /// Concurrency-dependent, cycle-dependent.
    L3,
}

impl fmt::Display for SimLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimLevel::L1 => write!(f, "L1"),
            SimLevel::L2 => write!(f, "L2"),
            SimLevel::L3 => write!(f, "L3"),
        }
    }
}

impl DesignClass {
    /// Functionality-simulation requirement level for this class.
    pub fn func_sim_level(self) -> SimLevel {
        match self {
            DesignClass::TypeA => SimLevel::L1,
            DesignClass::TypeB => SimLevel::L2,
            DesignClass::TypeC => SimLevel::L3,
        }
    }

    /// Performance-simulation requirement level for this class.
    pub fn perf_sim_level(self) -> SimLevel {
        match self {
            DesignClass::TypeA => SimLevel::L1,
            DesignClass::TypeB | DesignClass::TypeC => SimLevel::L3,
        }
    }
}

/// Structural features of a design relevant to the taxonomy, plus the
/// resulting classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaxonomyReport {
    /// The inferred design class.
    pub class: DesignClass,
    /// Number of modules (dataflow regions included).
    pub module_count: usize,
    /// Number of FIFO channels.
    pub fifo_count: usize,
    /// True if any non-blocking FIFO access or live status check exists.
    pub uses_nonblocking: bool,
    /// True if any blocking FIFO access exists.
    pub uses_blocking: bool,
    /// True if the dataflow task graph (producer → consumer edges) has a cycle.
    pub cyclic_dataflow: bool,
    /// True if any module contains a control-flow loop with no exit edge.
    pub has_infinite_loop: bool,
    /// True if a non-blocking outcome can (conservatively) influence
    /// observable behaviour: an ignored non-blocking write result, or taint
    /// reaching an output, an array store or a different FIFO.
    pub nb_outcome_affects_behavior: bool,
}

impl TaxonomyReport {
    /// Functionality-simulation level required by this design.
    pub fn func_sim_level(&self) -> SimLevel {
        self.class.func_sim_level()
    }

    /// Performance-simulation level required by this design.
    pub fn perf_sim_level(&self) -> SimLevel {
        self.class.perf_sim_level()
    }

    /// "B", "NB" or "B/NB" — the FIFO access style string used in Table 4.
    pub fn access_style(&self) -> &'static str {
        match (self.uses_blocking, self.uses_nonblocking) {
            (true, true) => "B/NB",
            (false, true) => "NB",
            _ => "B",
        }
    }
}

/// Classifies a design according to the paper's taxonomy.
pub fn classify(design: &Design) -> TaxonomyReport {
    let uses_nonblocking = design.modules.iter().any(|m| {
        m.blocks
            .iter()
            .any(|b| b.ops.iter().any(|s| s.op.is_nonblocking_fifo()))
    });
    let uses_blocking = design.modules.iter().any(|m| {
        m.blocks.iter().any(|b| {
            b.ops
                .iter()
                .any(|s| matches!(s.op, Op::FifoRead { .. } | Op::FifoWrite { .. }))
        })
    });
    let cyclic_dataflow = dataflow_graph_has_cycle(design);
    let has_infinite_loop = design
        .module_ids()
        .any(|m| module_has_infinite_loop(design, m));
    let nb_outcome_affects_behavior = design
        .module_ids()
        .any(|m| nb_outcome_observable(design, m));

    let class = if !uses_nonblocking && !cyclic_dataflow && !has_infinite_loop {
        DesignClass::TypeA
    } else if nb_outcome_affects_behavior {
        DesignClass::TypeC
    } else {
        DesignClass::TypeB
    };

    TaxonomyReport {
        class,
        module_count: design.modules.len(),
        fifo_count: design.fifos.len(),
        uses_nonblocking,
        uses_blocking,
        cyclic_dataflow,
        has_infinite_loop,
        nb_outcome_affects_behavior,
    }
}

/// True if the producer→consumer graph of the dataflow tasks has a cycle.
/// FIFO accesses inside called sub-functions run on the caller's thread, so
/// a callee's endpoints are attributed to every module that can reach it
/// through `Op::Call` — otherwise a cycle closed through a wrapped read
/// would go unseen.
pub fn dataflow_graph_has_cycle(design: &Design) -> bool {
    let endpoints = fifo_endpoints(design);
    let closures = crate::validate::call_closures(design);
    let n = design.modules.len();
    // owners[m] = modules whose call closure contains m.
    let mut owners = vec![Vec::new(); n];
    for (root, closure) in closures.iter().enumerate() {
        for m in closure {
            owners[m.index()].push(root);
        }
    }
    let mut adj = vec![Vec::new(); n];
    for (writers, readers) in &endpoints {
        for w in writers {
            for r in readers {
                for &wo in &owners[w.index()] {
                    for &ro in &owners[r.index()] {
                        if wo != ro {
                            adj[wo].push(ro);
                        }
                    }
                }
            }
        }
    }
    // Standard three-colour DFS cycle detection.
    #[derive(Clone, Copy, PartialEq)]
    enum C {
        White,
        Grey,
        Black,
    }
    fn dfs(v: usize, adj: &[Vec<usize>], colour: &mut [C]) -> bool {
        colour[v] = C::Grey;
        for &w in &adj[v] {
            match colour[w] {
                C::Grey => return true,
                C::White => {
                    if dfs(w, adj, colour) {
                        return true;
                    }
                }
                C::Black => {}
            }
        }
        colour[v] = C::Black;
        false
    }
    let mut colour = vec![C::White; n];
    (0..n).any(|v| colour[v] == C::White && dfs(v, &adj, &mut colour))
}

fn module_has_infinite_loop(design: &Design, mid: ModuleId) -> bool {
    let module = design.module(mid);
    if let ModuleKind::Dataflow { .. } = module.kind {
        return false;
    }
    // A block whose only successor is itself is an infinite loop
    // (`while (true)` with no break).
    module.blocks.iter().enumerate().any(|(i, b)| {
        let succ = b.terminator.successors();
        !succ.is_empty() && succ.iter().all(|s| s.index() == i)
    })
}

/// Conservative taint analysis: can the outcome of a non-blocking access
/// change what the module observably does?
fn nb_outcome_observable(design: &Design, mid: ModuleId) -> bool {
    let module = design.module(mid);
    if module.blocks.is_empty() {
        return false;
    }

    // An ignored non-blocking write result means data is silently dropped on
    // failure — functional behaviour depends on the outcome (Fig. 4 Ex. 4a).
    for block in &module.blocks {
        for sop in &block.ops {
            if let Op::FifoNbWrite { success: None, .. } = sop.op {
                return true;
            }
        }
    }

    // Collect directly tainted variables: results of NB accesses and checks.
    let mut tainted: HashSet<VarId> = HashSet::new();
    for block in &module.blocks {
        for sop in &block.ops {
            if let Some(v) = sop.op.nb_result_var() {
                tainted.insert(v);
            }
            if let Op::FifoNbRead { dst, .. } = sop.op {
                tainted.insert(dst);
            }
        }
    }
    if tainted.is_empty() {
        return false;
    }

    let expr_tainted = |expr: &crate::expr::Expr, tainted: &HashSet<VarId>| {
        let mut vars = Vec::new();
        expr.collect_vars(&mut vars);
        vars.iter().any(|v| tainted.contains(v))
    };

    // Propagate data taint through assignments to a fixed point, and detect
    // control taint (a branch whose condition is tainted).
    let mut control_tainted = false;
    loop {
        let mut changed = false;
        for block in &module.blocks {
            for sop in &block.ops {
                if let Op::Assign { dst, expr } = &sop.op {
                    if expr_tainted(expr, &tainted) && tainted.insert(*dst) {
                        changed = true;
                    }
                }
            }
            if let Terminator::Branch { cond, .. } = &block.terminator {
                if expr_tainted(cond, &tainted) {
                    control_tainted = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Coarse control-dependence: if a tainted branch exists, every variable
    // assigned in the module is potentially tainted.
    if control_tainted {
        for block in &module.blocks {
            for sop in &block.ops {
                if let Op::Assign { dst, .. } = sop.op {
                    tainted.insert(dst);
                }
            }
        }
    }

    // Observable sinks: outputs, array stores, and writes to a *different*
    // FIFO whose value or guard is tainted.
    for block in &module.blocks {
        for sop in &block.ops {
            match &sop.op {
                Op::Output { value, .. } if expr_tainted(value, &tainted) => {
                    return true;
                }
                Op::ArrayStore { index, value, .. }
                    if expr_tainted(index, &tainted) || expr_tainted(value, &tainted) =>
                {
                    return true;
                }
                _ => {}
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DesignBuilder;
    use crate::expr::Expr;

    fn type_a_design() -> Design {
        let mut d = DesignBuilder::new("a");
        let f = d.fifo("q", 2);
        let data = d.array("data", vec![1, 2, 3, 4]);
        let out = d.output("sum");
        let p = d.function("p", |m| {
            m.counted_loop("i", 4, 1, |b| {
                let i = b.var_expr("i");
                let v = b.array_load(data, i);
                b.fifo_write(f, Expr::var(v));
            });
        });
        let c = d.function("c", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, Expr::imm(0));
            });
            m.counted_loop("i", 4, 1, |b| {
                let v = b.fifo_read(f);
                b.assign(acc, Expr::var(acc).add(Expr::var(v)));
            });
            m.exit(|b| {
                b.output(out, Expr::var(acc));
            });
        });
        d.dataflow_top("top", [p, c]);
        d.build().unwrap()
    }

    #[test]
    fn blocking_acyclic_is_type_a() {
        let r = classify(&type_a_design());
        assert_eq!(r.class, DesignClass::TypeA);
        assert_eq!(r.func_sim_level(), SimLevel::L1);
        assert_eq!(r.perf_sim_level(), SimLevel::L1);
        assert!(!r.cyclic_dataflow);
        assert!(!r.uses_nonblocking);
        assert_eq!(r.access_style(), "B");
    }

    #[test]
    fn nb_retry_loop_is_type_b() {
        // Fig. 4 Ex. 2: producer retries a non-blocking write until it
        // succeeds; the data sequence does not depend on the outcome.
        let mut d = DesignBuilder::new("ex2ish");
        let f = d.fifo("q", 2);
        let done = d.fifo("done", 1);
        let data = d.array("data", vec![1, 2, 3, 4]);
        let out = d.output("sum");
        let p = d.function("p", |m| {
            let i = m.var("i");
            m.entry(|b| {
                b.assign(i, Expr::imm(0));
            });
            m.loop_block(1, |b| {
                let iv = Expr::var(b.var("i"));
                let v = b.array_load(data, iv.clone());
                let ok = b.fifo_nb_write(f, Expr::var(v));
                b.assign(i, Expr::var(ok).select(iv.clone().add(Expr::imm(1)), iv));
                let (_d, got) = b.fifo_nb_read(done);
                b.exit_loop_if(Expr::var(got));
            });
        });
        let c = d.function("c", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, Expr::imm(0));
            });
            m.counted_loop("i", 4, 1, |b| {
                let v = b.fifo_read(f);
                b.assign(acc, Expr::var(acc).add(Expr::var(v)));
            });
            m.exit(|b| {
                b.output(out, Expr::var(acc));
                b.fifo_write(done, Expr::imm(1));
            });
        });
        d.dataflow_top("top", [p, c]);
        let design = d.build().unwrap();
        let r = classify(&design);
        assert_eq!(r.class, DesignClass::TypeB);
        assert!(r.uses_nonblocking);
        assert!(r.cyclic_dataflow, "done signal feeds back to the producer");
    }

    #[test]
    fn dropped_write_is_type_c() {
        // Fig. 4 Ex. 4a: result of write_nb ignored, data silently dropped.
        let mut d = DesignBuilder::new("ex4aish");
        let f = d.fifo("q", 1);
        let data = d.array("data", vec![1, 2, 3, 4]);
        let out = d.output("sum");
        let p = d.function("p", |m| {
            m.counted_loop("i", 4, 1, |b| {
                let i = b.var_expr("i");
                let v = b.array_load(data, i);
                b.fifo_nb_write_ignored(f, Expr::var(v));
            });
        });
        let c = d.function("c", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, Expr::imm(0));
            });
            m.counted_loop("i", 4, 2, |b| {
                let (v, ok) = b.fifo_nb_read(f);
                b.assign(
                    acc,
                    Expr::var(ok).select(Expr::var(acc).add(Expr::var(v)), Expr::var(acc)),
                );
            });
            m.exit(|b| {
                b.output(out, Expr::var(acc));
            });
        });
        d.dataflow_top("top", [p, c]);
        let r = classify(&d.build().unwrap());
        assert_eq!(r.class, DesignClass::TypeC);
        assert_eq!(r.func_sim_level(), SimLevel::L3);
        assert_eq!(r.perf_sim_level(), SimLevel::L3);
    }

    #[test]
    fn counter_fed_by_nb_outcome_is_type_c() {
        // Fig. 4 Ex. 4b: an explicit drop counter is an output.
        let mut d = DesignBuilder::new("ex4bish");
        let f = d.fifo("q", 1);
        let dropped = d.output("dropped");
        let p = d.function("p", |m| {
            let n = m.var("n");
            m.entry(|b| {
                b.assign(n, Expr::imm(0));
            });
            m.counted_loop("i", 4, 1, |b| {
                let ok = b.fifo_nb_write(f, Expr::imm(1));
                b.assign(
                    n,
                    Expr::var(ok).select(Expr::var(n), Expr::var(n).add(Expr::imm(1))),
                );
            });
            m.exit(|b| {
                b.output(dropped, Expr::var(n));
            });
        });
        let c = d.function("c", |m| {
            m.counted_loop("i", 2, 1, |b| {
                let _ = b.fifo_read(f);
            });
        });
        d.dataflow_top("top", [p, c]);
        let r = classify(&d.build().unwrap());
        assert_eq!(r.class, DesignClass::TypeC);
    }

    #[test]
    fn cyclic_blocking_design_is_type_b() {
        // Fig. 4 Ex. 3: controller and processor exchange data through
        // blocking FIFOs, forming a cycle.
        let mut d = DesignBuilder::new("ex3ish");
        let req = d.fifo("req", 2);
        let resp = d.fifo("resp", 2);
        let out = d.output("sum");
        let controller = d.function("controller", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, Expr::imm(0));
            });
            m.counted_loop("i", 4, 1, |b| {
                let i = b.var_expr("i");
                b.fifo_write(req, i);
                let v = b.fifo_read(resp);
                b.assign(acc, Expr::var(acc).add(Expr::var(v)));
            });
            m.exit(|b| {
                b.output(out, Expr::var(acc));
            });
        });
        let processor = d.function("processor", |m| {
            m.counted_loop("i", 4, 1, |b| {
                let v = b.fifo_read(req);
                b.fifo_write(resp, Expr::var(v).mul(Expr::imm(2)));
            });
        });
        d.dataflow_top("top", [controller, processor]);
        let r = classify(&d.build().unwrap());
        assert_eq!(r.class, DesignClass::TypeB);
        assert!(r.cyclic_dataflow);
        assert!(!r.uses_nonblocking);
        assert_eq!(r.access_style(), "B");
    }

    #[test]
    fn access_style_strings() {
        let a = classify(&type_a_design());
        assert_eq!(a.access_style(), "B");
    }
}
