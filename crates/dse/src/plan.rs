//! Compiling a baseline run into the DSE bytecode program.
//!
//! [`CompiledPlan::compile`] is run **once** per baseline
//! [`IncrementalState`]. It freezes the engine's online
//! [`EventGraph`](omnisim_graph::EventGraph) into a
//! [`CsrGraph`](omnisim_graph::CsrGraph) (plus its transpose for
//! incoming-edge runs), caches one topological order that stays valid for
//! *every* depth vector with depths ≥ 1, and lowers the lot straight into
//! register space: registers numbered by topological rank, one `RELAX` run
//! per register, per-FIFO access lanes and a flat constraint table. The
//! frozen graph is dropped once lowered; the [`CompiledPlan`] is all that
//! remains (see [`crate::bytecode`] for the program and its VM).
//!
//! The depth-1 lower bound exists because the cached topological order must
//! anticipate every WAR edge any depth vector can introduce: for depth `S`,
//! the *w*-th blocking write gains an edge from the *(w − S)*-th read, and
//! all of those are covered by ordering each FIFO's reads in commit order
//! plus one read-before-next-write skeleton edge — but only for `S ≥ 1`.
//! Depth-0 points (which the engine itself usually rejects as cyclic) must
//! go through [`IncrementalState::try_with_depths`] instead; the `Sweep`
//! driver does exactly that.

use crate::bytecode::{CompiledPlan, Op, VmConstraint, VmLane, NONE};
use omnisim::{CompiledOmni, IncrementalState, OmniError};
use omnisim_api::CompiledSim;
use omnisim_graph::{CsrGraphBuilder, CycleError, Edge, NodeId};
use std::error::Error;
use std::fmt;

/// The former name of [`CompiledPlan`], from when the frozen graph and its
/// bytecode lowering were two types. Both names denote the same program.
pub type SweepPlan = CompiledPlan;

/// Errors returned when evaluating points against a [`CompiledPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The depth vector's length does not match the design's FIFO count.
    DepthMismatch {
        /// Number of FIFOs the plan was compiled for.
        expected: usize,
        /// Number of depths supplied.
        got: usize,
    },
    /// A depth of zero was supplied; the plan's cached topological order
    /// only covers depths ≥ 1 (use the uncompiled
    /// [`IncrementalState::try_with_depths`] path for depth-0 probes).
    ZeroDepth {
        /// Index of the FIFO with the zero depth.
        fifo: usize,
    },
    /// A zero search bound was passed to `CompiledPlan::min_depths`; FIFO
    /// depths start at 1, so there is nothing to search.
    ZeroBound,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::DepthMismatch { expected, got } => write!(
                f,
                "depth vector has {got} entries but the plan was compiled for {expected} fifos"
            ),
            PlanError::ZeroDepth { fifo } => write!(
                f,
                "fifo {fifo} has depth 0, which the compiled plan does not evaluate"
            ),
            PlanError::ZeroBound => write!(
                f,
                "min_depths search bound is 0, but fifo depths start at 1"
            ),
        }
    }
}

impl Error for PlanError {}

impl From<PlanError> for OmniError {
    fn from(error: PlanError) -> OmniError {
        match error {
            PlanError::DepthMismatch { expected, got } => {
                OmniError::DepthMismatch { expected, got }
            }
            PlanError::ZeroDepth { .. } | PlanError::ZeroBound => {
                OmniError::Internal(error.to_string())
            }
        }
    }
}

impl CompiledPlan {
    /// Compiles a baseline run into its bytecode program.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if no topological order covering every
    /// depth-parameterized WAR overlay exists (callers should fall back to
    /// [`IncrementalState::try_with_depths`]; well-formed runs of the
    /// engine always compile).
    pub fn compile(state: &IncrementalState) -> Result<CompiledPlan, CycleError> {
        let n = state.graph.len();
        let mut builder = CsrGraphBuilder::new();
        for i in 0..n {
            builder.add_node(state.graph.base(NodeId::from_index(i)));
        }
        for e in state.graph.edges() {
            builder.add_edge(e.from, e.to, e.weight);
        }
        let fwd = builder.build();
        let rev = fwd.transpose();

        // Per-FIFO access lanes in commit order, in node space until the
        // register order below exists.
        let mut lanes: Vec<VmLane> = state
            .fifo_write_nodes
            .iter()
            .zip(&state.fifo_write_blocking)
            .zip(&state.fifo_read_nodes)
            .map(|((writes, blocking), reads)| VmLane {
                writes: writes.iter().map(|n| n.0).collect(),
                write_blocking: blocking.clone(),
                reads: reads.iter().map(|n| n.0).collect(),
            })
            .collect();
        assert!(
            (n as u64) < NONE as u64 && (lanes.len() as u64) < NONE as u64,
            "plan size exceeds the bytecode register space"
        );

        // Ordering skeleton: one order that dominates every overlay with
        // depths ≥ `supported_min_depth`. Chaining each FIFO's reads in
        // commit order and ordering write w after read min(w−m, last)
        // covers the WAR edge read(w−S) → write(w) for every S ≥ m,
        // because the source read is always at or before the skeleton read
        // in the chain. Non-blocking writes never receive WAR edges, so
        // constraining them here would only risk a spurious cycle.
        //
        // `m` starts at 1 per FIFO. When the combined skeleton is cyclic —
        // which happens exactly when a depth-m assignment deadlocks, e.g.
        // multi-rate reconvergent pipelines at depth 1 — the anchors are
        // relaxed one depth at a time until an order exists; points below
        // the supported bound are answered by the VM's slow path.
        let build_skeleton = |bounds: &[usize]| {
            let mut skeleton: Vec<Edge> = Vec::new();
            for (f, lane) in lanes.iter().enumerate() {
                for pair in lane.reads.windows(2) {
                    skeleton.push(Edge::new(NodeId(pair[0]), NodeId(pair[1]), 0));
                }
                if lane.reads.is_empty() {
                    continue;
                }
                let m = bounds[f];
                for (iw, &write) in lane.writes.iter().enumerate().skip(m) {
                    if !lane.write_blocking[iw] {
                        continue;
                    }
                    let anchor = lane.reads[(iw - m).min(lane.reads.len() - 1)];
                    skeleton.push(Edge::new(NodeId(anchor), NodeId(write), 0));
                }
            }
            skeleton
        };
        let mut supported_min_depth = vec![1usize; lanes.len()];
        let mut topo: Vec<NodeId> = loop {
            match fwd.topo_order_with(build_skeleton(&supported_min_depth).iter().copied()) {
                Ok(order) => break order,
                Err(e) => {
                    let mut relaxed = false;
                    for (f, lane) in lanes.iter().enumerate() {
                        if !lane.reads.is_empty() && supported_min_depth[f] < lane.writes.len() {
                            supported_min_depth[f] += 1;
                            relaxed = true;
                        }
                    }
                    if !relaxed {
                        // No anchors left to relax: the base graph itself is
                        // cyclic, which is an engine bug.
                        return Err(e);
                    }
                }
            }
        };
        // The relaxation loop bumps every FIFO; most are innocent of the
        // cycle. Re-tighten each back to 1 where an order still exists, so
        // their depth-1 probes keep the allocation-free fast path.
        if supported_min_depth.iter().any(|&m| m > 1) {
            for f in 0..lanes.len() {
                if supported_min_depth[f] == 1 {
                    continue;
                }
                let mut trial = supported_min_depth.clone();
                trial[f] = 1;
                if let Ok(order) = fwd.topo_order_with(build_skeleton(&trial).iter().copied()) {
                    supported_min_depth = trial;
                    topo = order;
                }
            }
        }

        // Lowering: register `r` is the node at topological rank `r`, so
        // every register depends only on lower ones. Each register's
        // incoming edges become its `RELAX` run; its outgoing edges stay as
        // CSR rows for delta propagation and the slow path's Kahn pass.
        let mut reg_of = vec![0u32; n];
        for (rank, node) in topo.iter().enumerate() {
            reg_of[node.index()] = rank as u32;
        }
        let mut base = Vec::with_capacity(n);
        let mut ops = Vec::new();
        let mut group_start = Vec::with_capacity(n + 1);
        let mut fwd_row = Vec::with_capacity(n + 1);
        let mut fwd_col = Vec::new();
        let mut fwd_weight = Vec::new();
        for &node in &topo {
            base.push(fwd.base(node));
            group_start.push(ops.len() as u32);
            for (pred, weight) in rev.successors(node) {
                ops.push(Op {
                    a: reg_of[pred.index()],
                    b: weight,
                });
            }
            fwd_row.push(fwd_col.len() as u32);
            for (succ, weight) in fwd.successors(node) {
                fwd_col.push(reg_of[succ.index()]);
                fwd_weight.push(weight);
            }
        }
        group_start.push(ops.len() as u32);
        fwd_row.push(fwd_col.len() as u32);

        for lane in &mut lanes {
            for node in lane.writes.iter_mut().chain(lane.reads.iter_mut()) {
                *node = reg_of[*node as usize];
            }
        }
        let constraints = state
            .constraints
            .iter()
            .map(|c| VmConstraint {
                write_side: c.kind.is_write_side(),
                fifo: c.fifo.index() as u32,
                ordinal: c.ordinal as u32,
                reg: reg_of[c.node.index()],
                outcome: c.outcome,
            })
            .collect();
        let end_regs = state
            .end_nodes
            .iter()
            .flatten()
            .map(|node| reg_of[node.index()])
            .collect();

        Ok(CompiledPlan::assemble(
            n as u32,
            base,
            ops,
            group_start,
            fwd_row,
            fwd_col,
            fwd_weight,
            lanes,
            constraints,
            end_regs,
            state.original_depths.clone(),
            supported_min_depth,
        ))
    }

    /// Compiles a plan from a [`CompiledSim`] session artifact, if it is
    /// the OmniSim engine's (see `Capabilities::compiled_dse`). This is the
    /// canonical way to upgrade a compile-once session into the batch DSE
    /// engine: the artifact's frozen [`IncrementalState`] is compiled
    /// directly, no type-erased extras involved.
    pub fn from_compiled(compiled: &dyn CompiledSim) -> Option<Result<CompiledPlan, CycleError>> {
        compiled
            .as_any()
            .downcast_ref::<CompiledOmni>()
            .map(|omni| CompiledPlan::compile(omni.state()))
    }

    /// A copy of this program, for callers written against the former
    /// two-step compile-then-lower API ([`SweepPlan`]).
    pub fn compile_bytecode(&self) -> CompiledPlan {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnisim::test_fixtures::producer_consumer;
    use omnisim::{OmniBackend, OmniSimulator};
    use omnisim_api::{SimReport, Simulator};

    #[test]
    fn validation_errors_are_reported_before_any_work() {
        let design = producer_consumer(8, 2, 1);
        let baseline = OmniSimulator::new(&design).run().unwrap();
        let program = CompiledPlan::compile(&baseline.incremental).unwrap();
        let mismatch = PlanError::DepthMismatch {
            expected: 1,
            got: 2,
        };
        assert_eq!(program.vm().evaluate(&[1, 2]).unwrap_err(), mismatch);
        assert_eq!(program.evaluate(&[1, 2]).unwrap_err(), mismatch);
        assert_eq!(
            program.evaluate(&[0]).unwrap_err(),
            PlanError::ZeroDepth { fifo: 0 }
        );
        assert_eq!(
            program
                .evaluate_batch(&[vec![1], vec![0]], true)
                .unwrap_err(),
            PlanError::ZeroDepth { fifo: 0 }
        );
        assert_eq!(
            OmniError::from(mismatch),
            OmniError::DepthMismatch {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn plan_compiles_from_a_session_artifact() {
        let design = producer_consumer(16, 2, 1);
        let backend = OmniBackend::default();
        assert!(
            backend.capabilities().compiled_dse,
            "the omnisim backend advertises a plan-compilable session"
        );
        let compiled = backend.compile(&design).unwrap();
        let plan = CompiledPlan::from_compiled(compiled.as_ref())
            .expect("the omnisim artifact downcasts")
            .expect("plan compiles");
        assert_eq!(plan.fifo_count(), 1);
        assert_eq!(plan.original_depths(), &[2]);
        assert!(plan.register_count() > 0);
        assert!(plan.op_count() > 0);
        assert!(plan.constraint_count() <= plan.register_count());

        // Non-omnisim artifacts do not downcast.
        let rtl = omnisim_rtlsim::RtlBackend::default()
            .compile(&design)
            .unwrap();
        assert!(CompiledPlan::from_compiled(rtl.as_ref()).is_none());
    }

    /// A one-shot report's extras payload (`IncrementalState`) and the
    /// session artifact built around the *same* baseline run must compile
    /// to the identical program (extras consumers call
    /// [`CompiledPlan::compile`] on the state directly).
    #[test]
    fn extras_state_compiles_identical_plan_to_session_artifact() {
        use omnisim::test_fixtures::nb_drop_counter;
        use omnisim::{OmniOutcome, OmniReport, SimConfig, SimStats};

        let design = nb_drop_counter(32, 2, 3);
        let native = OmniSimulator::new(&design).run().unwrap();
        assert!(native.outcome.is_completed());
        let mut report: SimReport = native.into();
        let via_report = CompiledPlan::compile(
            report
                .extras
                .get::<IncrementalState>()
                .expect("one-shot reports still ship the extras payload"),
        )
        .expect("plan compiles");

        // Rebuild the session artifact around the very same baseline.
        let stats = *report.extras.get::<SimStats>().unwrap();
        let incremental = report.extras.take::<IncrementalState>().unwrap();
        let baseline = OmniReport {
            outcome: OmniOutcome::Completed,
            outputs: report.outputs.clone(),
            total_cycles: report.total_cycles.unwrap(),
            timings: report.timings,
            stats,
            incremental,
        };
        let session = CompiledOmni::from_baseline(&design, SimConfig::default(), baseline);
        let via_session = CompiledPlan::from_compiled(&session)
            .expect("artifact downcasts")
            .expect("plan compiles");

        assert_eq!(via_report, via_session);
    }
}
