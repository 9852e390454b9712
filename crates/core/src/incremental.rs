//! Incremental re-simulation under changed FIFO depths (§7.2, Table 6).
//!
//! During a run, every resolved query is recorded as a [`Constraint`]: which
//! access it was, what the outcome was, and which simulation-graph node
//! represents the access. Changing FIFO depths only changes the
//! write-after-read overlay edges of the finalization step, so the engine can
//! re-run finalization under the new depths, re-evaluate every constraint
//! against the new node times, and — when all outcomes are unchanged — reuse
//! the whole simulation graph, turning a full re-simulation into a
//! microsecond-scale longest-path pass. If any constraint flips, the control
//! or data flow of the design could have diverged, and a full re-simulation
//! is required.
//!
//! Node times do not carry the stalls of the original run: each task's
//! first node sits at its scheduled cycle and every later node hangs off its
//! predecessor by the static-schedule distance, so finalization re-derives
//! every stall from the read-after-write edges and the depth-dependent
//! write-after-read overlay. A [`IncrementalOutcome::Valid`] latency is
//! therefore **exact** — equal to what a full re-simulation at the new
//! depths reports, whether depths grow or shrink. Only the points the
//! recorded run cannot certify (a flipped constraint, an infeasible or
//! cyclic depth vector) need a full re-simulation.

use crate::query::QueryKind;
use omnisim_graph::{CycleError, Edge, EventGraph, NodeId};
use omnisim_ir::FifoId;

/// A recorded query outcome, checked again whenever FIFO depths change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// The FIFO involved.
    pub fifo: FifoId,
    /// The kind of non-blocking access.
    pub kind: QueryKind,
    /// The 1-based ordinal of the access (w-th write / r-th read).
    pub ordinal: usize,
    /// The simulation-graph node representing the query itself.
    pub node: NodeId,
    /// The outcome observed during the original run.
    pub outcome: bool,
}

/// Result of attempting an incremental re-simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncrementalOutcome {
    /// All constraints still hold: the graph is valid for the new depths and
    /// the new latency is reported without re-simulating.
    Valid {
        /// End-to-end latency under the new FIFO depths.
        total_cycles: u64,
    },
    /// A constraint resolved differently under the new depths; functional
    /// behaviour could diverge, so a full re-simulation is required.
    ConstraintViolated {
        /// Index into [`IncrementalState::constraints`] of the first
        /// violated constraint.
        constraint: usize,
    },
    /// Under the new depths, a committed **blocking** write has no freeing
    /// read at all (`ordinal > depth + total reads`): the write could never
    /// commit, so the resized design would deadlock (or behave differently
    /// if non-blocking outcomes unblock it). The baseline graph cannot
    /// certify such a point; a full re-simulation is required. This arises
    /// when the baseline run leaves data in a FIFO (the producer wrote more
    /// than the consumer read) and a probe shrinks that FIFO below the
    /// leftover amount.
    DepthInfeasible {
        /// Index of the first FIFO (in declaration order) whose depth is
        /// infeasible.
        fifo: usize,
    },
    /// The write-after-read overlay at these depths is cyclic: with
    /// blocking semantics every execution order violates a constraint, so
    /// the resized design deadlocks at these depths (or, if non-blocking
    /// outcomes would flip, diverges). Multi-rate reconvergent pipelines
    /// reach this with undersized FIFOs. The baseline graph cannot certify
    /// such a point; a full re-simulation is required to characterise it.
    DepthCyclic,
}

impl IncrementalOutcome {
    /// True if the incremental result is usable.
    pub fn is_valid(&self) -> bool {
        matches!(self, IncrementalOutcome::Valid { .. })
    }
}

/// Everything preserved from a run that is needed to re-finalize it under
/// different FIFO depths.
#[derive(Debug)]
pub struct IncrementalState {
    /// The partial simulation graph built during execution.
    pub graph: EventGraph,
    /// Per-FIFO committed write nodes, in commit order.
    pub fifo_write_nodes: Vec<Vec<NodeId>>,
    /// Per-FIFO blocking flag of each committed write. Only blocking writes
    /// can stall, so only they receive write-after-read overlay edges.
    pub fifo_write_blocking: Vec<Vec<bool>>,
    /// Per-FIFO committed read nodes, in commit order.
    pub fifo_read_nodes: Vec<Vec<NodeId>>,
    /// Per-task end nodes (absent for tasks that never finished).
    pub end_nodes: Vec<Option<NodeId>>,
    /// Constraints recorded for every resolved query.
    pub constraints: Vec<Constraint>,
    /// FIFO depths the design was originally simulated with.
    pub original_depths: Vec<usize>,
}

impl IncrementalState {
    /// Builds the write-after-read overlay edges for the given depths: the
    /// *w*-th **blocking** write of a FIFO of depth *S* must happen strictly
    /// after the *(w − S)*-th read. Non-blocking writes never stall — if they
    /// could not have committed at their cycle they would have failed
    /// instead, which is what the constraint check detects.
    pub fn war_overlay(&self, depths: &[usize]) -> Vec<Edge> {
        let mut overlay = Vec::new();
        for (fifo, &depth) in depths.iter().enumerate() {
            let writes = &self.fifo_write_nodes[fifo];
            let blocking = &self.fifo_write_blocking[fifo];
            let reads = &self.fifo_read_nodes[fifo];
            for w in (depth + 1)..=writes.len() {
                if !blocking[w - 1] {
                    continue;
                }
                if let Some(&read_node) = reads.get(w - depth - 1) {
                    overlay.push(Edge::new(read_node, writes[w - 1], 1));
                }
            }
        }
        overlay
    }

    /// Finalizes the run under the given depths: longest-path times with the
    /// write-after-read overlay, returning per-node times.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the combined constraint set is cyclic.
    pub fn finalize_times(&self, depths: &[usize]) -> Result<Vec<u64>, CycleError> {
        self.graph.times_with_overlay(&self.war_overlay(depths))
    }

    /// Computes the end-to-end latency implied by a set of node times.
    pub fn latency_from_times(&self, times: &[u64]) -> u64 {
        let end = self
            .end_nodes
            .iter()
            .flatten()
            .map(|n| times[n.index()])
            .max();
        match end {
            Some(t) => t + 1,
            None => times.iter().copied().max().unwrap_or(0),
        }
    }

    /// Finalizes the run under the given depths and returns the latency.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the combined constraint set is cyclic.
    pub fn finalize_latency(&self, depths: &[usize]) -> Result<u64, CycleError> {
        Ok(self.latency_from_times(&self.finalize_times(depths)?))
    }

    /// Attempts an incremental re-simulation with new FIFO depths (§7.2).
    ///
    /// Re-runs finalization under `depths`, then re-evaluates every recorded
    /// constraint against the new node times. If all outcomes are unchanged,
    /// the new latency is returned; otherwise the index of the first violated
    /// constraint is reported and the caller must fall back to a full
    /// re-simulation of the re-sized design.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the combined constraint set is cyclic, or an
    /// error string if `depths` has the wrong length.
    pub fn try_with_depths(&self, depths: &[usize]) -> Result<IncrementalOutcome, CycleError> {
        assert_eq!(
            depths.len(),
            self.fifo_write_nodes.len(),
            "depth vector length must match the number of FIFOs"
        );
        if let Some(fifo) = self.first_infeasible_fifo(depths) {
            return Ok(IncrementalOutcome::DepthInfeasible { fifo });
        }
        // A cyclic overlay is an answer, not an engine error: it means the
        // constraints admit no schedule, i.e. the resized design deadlocks.
        let Ok(times) = self.finalize_times(depths) else {
            return Ok(IncrementalOutcome::DepthCyclic);
        };
        for (index, constraint) in self.constraints.iter().enumerate() {
            let new_outcome = self.evaluate_constraint(constraint, depths, &times);
            if new_outcome != constraint.outcome {
                return Ok(IncrementalOutcome::ConstraintViolated { constraint: index });
            }
        }
        Ok(IncrementalOutcome::Valid {
            total_cycles: self.latency_from_times(&times),
        })
    }

    /// The first FIFO (in declaration order) holding a committed blocking
    /// write whose freeing read does not exist under `depths` — the
    /// [`IncrementalOutcome::DepthInfeasible`] detection the compiled DSE
    /// VM replicates bit-identically.
    pub fn first_infeasible_fifo(&self, depths: &[usize]) -> Option<usize> {
        depths.iter().enumerate().position(|(f, &depth)| {
            let writes = self.fifo_write_nodes[f].len();
            let reads = self.fifo_read_nodes[f].len();
            writes > depth + reads
                && self.fifo_write_blocking[f][depth + reads..writes]
                    .iter()
                    .any(|&blocking| blocking)
        })
    }

    fn evaluate_constraint(
        &self,
        constraint: &Constraint,
        depths: &[usize],
        times: &[u64],
    ) -> bool {
        let fifo = constraint.fifo.index();
        let query_time = times[constraint.node.index()];
        if constraint.kind.is_write_side() {
            let depth = depths[fifo];
            if constraint.ordinal <= depth {
                return true;
            }
            match self.fifo_read_nodes[fifo].get(constraint.ordinal - depth - 1) {
                Some(read_node) => times[read_node.index()] < query_time,
                None => false,
            }
        } else {
            match self.fifo_write_nodes[fifo].get(constraint.ordinal - 1) {
                Some(write_node) => times[write_node.index()] < query_time,
                None => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built state modelling a producer and a consumer:
    ///
    /// * writes w1 (blocking, cycle 1), w2 (blocking, cycle 2), w3
    ///   (non-blocking, succeeded at cycle 4, original depth 2),
    /// * a failed fourth non-blocking write attempt q4 at cycle 5,
    /// * reads r1..r3 at cycles 3, 5, 6.
    fn sample_state() -> IncrementalState {
        let mut graph = EventGraph::new();
        let w1 = graph.add_node(1);
        let w2 = graph.add_node(2);
        let w3 = graph.add_node(4);
        let q4 = graph.add_node(5);
        let r1 = graph.add_node(3);
        let r2 = graph.add_node(5);
        let r3 = graph.add_node(6);
        let end_p = graph.add_node(6);
        let end_c = graph.add_node(7);
        // Producer sequence.
        graph.add_edge(w1, w2, 1);
        graph.add_edge(w2, w3, 2);
        graph.add_edge(w3, q4, 1);
        graph.add_edge(q4, end_p, 1);
        // Consumer sequence.
        graph.add_edge(r1, r2, 2);
        graph.add_edge(r2, r3, 1);
        graph.add_edge(r3, end_c, 1);
        // Read-after-write (blocking reads).
        graph.add_edge(w1, r1, 1);
        graph.add_edge(w2, r2, 1);
        graph.add_edge(w3, r3, 1);
        IncrementalState {
            graph,
            fifo_write_nodes: vec![vec![w1, w2, w3]],
            fifo_write_blocking: vec![vec![true, true, false]],
            fifo_read_nodes: vec![vec![r1, r2, r3]],
            end_nodes: vec![Some(end_p), Some(end_c)],
            constraints: vec![
                Constraint {
                    fifo: FifoId(0),
                    kind: QueryKind::NbWrite,
                    ordinal: 3,
                    node: w3,
                    outcome: true,
                },
                Constraint {
                    fifo: FifoId(0),
                    kind: QueryKind::NbWrite,
                    ordinal: 4,
                    node: q4,
                    outcome: false,
                },
            ],
            original_depths: vec![2],
        }
    }

    #[test]
    fn latency_reflects_war_constraints() {
        let state = sample_state();
        let wide = state.finalize_latency(&[8]).unwrap();
        let narrow = state.finalize_latency(&[1]).unwrap();
        assert!(narrow >= wide, "narrow FIFOs can only add stalls");
        assert_eq!(wide, 8, "latency is max end-node time + 1");
    }

    #[test]
    fn war_overlay_skips_nonblocking_writes() {
        let state = sample_state();
        assert_eq!(state.war_overlay(&[3]).len(), 0);
        // Depth 2 would constrain only w3, which is non-blocking.
        assert_eq!(state.war_overlay(&[2]).len(), 0);
        // Depth 1 would constrain w2 and w3, but w3 is non-blocking.
        assert_eq!(state.war_overlay(&[1]).len(), 1);
    }

    #[test]
    fn incremental_valid_for_original_and_smaller_depths() {
        let state = sample_state();
        match state.try_with_depths(&[2]).unwrap() {
            IncrementalOutcome::Valid { total_cycles } => assert_eq!(total_cycles, 8),
            other => panic!("expected valid, got {other:?}"),
        }
        // Depth 1 delays the producer but does not flip any outcome.
        match state.try_with_depths(&[1]).unwrap() {
            IncrementalOutcome::Valid { total_cycles } => assert!(total_cycles >= 8),
            other => panic!("expected valid, got {other:?}"),
        }
    }

    #[test]
    fn incremental_detects_violated_constraint_on_larger_depth() {
        let state = sample_state();
        // With depth 4 the previously failed fourth write would now succeed:
        // the recorded `false` outcome no longer holds, so a full
        // re-simulation is required (the Table 6 "Non-incremental" case).
        match state.try_with_depths(&[4]).unwrap() {
            IncrementalOutcome::ConstraintViolated { constraint } => assert_eq!(constraint, 1),
            other => panic!("expected violation, got {other:?}"),
        }
        assert!(!state.try_with_depths(&[4]).unwrap().is_valid());
    }

    #[test]
    #[should_panic(expected = "depth vector length")]
    fn wrong_depth_vector_length_panics() {
        let state = sample_state();
        let _ = state.try_with_depths(&[1, 2]);
    }
}
