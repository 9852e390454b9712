//! Phase 1: trace generation and simulation-graph construction.

use crate::error::LightningError;
use omnisim_graph::{CsrGraph, CsrGraphBuilder, Edge, NodeId};
use omnisim_interp::{At, Halt, Interpreter, SimBackend, SimError};
use omnisim_ir::design::OutputMap;
use omnisim_ir::validate::fifo_endpoints;
use omnisim_ir::{ArrayId, AxiId, Design, FifoId, ModuleId, OutputId};
use std::collections::VecDeque;
use std::convert::Infallible;

/// The artefact of Phase 1: the functional outputs, the frozen simulation
/// graph and the per-FIFO access orders needed by Phase 2.
#[derive(Debug)]
pub struct LightningTrace {
    pub(crate) graph: CsrGraph,
    pub(crate) fifo_writes: Vec<Vec<NodeId>>,
    pub(crate) fifo_reads: Vec<Vec<NodeId>>,
    pub(crate) end_nodes: Vec<NodeId>,
    /// Functional outputs observed during trace generation.
    pub outputs: OutputMap,
}

impl LightningTrace {
    /// Number of nodes in the simulation graph.
    pub fn node_count(&self) -> usize {
        self.graph.len()
    }

    /// Number of edges in the simulation graph (without Phase 2 overlays).
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Phase 2: computes the design latency for the given FIFO depths by
    /// overlaying the depth-dependent write-after-read constraints and
    /// running a longest-path pass.
    ///
    /// # Errors
    ///
    /// Returns [`LightningError::DepthMismatch`] if `depths` does not have
    /// one entry per FIFO, or [`LightningError::Graph`] if the combined
    /// constraint set is cyclic (which indicates a simulator bug).
    pub fn analyze(&self, depths: &[usize]) -> Result<u64, LightningError> {
        if depths.len() != self.fifo_writes.len() {
            return Err(LightningError::DepthMismatch {
                expected: self.fifo_writes.len(),
                got: depths.len(),
            });
        }
        let mut overlay = Vec::new();
        for (fifo, &depth) in depths.iter().enumerate() {
            let writes = &self.fifo_writes[fifo];
            let reads = &self.fifo_reads[fifo];
            for w in (depth + 1)..=writes.len() {
                // The w-th write must wait for the (w - depth)-th read.
                if let Some(&read_node) = reads.get(w - depth - 1) {
                    overlay.push(Edge::new(read_node, writes[w - 1], 1));
                }
            }
        }
        let times = self.graph.times_with_overlay(&overlay)?;
        let end = self
            .end_nodes
            .iter()
            .map(|n| times[n.index()])
            .max()
            .unwrap_or(0);
        Ok(end + 1)
    }
}

/// Runs Phase 1 on a design, executing its tasks sequentially (in topological
/// order of the dataflow graph) with unbounded FIFOs.
pub(crate) fn generate_trace(design: &Design) -> Result<LightningTrace, LightningError> {
    let order = topological_task_order(design);
    let mut backend = TraceBackend::new(design);
    let mut interp = Interpreter::new(design);
    for task in order {
        // Each task's events form a chain of their own: every dataflow task
        // starts at cycle 1, concurrently in hardware.
        backend.last_event = None;
        let outcome = interp.run_module(task, &[], &mut backend)?;
        let end = backend.event_node(outcome.end_cycle, outcome.end_cycle);
        backend.end_nodes.push(end);
    }
    Ok(LightningTrace {
        graph: backend.graph.build(),
        fifo_writes: backend.fifo_writes,
        fifo_reads: backend.fifo_reads,
        end_nodes: backend.end_nodes,
        outputs: backend.outputs,
    })
}

/// Orders the dataflow tasks so that every FIFO producer runs before its
/// consumer. FIFO accesses inside called sub-functions happen on the
/// calling task's thread, so each task owns the endpoints of its whole call
/// closure. For Type A designs (acyclic) this always succeeds; ties and
/// isolated tasks keep declaration order.
fn topological_task_order(design: &Design) -> Vec<ModuleId> {
    let tasks = design.dataflow_tasks();
    let endpoints = fifo_endpoints(design);
    let closures = omnisim_ir::validate::call_closures(design);
    // Map every module to the dataflow task whose call closure contains it.
    let index_of = |m: ModuleId| tasks.iter().position(|&t| closures[t.index()].contains(&m));
    let n = tasks.len();
    let mut adj = vec![Vec::new(); n];
    let mut in_degree = vec![0usize; n];
    for (writers, readers) in &endpoints {
        for w in writers {
            for r in readers {
                if let (Some(wi), Some(ri)) = (index_of(*w), index_of(*r)) {
                    if wi != ri {
                        adj[wi].push(ri);
                        in_degree[ri] += 1;
                    }
                }
            }
        }
    }
    let mut ready: VecDeque<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = ready.pop_front() {
        order.push(tasks[i]);
        for &j in &adj[i] {
            in_degree[j] -= 1;
            if in_degree[j] == 0 {
                ready.push_back(j);
            }
        }
    }
    if order.len() != n {
        // Cyclic (not Type A) — caller has already rejected this, but fall
        // back to declaration order for robustness.
        return tasks;
    }
    order
}

/// The Phase 1 backend: executes functionally with unbounded FIFOs while
/// recording the simulation graph.
#[derive(Debug)]
struct TraceBackend<'d> {
    design: &'d Design,
    graph: CsrGraphBuilder,
    fifo_values: Vec<VecDeque<i64>>,
    fifo_writes: Vec<Vec<NodeId>>,
    fifo_reads: Vec<Vec<NodeId>>,
    end_nodes: Vec<NodeId>,
    last_event: Option<(NodeId, u64)>,
    arrays: Vec<Vec<i64>>,
    axi_read_state: Vec<AxiReadState>,
    axi_write_state: Vec<AxiWriteState>,
    outputs: OutputMap,
}

/// One outstanding AXI read burst: snapshotted values plus per-burst beat
/// pacing (first beat ready `request_latency` cycles after the request,
/// subsequent beats one cycle apart) and the graph node of its request, so
/// each beat can be anchored at `request + latency + beat` — a constraint
/// that must survive the Phase 2 write-after-read overlay, unlike the
/// trace's program-order distances, which only reflect the unbounded run.
#[derive(Debug, Clone)]
struct ReadBurst {
    values: VecDeque<i64>,
    ready: u64,
    req_node: NodeId,
    beats_done: u64,
}

#[derive(Debug, Default, Clone)]
struct AxiReadState {
    bursts: VecDeque<ReadBurst>,
}

/// One outstanding AXI write burst (beats address `addr + beats_done`).
#[derive(Debug, Clone)]
struct WriteBurst {
    addr: i64,
    len: i64,
    beats_done: i64,
}

#[derive(Debug, Default, Clone)]
struct AxiWriteState {
    bursts: VecDeque<WriteBurst>,
    last_beat_cycle: u64,
    last_beat_node: Option<NodeId>,
}

impl<'d> TraceBackend<'d> {
    fn new(design: &'d Design) -> Self {
        TraceBackend {
            design,
            graph: CsrGraphBuilder::new(),
            fifo_values: vec![VecDeque::new(); design.fifos.len()],
            fifo_writes: vec![Vec::new(); design.fifos.len()],
            fifo_reads: vec![Vec::new(); design.fifos.len()],
            end_nodes: Vec::new(),
            last_event: None,
            arrays: design.arrays.iter().map(|a| a.init.clone()).collect(),
            axi_read_state: vec![AxiReadState::default(); design.axi_ports.len()],
            axi_write_state: vec![AxiWriteState::default(); design.axi_ports.len()],
            outputs: OutputMap::new(),
        }
    }

    /// Creates an event node with base time `commit` (its cycle in the
    /// unbounded trace — a valid lower bound, since Phase 2 overlays only
    /// ever delay) and chains it to the previous event of the same task
    /// with the static-schedule distance `request - prev_commit`. For FIFO
    /// accesses the trace never stalls, so `request == commit`; AXI beats
    /// and write responses can stall on the bus, and their extra wait must
    /// live in an explicit anchor edge (re-evaluated per depth vector), not
    /// in the program-order distance (frozen at its trace value).
    fn event_node(&mut self, request: u64, commit: u64) -> NodeId {
        let node = self.graph.add_node(commit);
        if let Some((prev, prev_commit)) = self.last_event {
            self.graph
                .add_edge(prev, node, request as i64 - prev_commit as i64);
        }
        self.last_event = Some((node, commit));
        node
    }

    fn unsupported(&self, what: &str, fifo: FifoId) -> SimError {
        SimError::Aborted {
            reason: format!(
                "{what} '{}' is not supported by LightningSim",
                self.design.fifo(fifo).name
            ),
        }
    }
}

impl SimBackend for TraceBackend<'_> {
    type Wait = Infallible;

    fn fifo_read(&mut self, fifo: FifoId, at: At) -> Result<(i64, u64), Halt<Infallible>> {
        let value = self.fifo_values[fifo.index()]
            .pop_front()
            .ok_or(SimError::ReadWhileEmpty { fifo })?;
        let node = self.event_node(at.cycle, at.cycle);
        let reads = self.fifo_reads[fifo.index()].len();
        // Read-after-write: the r-th read happens strictly after the r-th write.
        let write_node = self.fifo_writes[fifo.index()][reads];
        self.graph.add_edge(write_node, node, 1);
        self.fifo_reads[fifo.index()].push(node);
        Ok((value, at.cycle))
    }

    fn fifo_write(&mut self, fifo: FifoId, value: i64, at: At) -> Result<u64, Halt<Infallible>> {
        self.fifo_values[fifo.index()].push_back(value);
        let node = self.event_node(at.cycle, at.cycle);
        self.fifo_writes[fifo.index()].push(node);
        Ok(at.cycle)
    }

    fn fifo_nb_read(&mut self, fifo: FifoId, _at: At) -> Result<Option<i64>, Halt<Infallible>> {
        // Non-blocking accesses require cycle-dependent functional behaviour,
        // which a decoupled Phase 1 cannot provide.
        Err(self.unsupported("non-blocking read on fifo", fifo).into())
    }

    fn fifo_nb_write(
        &mut self,
        fifo: FifoId,
        _value: i64,
        _at: At,
    ) -> Result<bool, Halt<Infallible>> {
        Err(self.unsupported("non-blocking write on fifo", fifo).into())
    }

    fn fifo_empty(&mut self, fifo: FifoId, _at: At) -> Result<bool, Halt<Infallible>> {
        Err(self.unsupported("fifo status check on", fifo).into())
    }

    fn fifo_full(&mut self, fifo: FifoId, _at: At) -> Result<bool, Halt<Infallible>> {
        Err(self.unsupported("fifo status check on", fifo).into())
    }

    fn array_load(&mut self, array: ArrayId, index: i64) -> Result<i64, SimError> {
        let data = &self.arrays[array.index()];
        usize::try_from(index)
            .ok()
            .and_then(|i| data.get(i).copied())
            .ok_or(SimError::ArrayOutOfBounds {
                array,
                index,
                len: data.len(),
            })
    }

    fn array_store(&mut self, array: ArrayId, index: i64, value: i64) -> Result<(), SimError> {
        let data = &mut self.arrays[array.index()];
        let len = data.len();
        let slot = usize::try_from(index)
            .ok()
            .and_then(|i| data.get_mut(i))
            .ok_or(SimError::ArrayOutOfBounds { array, index, len })?;
        *slot = value;
        Ok(())
    }

    fn axi_read_req(&mut self, bus: AxiId, addr: i64, len: i64, at: At) -> Result<(), SimError> {
        let port = self.design.axi_port(bus);
        let mut values = VecDeque::with_capacity(usize::try_from(len).unwrap_or(0));
        let data = &self.arrays[port.array.index()];
        for beat in 0..len {
            let idx = addr + beat;
            let value = usize::try_from(idx)
                .ok()
                .and_then(|i| data.get(i).copied())
                .ok_or(SimError::ArrayOutOfBounds {
                    array: port.array,
                    index: idx,
                    len: data.len(),
                })?;
            values.push_back(value);
        }
        let req_node = self.event_node(at.cycle, at.cycle);
        self.axi_read_state[bus.index()]
            .bursts
            .push_back(ReadBurst {
                values,
                ready: at.cycle + port.request_latency,
                req_node,
                beats_done: 0,
            });
        Ok(())
    }

    fn axi_read(&mut self, bus: AxiId, at: At) -> Result<(i64, u64), Halt<Infallible>> {
        let port_latency = self.design.axi_port(bus).request_latency;
        let (value, ready, req_node, beat, done) = {
            let state = &mut self.axi_read_state[bus.index()];
            let front = state
                .bursts
                .front_mut()
                .ok_or_else(|| SimError::AxiProtocolViolation {
                    detail: "axi read beat without outstanding request".to_owned(),
                })?;
            let value = front
                .values
                .pop_front()
                .expect("burst has a value per beat");
            let beat = front.beats_done;
            front.beats_done += 1;
            (
                value,
                front.ready + beat,
                front.req_node,
                beat,
                front.values.is_empty(),
            )
        };
        if done {
            self.axi_read_state[bus.index()].bursts.pop_front();
        }
        let commit = ready.max(at.cycle);
        let node = self.event_node(at.cycle, commit);
        self.graph
            .add_edge(req_node, node, (port_latency + beat) as i64);
        Ok((value, commit))
    }

    fn axi_write_req(&mut self, bus: AxiId, addr: i64, len: i64, _at: At) -> Result<(), SimError> {
        self.axi_write_state[bus.index()]
            .bursts
            .push_back(WriteBurst {
                addr,
                len,
                beats_done: 0,
            });
        Ok(())
    }

    fn axi_write(&mut self, bus: AxiId, value: i64, at: At) -> Result<(), SimError> {
        let port = self.design.axi_port(bus);
        let state = &mut self.axi_write_state[bus.index()];
        let front = state
            .bursts
            .front_mut()
            .ok_or_else(|| SimError::AxiProtocolViolation {
                detail: "axi write beat without outstanding request".to_owned(),
            })?;
        let idx = front.addr + front.beats_done;
        front.beats_done += 1;
        let done = front.beats_done >= front.len;
        state.last_beat_cycle = at.cycle;
        if done {
            state.bursts.pop_front();
        }
        let data = &mut self.arrays[port.array.index()];
        let len = data.len();
        let slot = usize::try_from(idx)
            .ok()
            .and_then(|i| data.get_mut(i))
            .ok_or(SimError::ArrayOutOfBounds {
                array: port.array,
                index: idx,
                len,
            })?;
        *slot = value;
        let node = self.event_node(at.cycle, at.cycle);
        self.axi_write_state[bus.index()].last_beat_node = Some(node);
        Ok(())
    }

    fn axi_write_resp(&mut self, bus: AxiId, at: At) -> Result<u64, Halt<Infallible>> {
        let port = self.design.axi_port(bus);
        let ready = self.axi_write_state[bus.index()].last_beat_cycle + port.request_latency;
        let commit = ready.max(at.cycle);
        let node = self.event_node(at.cycle, commit);
        if let Some(beat_node) = self.axi_write_state[bus.index()].last_beat_node {
            self.graph
                .add_edge(beat_node, node, port.request_latency as i64);
        }
        Ok(commit)
    }

    fn output(&mut self, output: OutputId, value: i64) -> Result<(), SimError> {
        self.outputs
            .insert(self.design.output_name(output).to_owned(), value);
        Ok(())
    }
}
