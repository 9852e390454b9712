//! The OmniSim engine: front-end elaboration, multi-threaded execution
//! (Fig. 7 of the paper) and finalization.

use crate::config::SimConfig;
use crate::fifo_table::{FifoTable, PendingRead, PendingWrite};
use crate::incremental::{Constraint, IncrementalState};
use crate::query::{Query, QueryKind, QueryPool, Resolution};
use crate::report::{OmniError, OmniOutcome, OmniReport, SimStats, SimTimings};
use crate::request::{Request, Response, ThreadId};
use crate::runtime::FuncRuntime;
use omnisim_graph::{Edge, EventGraph, NodeId};
use omnisim_interp::{Interpreter, SimError};
use omnisim_ir::design::OutputMap;
use omnisim_ir::optimize::eliminate_dead_fifo_checks;
use omnisim_ir::taxonomy::{classify, TaxonomyReport};
use omnisim_ir::Design;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The OmniSim simulator for one design.
///
/// Construction performs the *front-end* work (design elaboration, the
/// redundant-FIFO-check elision pass of §7.3.2 and taxonomy classification);
/// [`OmniSimulator::run`] performs the multi-threaded execution and
/// finalization. The two are separated so the Fig. 8(c) runtime breakdown
/// (front-end vs multi-threaded execution) can be measured.
#[derive(Debug)]
pub struct OmniSimulator<'d> {
    source: &'d Design,
    design: Design,
    config: SimConfig,
    taxonomy: TaxonomyReport,
    front_end_time: Duration,
}

impl<'d> OmniSimulator<'d> {
    /// Elaborates a design with the default configuration.
    pub fn new(design: &'d Design) -> Self {
        Self::with_config(design, SimConfig::default())
    }

    /// Elaborates a design with an explicit configuration.
    pub fn with_config(design: &'d Design, config: SimConfig) -> Self {
        let started = Instant::now();
        let mut elaborated = design.clone();
        if config.eliminate_dead_checks {
            let _stats = eliminate_dead_fifo_checks(&mut elaborated);
        }
        let taxonomy = classify(&elaborated);
        let front_end_time = started.elapsed();
        OmniSimulator {
            source: design,
            design: elaborated,
            config,
            taxonomy,
            front_end_time,
        }
    }

    /// The original (un-elaborated) design.
    pub fn source_design(&self) -> &'d Design {
        self.source
    }

    /// The elaborated design actually simulated.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The taxonomy classification of the design (Type A / B / C).
    pub fn taxonomy(&self) -> &TaxonomyReport {
        &self.taxonomy
    }

    /// Wall-clock time spent in front-end elaboration.
    pub fn front_end_time(&self) -> Duration {
        self.front_end_time
    }

    /// Runs the multi-threaded simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`OmniError::Task`] if a Func Sim thread fails (out-of-bounds
    /// access, fuel exhaustion), [`OmniError::ThreadPanic`] if one panics, or
    /// [`OmniError::Graph`] if finalization detects a cyclic constraint set
    /// (an engine bug). Design deadlocks are *not* errors: they are reported
    /// through [`OmniOutcome::Deadlock`].
    pub fn run(&self) -> Result<OmniReport, OmniError> {
        let exec_start = Instant::now();
        let design = &self.design;
        let tasks = design.dataflow_tasks();
        let thread_count = tasks.len();
        let depths = design.fifo_depths();

        let arrays: Vec<Mutex<Vec<i64>>> = design
            .arrays
            .iter()
            .map(|a| Mutex::new(a.init.clone()))
            .collect();

        let (req_tx, req_rx) = channel::<Request>();
        let mut resp_senders = Vec::with_capacity(thread_count);
        let mut resp_receivers = Vec::with_capacity(thread_count);
        for _ in 0..thread_count {
            let (tx, rx) = sync_channel::<Response>(1);
            resp_senders.push(tx);
            resp_receivers.push(rx);
        }

        let task_names: Vec<String> = tasks
            .iter()
            .map(|&m| design.module(m).name.clone())
            .collect();
        let mut perf = PerfState::new(design, &depths, task_names, resp_senders);
        let fuel = self.config.fuel;

        std::thread::scope(|scope| {
            for (thread_id, (&task, resp_rx)) in tasks.iter().zip(resp_receivers).enumerate() {
                let req_tx = req_tx.clone();
                let arrays = &arrays;
                scope.spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let mut runtime =
                            FuncRuntime::new(thread_id, design, req_tx.clone(), resp_rx, arrays);
                        Interpreter::with_fuel(design, fuel).run_module(task, &[], &mut runtime)
                    }));
                    match result {
                        Ok(Ok(outcome)) => {
                            let _ = req_tx.send(Request::TaskFinished {
                                thread: thread_id,
                                end_cycle: outcome.end_cycle,
                                ops_executed: outcome.ops_executed,
                            });
                        }
                        Ok(Err(SimError::Aborted { .. })) => {
                            // Engine-initiated shutdown: the Perf Sim thread
                            // already accounted for this thread.
                        }
                        Ok(Err(error)) => {
                            let _ = req_tx.send(Request::TaskFailed {
                                thread: thread_id,
                                error,
                            });
                        }
                        Err(_) => {
                            let _ = req_tx.send(Request::TaskFailed {
                                thread: thread_id,
                                error: SimError::Aborted {
                                    reason: "functionality-simulation thread panicked".to_owned(),
                                },
                            });
                        }
                    }
                });
            }
            drop(req_tx);
            perf.run(&req_rx);
        });

        let execution = exec_start.elapsed();

        if let Some((thread, error)) = perf.failure.take() {
            if matches!(error, SimError::Aborted { ref reason } if reason.contains("panicked")) {
                return Err(OmniError::ThreadPanic);
            }
            return Err(OmniError::Task {
                task: perf.task_names[thread].clone(),
                error,
            });
        }

        let finalize_start = Instant::now();
        let queries_created = perf.queries_created;
        let forced_false = perf.pool.forced_false();
        let fifo_accesses = perf.fifo_accesses;
        let ops_executed = perf.ops_executed;
        let outputs = std::mem::take(&mut perf.outputs);
        let deadlock = perf.deadlock.take();

        let incremental = canonicalize_incremental(
            IncrementalState {
                graph: std::mem::take(&mut perf.graph),
                fifo_write_nodes: perf
                    .tables
                    .iter()
                    .map(|t| t.write_nodes().to_vec())
                    .collect(),
                fifo_write_blocking: perf
                    .tables
                    .iter()
                    .map(|t| t.write_blocking_flags().to_vec())
                    .collect(),
                fifo_read_nodes: perf
                    .tables
                    .iter()
                    .map(|t| t.read_nodes().to_vec())
                    .collect(),
                end_nodes: std::mem::take(&mut perf.end_nodes),
                constraints: std::mem::take(&mut perf.constraints),
                original_depths: depths.clone(),
            },
            &std::mem::take(&mut perf.node_owner),
        );

        let (outcome, total_cycles) = match deadlock {
            Some(blocked) => {
                let cycles = incremental.graph.max_time();
                (OmniOutcome::Deadlock { blocked }, cycles)
            }
            None => {
                let cycles = incremental.finalize_latency(&depths)?;
                (OmniOutcome::Completed, cycles)
            }
        };
        let finalize = finalize_start.elapsed();

        let stats = SimStats {
            threads: thread_count,
            graph_nodes: incremental.graph.len(),
            graph_edges: incremental.graph.edge_count(),
            fifo_accesses,
            queries: queries_created,
            queries_forced_false: forced_false,
            constraints: incremental.constraints.len(),
            ops_executed,
        };

        Ok(OmniReport {
            outcome,
            outputs,
            total_cycles,
            timings: SimTimings {
                front_end: self.front_end_time,
                execution,
                finalize,
            },
            stats,
            incremental,
        })
    }
}

/// Renumbers a freshly frozen [`IncrementalState`] into canonical node
/// order.
///
/// Node ids are handed out in cross-thread *arrival* order, which varies
/// from run to run with OS scheduling; everything *about* a node is
/// deterministic — its creating thread, its position in that thread's
/// program order, its in-edges (all recorded in the same request-handling
/// step that creates the node) and its online time (final before the node
/// can ever serve as an edge source). Renumbering nodes by
/// `(thread, per-thread creation order)` therefore maps every compile of a
/// design onto one canonical `IncrementalState`, which is what lets the
/// artifact store trust content-hash keys: equal designs produce
/// byte-identical encoded artifacts. The same pass sorts the recorded
/// constraints by canonical node id — each query owns exactly one node, so
/// the order is total — fixing the constraint-recording-order
/// nondeterminism noted in the ROADMAP.
fn canonicalize_incremental(state: IncrementalState, node_owner: &[ThreadId]) -> IncrementalState {
    let nodes = state.graph.len();
    debug_assert_eq!(node_owner.len(), nodes);
    // Stable sort by owning thread: ties keep creation order, which within
    // one thread is its program order.
    let mut order: Vec<u32> = (0..u32::try_from(nodes).expect("node count fits u32")).collect();
    order.sort_by_key(|&old| node_owner[old as usize]);
    let mut remap: Vec<NodeId> = vec![NodeId(0); nodes];
    for (new, &old) in order.iter().enumerate() {
        remap[old as usize] = NodeId::from_index(new);
    }
    let map = |node: NodeId| remap[node.index()];

    let mut base = Vec::with_capacity(nodes);
    let mut time = Vec::with_capacity(nodes);
    for &old in &order {
        base.push(state.graph.base(NodeId(old)));
        time.push(state.graph.time(NodeId(old)));
    }
    // Re-emit edges grouped by canonical target node, preserving each
    // node's in-edge order.
    let mut per_target: Vec<Vec<Edge>> = vec![Vec::new(); nodes];
    for edge in state.graph.edges() {
        per_target[edge.to.index()].push(Edge::new(map(edge.from), map(edge.to), edge.weight));
    }
    let graph = EventGraph::from_parts(
        base,
        time,
        order
            .iter()
            .flat_map(|&old| per_target[old as usize].iter().copied()),
    );

    let mut constraints = state.constraints;
    for constraint in &mut constraints {
        constraint.node = map(constraint.node);
    }
    constraints.sort_by_key(|constraint| constraint.node);

    IncrementalState {
        graph,
        fifo_write_nodes: state
            .fifo_write_nodes
            .into_iter()
            .map(|nodes| nodes.into_iter().map(map).collect())
            .collect(),
        fifo_write_blocking: state.fifo_write_blocking,
        fifo_read_nodes: state
            .fifo_read_nodes
            .into_iter()
            .map(|nodes| nodes.into_iter().map(map).collect())
            .collect(),
        end_nodes: state
            .end_nodes
            .into_iter()
            .map(|node| node.map(map))
            .collect(),
        constraints,
        original_depths: state.original_depths,
    }
}

/// All state owned by the Perf Sim thread.
struct PerfState<'d> {
    design: &'d Design,
    depths: Vec<usize>,
    task_names: Vec<String>,
    responders: Vec<SyncSender<Response>>,

    tables: Vec<FifoTable>,
    graph: EventGraph,
    /// Creating thread of every graph node, in creation order. Node ids are
    /// handed out in cross-thread *arrival* order, which is scheduler
    /// nondeterministic; this is the evidence the freeze step uses to
    /// renumber them into canonical `(thread, program-order)` order.
    node_owner: Vec<ThreadId>,
    last_node: Vec<Option<(NodeId, u64)>>,
    /// Per `[thread][bus]`: the event node of every issued AXI read-burst
    /// request, in issue order — beats anchor to their burst's request node.
    axi_read_req_nodes: Vec<Vec<Vec<NodeId>>>,
    /// Per `[thread][bus]`: the event node of the last AXI write beat — the
    /// write response anchors `request_latency` cycles after it.
    axi_last_write_beat: Vec<Vec<Option<NodeId>>>,
    pool: QueryPool,
    constraints: Vec<Constraint>,
    outputs: OutputMap,
    end_nodes: Vec<Option<NodeId>>,
    paused: Vec<bool>,
    /// Forward-progress frontier of each paused thread: no future FIFO
    /// access of that thread can be scheduled strictly before this cycle.
    frontier: Vec<u64>,

    total_threads: usize,
    active: usize,
    finished: usize,
    aborted: usize,
    failed: usize,
    shutdown: bool,
    failure: Option<(ThreadId, SimError)>,
    deadlock: Option<Vec<String>>,

    fifo_accesses: u64,
    queries_created: usize,
    ops_executed: u64,
}

impl std::fmt::Debug for PerfState<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerfState")
            .field("active", &self.active)
            .field("finished", &self.finished)
            .field("pending_queries", &self.pool.pending())
            .finish_non_exhaustive()
    }
}

impl<'d> PerfState<'d> {
    fn new(
        design: &'d Design,
        depths: &[usize],
        task_names: Vec<String>,
        responders: Vec<SyncSender<Response>>,
    ) -> Self {
        let threads = responders.len();
        PerfState {
            design,
            depths: depths.to_vec(),
            task_names,
            responders,
            tables: (0..design.fifos.len()).map(|_| FifoTable::new()).collect(),
            graph: EventGraph::new(),
            node_owner: Vec::new(),
            last_node: vec![None; threads],
            axi_read_req_nodes: vec![vec![Vec::new(); design.axi_ports.len()]; threads],
            axi_last_write_beat: vec![vec![None; design.axi_ports.len()]; threads],
            pool: QueryPool::new(),
            constraints: Vec::new(),
            outputs: OutputMap::new(),
            end_nodes: vec![None; threads],
            paused: vec![false; threads],
            frontier: vec![0; threads],
            total_threads: threads,
            active: threads,
            finished: 0,
            aborted: 0,
            failed: 0,
            shutdown: false,
            failure: None,
            deadlock: None,
            fifo_accesses: 0,
            queries_created: 0,
            ops_executed: 0,
        }
    }

    fn accounted(&self) -> usize {
        self.finished + self.aborted + self.failed
    }

    /// The Perf Sim thread main loop (Fig. 7): process requests as they
    /// arrive; whenever every Func Sim thread is paused, enter the
    /// query-resolution step.
    fn run(&mut self, requests: &Receiver<Request>) {
        while self.accounted() < self.total_threads {
            let request = match requests.recv() {
                Ok(r) => r,
                Err(_) => break,
            };
            self.handle(request);
            while let Ok(r) = requests.try_recv() {
                self.handle(r);
            }
            if self.active == 0 && self.accounted() < self.total_threads {
                self.resolve_phase();
            }
        }
    }

    fn respond(&mut self, thread: ThreadId, response: Response) {
        let _ = self.responders[thread].send(response);
        if self.paused[thread] {
            self.paused[thread] = false;
            self.active += 1;
        }
    }

    fn pause(&mut self, thread: ThreadId, frontier: u64) {
        debug_assert!(!self.paused[thread]);
        self.paused[thread] = true;
        self.frontier[thread] = frontier;
        self.active -= 1;
    }

    fn abort_thread(&mut self, thread: ThreadId, reason: &str) {
        let _ = self.responders[thread].send(Response::Abort {
            reason: reason.to_owned(),
        });
        if self.paused[thread] {
            self.paused[thread] = false;
        }
        self.aborted += 1;
    }

    fn abort_all_paused(&mut self, reason: &str) {
        for thread in 0..self.total_threads {
            if self.paused[thread] {
                self.abort_thread(thread, reason);
            }
        }
    }

    /// Records an event node for `thread`.
    ///
    /// `request` is the cycle the thread's *schedule* placed the event at
    /// (before any FIFO-availability stall); `commit` is the cycle the event
    /// actually happened. Only schedule-intrinsic quantities enter the
    /// graph: a thread's first event keeps its request as intrinsic time
    /// (nothing can have stalled before it), every later event gets the
    /// program-order edge `request - commit_prev` — the schedule distance,
    /// which is invariant under re-finalization — and an intrinsic time of
    /// zero. Depth-dependent stalls therefore live exclusively in the
    /// data/WAR edges, so the incremental finalization (§7.2) can *relax*
    /// them when a deeper FIFO would have removed the stall, instead of
    /// keeping the baseline's stalled schedule as a floor.
    fn new_event_node(&mut self, thread: ThreadId, request: u64, commit: u64) -> NodeId {
        debug_assert!(commit >= request, "commits never precede their request");
        let node = match self.last_node[thread] {
            Some((last, last_commit)) => {
                // The distance may be negative: in a pipelined loop the next
                // iteration's early operations are scheduled before the
                // previous iteration's late ones commit.
                let node = self.graph.add_node(0);
                self.graph
                    .add_edge(last, node, request as i64 - last_commit as i64);
                node
            }
            None => self.graph.add_node(request),
        };
        self.node_owner.push(thread);
        debug_assert_eq!(self.node_owner.len(), self.graph.len());
        self.last_node[thread] = Some((node, commit));
        node
    }

    fn handle(&mut self, request: Request) {
        if self.shutdown {
            let thread = request.thread();
            match request {
                Request::TaskFinished { .. } => {
                    self.finished += 1;
                    self.active -= 1;
                }
                Request::TaskFailed { .. } => {
                    self.failed += 1;
                    self.active -= 1;
                }
                _ if request.pauses_thread() => {
                    self.active -= 1;
                    self.abort_thread(thread, "simulation is shutting down");
                }
                _ => {}
            }
            return;
        }
        match request {
            Request::FifoWrite {
                thread,
                fifo,
                value,
                cycle,
                frontier,
            } => {
                self.pause(thread, frontier);
                let depth = self.depths[fifo.index()];
                let table = &self.tables[fifo.index()];
                let ordinal = table.writes_committed() + 1;
                if ordinal <= depth {
                    self.commit_blocking_write(thread, fifo.index(), cycle, cycle, value);
                } else {
                    match table.read_cycle(ordinal - depth) {
                        Some(read_cycle) => {
                            let commit = cycle.max(read_cycle + 1);
                            self.commit_blocking_write(thread, fifo.index(), cycle, commit, value);
                        }
                        None => {
                            self.tables[fifo.index()].park_write(PendingWrite {
                                thread,
                                cycle,
                                value,
                            });
                        }
                    }
                }
            }
            Request::FifoRead {
                thread,
                fifo,
                cycle,
                frontier,
            } => {
                self.pause(thread, frontier);
                let table = &self.tables[fifo.index()];
                if let Some(write_cycle) = table.next_read_ready() {
                    self.commit_blocking_read(thread, fifo.index(), cycle, write_cycle);
                } else {
                    self.tables[fifo.index()].park_read(PendingRead { thread, cycle });
                }
            }
            Request::FifoNbWrite {
                thread,
                fifo,
                value,
                cycle,
                frontier,
            } => {
                self.pause(thread, frontier);
                self.queries_created += 1;
                let node = self.new_event_node(thread, cycle, cycle);
                let ordinal = self.tables[fifo.index()].writes_committed() + 1;
                let query = Query {
                    thread,
                    fifo,
                    kind: QueryKind::NbWrite,
                    cycle,
                    ordinal,
                    value,
                    node,
                };
                self.try_resolve_or_pool(query);
            }
            Request::FifoNbRead {
                thread,
                fifo,
                cycle,
                frontier,
            } => {
                self.pause(thread, frontier);
                self.queries_created += 1;
                let node = self.new_event_node(thread, cycle, cycle);
                let ordinal = self.tables[fifo.index()].reads_committed() + 1;
                let query = Query {
                    thread,
                    fifo,
                    kind: QueryKind::NbRead,
                    cycle,
                    ordinal,
                    value: 0,
                    node,
                };
                self.try_resolve_or_pool(query);
            }
            Request::FifoCanRead {
                thread,
                fifo,
                cycle,
                frontier,
            } => {
                self.pause(thread, frontier);
                self.queries_created += 1;
                let node = self.new_event_node(thread, cycle, cycle);
                let ordinal = self.tables[fifo.index()].reads_committed() + 1;
                let query = Query {
                    thread,
                    fifo,
                    kind: QueryKind::CanRead,
                    cycle,
                    ordinal,
                    value: 0,
                    node,
                };
                self.try_resolve_or_pool(query);
            }
            Request::FifoCanWrite {
                thread,
                fifo,
                cycle,
                frontier,
            } => {
                self.pause(thread, frontier);
                self.queries_created += 1;
                let node = self.new_event_node(thread, cycle, cycle);
                let ordinal = self.tables[fifo.index()].writes_committed() + 1;
                let query = Query {
                    thread,
                    fifo,
                    kind: QueryKind::CanWrite,
                    cycle,
                    ordinal,
                    value: 0,
                    node,
                };
                self.try_resolve_or_pool(query);
            }
            Request::AxiReadReq { thread, bus, cycle } => {
                let node = self.new_event_node(thread, cycle, cycle);
                self.axi_read_req_nodes[thread][bus.index()].push(node);
            }
            Request::AxiReadBeat {
                thread,
                bus,
                burst,
                beat,
                request,
                commit,
            } => {
                let node = self.new_event_node(thread, request, commit);
                let req_node = self.axi_read_req_nodes[thread][bus.index()][burst as usize];
                // The bus delivers the burst's first beat `request_latency`
                // cycles after the request, later beats one cycle apart —
                // an anchor that holds at *every* FIFO depth, unlike the
                // program-order distance, which only reflects the baseline.
                let latency = self.design.axi_port(bus).request_latency;
                self.graph
                    .add_edge(req_node, node, (latency + u64::from(beat)) as i64);
            }
            Request::AxiWriteBeat { thread, bus, cycle } => {
                let node = self.new_event_node(thread, cycle, cycle);
                self.axi_last_write_beat[thread][bus.index()] = Some(node);
            }
            Request::AxiWriteResp {
                thread,
                bus,
                request,
                commit,
            } => {
                let node = self.new_event_node(thread, request, commit);
                if let Some(beat_node) = self.axi_last_write_beat[thread][bus.index()] {
                    let latency = self.design.axi_port(bus).request_latency;
                    self.graph.add_edge(beat_node, node, latency as i64);
                }
            }
            Request::Output {
                thread: _,
                output,
                value,
            } => {
                self.outputs
                    .insert(self.design.output_name(output).to_owned(), value);
            }
            Request::TaskFinished {
                thread,
                end_cycle,
                ops_executed,
            } => {
                self.finished += 1;
                self.active -= 1;
                self.ops_executed += ops_executed;
                let node = self.new_event_node(thread, end_cycle, end_cycle);
                self.end_nodes[thread] = Some(node);
            }
            Request::TaskFailed { thread, error } => {
                self.failed += 1;
                self.active -= 1;
                self.failure = Some((thread, error));
                self.shutdown = true;
                self.abort_all_paused("another task failed");
            }
        }
    }

    /// Commits a blocking write at `commit` (the first cycle at which space
    /// is available, never earlier than the attempt cycle).
    fn commit_blocking_write(
        &mut self,
        thread: ThreadId,
        fifo: usize,
        attempt_cycle: u64,
        commit: u64,
        value: i64,
    ) {
        let node = self.new_event_node(thread, attempt_cycle, commit);
        self.tables[fifo].commit_write(value, commit, node, true);
        self.fifo_accesses += 1;
        self.respond(thread, Response::WriteDone { cycle: commit });
        self.service_pending_read(fifo);
    }

    /// After a read commits, wake a parked blocking write whose slot is now
    /// known to free up.
    fn service_pending_write(&mut self, fifo: usize) {
        if self.tables[fifo].pending_write().is_none() {
            return;
        }
        let depth = self.depths[fifo];
        let ordinal = self.tables[fifo].writes_committed() + 1;
        let ready = if ordinal <= depth {
            Some(
                self.tables[fifo]
                    .pending_write()
                    .expect("pending write")
                    .cycle,
            )
        } else {
            self.tables[fifo]
                .read_cycle(ordinal - depth)
                .map(|read_cycle| {
                    let pending = self.tables[fifo].pending_write().expect("pending write");
                    pending.cycle.max(read_cycle + 1)
                })
        };
        if let Some(commit) = ready {
            let pending = self.tables[fifo]
                .take_pending_write()
                .expect("pending write present");
            self.commit_blocking_write(pending.thread, fifo, pending.cycle, commit, pending.value);
        }
    }

    /// Commits a blocking read whose matching write is already in the table.
    fn commit_blocking_read(
        &mut self,
        thread: ThreadId,
        fifo: usize,
        request_cycle: u64,
        write_cycle: u64,
    ) {
        let commit = request_cycle.max(write_cycle + 1);
        let ordinal = self.tables[fifo].reads_committed() + 1;
        let write_node = self.tables[fifo]
            .write_node(ordinal)
            .expect("matching write exists");
        let node = self.new_event_node(thread, request_cycle, commit);
        self.graph.add_edge(write_node, node, 1);
        let value = self.tables[fifo].commit_read(commit, node);
        self.fifo_accesses += 1;
        self.respond(
            thread,
            Response::ReadValue {
                value,
                cycle: commit,
            },
        );
        self.service_pending_write(fifo);
    }

    /// After a write commits, wake a parked blocking read if its matching
    /// write is now available.
    fn service_pending_read(&mut self, fifo: usize) {
        if self.tables[fifo].pending_read().is_none() {
            return;
        }
        if let Some(write_cycle) = self.tables[fifo].next_read_ready() {
            let pending = self.tables[fifo]
                .take_pending_read()
                .expect("pending read present");
            self.commit_blocking_read(pending.thread, fifo, pending.cycle, write_cycle);
        }
    }

    fn try_resolve_or_pool(&mut self, query: Query) {
        let resolution = query.resolve(
            &self.tables[query.fifo.index()],
            self.depths[query.fifo.index()],
        );
        match resolution {
            Resolution::Unknown => self.pool.push(query),
            Resolution::True => self.apply_resolution(query, true),
            Resolution::False => self.apply_resolution(query, false),
        }
    }

    fn apply_resolution(&mut self, query: Query, outcome: bool) {
        self.constraints.push(Constraint {
            fifo: query.fifo,
            kind: query.kind,
            ordinal: query.ordinal,
            node: query.node,
            outcome,
        });
        match query.kind {
            QueryKind::NbWrite => {
                if outcome {
                    self.tables[query.fifo.index()].commit_write(
                        query.value,
                        query.cycle,
                        query.node,
                        false,
                    );
                    self.fifo_accesses += 1;
                    self.service_pending_read(query.fifo.index());
                }
                self.respond(query.thread, Response::NbWrite { accepted: outcome });
            }
            QueryKind::NbRead => {
                if outcome {
                    let value =
                        self.tables[query.fifo.index()].commit_read(query.cycle, query.node);
                    self.fifo_accesses += 1;
                    self.respond(query.thread, Response::NbRead { value: Some(value) });
                    self.service_pending_write(query.fifo.index());
                } else {
                    self.respond(query.thread, Response::NbRead { value: None });
                }
            }
            QueryKind::CanRead | QueryKind::CanWrite => {
                self.respond(query.thread, Response::Status { value: outcome });
            }
        }
    }

    /// Picks the pending query to force-resolve as `false` when every
    /// thread is paused and nothing can otherwise make progress.
    ///
    /// The naive §7.1 rule ("force the earliest query") assumes each
    /// thread's future accesses are at or past its pending one — which
    /// pipelined iteration overlap violates: a paused thread's *next*
    /// iteration can schedule accesses earlier than its pending
    /// late-offset access. The selection therefore consults each paused
    /// thread's forward-progress frontier:
    ///
    /// * a query is *safe* to force when every other paused thread's
    ///   frontier is at or past the query's cycle (no enabling access can
    ///   still appear strictly before it) — the forced `false` is then
    ///   exact, not heuristic;
    /// * candidates are ordered by `(cycle, frontier descending, thread)`:
    ///   earliest first, and among same-cycle queries the thread that can
    ///   reach further back in time is kept runnable longer;
    /// * if no query is provably safe (mutual overlap), the first candidate
    ///   in that order is forced to keep the simulation moving — the same
    ///   deterministic order the cycle-stepped reference applies, so the
    ///   two backends agree even on the heuristic corner.
    fn choose_forced_query(&self) -> Option<usize> {
        if self.pool.is_empty() {
            return None;
        }
        let mut order: Vec<usize> = (0..self.pool.pending()).collect();
        order.sort_by_key(|&i| {
            let q = self.pool.get(i);
            (
                q.cycle,
                std::cmp::Reverse(self.frontier[q.thread]),
                q.thread,
            )
        });
        let safe = order.iter().copied().find(|&i| {
            let q = self.pool.get(i);
            self.paused
                .iter()
                .enumerate()
                .all(|(t, &p)| t == q.thread || !p || self.frontier[t] >= q.cycle)
        });
        safe.or(Some(order[0]))
    }

    /// Step 4 of Fig. 7: with every Func Sim thread paused, resolve as many
    /// queries as possible; if none can be resolved, apply the
    /// forward-progress rule of §7.1 or report a deadlock.
    fn resolve_phase(&mut self) {
        loop {
            let mut progressed = false;
            let mut index = 0;
            while index < self.pool.pending() {
                let resolution = {
                    let query = self.pool.get(index);
                    query.resolve(
                        &self.tables[query.fifo.index()],
                        self.depths[query.fifo.index()],
                    )
                };
                match resolution {
                    Resolution::Unknown => index += 1,
                    Resolution::True => {
                        let query = self.pool.take(index);
                        self.apply_resolution(query, true);
                        progressed = true;
                    }
                    Resolution::False => {
                        let query = self.pool.take(index);
                        self.apply_resolution(query, false);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }

        if self.active == 0 && self.accounted() < self.total_threads {
            if let Some(index) = self.choose_forced_query() {
                // §7.1 forward progress: the chosen access's target event
                // (still unknown) cannot commit strictly before it, so the
                // access fails.
                let query = self.pool.take_forced_at(index);
                self.apply_resolution(query, false);
            } else {
                let blocked = self.describe_deadlock();
                let summary = blocked.join("; ");
                self.deadlock = Some(blocked);
                self.shutdown = true;
                self.abort_all_paused(&format!("unresolvable deadlock detected: {summary}"));
            }
        }
    }

    fn describe_deadlock(&self) -> Vec<String> {
        let mut blocked = Vec::new();
        for (fifo_index, table) in self.tables.iter().enumerate() {
            if let Some(pending) = table.pending_read() {
                blocked.push(format!(
                    "task '{}' blocked reading fifo '{}' since cycle {}",
                    self.task_names[pending.thread],
                    self.design.fifos[fifo_index].name,
                    pending.cycle
                ));
            }
            if let Some(pending) = table.pending_write() {
                blocked.push(format!(
                    "task '{}' blocked writing full fifo '{}' since cycle {}",
                    self.task_names[pending.thread],
                    self.design.fifos[fifo_index].name,
                    pending.cycle
                ));
            }
        }
        if blocked.is_empty() {
            vec!["all tasks are paused with no pending queries".to_owned()]
        } else {
            blocked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalOutcome;
    use crate::test_fixtures::{nb_drop_counter, producer_consumer};
    use omnisim_ir::{DesignBuilder, Expr};
    use omnisim_rtlsim::RtlSimulator;

    fn cyclic_controller_processor(n: i64) -> Design {
        let mut d = DesignBuilder::new("ex3");
        let req = d.fifo("req", 2);
        let resp = d.fifo("resp", 2);
        let out = d.output("sum");
        let controller = d.function("controller", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, Expr::imm(0));
            });
            m.counted_loop("i", n, 1, |b| {
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
            m.counted_loop("i", n, 1, |b| {
                let v = b.fifo_read(req);
                b.fifo_write(resp, Expr::var(v).mul(Expr::imm(2)));
            });
        });
        d.dataflow_top("top", [controller, processor]);
        d.build().unwrap()
    }

    #[test]
    fn type_a_matches_reference_exactly() {
        for (n, depth, ii) in [(32, 2, 1), (64, 4, 2), (100, 1, 1)] {
            let design = producer_consumer(n, depth, ii);
            let reference = RtlSimulator::new(&design).run().unwrap();
            let report = OmniSimulator::new(&design).run().unwrap();
            assert!(report.outcome.is_completed());
            assert_eq!(report.outputs, reference.outputs);
            assert_eq!(
                report.total_cycles, reference.total_cycles,
                "n={n} depth={depth} ii={ii}"
            );
        }
    }

    #[test]
    fn cyclic_blocking_design_matches_reference() {
        let design = cyclic_controller_processor(50);
        let reference = RtlSimulator::new(&design).run().unwrap();
        let report = OmniSimulator::new(&design).run().unwrap();
        assert_eq!(report.outputs, reference.outputs);
        assert_eq!(report.output("sum"), Some((0..50).map(|i| i * 2).sum()));
        assert_eq!(report.total_cycles, reference.total_cycles);
    }

    #[test]
    fn nonblocking_drop_counter_matches_reference() {
        for (n, depth, ii) in [(32, 1, 4), (64, 2, 3), (48, 4, 2)] {
            let design = nb_drop_counter(n, depth, ii);
            let reference = RtlSimulator::new(&design).run().unwrap();
            let report = OmniSimulator::new(&design).run().unwrap();
            assert_eq!(
                report.outputs, reference.outputs,
                "functional outputs must match the reference (n={n} depth={depth} ii={ii})"
            );
            assert_eq!(report.total_cycles, reference.total_cycles);
            assert!(report.output("dropped").unwrap() > 0, "drops must occur");
        }
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let mut d = DesignBuilder::new("deadlock");
        let a2b = d.fifo("a2b", 2);
        let b2a = d.fifo("b2a", 2);
        let ta = d.function("task_a", |m| {
            m.entry(|b| {
                let v = b.fifo_read(b2a);
                b.fifo_write(a2b, Expr::var(v));
            });
        });
        let tb = d.function("task_b", |m| {
            m.entry(|b| {
                let v = b.fifo_read(a2b);
                b.fifo_write(b2a, Expr::var(v));
            });
        });
        d.dataflow_top("top", [ta, tb]);
        let design = d.build().unwrap();
        let report = OmniSimulator::new(&design).run().unwrap();
        assert!(report.outcome.is_deadlock());
        match &report.outcome {
            OmniOutcome::Deadlock { blocked } => {
                let detail = blocked.join("; ");
                assert!(detail.contains("task_a"));
                assert!(detail.contains("task_b"));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let design = nb_drop_counter(64, 2, 3);
        let first = OmniSimulator::new(&design).run().unwrap();
        for _ in 0..5 {
            let again = OmniSimulator::new(&design).run().unwrap();
            assert_eq!(again.outputs, first.outputs);
            assert_eq!(again.total_cycles, first.total_cycles);
        }
    }

    #[test]
    fn incremental_state_matches_full_resimulation_when_valid() {
        let design = producer_consumer(64, 2, 2);
        let report = OmniSimulator::new(&design).run().unwrap();
        for depth in [4usize, 16, 64] {
            match report.incremental.try_with_depths(&[depth]).unwrap() {
                IncrementalOutcome::Valid { total_cycles } => {
                    let resized = design.with_fifo_depths(&[depth]);
                    let full = OmniSimulator::new(&resized).run().unwrap();
                    assert_eq!(total_cycles, full.total_cycles, "depth {depth}");
                }
                other => panic!("expected valid incremental result, got {other:?}"),
            }
        }
    }

    #[test]
    fn task_errors_are_reported() {
        let mut d = DesignBuilder::new("oob");
        let data = d.array("data", vec![1, 2, 3]);
        let out = d.output("x");
        d.function_top("f", |m| {
            m.entry(|b| {
                let v = b.array_load(data, Expr::imm(99));
                b.output(out, Expr::var(v));
            });
        });
        let design = d.build().unwrap();
        let err = OmniSimulator::new(&design).run().unwrap_err();
        match err {
            OmniError::Task { task, error } => {
                assert_eq!(task, "f");
                assert!(matches!(error, SimError::ArrayOutOfBounds { .. }));
            }
            other => panic!("expected task error, got {other}"),
        }
    }

    #[test]
    fn front_end_reports_taxonomy() {
        let design = nb_drop_counter(8, 1, 2);
        let sim = OmniSimulator::new(&design);
        assert_eq!(
            sim.taxonomy().class,
            omnisim_ir::DesignClass::TypeC,
            "drop counters make behaviour depend on NB outcomes"
        );
        assert!(sim.front_end_time() <= Duration::from_secs(1));
    }
}
