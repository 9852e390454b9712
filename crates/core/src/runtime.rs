//! The per-thread runtime: the [`SimBackend`] handed to every Func Sim
//! thread's interpreter.
//!
//! The runtime plays the role of the paper's runtime shared library (§6.1):
//! every FIFO intrinsic becomes a [`Request`] to the Perf Sim thread, and
//! every pausing request blocks on the thread's private response channel.
//! The interpreter's executor keeps the module's exact hardware cycle; the
//! runtime stamps each request with it and hands back the commit cycle the
//! Perf Sim thread answers with.

use crate::request::{Request, Response, ThreadId};
use omnisim_interp::{At, Halt, SimBackend, SimError};
use omnisim_ir::{ArrayId, AxiId, Design, FifoId, OutputId};
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Mutex;

/// One outstanding AXI read burst: the values snapshotted at request time
/// plus the per-burst beat pacing (the first beat is ready `request_latency`
/// cycles after the request, subsequent beats one cycle apart) — the same
/// per-burst rule the cycle-stepped reference's `AxiChannel` applies, so
/// outstanding and interleaved bursts pace identically on both backends.
#[derive(Debug, Clone)]
struct ReadBurst {
    values: VecDeque<i64>,
    ready: u64,
    index: u32,
    beats_done: u32,
}

#[derive(Debug, Default, Clone)]
struct AxiReadState {
    bursts: VecDeque<ReadBurst>,
    issued: u32,
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
}

/// The backend driving one Func Sim thread.
#[derive(Debug)]
pub struct FuncRuntime<'a> {
    thread: ThreadId,
    design: &'a Design,
    requests: Sender<Request>,
    responses: Receiver<Response>,
    arrays: &'a [Mutex<Vec<i64>>],
    axi_read: Vec<AxiReadState>,
    axi_write: Vec<AxiWriteState>,
}

impl<'a> FuncRuntime<'a> {
    /// Creates the runtime for thread `thread`.
    pub fn new(
        thread: ThreadId,
        design: &'a Design,
        requests: Sender<Request>,
        responses: Receiver<Response>,
        arrays: &'a [Mutex<Vec<i64>>],
    ) -> Self {
        FuncRuntime {
            thread,
            design,
            requests,
            responses,
            arrays,
            axi_read: vec![AxiReadState::default(); design.axi_ports.len()],
            axi_write: vec![AxiWriteState::default(); design.axi_ports.len()],
        }
    }

    fn send(&self, request: Request) -> Result<(), SimError> {
        self.requests.send(request).map_err(|_| SimError::Aborted {
            reason: "performance-simulation thread is gone".to_owned(),
        })
    }

    fn wait(&self) -> Result<Response, SimError> {
        match self.responses.recv() {
            Ok(Response::Abort { reason }) => Err(SimError::Aborted { reason }),
            Ok(response) => Ok(response),
            Err(_) => Err(SimError::Aborted {
                reason: "performance-simulation thread is gone".to_owned(),
            }),
        }
    }
}

impl SimBackend for FuncRuntime<'_> {
    type Wait = Infallible;

    fn fifo_read(&mut self, fifo: FifoId, at: At) -> Result<(i64, u64), Halt<Infallible>> {
        self.send(Request::FifoRead {
            thread: self.thread,
            fifo,
            cycle: at.cycle,
            frontier: at.frontier,
        })?;
        match self.wait()? {
            Response::ReadValue { value, cycle } => Ok((value, cycle)),
            other => Err(unexpected("blocking read", &other).into()),
        }
    }

    fn fifo_write(&mut self, fifo: FifoId, value: i64, at: At) -> Result<u64, Halt<Infallible>> {
        self.send(Request::FifoWrite {
            thread: self.thread,
            fifo,
            value,
            cycle: at.cycle,
            frontier: at.frontier,
        })?;
        match self.wait()? {
            Response::WriteDone { cycle } => Ok(cycle),
            other => Err(unexpected("blocking write", &other).into()),
        }
    }

    fn fifo_nb_read(&mut self, fifo: FifoId, at: At) -> Result<Option<i64>, Halt<Infallible>> {
        self.send(Request::FifoNbRead {
            thread: self.thread,
            fifo,
            cycle: at.cycle,
            frontier: at.frontier,
        })?;
        match self.wait()? {
            Response::NbRead { value } => Ok(value),
            other => Err(unexpected("non-blocking read", &other).into()),
        }
    }

    fn fifo_nb_write(
        &mut self,
        fifo: FifoId,
        value: i64,
        at: At,
    ) -> Result<bool, Halt<Infallible>> {
        self.send(Request::FifoNbWrite {
            thread: self.thread,
            fifo,
            value,
            cycle: at.cycle,
            frontier: at.frontier,
        })?;
        match self.wait()? {
            Response::NbWrite { accepted } => Ok(accepted),
            other => Err(unexpected("non-blocking write", &other).into()),
        }
    }

    fn fifo_empty(&mut self, fifo: FifoId, at: At) -> Result<bool, Halt<Infallible>> {
        self.send(Request::FifoCanRead {
            thread: self.thread,
            fifo,
            cycle: at.cycle,
            frontier: at.frontier,
        })?;
        match self.wait()? {
            Response::Status { value: can_read } => Ok(!can_read),
            other => Err(unexpected("empty() check", &other).into()),
        }
    }

    fn fifo_full(&mut self, fifo: FifoId, at: At) -> Result<bool, Halt<Infallible>> {
        self.send(Request::FifoCanWrite {
            thread: self.thread,
            fifo,
            cycle: at.cycle,
            frontier: at.frontier,
        })?;
        match self.wait()? {
            Response::Status { value: can_write } => Ok(!can_write),
            other => Err(unexpected("full() check", &other).into()),
        }
    }

    fn array_load(&mut self, array: ArrayId, index: i64) -> Result<i64, SimError> {
        let data = self.arrays[array.index()]
            .lock()
            .expect("array mutex poisoned");
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
        let mut data = self.arrays[array.index()]
            .lock()
            .expect("array mutex poisoned");
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
        {
            let data = self.arrays[port.array.index()]
                .lock()
                .expect("array mutex poisoned");
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
        }
        let state = &mut self.axi_read[bus.index()];
        let index = state.issued;
        state.issued += 1;
        state.bursts.push_back(ReadBurst {
            values,
            ready: at.cycle + port.request_latency,
            index,
            beats_done: 0,
        });
        self.send(Request::AxiReadReq {
            thread: self.thread,
            bus,
            cycle: at.cycle,
        })
    }

    fn axi_read(&mut self, bus: AxiId, at: At) -> Result<(i64, u64), Halt<Infallible>> {
        let (value, ready, burst, beat, done) = {
            let state = &mut self.axi_read[bus.index()];
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
            let ready = front.ready + u64::from(beat);
            (value, ready, front.index, beat, front.values.is_empty())
        };
        if done {
            self.axi_read[bus.index()].bursts.pop_front();
        }
        let commit = ready.max(at.cycle);
        self.send(Request::AxiReadBeat {
            thread: self.thread,
            bus,
            burst,
            beat,
            request: at.cycle,
            commit,
        })?;
        Ok((value, commit))
    }

    fn axi_write_req(&mut self, bus: AxiId, addr: i64, len: i64, _at: At) -> Result<(), SimError> {
        self.axi_write[bus.index()].bursts.push_back(WriteBurst {
            addr,
            len,
            beats_done: 0,
        });
        Ok(())
    }

    fn axi_write(&mut self, bus: AxiId, value: i64, at: At) -> Result<(), SimError> {
        let port = self.design.axi_port(bus);
        let state = &mut self.axi_write[bus.index()];
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
        let mut data = self.arrays[port.array.index()]
            .lock()
            .expect("array mutex poisoned");
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
        drop(data);
        self.send(Request::AxiWriteBeat {
            thread: self.thread,
            bus,
            cycle: at.cycle,
        })
    }

    fn axi_write_resp(&mut self, bus: AxiId, at: At) -> Result<u64, Halt<Infallible>> {
        let port = self.design.axi_port(bus);
        let ready = self.axi_write[bus.index()].last_beat_cycle + port.request_latency;
        let commit = ready.max(at.cycle);
        self.send(Request::AxiWriteResp {
            thread: self.thread,
            bus,
            request: at.cycle,
            commit,
        })?;
        Ok(commit)
    }

    fn output(&mut self, output: OutputId, value: i64) -> Result<(), SimError> {
        self.send(Request::Output {
            thread: self.thread,
            output,
            value,
        })
    }
}

fn unexpected(what: &str, response: &Response) -> SimError {
    SimError::Aborted {
        reason: format!("unexpected response to {what}: {response:?}"),
    }
}
