//! The cycle-stepped simulation driver.

use crate::report::{RtlOutcome, RtlReport};
use crate::task::{SharedState, TaskState, TaskStatus};
use omnisim_interp::SimError;
use omnisim_ir::Design;
use std::time::Instant;

/// Configuration of the reference simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtlConfig {
    /// Maximum number of clock cycles to simulate before giving up.
    pub max_cycles: u64,
}

impl Default for RtlConfig {
    fn default() -> Self {
        RtlConfig {
            max_cycles: 20_000_000,
        }
    }
}

/// Cycle-stepped reference simulator (the workspace's C/RTL co-simulation
/// stand-in). See the crate-level documentation for the model.
#[derive(Debug)]
pub struct RtlSimulator<'d> {
    design: &'d Design,
    config: RtlConfig,
}

impl<'d> RtlSimulator<'d> {
    /// Creates a simulator with the default configuration.
    pub fn new(design: &'d Design) -> Self {
        Self::with_config(design, RtlConfig::default())
    }

    /// Creates a simulator with an explicit configuration.
    pub fn with_config(design: &'d Design, config: RtlConfig) -> Self {
        RtlSimulator { design, config }
    }

    /// Runs the design to completion (or deadlock / cycle limit).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for array out-of-bounds accesses or AXI
    /// protocol violations. Deadlocks and cycle-limit aborts are *not*
    /// errors; they are reported through [`RtlOutcome`].
    pub fn run(&self) -> Result<RtlReport, SimError> {
        let started = Instant::now();
        let mut shared = SharedState::new(self.design);
        let mut tasks = self
            .design
            .dataflow_tasks()
            .into_iter()
            .map(|m| TaskState::new(self.design, m))
            .collect::<Result<Vec<_>, _>>()?;

        let mut cycle = 1u64;
        let mut cycles_stepped = 0u64;
        let outcome = loop {
            if tasks.iter().all(TaskState::is_finished) {
                break RtlOutcome::Completed;
            }
            if cycle > self.config.max_cycles {
                break RtlOutcome::CycleLimit {
                    limit: self.config.max_cycles,
                };
            }

            let mut progressed_any = false;
            let mut any_waiting = false;
            let mut blocked: Vec<String> = Vec::new();
            // Forward-progress frontier of every stuck task, indexed by task.
            let mut frontiers: Vec<Option<u64>> = vec![None; tasks.len()];
            let mut undecided: Vec<(u64, usize)> = Vec::new();
            for (index, task) in tasks.iter_mut().enumerate() {
                if task.is_finished() {
                    continue;
                }
                let outcome = task.step_cycle(cycle, &mut shared, false)?;
                progressed_any |= outcome.progressed;
                match outcome.status {
                    TaskStatus::Waiting => any_waiting = true,
                    TaskStatus::Blocked { reason, frontier } => {
                        blocked.push(format!("{}: {}", task.name(), reason));
                        frontiers[index] = Some(frontier);
                    }
                    TaskStatus::Undecided {
                        effective,
                        frontier,
                    } => {
                        undecided.push((effective, index));
                        frontiers[index] = Some(frontier);
                    }
                    TaskStatus::Finished => {}
                }
            }
            cycles_stepped += 1;

            let unfinished = tasks.iter().filter(|t| !t.is_finished()).count();
            if unfinished > 0 && !progressed_any && !any_waiting {
                if !undecided.is_empty() {
                    // Forward progress (§7.1, frontier-aware): the whole
                    // simulation is stuck on undecided non-blocking outcomes,
                    // so one is resolved pessimistically using the exact
                    // selection rule of the engine's query pool: candidates
                    // ordered by (cycle, frontier descending, task), the
                    // first *safe* one (no other stuck task's frontier below
                    // its cycle) preferred, the first in order as fallback.
                    undecided.sort_by_key(|&(effective, index)| {
                        (
                            effective,
                            std::cmp::Reverse(frontiers[index].unwrap_or(u64::MAX)),
                            index,
                        )
                    });
                    let chosen = undecided
                        .iter()
                        .copied()
                        .find(|&(effective, index)| {
                            frontiers
                                .iter()
                                .enumerate()
                                .all(|(t, f)| t == index || f.is_none_or(|f| f >= effective))
                        })
                        .unwrap_or(undecided[0]);
                    let _ = tasks[chosen.1].step_cycle(cycle, &mut shared, true)?;
                } else if !blocked.is_empty() {
                    break RtlOutcome::Deadlock { cycle, blocked };
                }
            }
            cycle += 1;
        };

        let end = tasks
            .iter()
            .filter_map(TaskState::end_time)
            .max()
            .unwrap_or(cycle);
        let total_cycles = match &outcome {
            RtlOutcome::Completed => end + 1,
            RtlOutcome::Deadlock { cycle, .. } => *cycle,
            RtlOutcome::CycleLimit { limit } => *limit,
        };

        Ok(RtlReport {
            outcome,
            outputs: shared.outputs,
            total_cycles,
            cycles_stepped,
            fifo_accesses: shared.fifo_accesses,
            wall_time: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnisim_ir::{DesignBuilder, Expr};

    fn producer_consumer(n: i64, depth: usize) -> Design {
        let mut d = DesignBuilder::new("pc");
        let data = d.array("data", (1..=n).collect::<Vec<i64>>());
        let out = d.output("sum");
        let q = d.fifo("q", depth);
        let p = d.function("producer", |m| {
            m.counted_loop("i", n, 1, |b| {
                let i = b.var_expr("i");
                let v = b.array_load(data, i);
                b.fifo_write(q, Expr::var(v));
            });
        });
        let c = d.function("consumer", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, Expr::imm(0));
            });
            m.counted_loop("i", n, 1, |b| {
                let v = b.fifo_read(q);
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
    fn producer_consumer_functional_result() {
        let design = producer_consumer(100, 4);
        let report = RtlSimulator::new(&design).run().unwrap();
        assert!(report.outcome.is_completed());
        assert_eq!(report.output("sum"), Some(5050));
        // 100 pipelined iterations at II=1, plus FIFO latency: roughly N cycles.
        assert!(report.total_cycles >= 100);
        assert!(report.total_cycles < 400, "got {}", report.total_cycles);
        assert_eq!(report.fifo_accesses, 200);
    }

    #[test]
    fn smaller_fifo_depth_never_speeds_things_up() {
        let deep = RtlSimulator::new(&producer_consumer(64, 64))
            .run()
            .unwrap()
            .total_cycles;
        let shallow = RtlSimulator::new(&producer_consumer(64, 1))
            .run()
            .unwrap()
            .total_cycles;
        assert!(shallow >= deep);
    }

    #[test]
    fn mutual_blocking_reads_deadlock() {
        let mut d = DesignBuilder::new("deadlock");
        let a2b = d.fifo("a2b", 2);
        let b2a = d.fifo("b2a", 2);
        let ta = d.function("task_a", |m| {
            m.entry(|b| {
                // Waits for task_b before ever writing: classic deadlock.
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
        let report = RtlSimulator::new(&design).run().unwrap();
        assert!(report.outcome.is_deadlock());
        match report.outcome {
            RtlOutcome::Deadlock { blocked, .. } => {
                assert_eq!(blocked.len(), 2);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn nonblocking_writes_drop_when_consumer_is_slow() {
        // Producer attempts 16 NB writes back-to-back into a depth-1 FIFO
        // while the consumer drains slowly: some writes must fail.
        let mut d = DesignBuilder::new("drop");
        let q = d.fifo("q", 1);
        let sent = d.output("sent");
        let received = d.output("received");
        let p = d.function("producer", |m| {
            let ok_count = m.var("ok_count");
            m.entry(|b| {
                b.assign(ok_count, Expr::imm(0));
            });
            m.counted_loop("i", 16, 1, |b| {
                let i = b.var_expr("i");
                let ok = b.fifo_nb_write(q, i);
                b.assign(ok_count, Expr::var(ok_count).add(Expr::var(ok)));
            });
            m.exit(|b| {
                b.output(sent, Expr::var(ok_count));
            });
        });
        let c = d.function("consumer", |m| {
            let n = m.var("n");
            m.entry(|b| {
                b.assign(n, Expr::imm(0));
            });
            m.counted_loop("i", 16, 4, |b| {
                let (_v, ok) = b.fifo_nb_read(q);
                b.assign(n, Expr::var(n).add(Expr::var(ok)));
            });
            m.exit(|b| {
                b.output(received, Expr::var(n));
            });
        });
        d.dataflow_top("top", [p, c]);
        let design = d.build().unwrap();
        let report = RtlSimulator::new(&design).run().unwrap();
        let sent = report.output("sent").unwrap();
        let received = report.output("received").unwrap();
        assert!(sent < 16, "some non-blocking writes must fail, sent={sent}");
        assert!(received <= sent);
        assert!(sent >= 1);
    }

    #[test]
    fn cycle_limit_is_reported() {
        // An infinite loop that never writes anything observable.
        let mut d = DesignBuilder::new("spin");
        let q = d.fifo("q", 1);
        let spin = d.function("spin", |m| {
            m.loop_block(1, |b| {
                let t = b.tmp();
                b.assign(t, Expr::imm(1));
                b.fifo_empty_unused(q);
            });
        });
        let other = d.function("other", |m| {
            m.entry(|b| {
                b.fifo_write(q, Expr::imm(1));
            });
        });
        d.dataflow_top("top", [spin, other]);
        let design = d.build().unwrap();
        let report = RtlSimulator::with_config(&design, RtlConfig { max_cycles: 500 })
            .run()
            .unwrap();
        assert_eq!(report.outcome, RtlOutcome::CycleLimit { limit: 500 });
    }

    #[test]
    fn sequential_call_latency_is_accounted() {
        let mut d = DesignBuilder::new("call");
        let out = d.output("r");
        let helper = d.function("slow_square", |m| {
            let x = m.var("x");
            m.entry(|b| {
                b.latency(10);
                b.ret_val(Expr::var(x).mul(Expr::var(x)));
            });
        });
        d.function_top("main", |m| {
            m.entry(|b| {
                let r = b.call(helper, vec![Expr::imm(6)]);
                b.output(out, Expr::var(r));
            });
        });
        let design = d.build().unwrap();
        let report = RtlSimulator::new(&design).run().unwrap();
        assert_eq!(report.output("r"), Some(36));
        assert!(report.total_cycles >= 12, "call latency must be included");
    }

    #[test]
    fn a_callee_returning_into_its_caller_is_progress() {
        // `caller` finishes by returning from a callee that commits no
        // operation; the other two tasks deadlock at once. The cycle in which
        // the call completes counts as progress, so the deadlock is declared
        // only in the cycle after it.
        let mut d = DesignBuilder::new("late_deadlock");
        let q = d.fifo("q", 1);
        let r = d.fifo("r", 1);
        let idle = d.function("idle", |m| {
            m.entry(|b| {
                b.latency(3);
            });
        });
        let caller = d.function("caller", |m| {
            m.entry(|b| {
                b.call_void(idle, vec![]);
            });
        });
        let ping = d.function("ping", |m| {
            m.entry(|b| {
                let v = b.fifo_read(q);
                b.fifo_write(r, Expr::var(v));
            });
        });
        let pong = d.function("pong", |m| {
            m.entry(|b| {
                let v = b.fifo_read(r);
                b.fifo_write(q, Expr::var(v));
            });
        });
        d.dataflow_top("top", [caller, ping, pong]);
        let design = d.build().unwrap();
        let report = RtlSimulator::new(&design).run().unwrap();
        assert!(report.outcome.is_deadlock());
        assert_eq!(report.total_cycles, 3);
    }
}
