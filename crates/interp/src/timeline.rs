//! Hardware-cycle bookkeeping for one executing module.
//!
//! A [`Timeline`] tracks one module's position in hardware time as it moves
//! through scheduled basic blocks, applying the timing-model contract that
//! every simulator shares through the executor:
//!
//! * entering a block places its operations at `entry + offset`,
//! * stalls accumulate and push back everything that follows,
//! * re-entering a pipelined block applies the initiation interval instead
//!   of the full block latency.

use omnisim_ir::schedule::BlockSchedule;

/// Tracks the hardware time of one module as it executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    entry: u64,
    delay: u64,
    latency: u64,
    interval: u64,
    started: bool,
}

impl Timeline {
    /// Creates a timeline whose first block will be entered at cycle `start`.
    #[inline]
    pub fn starting_at(start: u64) -> Self {
        Timeline {
            entry: start,
            delay: 0,
            latency: 0,
            interval: 0,
            started: false,
        }
    }

    /// Enters a basic block. `back_edge` selects the initiation interval
    /// instead of the full latency for pipelined self-loops.
    #[inline]
    pub fn enter_block(&mut self, schedule: &BlockSchedule, back_edge: bool) {
        if self.started {
            let advance = if back_edge {
                self.interval
            } else {
                self.latency
            };
            self.entry = self.entry + self.delay + advance;
        }
        self.delay = 0;
        self.latency = schedule.latency;
        self.interval = schedule.iteration_interval();
        self.started = true;
    }

    /// The cycle at which an operation scheduled at `offset` executes,
    /// including any stall accumulated so far in the current block.
    #[inline]
    pub fn op_cycle(&self, offset: u64) -> u64 {
        self.entry + self.delay + offset
    }

    /// Records that the operation at `offset` could not complete before
    /// `ready`; pushes back the rest of the block (and everything after it).
    ///
    /// Returns the cycle at which the operation actually completes.
    #[inline]
    pub fn stall_until(&mut self, offset: u64, ready: u64) -> u64 {
        let nominal = self.op_cycle(offset);
        if ready > nominal {
            self.delay += ready - nominal;
        }
        self.op_cycle(offset)
    }

    /// The cycle at which the current block exits.
    #[inline]
    pub fn block_exit(&self) -> u64 {
        self.entry + self.delay + self.latency
    }

    /// The cycle at which the current block was entered (including stalls
    /// from previous blocks).
    #[inline]
    pub fn block_entry(&self) -> u64 {
        self.entry
    }

    /// Lower bound on the entry cycle of any *future* block instance: the
    /// next instance starts no earlier than `entry + delay + interval`
    /// (pipelined back edges re-enter after the initiation interval; every
    /// other transition advances by the full latency, which is at least the
    /// interval). Because stalls only ever push entries later, no operation
    /// of a future block instance can be scheduled before this cycle — the
    /// thread's forward-progress *frontier* used by the engines' forced
    /// query resolution.
    #[inline]
    pub fn next_entry_floor(&self) -> u64 {
        self.entry + self.delay + self.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_blocks_advance_by_latency() {
        let mut t = Timeline::starting_at(1);
        t.enter_block(&BlockSchedule::new(3), false);
        assert_eq!(t.block_entry(), 1);
        assert_eq!(t.op_cycle(2), 3);
        assert_eq!(t.block_exit(), 4);
        t.enter_block(&BlockSchedule::new(2), false);
        assert_eq!(t.block_entry(), 4);
        assert_eq!(t.block_exit(), 6);
    }

    #[test]
    fn pipelined_back_edges_advance_by_ii() {
        let mut t = Timeline::starting_at(0);
        let sched = BlockSchedule::pipelined(4, 1);
        t.enter_block(&sched, false);
        assert_eq!(t.block_entry(), 0);
        t.enter_block(&sched, true);
        assert_eq!(t.block_entry(), 1);
        t.enter_block(&sched, true);
        assert_eq!(t.block_entry(), 2);
        // Leaving the loop uses the full latency of the last iteration.
        t.enter_block(&BlockSchedule::new(1), false);
        assert_eq!(t.block_entry(), 6);
    }

    #[test]
    fn stalls_push_back_later_operations() {
        let mut t = Timeline::starting_at(0);
        t.enter_block(&BlockSchedule::new(4), false);
        assert_eq!(t.op_cycle(1), 1);
        let actual = t.stall_until(1, 5);
        assert_eq!(actual, 5);
        // A later op in the same block is delayed by the same amount.
        assert_eq!(t.op_cycle(2), 6);
        assert_eq!(t.block_exit(), 8);
    }

    #[test]
    fn stall_until_earlier_cycle_is_a_no_op() {
        let mut t = Timeline::starting_at(0);
        t.enter_block(&BlockSchedule::new(2), false);
        let actual = t.stall_until(1, 0);
        assert_eq!(actual, 1);
        assert_eq!(t.block_exit(), 2);
    }

    #[test]
    fn first_block_starts_at_requested_cycle() {
        let mut t = Timeline::starting_at(17);
        t.enter_block(&BlockSchedule::new(1), false);
        assert_eq!(t.block_entry(), 17);
    }
}
