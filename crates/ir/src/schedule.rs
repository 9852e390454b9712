//! Static scheduling information attached to basic blocks.
//!
//! In a real HLS flow this information comes out of C synthesis: every basic
//! block of a module is assigned a latency in clock cycles, every operation a
//! start cycle within its block, and pipelined loops an initiation interval
//! (II). All simulators in this workspace honour the same interpretation,
//! documented on [`BlockSchedule`].

/// The static schedule of one basic block.
///
/// *Interpretation* (the "timing model contract" shared by every simulator):
///
/// * A module enters the block at some absolute cycle `T`.
/// * The operation with offset `o` nominally executes at cycle `T + o`
///   (plus any stall accumulated by earlier operations of the same block).
/// * The block nominally exits at `T + latency` (plus accumulated stalls).
/// * If the block is a self-looping pipelined loop body (its terminator can
///   branch back to itself) and [`BlockSchedule::ii`] is set, the *next*
///   iteration enters at `T + ii` (plus stalls) rather than at block exit,
///   which reproduces the `(trip_count − 1) × II + latency` latency formula
///   of a pipelined HLS loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockSchedule {
    /// Number of clock cycles from block entry to block exit, absent stalls.
    pub latency: u64,
    /// Initiation interval for pipelined self-loops. `None` means the block
    /// is not pipelined and back-to-back iterations are `latency` apart.
    pub ii: Option<u64>,
}

impl BlockSchedule {
    /// Creates a non-pipelined schedule with the given latency.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero; every scheduled block consumes at least
    /// one cycle (combinational chains are folded into their parent block).
    pub fn new(latency: u64) -> Self {
        assert!(latency > 0, "block latency must be at least one cycle");
        Self { latency, ii: None }
    }

    /// Creates a pipelined schedule with the given latency and initiation
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics if `latency` or `ii` is zero, or if `ii > latency`.
    pub fn pipelined(latency: u64, ii: u64) -> Self {
        assert!(latency > 0, "block latency must be at least one cycle");
        assert!(ii > 0, "initiation interval must be at least one cycle");
        assert!(
            ii <= latency,
            "initiation interval cannot exceed block latency"
        );
        Self {
            latency,
            ii: Some(ii),
        }
    }

    /// Cycles between consecutive iterations when the block loops to itself.
    pub fn iteration_interval(&self) -> u64 {
        self.ii.unwrap_or(self.latency)
    }
}

impl Default for BlockSchedule {
    /// A single-cycle, non-pipelined block.
    fn default() -> Self {
        Self::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_cycle() {
        let s = BlockSchedule::default();
        assert_eq!(s.latency, 1);
        assert_eq!(s.iteration_interval(), 1);
    }

    #[test]
    fn pipelined_iteration_interval() {
        let s = BlockSchedule::pipelined(4, 1);
        assert_eq!(s.iteration_interval(), 1);
        assert_eq!(s.latency, 4);
    }

    #[test]
    fn non_pipelined_interval_equals_latency() {
        assert_eq!(BlockSchedule::new(3).iteration_interval(), 3);
    }

    #[test]
    #[should_panic(expected = "latency must be at least one")]
    fn zero_latency_rejected() {
        let _ = BlockSchedule::new(0);
    }

    #[test]
    #[should_panic(expected = "initiation interval cannot exceed")]
    fn ii_larger_than_latency_rejected() {
        let _ = BlockSchedule::pipelined(2, 3);
    }
}
