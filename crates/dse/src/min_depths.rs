//! Minimum-depth search: the inverse DSE query.
//!
//! Grid sweeps answer "what latency does this depth vector give?"; FIFO
//! sizing usually wants the inverse — "what is the *smallest* depth per
//! FIFO that still meets a latency target?". Because removing WAR edges
//! (growing a FIFO) can only lower longest-path times, plan *latency* is
//! monotonically non-increasing in every depth. Constraint *validity* is
//! not monotone, though: on non-blocking designs, both growing and
//! shrinking a FIFO can flip recorded outcomes. So the search is anchored
//! at the one depth vector guaranteed to certify — the baseline depths the
//! plan was compiled from — and each FIFO is binary-searched between 1 and
//! its nearest known-good depth (the baseline anchor, or the search bound
//! when that certifies too) while every other FIFO is held at its anchor.
//! The whole search costs ≈ `fifos · log2(max_depth)` evaluations on one
//! warm [`CompiledVm`](crate::CompiledVm) instead of a full grid.
//!
//! Probes whose recorded constraints no longer hold are conservatively
//! treated as *not meeting the target*: the plan cannot certify their
//! latency without a full re-simulation, and a sizing workflow wants
//! certified answers. (Because validity is not monotone, the reported
//! minimum is the boundary of the certified region around the anchor — a
//! certified depth below an uncertified gap would be missed; it could only
//! be confirmed by full re-simulation anyway.) The combined result is
//! re-evaluated once so callers can see whether the joint minimum still
//! certifies.

use crate::bytecode::CompiledPlan;
use crate::plan::PlanError;
use omnisim::IncrementalOutcome;

/// The result of a [`CompiledPlan::min_depths`] search.
#[derive(Debug, Clone)]
pub struct MinDepthsReport {
    /// The latency bound the search was asked to meet.
    pub target_latency: u64,
    /// Per-FIFO minimal certified depth meeting the target with every
    /// other FIFO held at its baseline anchor; `None` when neither the
    /// anchor nor the search bound certifies the target for that FIFO.
    pub per_fifo: Vec<Option<usize>>,
    /// The joint depth vector: each FIFO at its minimum (or at its
    /// baseline anchor where no minimum was certified).
    pub depths: Vec<usize>,
    /// The plan's verdict on [`MinDepthsReport::depths`]: per-FIFO minima
    /// are individually certified, but their combination can stall more
    /// than any single probe did, so it is re-checked once.
    pub combined: IncrementalOutcome,
    /// Number of VM point evaluations the search spent.
    pub probes: usize,
}

impl MinDepthsReport {
    /// True if the joint depth vector certifiably meets the target.
    pub fn combined_meets_target(&self) -> bool {
        matches!(
            self.combined,
            IncrementalOutcome::Valid { total_cycles } if total_cycles <= self.target_latency
        )
    }
}

impl CompiledPlan {
    /// Searches, per FIFO, for the smallest depth in `1..=max_depth` whose
    /// certified latency meets `target_latency`, holding every other FIFO
    /// at its baseline anchor (the compiled run's depth, clamped to the
    /// bound); then re-evaluates the joint minima once. See the
    /// [module docs](self) for why the search is anchored at the baseline.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::ZeroBound`] if `max_depth` is zero.
    pub fn min_depths(
        &self,
        target_latency: u64,
        max_depth: usize,
    ) -> Result<MinDepthsReport, PlanError> {
        if max_depth == 0 {
            return Err(PlanError::ZeroBound);
        }
        let anchors: Vec<usize> = self
            .original_depths()
            .iter()
            .map(|&d| d.clamp(1, max_depth))
            .collect();
        let mut vm = self.vm();
        let mut probes = 0usize;
        let mut meets = |depths: &[usize]| -> Result<bool, PlanError> {
            probes += 1;
            Ok(matches!(
                vm.evaluate(depths)?,
                IncrementalOutcome::Valid { total_cycles } if total_cycles <= target_latency
            ))
        };

        // The anchor vector is the same for every FIFO's search, so its
        // verdict is probed once up front.
        let anchor_meets = meets(&anchors)?;
        let mut per_fifo: Vec<Option<usize>> = Vec::with_capacity(anchors.len());
        for f in 0..anchors.len() {
            let mut probe = anchors.clone();
            // Nearest known-good depth for this FIFO: its own anchor, or
            // the search bound (deeper never raises latency, but it can
            // flip constraints, so both are genuine probes).
            let good = if anchor_meets {
                Some(anchors[f])
            } else {
                probe[f] = max_depth;
                if meets(&probe)? {
                    Some(max_depth)
                } else {
                    None
                }
            };
            let Some(good) = good else {
                per_fifo.push(None);
                continue;
            };
            // Invariant: `hi` meets the target; depths below `lo` are not
            // known to (validity gaps report the certified-region edge).
            let (mut lo, mut hi) = (1usize, good);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                probe[f] = mid;
                if meets(&probe)? {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            per_fifo.push(Some(hi));
        }

        let depths: Vec<usize> = per_fifo
            .iter()
            .zip(&anchors)
            .map(|(d, &anchor)| d.unwrap_or(anchor))
            .collect();
        let combined = vm.evaluate(&depths)?;
        probes += 1;
        Ok(MinDepthsReport {
            target_latency,
            per_fifo,
            depths,
            combined,
            probes,
        })
    }
}
