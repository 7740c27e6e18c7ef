//! Weighted balls and capacity-constrained bins.
//!
//! The paper's process moves *unit* balls: every non-empty bin releases one
//! ball per round, and legitimacy bounds the ball **count** per bin. This
//! module generalizes both sides of that assumption without touching the
//! dynamics:
//!
//! * [`Weights`] assigns each ball an integer weight ≥ 1. The dynamics stay
//!   **weight-oblivious** — each non-empty bin still releases exactly one
//!   ball per round, chosen FIFO by arrival order, and the destination draw
//!   is the same uniform draw the unit process makes. Weights are therefore
//!   a *metric overlay*: they change what "load" means (weighted load,
//!   weighted legitimacy), never how many RNG draws a round consumes or in
//!   which order. The unit configuration is bit-identical to the
//!   pre-weighted engines — same trajectory, same stream, same snapshots.
//! * [`Capacities`] bounds each bin. The process does not *enforce* bounds
//!   (a uniform re-assignment cannot), it **observes** them: engines count
//!   capacity-violating bins per round, the quantity the binpacking
//!   baseline in `crates/baselines` respects by construction.
//!
//! [`WeightLayer`] is the shared engine-side state every load engine
//! (dense, sparse, sharded) carries: an optional [`WeightOverlay`] — per-bin
//! FIFO weight queues kept in lock-step with the load vector — plus the
//! observed [`Capacities`]. It owns construction, the snapshot section, the
//! place/depart bookkeeping and the per-round hooks, so an engine only
//! supplies its occupied bins in its canonical order — departing bins in
//! ascending bin order within each RNG stream. The weighted sparse engine is
//! therefore bit-identical to the weighted dense engine, exactly as in the
//! unit regime.

use std::collections::VecDeque;

use crate::det_hash::DetHashMap;
use crate::snapshot::{
    SnapshotError, WeightedSection, SNAPSHOT_VERSION, SNAPSHOT_VERSION_WEIGHTED,
};

/// Default maximum weight of the deterministic Zipf assignment.
pub const DEFAULT_ZIPF_W_MAX: u32 = 100;

/// Per-ball weight assignment, enumerated ball by ball in bin order over
/// the start configuration (bin 0's balls first, then bin 1's, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Weights {
    /// Every ball weighs 1 — the fast path, statically equivalent to the
    /// pre-weighted engines (no overlay is built at all).
    Unit,
    /// Explicit per-ball weights, each ≥ 1.
    Explicit(Vec<u32>),
}

impl Weights {
    /// Deterministic Zipf-skewed weights: ball `k` (0-indexed) weighs
    /// `max(1, round(w_max / (k+1)^s))`. No RNG is consumed — the skew is
    /// a fixed profile, so two runs of the same spec see identical weights
    /// regardless of engine or seed.
    pub fn zipf(balls: u64, s: f64, w_max: u32) -> Self {
        assert!(s.is_finite() && s > 0.0, "zipf exponent must be positive");
        assert!(w_max >= 1, "zipf w_max must be at least 1");
        let ws = (0..balls)
            .map(|k| {
                let scaled = f64::from(w_max) / ((k + 1) as f64).powf(s);
                // rbb-lint: allow(lossy-cast, reason = "value is clamped into [1, w_max] before the cast")
                scaled.round().clamp(1.0, f64::from(w_max)) as u32
            })
            .collect();
        Weights::Explicit(ws).normalized()
    }

    /// Whether this is the unit assignment (after [`Self::normalized`]).
    pub fn is_unit(&self) -> bool {
        matches!(self, Weights::Unit)
    }

    /// Canonicalizes: an explicit all-ones vector *is* the unit assignment,
    /// so it collapses to [`Weights::Unit`] and engines skip the overlay
    /// entirely — `explicit [1,1,…]` specs stay bit-identical to `unit`
    /// down to the snapshot bytes.
    pub fn normalized(self) -> Self {
        match self {
            Weights::Explicit(ws) if ws.iter().all(|&w| w == 1) => Weights::Unit,
            other => other,
        }
    }

    /// Total weight of `balls` balls under this assignment.
    pub fn total(&self, balls: u64) -> u64 {
        match self {
            Weights::Unit => balls,
            Weights::Explicit(ws) => ws.iter().map(|&w| u64::from(w)).sum(),
        }
    }

    /// Structural validation against a ball count: explicit vectors must
    /// cover every ball exactly once with weights ≥ 1.
    pub fn validate(&self, balls: u64) -> Result<(), String> {
        match self {
            Weights::Unit => Ok(()),
            Weights::Explicit(ws) => {
                if ws.len() as u64 != balls {
                    return Err(format!(
                        "explicit weights list {} balls, the start configuration has {balls}",
                        ws.len()
                    ));
                }
                if let Some(k) = ws.iter().position(|&w| w == 0) {
                    return Err(format!("ball {k} has weight 0 (weights must be >= 1)"));
                }
                Ok(())
            }
        }
    }
}

/// Per-bin capacity bounds, observed (not enforced) by the engines.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Capacities {
    /// No bounds — the default, and the only mode the unit fast path needs.
    #[default]
    Unbounded,
    /// Every bin bounds its weighted load by the same value (≥ 1).
    Uniform(u64),
    /// Per-bin bounds, one per bin.
    Explicit(Vec<u64>),
}

impl Capacities {
    /// Whether no bin is bounded.
    pub fn is_unbounded(&self) -> bool {
        matches!(self, Capacities::Unbounded)
    }

    /// The bound of one bin, `None` when unbounded.
    pub fn bound(&self, bin: usize) -> Option<u64> {
        match self {
            Capacities::Unbounded => None,
            Capacities::Uniform(c) => Some(*c),
            Capacities::Explicit(cs) => cs.get(bin).copied(),
        }
    }

    /// Snapshot kind tag: `"unbounded"`, `"uniform"`, or `"explicit"`.
    pub fn kind_str(&self) -> &'static str {
        match self {
            Capacities::Unbounded => "unbounded",
            Capacities::Uniform(_) => "uniform",
            Capacities::Explicit(_) => "explicit",
        }
    }

    /// The serialized bound list: empty / one element / one per bin.
    pub fn bounds_vec(&self) -> Vec<u64> {
        match self {
            Capacities::Unbounded => Vec::new(),
            Capacities::Uniform(c) => vec![*c],
            Capacities::Explicit(cs) => cs.clone(),
        }
    }

    /// Rebuilds from the snapshot encoding of [`Self::kind_str`] +
    /// [`Self::bounds_vec`].
    pub fn from_parts(kind: &str, bounds: &[u64]) -> Result<Self, String> {
        match kind {
            "unbounded" if bounds.is_empty() => Ok(Capacities::Unbounded),
            "unbounded" => Err("unbounded capacities carry no bounds".to_string()),
            "uniform" => match bounds {
                [c] => Ok(Capacities::Uniform(*c)),
                _ => Err(format!(
                    "uniform capacities need exactly 1 bound, got {}",
                    bounds.len()
                )),
            },
            "explicit" => Ok(Capacities::Explicit(bounds.to_vec())),
            other => Err(format!(
                "unknown capacity kind '{other}' (unbounded | uniform | explicit)"
            )),
        }
    }

    /// Structural validation against a bin count.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        match self {
            Capacities::Unbounded => Ok(()),
            Capacities::Uniform(c) => {
                if *c == 0 {
                    return Err("uniform capacity must be at least 1".to_string());
                }
                Ok(())
            }
            Capacities::Explicit(cs) => {
                if cs.len() != n {
                    return Err(format!(
                        "explicit capacities list {} bins, the configuration has {n}",
                        cs.len()
                    ));
                }
                if let Some(b) = cs.iter().position(|&c| c == 0) {
                    return Err(format!("bin {b} has capacity 0 (capacities must be >= 1)"));
                }
                Ok(())
            }
        }
    }
}

/// Engine-side weighted state: per-bin FIFO weight queues (front = next
/// ball to depart) plus the derived weighted-load map, both keyed on the
/// **occupied** bins only — an `m ≪ n` sparse run never pays `O(n)`.
///
/// The overlay is pure metric state: it never touches the RNG. Engines
/// keep the invariant `queue(b).len() == load(b)` for every bin (the unit
/// load vector remains the single source of truth for the dynamics) and
/// drive rounds through the two-phase `transport`, which models the
/// paper's simultaneous departures: all departing front weights are popped
/// before any arrival is pushed, so a bin that both releases and receives
/// in one round still releases its *original* front ball.
#[derive(Debug, Clone, Default)]
pub struct WeightOverlay {
    /// FIFO weight queue per occupied bin.
    queues: DetHashMap<u32, VecDeque<u32>>,
    /// Weighted load per occupied bin (sum of its queue).
    wload: DetHashMap<u32, u64>,
    /// Total weight in the system.
    total: u64,
    /// Scratch: the departing bins of the in-flight round, in canonical
    /// (ascending within each stream) order. Cleared and refilled through
    /// [`WeightLayer::sources`] each weighted round; never part of the
    /// resumable state.
    srcs: Vec<u32>,
    /// Scratch for the pop phase of [`Self::transport`]: `(dest, weight)`.
    moves: Vec<(u32, u32)>,
}

impl WeightOverlay {
    /// Builds the overlay from a sorted occupied-bin iterator and the
    /// per-ball weight vector, consumed ball by ball in bin order (the
    /// enumeration [`Weights`] documents). Repeated bins append.
    pub fn from_entries(entries: impl IntoIterator<Item = (u32, u32)>, weights: &[u32]) -> Self {
        let mut overlay = WeightOverlay::default();
        let mut next = 0usize;
        for (bin, load) in entries {
            let take = load as usize;
            assert!(
                next + take <= weights.len(),
                "weight vector shorter than the ball count"
            );
            for &w in &weights[next..next + take] {
                overlay.place(bin, w);
            }
            next += take;
        }
        assert_eq!(
            next,
            weights.len(),
            "weight vector longer than the ball count"
        );
        overlay
    }

    /// Total weight currently in the system.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Weighted load of one bin (0 when empty).
    #[inline]
    pub fn weighted_load(&self, bin: u32) -> u64 {
        self.wload.get(&bin).copied().unwrap_or(0)
    }

    /// Maximum weighted load over all bins — `O(#occupied)`.
    pub fn weighted_max_load(&self) -> u64 {
        // rbb-lint: allow(unordered-iter, reason = "max over u64 values is order-independent")
        self.wload.values().copied().max().unwrap_or(0)
    }

    /// Number of occupied bins whose weighted load exceeds its capacity —
    /// `O(#occupied)`; empty bins can never violate (capacities are ≥ 1).
    pub fn capacity_violations(&self, caps: &Capacities) -> u64 {
        if caps.is_unbounded() {
            return 0;
        }
        // rbb-lint: allow(unordered-iter, reason = "counting violators is order-independent")
        self.wload
            .iter()
            .filter(|(&bin, &w)| caps.bound(bin as usize).is_some_and(|c| w > c))
            .count() as u64
    }

    /// The round's weighted transport, pairing the `k`-th departing bin in
    /// `self.srcs` with the `k`-th destination draw in `dests`.
    /// Two-phase: every departing front weight is popped before any is
    /// pushed (simultaneous departures), preserving `total`.
    fn transport(&mut self, dests: impl IntoIterator<Item = u32>) {
        let mut srcs = std::mem::take(&mut self.srcs);
        let mut moves = std::mem::take(&mut self.moves);
        moves.clear();
        for (&src, dest) in srcs.iter().zip(dests) {
            let w = self.pop_front(src);
            moves.push((dest, w));
        }
        debug_assert_eq!(srcs.len(), moves.len(), "one destination per departure");
        for &(dest, w) in &moves {
            self.push_back(dest, w);
        }
        // The departure list is consumed: round-scoped scratch, restored
        // empty (capacity kept) for the next round's refill.
        srcs.clear();
        self.moves = moves;
        self.srcs = srcs;
    }

    /// Incremental arrival of one ball of weight `w` into `bin`.
    pub fn place(&mut self, bin: u32, w: u32) {
        self.push_back(bin, w);
        self.total += u64::from(w);
    }

    /// Incremental departure of `bin`'s front ball; returns its weight, or
    /// `None` when the bin is empty.
    pub fn depart(&mut self, bin: u32) -> Option<u32> {
        if !self.queues.contains_key(&bin) {
            return None;
        }
        let w = self.pop_front(bin);
        self.total -= u64::from(w);
        Some(w)
    }

    /// The canonical snapshot encoding: `(bin, weights front→back)` pairs
    /// sorted by bin index.
    pub fn queues_sorted(&self) -> Vec<(u32, Vec<u32>)> {
        let mut out: Vec<(u32, Vec<u32>)> = self
            // rbb-lint: allow(unordered-iter, reason = "collected then sorted by bin before use")
            .queues
            .iter()
            .map(|(&bin, q)| (bin, q.iter().copied().collect()))
            .collect();
        out.sort_unstable_by_key(|&(bin, _)| bin);
        out
    }

    /// Rebuilds from the snapshot encoding of [`Self::queues_sorted`].
    pub fn from_queues(queues: &[(u32, Vec<u32>)]) -> Self {
        let mut overlay = WeightOverlay::default();
        // rbb-lint: allow(unordered-iter, reason = "`queues` here is the sorted snapshot slice parameter, not the map field")
        for (bin, ws) in queues {
            for &w in ws {
                overlay.place(*bin, w);
            }
        }
        overlay
    }

    /// Checks the lock-step invariant against a load lookup over the
    /// occupied bins: every queue length equals its bin's load and the
    /// per-bin weighted loads sum to `total`.
    pub fn check_against(&self, occupied: impl Iterator<Item = (u32, u32)>) -> Result<(), String> {
        let mut seen = 0usize;
        for (bin, load) in occupied {
            let qlen = self.queues.get(&bin).map_or(0, VecDeque::len);
            if qlen != load as usize {
                return Err(format!("bin {bin}: queue length {qlen} != load {load}"));
            }
            seen += 1;
        }
        if seen != self.queues.len() {
            return Err(format!(
                "{} weight queues but {seen} occupied bins",
                self.queues.len()
            ));
        }
        // rbb-lint: allow(unordered-iter, reason = "integer sum is order-independent")
        let sum: u64 = self.wload.values().sum();
        if sum != self.total {
            return Err(format!(
                "weighted loads sum to {sum}, total says {}",
                self.total
            ));
        }
        Ok(())
    }

    fn pop_front(&mut self, bin: u32) -> u32 {
        let q = self
            .queues
            .get_mut(&bin)
            // rbb-lint: allow(panic, reason = "engines keep queue length == load in lock-step; only non-empty bins depart")
            .expect("departing bin has a queue");
        // rbb-lint: allow(panic, reason = "queue length equals the bin load, which is > 0 for a departing bin")
        let w = q.pop_front().expect("departing bin is non-empty");
        if q.is_empty() {
            self.queues.remove(&bin);
            self.wload.remove(&bin);
        } else {
            // rbb-lint: allow(panic, reason = "wload is kept in lock-step with queues; the key exists while the queue does")
            *self.wload.get_mut(&bin).expect("wload tracks queues") -= u64::from(w);
        }
        w
    }

    fn push_back(&mut self, bin: u32, w: u32) {
        self.queues.entry(bin).or_default().push_back(w);
        *self.wload.entry(bin).or_insert(0) += u64::from(w);
    }
}

/// The weight/capacity layer of a load engine: the [`WeightOverlay`]
/// (`None` in the unit configuration, so the unit round never touches it)
/// plus the observed [`Capacities`]. The default is the unit, unbounded
/// layer — the state of every engine built without weights.
///
/// A weighted round is the engine's unit round bracketed by two hooks:
/// `sources` before the departure scan (the engine lists its departing
/// bins in canonical order) and `transport` after the draws (the engine
/// hands over the destinations in the same order).
#[derive(Debug, Clone, Default)]
pub struct WeightLayer {
    overlay: Option<WeightOverlay>,
    capacities: Capacities,
}

/// The unit, unbounded layer the [`crate::engine::Engine`] defaults read.
pub(crate) static UNIT_LAYER: WeightLayer = WeightLayer {
    overlay: None,
    capacities: Capacities::Unbounded,
};

impl WeightLayer {
    /// Normalizes and validates `weights` and `capacities` against an
    /// `n`-bin start whose occupied bins `occupied` lists as `(bin, load)`
    /// pairs in ascending bin order, and assigns the weights ball by ball
    /// in that order. [`Weights::Unit`] (or an explicit all-ones vector)
    /// builds no overlay and never reads `occupied`.
    ///
    /// Panics on invalid weights or capacities (the spec layer validates
    /// first).
    pub(crate) fn new(
        weights: Weights,
        capacities: Capacities,
        n: usize,
        occupied: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        let weights = weights.normalized();
        let overlay = match &weights {
            Weights::Unit => None,
            Weights::Explicit(ws) => {
                let entries: Vec<(u32, u32)> = occupied.into_iter().collect();
                if let Err(e) = weights.validate(entries.iter().map(|&(_, l)| u64::from(l)).sum()) {
                    // rbb-lint: allow(panic, reason = "constructor contract violation, caught by spec-layer validation first")
                    panic!("invalid weights: {e}");
                }
                Some(WeightOverlay::from_entries(entries, ws))
            }
        };
        if let Err(e) = capacities.validate(n) {
            // rbb-lint: allow(panic, reason = "constructor contract violation, caught by spec-layer validation first")
            panic!("invalid capacities: {e}");
        }
        Self {
            overlay,
            capacities,
        }
    }

    /// The weight overlay, `None` in the unit configuration.
    #[inline]
    pub fn overlay(&self) -> Option<&WeightOverlay> {
        self.overlay.as_ref()
    }

    /// The observed capacity bounds.
    #[inline]
    pub fn capacities(&self) -> &Capacities {
        &self.capacities
    }

    /// The snapshot encoding: version 1 with no section when there is
    /// nothing non-unit to record, else version 2 with the queues (empty
    /// for a capacity-only layer) and the capacity bounds.
    pub(crate) fn section(&self) -> (u32, Option<WeightedSection>) {
        if self.overlay.is_none() && self.capacities.is_unbounded() {
            return (SNAPSHOT_VERSION, None);
        }
        let section = WeightedSection {
            queues: self
                .overlay
                .as_ref()
                .map_or_else(Vec::new, WeightOverlay::queues_sorted),
            cap_kind: self.capacities.kind_str().to_string(),
            caps: self.capacities.bounds_vec(),
        };
        (SNAPSHOT_VERSION_WEIGHTED, Some(section))
    }

    /// Rebuilds the layer from a (validated) snapshot section.
    pub(crate) fn from_section(section: Option<&WeightedSection>) -> Result<Self, SnapshotError> {
        let Some(w) = section else {
            return Ok(Self::default());
        };
        Ok(Self {
            overlay: (!w.queues.is_empty()).then(|| WeightOverlay::from_queues(&w.queues)),
            capacities: w.capacities()?,
        })
    }

    /// Incremental placement of one ball of weight `weight` into the bin
    /// `draw` picks: checks the placement is admissible, then draws, then
    /// records the weight. `balls` is the engine's ball count before the
    /// placement. Panics if it would overflow the `u32` load bound, or if
    /// `weight` is 0, or non-unit on a unit layer.
    pub(crate) fn place(&mut self, balls: u64, weight: u32, draw: impl FnOnce() -> u32) -> u32 {
        assert!(
            balls < u64::from(u32::MAX),
            "place would overflow the u32 load bound"
        );
        assert!(
            weight == 1 || self.overlay.is_some(),
            "this process is unit-weight: only weight-1 placements are supported"
        );
        assert!(weight >= 1, "placed weight must be at least 1");
        let bin = draw();
        if let Some(o) = &mut self.overlay {
            o.place(bin, weight);
        }
        bin
    }

    /// Incremental departure of the front ball of the non-empty `bin`.
    pub(crate) fn depart(&mut self, bin: u32) {
        if let Some(o) = &mut self.overlay {
            o.depart(bin);
        }
    }

    /// Round hook, before the departure scan: the cleared departure list
    /// the engine fills with its departing bins in canonical order, or
    /// `None` in the unit configuration.
    #[inline]
    pub(crate) fn sources(&mut self) -> Option<&mut Vec<u32>> {
        let o = self.overlay.as_mut()?;
        o.srcs.clear();
        Some(&mut o.srcs)
    }

    /// Round hook, after the draws: moves the departing front weights to
    /// their destinations, in the order [`Self::sources`] listed them.
    #[inline]
    pub(crate) fn transport(&mut self, dests: impl IntoIterator<Item = u32>) {
        if let Some(o) = &mut self.overlay {
            o.transport(dests);
        }
    }

    /// Checks the overlay against the engine's occupied `(bin, load)`
    /// pairs (see [`WeightOverlay::check_against`]); trivially `Ok` when
    /// unit.
    pub(crate) fn check(&self, occupied: impl Iterator<Item = (u32, u32)>) -> Result<(), String> {
        self.overlay
            .as_ref()
            .map_or(Ok(()), |o| o.check_against(occupied))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let a = Weights::zipf(100, 1.0, 100);
        let b = Weights::zipf(100, 1.0, 100);
        assert_eq!(a, b);
        let Weights::Explicit(ws) = &a else {
            panic!("zipf with w_max > 1 is non-unit");
        };
        assert_eq!(ws[0], 100);
        assert_eq!(ws[1], 50);
        assert!(ws.iter().all(|&w| w >= 1));
        assert!(
            ws.windows(2).all(|p| p[0] >= p[1]),
            "monotone non-increasing"
        );
    }

    #[test]
    fn zipf_with_w_max_one_collapses_to_unit() {
        assert!(Weights::zipf(50, 1.5, 1).is_unit());
    }

    #[test]
    fn normalization_collapses_all_ones() {
        assert!(Weights::Explicit(vec![1, 1, 1]).normalized().is_unit());
        assert!(!Weights::Explicit(vec![1, 2]).normalized().is_unit());
    }

    #[test]
    fn weights_validate_length_and_positivity() {
        assert!(Weights::Unit.validate(7).is_ok());
        assert!(Weights::Explicit(vec![1, 2]).validate(2).is_ok());
        assert!(Weights::Explicit(vec![1, 2]).validate(3).is_err());
        assert!(Weights::Explicit(vec![1, 0]).validate(2).is_err());
        assert_eq!(Weights::Explicit(vec![3, 4]).total(2), 7);
        assert_eq!(Weights::Unit.total(9), 9);
    }

    #[test]
    fn capacities_validate_and_round_trip_parts() {
        assert!(Capacities::Unbounded.validate(4).is_ok());
        assert!(Capacities::Uniform(0).validate(4).is_err());
        assert!(Capacities::Explicit(vec![1, 2]).validate(3).is_err());
        assert!(Capacities::Explicit(vec![1, 0, 2]).validate(3).is_err());
        for caps in [
            Capacities::Unbounded,
            Capacities::Uniform(9),
            Capacities::Explicit(vec![4, 5, 6]),
        ] {
            let back = Capacities::from_parts(caps.kind_str(), &caps.bounds_vec()).unwrap();
            assert_eq!(back, caps);
        }
        assert!(Capacities::from_parts("warped", &[]).is_err());
        assert!(Capacities::from_parts("uniform", &[]).is_err());
        assert!(Capacities::from_parts("unbounded", &[3]).is_err());
    }

    #[test]
    fn overlay_builds_in_bin_order_and_tracks_loads() {
        // Bins 0 (2 balls), 3 (1 ball): weights consumed in bin order.
        let o = WeightOverlay::from_entries([(0, 2), (3, 1)], &[10, 20, 30]);
        assert_eq!(o.total(), 60);
        assert_eq!(o.weighted_load(0), 30);
        assert_eq!(o.weighted_load(3), 30);
        assert_eq!(o.weighted_load(1), 0);
        assert_eq!(o.weighted_max_load(), 30);
        o.check_against([(0u32, 2u32), (3, 1)].into_iter()).unwrap();
    }

    #[test]
    fn transport_is_two_phase_fifo() {
        // Bin 0 = [10, 20], bin 1 = [5]. Both depart; bin 0's ball lands in
        // bin 1 and bin 1's ball lands in bin 0. Simultaneity: bin 1 must
        // release its *original* front (5), not the arriving 10.
        let mut o = WeightOverlay::from_entries([(0, 2), (1, 1)], &[10, 20, 5]);
        o.srcs.extend([0, 1]);
        o.transport([1, 0]);
        assert_eq!(o.total(), 35);
        assert_eq!(o.weighted_load(0), 25); // [20, 5]
        assert_eq!(o.weighted_load(1), 10); // [10]
                                            // Next round: bin 0 releases 20 (FIFO), not 5.
        o.srcs.extend([0, 1]);
        o.transport([0, 1]);
        assert_eq!(o.weighted_load(0), 25); // [5, 20]
        assert_eq!(o.weighted_load(1), 10);
    }

    #[test]
    fn place_and_depart_maintain_totals() {
        let mut o = WeightOverlay::from_entries([(2, 1)], &[7]);
        o.place(2, 3);
        o.place(5, 11);
        assert_eq!(o.total(), 21);
        assert_eq!(o.depart(2), Some(7), "FIFO front departs first");
        assert_eq!(o.depart(9), None, "empty bin is a no-op");
        assert_eq!(o.total(), 14);
        assert_eq!(o.weighted_load(2), 3);
    }

    #[test]
    fn snapshot_queues_round_trip() {
        let mut o = WeightOverlay::from_entries([(1, 2), (4, 1)], &[9, 8, 7]);
        o.srcs.push(1);
        o.transport([4]);
        let queues = o.queues_sorted();
        let back = WeightOverlay::from_queues(&queues);
        assert_eq!(back.total(), o.total());
        assert_eq!(back.queues_sorted(), queues);
        assert_eq!(back.weighted_load(4), o.weighted_load(4));
    }

    #[test]
    fn capacity_violations_count_only_exceeding_bins() {
        let o = WeightOverlay::from_entries([(0, 1), (1, 1)], &[10, 3]);
        assert_eq!(o.capacity_violations(&Capacities::Unbounded), 0);
        assert_eq!(o.capacity_violations(&Capacities::Uniform(5)), 1);
        assert_eq!(o.capacity_violations(&Capacities::Uniform(2)), 2);
        assert_eq!(o.capacity_violations(&Capacities::Explicit(vec![10, 1])), 1);
    }
}
