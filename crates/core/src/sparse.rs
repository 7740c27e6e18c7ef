//! The repeated balls-into-bins process — sparse occupancy engine for the
//! `m ≪ n` regime.
//!
//! [`crate::process::LoadProcess`] scans a dense `Vec<u32>` of all `n` bins
//! every round, so a round costs `O(n)` even when only a few thousand bins
//! are ever occupied. [`SparseLoadProcess`] stores **only the occupied
//! bins** — an index→load hash map plus an unordered worklist of occupied
//! indices — so one round costs `O(#non-empty bins + departures)` and
//! resident memory is `O(m)`, independent of `n`. That unlocks the regime
//! the paper's stability claims are most interesting in at scale
//! (`n = 10^8`, `m = 10^3..10^5`), where the dense engine cannot even
//! afford its own load vector comfortably.
//!
//! # Why the two engines are bit-identical
//!
//! The process consumes randomness in exactly one place: after every
//! non-empty bin releases one ball, the round's `d` departures each draw an
//! i.i.d. uniform destination over `[0, n)`. The *number* of draws depends
//! only on how many bins are non-empty — never on how the loads are stored
//! — and both engines draw through the same primitive ([`UniformSampler`],
//! bit-compatible with [`Xoshiro256pp::uniform_usize`]). So from the same
//! seed and the same starting
//! configuration, the dense and sparse engines consume identical RNG
//! streams and traverse identical configuration trajectories, round for
//! round — including across `apply_fault` reassignments, which consume no
//! engine randomness. The cross-engine proptests (`tests/proptest_sparse.rs`)
//! pin this over the full factory matrix, fault injection included.
//!
//! # Observing without densifying
//!
//! [`Engine::config`] must hand out a dense [`Config`]; the sparse engine
//! materializes one lazily into a [`OnceCell`] cache (invalidated by every
//! mutation), so callers that genuinely need the dense view — final
//! inspection, the adversary's `placement(…, &Config, …)`, equivalence
//! tests — pay `O(n)` only when they ask. The per-round driver surface
//! ([`Engine::max_load`], [`Engine::empty_bins`], [`Engine::nonempty_bins`],
//! [`Engine::bin_load`], [`Engine::nonempty_bins_list`]) is overridden with
//! `O(#occupied)`-or-better implementations, and the `rbb_sim` scenario
//! loop and [`crate::metrics::ObserverStack::observe_engine`] read only
//! that surface.

use std::cell::OnceCell;
use std::collections::hash_map::Entry;

use crate::config::Config;
use crate::det_hash::DetHashMap;
use crate::engine::{Engine, Incremental};
use crate::rng::Xoshiro256pp;
use crate::sampling::UniformSampler;
use crate::snapshot::{SnapshotError, SnapshotState, ENGINE_SPARSE};
use crate::weights::{Capacities, WeightLayer, Weights};

/// Occupancy map type of the sparse engine: bin index → load, keyed through
/// the workspace-wide deterministic hasher ([`crate::det_hash`] — formerly
/// this module's private `BinHasher`, hoisted so every result-affecting map
/// shares one implementation). The std default (`RandomState`/SipHash)
/// would be several times slower on 4-byte keys *and* randomly seeded per
/// process, making map layout — and therefore debugging — non-reproducible.
/// Bin indices are uniform random draws, so no adversarial-key defense is
/// needed here.
type LoadMap = DetHashMap<u32, u32>;

/// Sparse load-only repeated balls-into-bins simulator: bit-identical in
/// trajectory to [`LoadProcess`](crate::process::LoadProcess) from the same
/// seed and start, at `O(#non-empty bins + departures)` per round and
/// `O(m)` memory.
///
/// ```
/// use rbb_core::prelude::*;
/// use rbb_core::sparse::SparseLoadProcess;
///
/// // 10^7 bins, 1000 balls: rounds cost O(1000), memory O(1000).
/// let mut p = SparseLoadProcess::from_entries(
///     10_000_000,
///     vec![(0, 1_000)],
///     Xoshiro256pp::seed_from(7),
/// );
/// p.run_silent(2_000);
/// assert_eq!(p.balls(), 1_000);
/// assert!(Engine::max_load(&p) >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct SparseLoadProcess {
    n: usize,
    rng: Xoshiro256pp,
    round: u64,
    balls: u64,
    /// Occupied bins only: `loads[&b]` ≥ 1 always.
    loads: LoadMap,
    /// Unordered worklist of the occupied bin indices — the round's
    /// departure scan iterates this, never `[0, n)`.
    occupied: Vec<u32>,
    /// Uniform sampler keyed on `n` (cached, like the dense engine's).
    sampler: UniformSampler,
    /// Destination scratch for the batched path.
    dests: Vec<u32>,
    /// Lazily materialized dense view for `Engine::config`; invalidated on
    /// every mutation, so steady-state stepping never allocates `O(n)`.
    dense: OnceCell<Config>,
    /// Weight overlay and observed capacities (the unit layer by default).
    weights: WeightLayer,
}

impl SparseLoadProcess {
    /// Creates a sparse process from occupied-bin `(bin, load)` entries —
    /// the `O(#entries)` constructor that never touches a dense vector.
    /// Duplicate bins are merged; zero loads are ignored.
    ///
    /// Panics if `n == 0`, a bin index is out of range, or the total ball
    /// count exceeds `u32::MAX` (the per-bin capacity — see
    /// [`Config::from_loads`]).
    ///
    /// # RNG stream
    ///
    /// Takes ownership of `rng` as the engine stream. Bit-compatible with the
    /// dense engine: each round consumes one uniform destination draw per ball
    /// released, in bin order.
    pub fn from_entries(
        n: usize,
        entries: impl IntoIterator<Item = (u32, u32)>,
        rng: Xoshiro256pp,
    ) -> Self {
        assert!(n > 0, "a configuration needs at least one bin");
        // Bin indices are u32 throughout the workspace; a larger n would
        // silently truncate destination draws (`as u32`) in release builds.
        assert!(
            n <= u32::MAX as usize + 1,
            "bin count {n} exceeds the u32 index range"
        );
        let mut loads = LoadMap::default();
        let mut occupied = Vec::new();
        let mut balls = 0u64;
        for (bin, load) in entries {
            assert!((bin as usize) < n, "bin {bin} out of range 0..{n}");
            if load == 0 {
                continue;
            }
            balls += load as u64;
            match loads.entry(bin) {
                Entry::Occupied(mut e) => *e.get_mut() += load,
                Entry::Vacant(e) => {
                    e.insert(load);
                    occupied.push(bin);
                }
            }
        }
        assert!(
            balls <= u32::MAX as u64,
            "total ball count {balls} exceeds u32::MAX and could overflow a single bin"
        );
        Self {
            n,
            rng,
            round: 0,
            balls,
            loads,
            occupied,
            sampler: UniformSampler::new(n as u64),
            dests: Vec::new(),
            dense: OnceCell::new(),
            weights: WeightLayer::default(),
        }
    }

    /// Creates a weighted, capacity-observing sparse process from
    /// occupied-bin entries (as [`Self::from_entries`]) — the sparse
    /// counterpart of [`LoadProcess::with_weights`], bit-identical to it in
    /// trajectory, RNG stream, and weighted metrics from the same seed and
    /// start. Weights are assigned ball by ball in ascending bin order, in
    /// whatever order `entries` lists the bins. [`Weights::Unit`] (or an
    /// explicit all-ones vector) builds no overlay, so the unit
    /// configuration is the same engine as [`Self::from_entries`].
    ///
    /// # RNG stream
    ///
    /// Identical to [`Self::from_entries`]: weights never touch the RNG —
    /// each round still consumes one uniform draw per departing bin.
    ///
    /// [`LoadProcess::with_weights`]: crate::process::LoadProcess::with_weights
    pub fn with_weights(
        n: usize,
        entries: impl IntoIterator<Item = (u32, u32)>,
        rng: Xoshiro256pp,
        weights: Weights,
        capacities: Capacities,
    ) -> Self {
        let mut entries: Vec<(u32, u32)> = entries.into_iter().collect();
        entries.sort_unstable_by_key(|&(bin, _)| bin);
        let mut p = Self::from_entries(n, entries.iter().copied(), rng);
        p.weights = WeightLayer::new(weights, capacities, n, entries);
        p
    }

    /// Creates a sparse process from a dense configuration (collecting its
    /// non-empty bins) — the drop-in replacement for
    /// [`LoadProcess::new`](crate::process::LoadProcess::new).
    ///
    /// # RNG stream
    ///
    /// Takes ownership of `rng` as the engine stream — see
    /// [`Self::from_entries`] for the per-round draw contract.
    pub fn new(config: Config, rng: Xoshiro256pp) -> Self {
        let entries = config
            .loads()
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l > 0)
            // rbb-lint: allow(lossy-cast, reason = "enumerate index < n, and from_entries asserts n fits the u32 index range")
            .map(|(b, &l)| (b as u32, l));
        Self::from_entries(config.n(), entries, rng)
    }

    /// Convenience constructor: `n` balls into `n` bins, one per bin.
    pub fn legitimate_start(n: usize, seed: u64) -> Self {
        Self::from_entries(
            n,
            // rbb-lint: allow(lossy-cast, reason = "from_entries asserts n fits the u32 index range")
            (0..n as u32).map(|b| (b, 1)),
            // rbb-lint: allow(rng-construct, reason = "engine-convention stream for a core convenience constructor; core cannot depend on rbb_sim::seed")
            Xoshiro256pp::seed_from(seed),
        )
    }

    /// Current round index (0 before any step).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of bins.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total ball count (rounds conserve it; the [`Incremental`]
    /// place/depart surface changes it).
    #[inline]
    pub fn balls(&self) -> u64 {
        self.balls
    }

    /// Number of occupied (non-empty) bins.
    #[inline]
    pub fn occupied_bins(&self) -> usize {
        self.loads.len()
    }

    /// Drops the dense snapshot cache; every mutation must call this.
    #[inline]
    fn invalidate(&mut self) {
        self.dense.take();
    }

    /// Departure phase: every occupied bin releases one ball; bins reaching
    /// zero leave the map and the worklist. Returns the departure count.
    fn depart_all(&mut self) -> usize {
        let loads = &mut self.loads;
        let before = self.occupied.len();
        self.occupied.retain(|&b| {
            // rbb-lint: allow(panic, reason = "worklist entries are occupied by construction")
            let slot = loads.get_mut(&b).expect("worklist entries are occupied");
            *slot -= 1;
            if *slot == 0 {
                loads.remove(&b);
                false
            } else {
                true
            }
        });
        before
    }

    /// Arrival of one ball in bin `b`.
    #[inline]
    fn arrive(&mut self, b: u32) {
        match self.loads.entry(b) {
            Entry::Occupied(mut e) => {
                let slot = e.get_mut();
                debug_assert_ne!(*slot, u32::MAX, "bin {b} load would overflow u32");
                *slot += 1;
            }
            Entry::Vacant(e) => {
                e.insert(1);
                self.occupied.push(b);
            }
        }
    }

    /// Closes a round: bumps the counter, invalidates the dense cache, and
    /// (in debug builds) re-checks mass conservation.
    fn finish_round(&mut self, departures: usize) -> usize {
        self.round += 1;
        self.invalidate();
        debug_assert_eq!(
            // rbb-lint: allow(unordered-iter, reason = "integer sum is order-independent")
            self.loads.values().map(|&l| l as u64).sum::<u64>(),
            self.balls,
            "mass violated"
        );
        debug_assert_eq!(self.loads.len(), self.occupied.len());
        debug_assert!(self
            .weights
            // rbb-lint: allow(unordered-iter, reason = "check_against counts and compares per-bin; order-independent")
            .check(self.loads.iter().map(|(&b, &l)| (b, l)))
            .is_ok());
        departures
    }

    /// Advances one round (destinations drawn through the cached
    /// [`UniformSampler`] into a reused scratch buffer); returns the number
    /// of balls that moved. Bit-identical to the dense engine's round from
    /// equal state: `d` uniform draws, where `d` is the number of non-empty
    /// bins.
    ///
    /// On a weighted process the departing bins enter the transport in
    /// **ascending bin order** — the canonical order the dense engine's
    /// scan produces — so the weighted sparse engine stays bit-identical to
    /// the weighted dense engine even though the worklist is unordered.
    pub fn step_batched(&mut self) -> usize {
        if let Some(srcs) = self.weights.sources() {
            srcs.extend_from_slice(&self.occupied);
            srcs.sort_unstable();
        }
        let departures = self.depart_all();
        self.dests.resize(departures, 0);
        let mut dests = std::mem::take(&mut self.dests);
        self.sampler.fill_u32(&mut self.rng, &mut dests);
        for &b in &dests {
            self.arrive(b);
        }
        self.weights.transport(dests.iter().copied());
        self.dests = dests;
        self.finish_round(departures)
    }

    /// Captures the complete resumable state, with entries in canonical
    /// (bin-sorted) order. The occupied-worklist *order* is not trajectory
    /// state: a round's draw count depends only on how many bins are
    /// occupied and the destinations are i.i.d., so restoring with a sorted
    /// worklist resumes the same load trajectory the snapshotted process
    /// would have taken.
    pub fn snapshot_state(&self) -> SnapshotState {
        let mut entries: Vec<(u32, u32)> = self.loads.iter().map(|(&b, &l)| (b, l)).collect();
        entries.sort_unstable();
        let (version, weighted) = self.weights.section();
        SnapshotState {
            version,
            engine: ENGINE_SPARSE.to_string(),
            n: self.n,
            shards: 1,
            round: self.round,
            balls: self.balls,
            entries,
            rng_states: vec![self.rng.state()],
            weighted,
        }
    }

    /// Rebuilds a sparse process from a snapshot (validated first); the
    /// restored process resumes the snapshotted trajectory bit-identically.
    pub fn from_snapshot(state: &SnapshotState) -> Result<Self, SnapshotError> {
        state.expect_engine(ENGINE_SPARSE)?;
        // rbb-lint: allow(rng-construct, reason = "restoring a serialized stream state captured from a live engine snapshot, not seeding a new stream")
        let rng = Xoshiro256pp::from_state(state.rng_states[0]);
        let mut p = Self::from_entries(state.n, state.entries.iter().copied(), rng);
        p.round = state.round;
        p.weights = WeightLayer::from_section(state.weighted.as_ref())?;
        Ok(p)
    }
}

impl Engine for SparseLoadProcess {
    /// Forwards to the one round body, [`SparseLoadProcess::step_batched`].
    #[inline]
    fn step(&mut self) -> usize {
        SparseLoadProcess::step_batched(self)
    }

    #[inline]
    fn step_batched(&mut self) -> usize {
        SparseLoadProcess::step_batched(self)
    }

    #[inline]
    fn round(&self) -> u64 {
        self.round
    }

    /// Materializes (and caches) the dense snapshot — `O(n)`, so per-round
    /// drivers use the cheap accessors below instead (see the module docs).
    fn config(&self) -> &Config {
        self.dense.get_or_init(|| {
            let mut loads = vec![0u32; self.n];
            // rbb-lint: allow(unordered-iter, reason = "scatter into a dense per-bin vector is order-independent")
            for (&b, &l) in &self.loads {
                loads[b as usize] = l;
            }
            Config::from_loads(loads)
        })
    }

    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn balls(&self) -> u64 {
        self.balls
    }

    fn max_load(&self) -> u32 {
        // rbb-lint: allow(unordered-iter, reason = "max over values is order-independent")
        self.loads.values().copied().max().unwrap_or(0)
    }

    #[inline]
    fn empty_bins(&self) -> usize {
        self.n - self.loads.len()
    }

    #[inline]
    fn nonempty_bins(&self) -> usize {
        self.loads.len()
    }

    /// 0 for empty bins, including every `bin ≥ n`.
    #[inline]
    fn bin_load(&self, bin: usize) -> u32 {
        u32::try_from(bin)
            .ok()
            .and_then(|b| self.loads.get(&b).copied())
            .unwrap_or(0)
    }

    fn nonempty_bins_list(&self) -> Option<Vec<u32>> {
        Some(self.occupied.clone())
    }

    fn supports_faults(&self) -> bool {
        true
    }

    /// Placement-based fault, `O(m)`: rebuilds the occupancy map from
    /// `placement[ball] = bin` without a dense detour. Consumes no engine
    /// randomness, exactly like the dense engine's fault path, so faulty
    /// trajectories stay bit-identical too.
    fn apply_fault(&mut self, placement: &[usize]) {
        assert_eq!(
            placement.len() as u64,
            self.balls,
            "adversary must conserve balls"
        );
        self.loads.clear();
        self.occupied.clear();
        for &bin in placement {
            assert!(bin < self.n, "bin {bin} out of range 0..{}", self.n);
            // rbb-lint: allow(lossy-cast, reason = "bin < n, and n fits the u32 index range (asserted at construction)")
            self.arrive(bin as u32);
        }
        self.invalidate();
    }

    fn incremental(&mut self) -> Option<&mut dyn Incremental> {
        Some(self)
    }

    fn weight_layer(&self) -> &WeightLayer {
        &self.weights
    }

    fn snapshot(&self) -> Option<SnapshotState> {
        Some(self.snapshot_state())
    }
}

impl Incremental for SparseLoadProcess {
    /// One uniform destination draw from the engine stream —
    /// bit-compatible with the dense engine's `place`.
    fn place(&mut self, weight: u32) -> usize {
        let (n, rng) = (self.n, &mut self.rng);
        // rbb-lint: allow(lossy-cast, reason = "n fits the u32 index range (asserted at construction); draws are < n")
        let draw = || rng.uniform_usize(n) as u32;
        let b = self.weights.place(self.balls, weight, draw);
        self.arrive(b);
        self.balls += 1;
        self.invalidate();
        b as usize
    }

    fn depart(&mut self, bin: usize) -> bool {
        let Ok(b) = u32::try_from(bin) else {
            return false;
        };
        let Some(slot) = self.loads.get_mut(&b) else {
            return false;
        };
        *slot -= 1;
        if *slot == 0 {
            self.loads.remove(&b);
            self.occupied.retain(|&x| x != b);
        }
        self.balls -= 1;
        self.weights.depart(b);
        self.invalidate();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::LoadProcess;
    use crate::snapshot::SNAPSHOT_VERSION_WEIGHTED;

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from(seed)
    }

    fn one_per_bin(n: usize) -> impl Iterator<Item = (u32, u32)> {
        (0..n as u32).map(|b| (b, 1))
    }

    /// Steps a dense/sparse pair in lockstep, asserting full agreement.
    fn assert_twins(mut dense: LoadProcess, mut sparse: SparseLoadProcess, rounds: u64) {
        for r in 0..rounds {
            let (a, b) = if r % 3 == 0 {
                (dense.step(), sparse.step())
            } else {
                (Engine::step_batched(&mut dense), sparse.step_batched())
            };
            assert_eq!(a, b, "departure count diverged at round {r}");
            assert_eq!(Engine::max_load(&dense), Engine::max_load(&sparse));
            assert_eq!(Engine::empty_bins(&dense), Engine::empty_bins(&sparse));
            assert_eq!(dense.config(), Engine::config(&sparse), "round {r}");
        }
        assert_eq!(dense.round(), Engine::round(&sparse));
    }

    #[test]
    fn trajectory_is_bit_identical_to_dense_from_any_start() {
        for (n, m) in [(64usize, 64u32), (100, 7), (33, 200), (2, 1)] {
            let config = Config::all_in_one(n, m);
            assert_twins(
                LoadProcess::new(config.clone(), rng(9)),
                SparseLoadProcess::new(config, rng(9)),
                120,
            );
        }
    }

    #[test]
    fn legitimate_start_matches_dense() {
        assert_twins(
            LoadProcess::legitimate_start(128, 5),
            SparseLoadProcess::legitimate_start(128, 5),
            100,
        );
    }

    #[test]
    fn from_entries_merges_and_validates() {
        let p = SparseLoadProcess::from_entries(10, vec![(3, 2), (3, 1), (9, 5), (0, 0)], rng(1));
        assert_eq!(p.balls(), 8);
        assert_eq!(p.occupied_bins(), 2);
        assert_eq!(Engine::bin_load(&p, 3), 3);
        assert_eq!(Engine::bin_load(&p, 9), 5);
        assert_eq!(Engine::bin_load(&p, 0), 0);
        assert_eq!(Engine::config(&p).loads()[3], 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_entries_rejects_out_of_range_bin() {
        SparseLoadProcess::from_entries(4, vec![(4, 1)], rng(1));
    }

    #[test]
    #[should_panic(expected = "could overflow")]
    fn from_entries_rejects_overflowing_mass() {
        SparseLoadProcess::from_entries(4, vec![(0, u32::MAX), (1, 1)], rng(1));
    }

    #[test]
    fn dense_cache_invalidates_on_step() {
        let mut p = SparseLoadProcess::legitimate_start(16, 3);
        let before = Engine::config(&p).clone();
        p.step();
        let after = Engine::config(&p);
        assert_ne!(&before, after, "stale dense snapshot served after a step");
        assert_eq!(after.total_balls(), 16);
    }

    #[test]
    fn cheap_accessors_match_dense_view() {
        let mut p = SparseLoadProcess::from_entries(1000, vec![(1, 3), (997, 1)], rng(7));
        p.run_silent(50);
        let dense = Engine::config(&p).clone();
        assert_eq!(Engine::max_load(&p), dense.max_load());
        assert_eq!(Engine::empty_bins(&p), dense.empty_bins());
        assert_eq!(Engine::nonempty_bins(&p), dense.nonempty_bins());
        for b in 0..1000 {
            assert_eq!(Engine::bin_load(&p, b), dense.loads()[b]);
        }
        let mut list = Engine::nonempty_bins_list(&p).unwrap();
        list.sort_unstable();
        let expect: Vec<u32> = dense
            .loads()
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l > 0)
            .map(|(b, _)| b as u32)
            .collect();
        assert_eq!(list, expect);
    }

    #[test]
    fn apply_fault_matches_dense_fault_path() {
        let mut dense = LoadProcess::legitimate_start(32, 21);
        let mut sparse = SparseLoadProcess::legitimate_start(32, 21);
        for _ in 0..40 {
            dense.step();
            sparse.step();
        }
        let placement: Vec<usize> = (0..32).map(|i| i % 5).collect();
        Engine::apply_fault(&mut dense, &placement);
        Engine::apply_fault(&mut sparse, &placement);
        assert_eq!(dense.config(), Engine::config(&sparse));
        // Post-fault trajectories keep agreeing (no RNG was consumed).
        assert_twins(dense, sparse, 60);
    }

    #[test]
    #[should_panic(expected = "conserve")]
    fn apply_fault_rejects_mass_change() {
        let mut p = SparseLoadProcess::legitimate_start(8, 1);
        Engine::apply_fault(&mut p, &[0; 9]);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut p = SparseLoadProcess::from_entries(1000, vec![(3, 40), (700, 2)], rng(31));
        p.run_silent(25);
        let snap = Engine::snapshot(&p).expect("sparse engine snapshots");
        assert!(
            snap.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be in canonical bin order"
        );
        let mut q = SparseLoadProcess::from_snapshot(&snap).unwrap();
        assert_eq!(Engine::round(&q), 25);
        for _ in 0..60 {
            p.step();
            q.step();
        }
        assert_eq!(Engine::config(&p), Engine::config(&q));
        assert_eq!(Engine::snapshot(&p), Engine::snapshot(&q));
    }

    #[test]
    fn place_and_depart_track_occupancy() {
        let mut p = SparseLoadProcess::from_entries(50, vec![(10, 2)], rng(41));
        assert!(Engine::incremental(&mut p).is_some());
        let b = Incremental::place(&mut p, 1);
        assert!(b < 50);
        assert_eq!(p.balls(), 3);
        assert_eq!(Engine::bin_load(&p, b), if b == 10 { 3 } else { 1 });
        assert!(Incremental::depart(&mut p, 10));
        assert!(
            Incremental::depart(&mut p, 10) || b == 10,
            "bin 10 had 2 balls"
        );
        assert!(!Incremental::depart(&mut p, 50), "out of range is a no-op");
        assert!(!Incremental::depart(&mut p, 49), "empty bin is a no-op");
        assert_eq!(p.occupied.len(), p.loads.len());
        assert!(p.loads.values().all(|&l| l > 0));
        p.step();
        assert_eq!(p.balls(), p.loads.values().map(|&l| l as u64).sum::<u64>());
    }

    #[test]
    fn place_matches_dense_place_bit_for_bit() {
        let mut dense = LoadProcess::legitimate_start(64, 51);
        let mut sparse = SparseLoadProcess::legitimate_start(64, 51);
        for _ in 0..30 {
            assert_eq!(
                Incremental::place(&mut dense, 1),
                Incremental::place(&mut sparse, 1)
            );
        }
        assert_twins(dense, sparse, 40);
    }

    #[test]
    fn round_cost_tracks_occupancy_not_n() {
        // Smoke-level scale check: n = 10^7 with 500 balls must step fast
        // (a dense engine would scan 10^7 slots per round — ~10^10 slot
        // visits for this loop).
        let mut p = SparseLoadProcess::from_entries(10_000_000, vec![(0, 500)], rng(2));
        p.run_silent(1_000);
        assert_eq!(p.balls(), 500);
        assert!(p.occupied_bins() <= 500);
        assert!(Engine::empty_bins(&p) >= 10_000_000 - 500);
    }

    #[test]
    fn engine_run_family_works() {
        let mut p = SparseLoadProcess::legitimate_start(64, 11);
        let hit = p.run_until(10_000, |c| c.max_load() >= 3);
        assert!(hit.is_some());
        let mut q = SparseLoadProcess::from_entries(64, vec![(0, 64)], rng(11));
        q.run_silent(100);
        assert_eq!(q.round, 100);
        assert_eq!(q.balls(), 64);
    }

    #[test]
    fn worklist_and_map_stay_consistent_under_churn() {
        let mut p = SparseLoadProcess::from_entries(50, vec![(10, 40)], rng(13));
        for _ in 0..300 {
            p.step();
            assert_eq!(p.occupied.len(), p.loads.len());
            assert!(p.occupied.iter().all(|b| p.loads.contains_key(b)));
            assert!(p.loads.values().all(|&l| l > 0));
        }
    }

    #[test]
    fn weighted_sparse_is_bit_identical_to_weighted_dense() {
        // The tentpole invariant at the sparse layer: from the same seed,
        // start, and weights, the weighted sparse engine matches the
        // weighted dense engine in trajectory, RNG stream, and every
        // weighted metric — the sorted-departure transport reproduces the
        // dense scan order exactly.
        let n = 96;
        let weights = Weights::zipf(n as u64, 1.0, 40);
        let caps = Capacities::Uniform(50);
        let mut dense = LoadProcess::with_weights(
            Config::one_per_bin(n),
            rng(71),
            weights.clone(),
            caps.clone(),
        );
        let mut sparse = SparseLoadProcess::with_weights(n, one_per_bin(n), rng(71), weights, caps);
        assert!(Engine::weighted(&sparse));
        for r in 0..160 {
            let (a, b) = if r % 3 == 0 {
                (dense.step(), sparse.step())
            } else {
                (dense.step_batched(), sparse.step_batched())
            };
            assert_eq!(a, b, "departure count diverged at round {r}");
            assert_eq!(
                Engine::weighted_max_load(&dense),
                Engine::weighted_max_load(&sparse),
                "weighted max load diverged at round {r}"
            );
            assert_eq!(
                Engine::capacity_violations(&dense),
                Engine::capacity_violations(&sparse),
                "violation count diverged at round {r}"
            );
            assert_eq!(dense.config(), Engine::config(&sparse), "round {r}");
        }
        assert_eq!(Engine::total_weight(&dense), Engine::total_weight(&sparse));
        for bin in 0..n {
            assert_eq!(
                Engine::weighted_bin_load(&dense, bin),
                Engine::weighted_bin_load(&sparse, bin)
            );
        }
        let a = Engine::snapshot(&dense).unwrap();
        let b = Engine::snapshot(&sparse).unwrap();
        assert_eq!(a.weighted, b.weighted, "identical weighted sections");
        assert_eq!(a.entries, b.entries);
    }

    #[test]
    fn weighted_snapshot_round_trips_bit_identically() {
        let mut p = SparseLoadProcess::with_weights(
            48,
            one_per_bin(48),
            rng(72),
            Weights::zipf(48, 1.0, 30),
            Capacities::Uniform(25),
        );
        p.run_silent(19);
        let snap = Engine::snapshot(&p).expect("sparse engine snapshots");
        assert_eq!(snap.version, SNAPSHOT_VERSION_WEIGHTED);
        let mut q = SparseLoadProcess::from_snapshot(&snap).unwrap();
        assert_eq!(Engine::total_weight(&q), Engine::total_weight(&p));
        assert_eq!(Engine::capacities(&q), &Capacities::Uniform(25));
        for _ in 0..50 {
            p.step_batched();
            q.step_batched();
        }
        assert_eq!(Engine::config(&p), Engine::config(&q));
        assert_eq!(Engine::snapshot(&p), Engine::snapshot(&q));
    }

    #[test]
    fn unit_weights_build_the_same_sparse_engine() {
        let mut plain = SparseLoadProcess::legitimate_start(64, 73);
        let mut unit = SparseLoadProcess::with_weights(
            64,
            one_per_bin(64),
            rng(73),
            Weights::Explicit(vec![1; 64]),
            Capacities::Unbounded,
        );
        assert!(
            unit.weights.overlay().is_none(),
            "all-ones collapses to no overlay"
        );
        for _ in 0..80 {
            plain.step_batched();
            unit.step_batched();
        }
        assert_eq!(plain.rng, unit.rng);
        assert_eq!(Engine::snapshot(&plain), Engine::snapshot(&unit));
    }

    #[test]
    fn weighted_place_and_depart_track_the_overlay() {
        let mut p = SparseLoadProcess::with_weights(
            32,
            one_per_bin(32),
            rng(74),
            Weights::zipf(32, 1.0, 20),
            Capacities::Unbounded,
        );
        let total = Engine::total_weight(&p);
        let b = Incremental::place(&mut p, 15);
        assert_eq!(Engine::total_weight(&p), total + 15);
        assert!(Engine::weighted_bin_load(&p, b) >= 15);
        assert!(Incremental::depart(&mut p, b));
        assert_eq!(p.balls(), 32);
        p.step();
        assert_eq!(p.balls(), 32);
    }

    #[test]
    fn load_map_layout_is_reproducible_across_builds() {
        let build = || {
            let mut m = LoadMap::default();
            for i in 0..500u32 {
                m.insert(i.wrapping_mul(48_271), i + 1);
            }
            m.keys().copied().collect::<Vec<u32>>()
        };
        assert_eq!(build(), build(), "deterministic hasher, identical layout");
    }
}
