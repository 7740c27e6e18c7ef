//! The repeated balls-into-bins process — load-only engine.
//!
//! This engine simulates exactly the dynamics of Section 2:
//!
//! ```text
//! Q_v(t+1) = max(Q_v(t) - 1, 0) + |{ u ∈ W(t) : X_u(t+1) = v }|
//! ```
//!
//! where `W(t)` is the set of non-empty bins at round `t` and each
//! `X_u(t+1)` is u.a.r. over the `n` bins. Because exactly one ball leaves
//! every non-empty bin regardless of *which* ball the queue strategy picks,
//! the load process is strategy-invariant; this engine therefore carries no
//! ball identities and runs a round in `O(n)` time over a dense `Vec<u32>`
//! (see DESIGN.md §3.1 — [`crate::ball_process::BallProcess`] is the
//! identity-carrying sibling).

use crate::adversary::placement_to_config;
use crate::config::Config;
use crate::engine::{Engine, Incremental};
use crate::rng::Xoshiro256pp;
use crate::sampling::{
    throw_uniform, throw_uniform_batched, throw_uniform_recording, UniformSampler,
};
use crate::snapshot::{SnapshotError, SnapshotState, ENGINE_DENSE};
use crate::weights::{Capacities, WeightLayer, Weights};

/// Load-only repeated balls-into-bins simulator.
///
/// ```
/// use rbb_core::prelude::*;
///
/// let mut p = LoadProcess::legitimate_start(64, 7);
/// let mut tracker = MaxLoadTracker::new();
/// p.run(1_000, &mut tracker);
/// assert_eq!(p.config().total_balls(), 64);       // mass conserved
/// assert!(tracker.window_max() <= 4 * 64u32.ilog2()); // O(log n) loads
/// ```
#[derive(Debug, Clone)]
pub struct LoadProcess {
    config: Config,
    rng: Xoshiro256pp,
    round: u64,
    balls: u64,
    /// Destination scratch reused by the batched hot path; empty until the
    /// first `step_batched` call, so the scalar path pays nothing for it.
    dests: Vec<u32>,
    /// Uniform sampler keyed on `n` (the bin count never changes over a
    /// process's lifetime), so the batched path does not re-pay the
    /// `2^64 mod n` rejection-threshold division every round.
    sampler: UniformSampler,
    /// Weight overlay and observed capacities — the unit layer unless built
    /// through [`Self::with_weights`] or restored from a weighted snapshot.
    weights: WeightLayer,
}

/// The occupied bins of a dense load vector as `(bin, load)` pairs, in
/// ascending bin order — the canonical order of snapshots, weight
/// assignment and the weighted transport.
pub(crate) fn occupied(loads: &[u32]) -> impl Iterator<Item = (u32, u32)> + '_ {
    loads
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l > 0)
        // rbb-lint: allow(lossy-cast, reason = "enumerate index < n, which fits the u32 bin-index range")
        .map(|(b, &l)| (b as u32, l))
}

impl LoadProcess {
    /// Creates a process from an initial configuration and a seeded RNG.
    ///
    /// # RNG stream
    ///
    /// Takes ownership of `rng` as the engine stream: each round consumes one
    /// uniform destination draw per ball released, in bin order (the contract
    /// of [`throw_uniform`]).
    pub fn new(config: Config, rng: Xoshiro256pp) -> Self {
        let balls = config.total_balls();
        let sampler = UniformSampler::new(config.n() as u64);
        Self {
            config,
            rng,
            round: 0,
            balls,
            dests: Vec::new(),
            sampler,
            weights: WeightLayer::default(),
        }
    }

    /// Creates a weighted, capacity-observing process. [`Weights::Unit`]
    /// (or an explicit all-ones vector) builds no overlay at all, so the
    /// unit configuration is the *same engine* as [`Self::new`] — identical
    /// trajectory, RNG stream, and snapshot bytes. Non-unit weights are
    /// assigned ball by ball in bin order over `config`.
    ///
    /// # RNG stream
    ///
    /// Identical to [`Self::new`]: weights never touch the RNG — each round
    /// still consumes one uniform draw per non-empty bin, in bin order.
    pub fn with_weights(
        config: Config,
        rng: Xoshiro256pp,
        weights: Weights,
        capacities: Capacities,
    ) -> Self {
        let mut p = Self::new(config, rng);
        p.weights = WeightLayer::new(weights, capacities, p.n(), occupied(p.config.loads()));
        p
    }

    /// Convenience constructor: `n` balls into `n` bins, one per bin.
    pub fn legitimate_start(n: usize, seed: u64) -> Self {
        // rbb-lint: allow(rng-construct, reason = "engine-convention stream for a core convenience constructor; core cannot depend on rbb_sim::seed")
        Self::new(Config::one_per_bin(n), Xoshiro256pp::seed_from(seed))
    }

    /// Current round index (0 before any step).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of bins.
    #[inline]
    pub fn n(&self) -> usize {
        self.config.n()
    }

    /// Total ball count (rounds conserve it; the [`Incremental`]
    /// place/depart surface changes it).
    #[inline]
    pub fn balls(&self) -> u64 {
        self.balls
    }

    /// Current configuration.
    #[inline]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Advances one round through the scalar reference path; returns the
    /// number of balls that moved (equal to the number of non-empty bins at
    /// the start of the round). A weighted process forwards to
    /// [`step_batched`](Self::step_batched), its only round body.
    pub fn step(&mut self) -> usize {
        if self.weights.overlay().is_some() {
            return self.step_batched();
        }
        let loads = self.config.loads_mut();
        let mut departures = 0usize;
        for l in loads.iter_mut() {
            if *l > 0 {
                *l -= 1;
                departures += 1;
            }
        }
        throw_uniform(&mut self.rng, loads, departures);
        self.round += 1;
        debug_assert_eq!(self.config.total_balls(), self.balls);
        departures
    }

    /// Advances one round through the batched hot path. Semantically (and
    /// bit-for-bit, given equal starting state) identical to [`step`]: the
    /// departure scan is branchless and the destination draws are batched
    /// through [`crate::sampling::UniformSampler`] into a reused scratch
    /// buffer, but the RNG stream is consumed in exactly the same order, so
    /// the two paths produce the same trajectory from the same seed.
    ///
    /// A weighted round is this round bracketed by the [`WeightLayer`]
    /// hooks: the departing bins are listed in bin order before the scan,
    /// and the `k`-th of them is paired with the `k`-th draw after it.
    ///
    /// [`step`]: LoadProcess::step
    pub fn step_batched(&mut self) -> usize {
        let loads = self.config.loads_mut();
        if let Some(srcs) = self.weights.sources() {
            srcs.extend(occupied(loads).map(|(b, _)| b));
        }
        let mut departures = 0usize;
        for l in loads.iter_mut() {
            // Branchless: at ~63% occupancy in equilibrium the `l > 0`
            // branch is close to worst-case unpredictable, so the scalar
            // path's compare-and-jump stalls the O(n) scan.
            // rbb-lint: allow(lossy-cast, reason = "bool-to-u32 cast is lossless (0 or 1)")
            let occupied = (*l > 0) as u32;
            *l -= occupied;
            departures += occupied as usize;
        }
        throw_uniform_batched(
            &self.sampler,
            &mut self.rng,
            loads,
            departures,
            &mut self.dests,
        );
        self.weights.transport(self.dests.iter().copied());
        self.round += 1;
        debug_assert_eq!(self.config.total_balls(), self.balls);
        debug_assert!(self.weights.check(occupied(self.config.loads())).is_ok());
        departures
    }

    /// Advances one round, recording each mover's destination in `dests`
    /// (bin indices in the order the source bins were scanned). Used by the
    /// Lemma-3 coupling, which reuses these choices for the Tetris copy.
    pub fn step_recording(&mut self, dests: &mut Vec<usize>) -> usize {
        assert!(
            self.weights.overlay().is_none(),
            "step_recording is a unit-path primitive (the Lemma-3 coupling); \
             weighted rounds go through step/step_batched"
        );
        let loads = self.config.loads_mut();
        let mut departures = 0usize;
        for l in loads.iter_mut() {
            if *l > 0 {
                *l -= 1;
                departures += 1;
            }
        }
        throw_uniform_recording(&mut self.rng, loads, departures, dests);
        self.round += 1;
        departures
    }

    /// Replaces the configuration wholesale — the §4.1 adversary's move.
    /// Panics if the new configuration changes the ball count (the adversary
    /// may *re-assign* balls, not create or destroy them).
    pub fn adversarial_reassign(&mut self, new_config: Config) {
        assert_eq!(
            new_config.total_balls(),
            self.balls,
            "adversary must conserve balls"
        );
        assert_eq!(
            new_config.n(),
            self.config.n(),
            "adversary must keep n bins"
        );
        self.config = new_config;
    }

    /// Captures the complete resumable state — loads, raw RNG stream state,
    /// round and ball counters. Restoring through [`Self::from_snapshot`]
    /// resumes the trajectory bit-identically.
    pub fn snapshot_state(&self) -> SnapshotState {
        let (version, weighted) = self.weights.section();
        SnapshotState {
            version,
            engine: ENGINE_DENSE.to_string(),
            n: self.config.n(),
            shards: 1,
            round: self.round,
            balls: self.balls,
            entries: occupied(self.config.loads()).collect(),
            rng_states: vec![self.rng.state()],
            weighted,
        }
    }

    /// Rebuilds a dense process from a snapshot (validated first); the
    /// restored process resumes the snapshotted trajectory bit-identically.
    pub fn from_snapshot(state: &SnapshotState) -> Result<Self, SnapshotError> {
        state.expect_engine(ENGINE_DENSE)?;
        // rbb-lint: allow(rng-construct, reason = "restoring a serialized stream state captured from a live engine snapshot, not seeding a new stream")
        let rng = Xoshiro256pp::from_state(state.rng_states[0]);
        let mut p = Self::new(Config::from_loads(state.dense_loads()), rng);
        p.round = state.round;
        p.weights = WeightLayer::from_section(state.weighted.as_ref())?;
        Ok(p)
    }
}

/// The run family (`run`, `run_silent`, `run_until`) is provided by
/// [`Engine`]; both step paths are bit-identical, so the trait's
/// batched-by-default policy never changes a trajectory.
impl Engine for LoadProcess {
    #[inline]
    fn step(&mut self) -> usize {
        LoadProcess::step(self)
    }

    #[inline]
    fn step_batched(&mut self) -> usize {
        LoadProcess::step_batched(self)
    }

    #[inline]
    fn round(&self) -> u64 {
        self.round
    }

    /// The tracked counter, not the trait default's `O(n)` load sum — the
    /// serve hot path reads this per placement.
    #[inline]
    fn balls(&self) -> u64 {
        self.balls
    }

    #[inline]
    fn config(&self) -> &Config {
        &self.config
    }

    fn supports_faults(&self) -> bool {
        true
    }

    /// Placement-based fault: folds `placement[ball] = bin` into a load
    /// vector (ball identities are irrelevant to the load-only engine).
    fn apply_fault(&mut self, placement: &[usize]) {
        self.adversarial_reassign(placement_to_config(self.n(), placement));
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

impl Incremental for LoadProcess {
    /// One uniform destination draw from the engine stream, exactly the
    /// per-ball primitive a round uses.
    fn place(&mut self, weight: u32) -> usize {
        let (n, rng) = (self.config.n(), &mut self.rng);
        // rbb-lint: allow(lossy-cast, reason = "draws are bin indices < n, which fits u32")
        let draw = || rng.uniform_usize(n) as u32;
        let b = self.weights.place(self.balls, weight, draw) as usize;
        self.config.loads_mut()[b] += 1;
        self.balls += 1;
        b
    }

    fn depart(&mut self, bin: usize) -> bool {
        match self.config.loads_mut().get_mut(bin) {
            Some(slot) if *slot > 0 => {
                *slot -= 1;
                self.balls -= 1;
                // rbb-lint: allow(lossy-cast, reason = "in-range bin index < n, which fits u32")
                self.weights.depart(bin as u32);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LegitimacyThreshold;
    use crate::metrics::{EmptyBinsTracker, MaxLoadTracker};
    use crate::snapshot::SNAPSHOT_VERSION_WEIGHTED;

    #[test]
    fn step_conserves_balls() {
        let mut p = LoadProcess::legitimate_start(64, 1);
        for _ in 0..200 {
            p.step();
            assert_eq!(p.config().total_balls(), 64);
        }
    }

    #[test]
    fn step_returns_nonempty_count() {
        let mut p = LoadProcess::new(Config::all_in_one(8, 8), Xoshiro256pp::seed_from(2));
        // Round 1: only bin 0 is non-empty, so exactly one ball moves.
        assert_eq!(p.step(), 1);
    }

    #[test]
    fn round_counter_advances() {
        let mut p = LoadProcess::legitimate_start(16, 3);
        assert_eq!(p.round(), 0);
        p.run_silent(10);
        assert_eq!(p.round(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = LoadProcess::legitimate_start(32, 42);
        let mut b = LoadProcess::legitimate_start(32, 42);
        a.run_silent(100);
        b.run_silent(100);
        assert_eq!(a.config(), b.config());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = LoadProcess::legitimate_start(32, 1);
        let mut b = LoadProcess::legitimate_start(32, 2);
        a.run_silent(50);
        b.run_silent(50);
        assert_ne!(a.config(), b.config());
    }

    #[test]
    fn empty_bins_appear_after_one_round() {
        // Lemma 1: from the all-singleton start, one round creates ≥ n/4
        // empty bins w.h.p. (here: just check plenty appear).
        let mut p = LoadProcess::legitimate_start(1024, 7);
        p.step();
        let empty = p.config().empty_bins();
        assert!(empty >= 1024 / 4, "only {empty} empty bins after round 1");
    }

    #[test]
    fn max_load_stays_logarithmic_short_window() {
        let n = 512;
        let mut p = LoadProcess::legitimate_start(n, 11);
        let mut tracker = MaxLoadTracker::new();
        p.run(2000, &mut tracker);
        let bound = LegitimacyThreshold::default().bound(n);
        assert!(
            tracker.window_max() <= bound,
            "max load {} exceeded 4 ln n = {}",
            tracker.window_max(),
            bound
        );
    }

    #[test]
    fn empty_fraction_at_least_quarter_in_window() {
        let mut p = LoadProcess::legitimate_start(1024, 13);
        let mut tracker = EmptyBinsTracker::new();
        p.run(2000, &mut tracker);
        assert_eq!(tracker.violations_below_quarter(), 0);
        assert!(tracker.min_empty() >= 256);
    }

    #[test]
    fn all_in_one_drains_one_per_round() {
        let n = 64;
        let mut p = LoadProcess::new(Config::all_in_one(n, n as u32), Xoshiro256pp::seed_from(5));
        for t in 1..=10u32 {
            p.step();
            // Bin 0 loses one per round and receives at most the number of
            // movers; early on it can only shrink roughly one per round.
            assert!(p.config().loads()[0] >= n as u32 - 2 * t);
        }
    }

    #[test]
    fn convergence_from_all_in_one_is_linear() {
        let n = 256;
        let thr = LegitimacyThreshold::default();
        let mut p = LoadProcess::new(Config::all_in_one(n, n as u32), Xoshiro256pp::seed_from(6));
        let hit = p
            .run_until(20 * n as u64, |c| thr.is_legitimate(c))
            .expect("should converge");
        // Needs at least (n - bound) rounds to drain bin 0; should finish in O(n).
        assert!(hit >= (n as u64 - thr.bound(n) as u64));
        assert!(hit <= 3 * n as u64, "took {hit} rounds");
    }

    #[test]
    fn run_until_immediate_hit() {
        let mut p = LoadProcess::legitimate_start(16, 8);
        let hit = p.run_until(10, |_| true);
        assert_eq!(hit, Some(0));
    }

    #[test]
    fn run_until_gives_none_on_timeout() {
        let mut p = LoadProcess::legitimate_start(16, 9);
        assert_eq!(p.run_until(5, |c| c.max_load() > 1_000), None);
    }

    #[test]
    fn step_recording_matches_departures() {
        let mut p = LoadProcess::legitimate_start(32, 10);
        let mut dests = Vec::new();
        let d = p.step_recording(&mut dests);
        assert_eq!(d, 32);
        assert_eq!(dests.len(), 32);
        assert!(dests.iter().all(|&b| b < 32));
    }

    #[test]
    fn adversarial_reassign_conserves() {
        let mut p = LoadProcess::legitimate_start(16, 11);
        p.adversarial_reassign(Config::all_in_one(16, 16));
        assert_eq!(p.config().max_load(), 16);
        p.step();
        assert_eq!(p.config().total_balls(), 16);
    }

    #[test]
    #[should_panic(expected = "conserve")]
    fn adversarial_reassign_rejects_mass_change() {
        let mut p = LoadProcess::legitimate_start(16, 12);
        p.adversarial_reassign(Config::all_in_one(16, 17));
    }

    #[test]
    fn batched_step_is_bit_identical_to_scalar() {
        // The batched hot path must be indistinguishable from the scalar
        // path: same loads and same RNG consumption, round for round.
        for n in [1usize, 7, 64, 1000] {
            let mut scalar = LoadProcess::legitimate_start(n, 21);
            let mut batched = scalar.clone();
            for _ in 0..300 {
                let a = scalar.step();
                let b = batched.step_batched();
                assert_eq!(a, b);
                assert_eq!(scalar.config(), batched.config());
            }
        }
    }

    #[test]
    fn cached_sampler_keeps_rng_state_bit_identical_to_scalar() {
        // The cached `UniformSampler` must not change what the batched path
        // consumes: after any number of rounds the loads AND the raw RNG
        // state match the scalar path exactly.
        for n in [2usize, 33, 500] {
            let mut scalar = LoadProcess::legitimate_start(n, 77);
            let mut batched = scalar.clone();
            for _ in 0..250 {
                scalar.step();
                batched.step_batched();
            }
            assert_eq!(scalar.config, batched.config);
            assert_eq!(scalar.rng, batched.rng, "RNG state diverged at n={n}");
            assert_eq!(batched.sampler.bound(), n as u64, "sampler keyed on n");
        }
    }

    #[test]
    fn batched_and_scalar_steps_interleave() {
        // Because both paths consume the RNG identically, they can be mixed
        // freely mid-trajectory.
        let mut reference = LoadProcess::legitimate_start(128, 22);
        let mut mixed = reference.clone();
        for i in 0..200 {
            reference.step();
            if i % 2 == 0 {
                mixed.step_batched();
            } else {
                mixed.step();
            }
        }
        assert_eq!(reference.config(), mixed.config());
        assert_eq!(reference.round(), mixed.round());
    }

    #[test]
    fn run_silent_matches_scalar_stepping() {
        let mut a = LoadProcess::legitimate_start(256, 23);
        let mut b = a.clone();
        for _ in 0..500 {
            a.step();
        }
        b.run_silent(500);
        assert_eq!(a.config(), b.config());
        assert_eq!(b.round(), 500);
        assert_eq!(b.config().total_balls(), 256);
    }

    #[test]
    fn run_invokes_observer() {
        let mut p = LoadProcess::legitimate_start(64, 24);
        let mut tracker = MaxLoadTracker::new();
        p.run(100, &mut tracker);
        assert!(tracker.window_max() >= 1);
    }

    #[test]
    fn batched_from_all_in_one_conserves() {
        let mut p = LoadProcess::new(Config::all_in_one(64, 200), Xoshiro256pp::seed_from(25));
        p.run_silent(300);
        assert_eq!(p.config().total_balls(), 200);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut p = LoadProcess::legitimate_start(64, 33);
        p.run_silent(37);
        let snap = Engine::snapshot(&p).expect("dense engine snapshots");
        let mut q = LoadProcess::from_snapshot(&snap).unwrap();
        assert_eq!(q.round(), 37);
        assert_eq!(q.config(), p.config());
        for _ in 0..100 {
            p.step();
            q.step();
        }
        assert_eq!(p.config(), q.config());
        assert_eq!(Engine::snapshot(&p), Engine::snapshot(&q));
    }

    #[test]
    fn from_snapshot_rejects_other_kinds() {
        let mut snap = LoadProcess::legitimate_start(8, 1).snapshot_state();
        snap.engine = "sparse".to_string();
        assert!(LoadProcess::from_snapshot(&snap).is_err());
    }

    #[test]
    fn place_and_depart_update_loads_and_mass() {
        let mut p = LoadProcess::legitimate_start(32, 44);
        assert!(Engine::incremental(&mut p).is_some());
        let b = Incremental::place(&mut p, 1);
        assert!(b < 32);
        assert_eq!(p.balls(), 33);
        assert_eq!(p.config().loads()[b], 2);
        assert!(Incremental::depart(&mut p, b));
        assert_eq!(p.balls(), 32);
        assert!(!Incremental::depart(&mut p, 99), "out of range is a no-op");
        assert!(Incremental::depart(&mut p, 0));
        assert!(!Incremental::depart(&mut p, 0), "empty bin is a no-op");
        assert_eq!(p.balls(), 31);
        p.step();
        assert_eq!(p.config().total_balls(), 31);
    }

    #[test]
    fn place_consumes_the_engine_stream_deterministically() {
        let mut a = LoadProcess::legitimate_start(64, 9);
        let mut b = a.clone();
        for _ in 0..20 {
            assert_eq!(Incremental::place(&mut a, 1), Incremental::place(&mut b, 1));
        }
        a.run_silent(10);
        b.run_silent(10);
        assert_eq!(a.config(), b.config());
    }

    #[test]
    fn m_less_than_n_supported() {
        let mut rng = Xoshiro256pp::seed_from(13);
        let cfg = Config::random(&mut rng, 100, 50);
        let mut p = LoadProcess::new(cfg, rng);
        p.run_silent(100);
        assert_eq!(p.config().total_balls(), 50);
    }

    #[test]
    fn m_greater_than_n_supported() {
        let mut rng = Xoshiro256pp::seed_from(14);
        let cfg = Config::random(&mut rng, 100, 400);
        let mut p = LoadProcess::new(cfg, rng);
        p.run_silent(100);
        assert_eq!(p.config().total_balls(), 400);
    }

    fn zipf_process(n: usize, seed: u64, caps: Capacities) -> LoadProcess {
        let config = Config::one_per_bin(n);
        LoadProcess::with_weights(
            config,
            Xoshiro256pp::seed_from(seed),
            Weights::zipf(n as u64, 1.0, 50),
            caps,
        )
    }

    #[test]
    fn unit_weights_build_the_same_engine() {
        // Weights::Unit (and an explicit all-ones vector) must not build an
        // overlay: the weighted constructor returns the *same* engine as
        // `new`, trajectory, stream, and snapshot bytes included.
        let plain = LoadProcess::legitimate_start(64, 51);
        for weights in [Weights::Unit, Weights::Explicit(vec![1; 64])] {
            let mut w = LoadProcess::with_weights(
                Config::one_per_bin(64),
                Xoshiro256pp::seed_from(51),
                weights,
                Capacities::Unbounded,
            );
            assert!(w.weights.overlay().is_none());
            assert!(!Engine::weighted(&w));
            let mut reference = plain.clone();
            for i in 0..120 {
                if i % 2 == 0 {
                    reference.step();
                    w.step();
                } else {
                    reference.step_batched();
                    w.step_batched();
                }
                assert_eq!(reference.config(), w.config());
            }
            assert_eq!(reference.rng, w.rng);
            assert_eq!(Engine::snapshot(&reference), Engine::snapshot(&w));
        }
    }

    #[test]
    fn weighted_trajectory_matches_unit_trajectory() {
        // Weight-obliviousness: the load trajectory and RNG stream of a
        // weighted process are bit-identical to the unit process from the
        // same seed — weights are a metric overlay, not a dynamic.
        let mut unit = LoadProcess::legitimate_start(128, 52);
        let mut zipf = zipf_process(128, 52, Capacities::Unbounded);
        assert!(Engine::weighted(&zipf));
        for i in 0..200 {
            if i % 2 == 0 {
                unit.step();
                zipf.step();
            } else {
                unit.step_batched();
                zipf.step_batched();
            }
            assert_eq!(unit.config(), zipf.config());
        }
        assert_eq!(unit.rng, zipf.rng, "weights must never touch the RNG");
        assert_eq!(Engine::balls(&zipf), 128);
        assert_eq!(
            Engine::total_weight(&zipf),
            Weights::zipf(128, 1.0, 50).total(128)
        );
    }

    #[test]
    fn weighted_rounds_conserve_total_weight() {
        let mut p = zipf_process(64, 54, Capacities::Uniform(60));
        let total = Engine::total_weight(&p);
        for _ in 0..100 {
            p.step_batched();
            assert_eq!(Engine::total_weight(&p), total);
            assert!(Engine::weighted_max_load(&p) <= total);
        }
        // Weighted max load dominates the unweighted count whenever any
        // heavy ball exists (here ball 0 weighs 50).
        assert!(Engine::weighted_max_load(&p) >= u64::from(Engine::max_load(&p)));
    }

    #[test]
    fn weighted_snapshot_round_trips_bit_identically() {
        let mut p = zipf_process(48, 55, Capacities::Uniform(55));
        p.run_silent(31);
        let snap = Engine::snapshot(&p).expect("dense engine snapshots");
        assert_eq!(snap.version, SNAPSHOT_VERSION_WEIGHTED);
        let w = snap.weighted.as_ref().expect("weighted section");
        assert_eq!(w.cap_kind, "uniform");
        let mut q = LoadProcess::from_snapshot(&snap).unwrap();
        assert_eq!(Engine::total_weight(&q), Engine::total_weight(&p));
        assert_eq!(Engine::capacities(&q), Engine::capacities(&p));
        for _ in 0..60 {
            p.step_batched();
            q.step_batched();
        }
        assert_eq!(p.config(), q.config());
        assert_eq!(Engine::snapshot(&p), Engine::snapshot(&q));
    }

    #[test]
    fn capacity_only_process_snapshots_and_counts_violations() {
        // Unit weights + real capacities: no overlay, but the capacities
        // persist through snapshots and violations use the dense scan.
        let mut p = LoadProcess::with_weights(
            Config::all_in_one(16, 16),
            Xoshiro256pp::seed_from(56),
            Weights::Unit,
            Capacities::Uniform(3),
        );
        assert!(p.weights.overlay().is_none());
        assert_eq!(Engine::capacity_violations(&p), 1, "bin 0 holds 16 > 3");
        let snap = Engine::snapshot(&p).expect("dense engine snapshots");
        assert_eq!(snap.version, SNAPSHOT_VERSION_WEIGHTED);
        assert!(snap.weighted.as_ref().is_some_and(|w| w.queues.is_empty()));
        let q = LoadProcess::from_snapshot(&snap).unwrap();
        assert_eq!(Engine::capacities(&q), &Capacities::Uniform(3));
        assert_eq!(Engine::capacity_violations(&q), 1);
        p.run_silent(200);
        assert_eq!(p.config().total_balls(), 16);
    }

    #[test]
    fn weighted_place_and_depart_track_the_overlay() {
        let mut p = zipf_process(32, 57, Capacities::Unbounded);
        let total = Engine::total_weight(&p);
        let b = Incremental::place(&mut p, 40);
        assert_eq!(Engine::total_weight(&p), total + 40);
        assert_eq!(Engine::balls(&p), 33);
        assert!(Engine::weighted_bin_load(&p, b) >= 40);
        assert!(Incremental::depart(&mut p, b), "bin just received a ball");
        assert_eq!(Engine::balls(&p), 32);
        p.step_batched();
        assert_eq!(p.config().total_balls(), 32);
    }

    #[test]
    #[should_panic(expected = "unit-weight")]
    fn unit_process_rejects_heavy_placements() {
        let mut p = LoadProcess::legitimate_start(8, 58);
        Incremental::place(&mut p, 2);
    }

    #[test]
    #[should_panic(expected = "unit-path primitive")]
    fn weighted_process_rejects_step_recording() {
        let mut p = zipf_process(8, 59, Capacities::Unbounded);
        let mut dests = Vec::new();
        p.step_recording(&mut dests);
    }

    #[test]
    #[should_panic(expected = "invalid weights")]
    fn with_weights_rejects_wrong_arity() {
        LoadProcess::with_weights(
            Config::one_per_bin(4),
            Xoshiro256pp::seed_from(60),
            Weights::Explicit(vec![2, 3]),
            Capacities::Unbounded,
        );
    }
}
