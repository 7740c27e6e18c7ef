//! The repeated balls-into-bins process — sharded single-trial engine.
//!
//! [`crate::process::LoadProcess`] runs one trial on one core; at
//! `n = 10^7+` a single dense trial is the bottleneck of the large-`n`
//! stability experiments. [`ShardedLoadProcess`] partitions the bins into
//! `S` fixed shards, each owning a contiguous *column* of the load vector
//! and its **own RNG stream**, so a round decomposes into two embarrassingly
//! parallel phases joined by a barrier:
//!
//! 1. **Depart + throw** (per shard): a branchless departure scan over the
//!    shard's own column, then a batched Lemire draw of that shard's
//!    destinations — one global uniform draw per departure, from the
//!    *shard's* stream — routed into per-destination-shard outboxes.
//! 2. **Merge** (per shard): each shard applies its inbound arrivals,
//!    reading the senders' outboxes in shard-index order.
//!
//! # Partition
//!
//! Bins are sharded by a masked-hash rule: bin `b` belongs to shard
//! `b mod S` and sits at column index `b div S` (a mask and a shift when
//! `S` is a power of two). The rule is a pure function of `(b, S)`, so the
//! partition — and therefore the trajectory — depends only on the shard
//! count, never on the worker count.
//!
//! # Determinism contract
//!
//! * **Fixed shard count ⇒ bit-identical trajectories at any thread
//!   count.** Each shard's draws come from its own stream and depend only
//!   on its own column; the merge reads outboxes in shard-index order; and
//!   arrival application is commutative (pure increments). The parallel and
//!   sequential round bodies therefore produce identical states, which the
//!   unit tests pin.
//! * **`S = 1` is bit-identical to the dense engine.** Shard 0 uses the
//!   engine-convention stream (`seed_from(seed)`), and the single-shard
//!   round reduces to exactly the dense scan + batched-throw sequence.
//! * **Different shard counts are equal in law, not per seed.** For `S > 1`
//!   the round's `d` draws are split across `S` streams, so trajectories
//!   differ from the dense stream draw-for-draw while the process law — `d`
//!   i.i.d. uniform destinations per round — is unchanged
//!   (`tests/proptest_sharded.rs` pins the law-level invariants).
//!
//! # RNG streams
//!
//! Shard 0 draws from the engine-convention stream `seed_from(seed)`;
//! shard `s ≥ 1` draws from `Xoshiro256pp::stream(seed,
//! SHARD_STREAM_SALT + s)` — disjoint from the engine stream, from the
//! adversary stream (`0xADFE`), and from each other by the `stream`
//! construction.

use std::cell::OnceCell;
use std::sync::Mutex;

use rayon::prelude::*;

use crate::config::Config;
use crate::engine::{Engine, Incremental};
use crate::process::occupied;
use crate::rng::Xoshiro256pp;
use crate::sampling::UniformSampler;
use crate::snapshot::{SnapshotError, SnapshotState, ENGINE_SHARDED};
use crate::weights::{Capacities, WeightLayer, Weights};

/// Base salt of the per-shard RNG streams: shard `s ≥ 1` draws from
/// `Xoshiro256pp::stream(seed, SHARD_STREAM_SALT + s)`. Shard 0 uses the
/// salt-free engine-convention stream so a 1-shard process is bit-identical
/// to the dense engine. Salts `SHARD_STREAM_SALT..SHARD_STREAM_SALT + S`
/// are reserved; spec-level salts must stay clear of this range (the
/// adversary's `0xADFE` and the start salts are).
pub const SHARD_STREAM_SALT: u64 = 0x5AA4_DED0;

/// Bin-count threshold below which `step_batched` runs the two phases
/// sequentially instead of through the thread pool: the parallel and
/// sequential schedules of the round produce identical states (pinned by
/// unit tests),
/// so this is purely a scheduling choice — per-round thread spawns only pay
/// for themselves once a column scan is macroscopic.
const PAR_MIN_N: usize = 1 << 19;

/// Outbox row of one sender shard: `row[t]` holds the *column indices*
/// (destination-local) of the balls this shard threw into shard `t`, in
/// draw order.
type OutRow = Vec<Vec<u32>>;

/// The masked-hash partition rule: shard of `b` is `b mod S`, column index
/// is `b div S` — a mask and a shift when `S` is a power of two (the
/// performance configurations), one division otherwise (supported for
/// law-equality tests at odd shard counts).
#[derive(Debug, Clone, Copy)]
struct Router {
    count: u32,
    /// `Some((mask, shift))` when the shard count is a power of two.
    mask_shift: Option<(u32, u32)>,
}

impl Router {
    fn of(shard_count: usize) -> Self {
        assert!(
            shard_count >= 1 && shard_count <= u32::MAX as usize,
            "shard count {shard_count} out of the supported 1..=u32::MAX range"
        );
        // rbb-lint: allow(lossy-cast, reason = "shard_count <= u32::MAX is asserted above")
        let count = shard_count as u32;
        let mask_shift = shard_count
            .is_power_of_two()
            .then(|| (count - 1, count.trailing_zeros()));
        Self { count, mask_shift }
    }

    /// Maps a global bin index to `(owner shard, column index)`.
    #[inline]
    fn route(self, b: u32) -> (usize, u32) {
        match self.mask_shift {
            Some((mask, shift)) => ((b & mask) as usize, b >> shift),
            None => ((b % self.count) as usize, b / self.count),
        }
    }

    /// Inverse of [`route`](Router::route): the global bin index of column
    /// slot `idx` in shard `s`.
    #[inline]
    fn unroute(self, s: usize, idx: usize) -> usize {
        idx * self.count as usize + s
    }
}

/// One owned shard: a contiguous column of the (strided) load vector, its
/// private RNG stream, an incremental non-empty counter, and the batched
/// draw scratch.
#[derive(Debug, Clone)]
struct Shard {
    /// Column `loads[idx]` is the load of global bin `idx * S + s`.
    loads: Vec<u32>,
    /// Number of non-empty bins in this column (maintained incrementally).
    nonempty: usize,
    rng: Xoshiro256pp,
    /// The round's destination draws — global bin indices, in draw order;
    /// kept after the round for the weighted transport.
    dests: Vec<u32>,
}

/// The occupied bins as `(bin, load)` pairs in shard-major, column order —
/// the canonical order of the weighted transport (ascending bin order at
/// `S = 1`).
fn occupied_columns(shards: &[Shard], router: Router) -> impl Iterator<Item = (u32, u32)> + '_ {
    shards.iter().enumerate().flat_map(move |(s, shard)| {
        shard
            .loads
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l > 0)
            // rbb-lint: allow(lossy-cast, reason = "unroute yields a bin < n, and n fits the u32 index range (asserted at construction)")
            .map(move |(idx, &l)| (router.unroute(s, idx) as u32, l))
    })
}

/// Phase 1 for one shard: branchless departure scan over the column, then
/// the shard's batched destination draws routed into its outbox row
/// (cleared first). Returns the departure count.
fn depart_and_throw(
    shard: &mut Shard,
    row: &mut OutRow,
    sampler: &UniformSampler,
    router: Router,
) -> usize {
    let mut departures = 0usize;
    let mut still = 0usize;
    for l in shard.loads.iter_mut() {
        // Branchless, like the dense hot path: at equilibrium occupancy the
        // `l > 0` branch is close to worst-case unpredictable.
        // rbb-lint: allow(lossy-cast, reason = "bool-to-u32 cast is lossless (0 or 1)")
        let occupied = (*l > 0) as u32;
        *l -= occupied;
        departures += occupied as usize;
        still += (*l > 0) as usize;
    }
    shard.nonempty = still;
    for dest in row.iter_mut() {
        dest.clear();
    }
    shard.dests.resize(departures, 0);
    sampler.fill_u32(&mut shard.rng, &mut shard.dests);
    for &b in &shard.dests {
        let (t, idx) = router.route(b);
        row[t].push(idx);
    }
    departures
}

/// Phase 2 for one shard: applies the inbound arrivals addressed to shard
/// `t`, reading every sender's outbox in shard-index order. Arrival
/// application is commutative, so this order is a convention, not a
/// correctness requirement.
fn apply_inbound(shard: &mut Shard, rows: &[OutRow], t: usize) {
    for row in rows {
        for &idx in &row[t] {
            let slot = &mut shard.loads[idx as usize];
            debug_assert_ne!(*slot, u32::MAX, "column slot {idx} would overflow u32");
            shard.nonempty += (*slot == 0) as usize;
            *slot += 1;
        }
    }
}

/// Sharded load-only repeated balls-into-bins simulator: law-equal to
/// [`LoadProcess`](crate::process::LoadProcess) at any shard count,
/// bit-identical to it at `S = 1`, and bit-identical to *itself* for a
/// fixed shard count at any `RAYON_NUM_THREADS` (see the module docs for
/// the full determinism contract).
///
/// ```
/// use rbb_core::prelude::*;
/// use rbb_core::sharded::ShardedLoadProcess;
///
/// let mut p = ShardedLoadProcess::legitimate_start(1024, 7, 4);
/// p.run_silent(100);
/// assert_eq!(p.balls(), 1024); // mass conserved
/// assert_eq!(p.round(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedLoadProcess {
    n: usize,
    shard_count: usize,
    router: Router,
    shards: Vec<Shard>,
    /// `outboxes[s][t]`: balls thrown by shard `s` into shard `t` this
    /// round (column indices, draw order). Buffers are reused across
    /// rounds.
    outboxes: Vec<OutRow>,
    round: u64,
    balls: u64,
    /// Uniform sampler keyed on `n`, shared by every shard (draws are
    /// global destinations).
    sampler: UniformSampler,
    /// Lazily materialized dense view for `Engine::config`; invalidated on
    /// every mutation.
    dense: OnceCell<Config>,
    /// Weight overlay and observed capacities (the unit layer by default).
    weights: WeightLayer,
}

impl ShardedLoadProcess {
    /// Creates a sharded process from an initial configuration, the
    /// scenario seed, and a shard count.
    ///
    /// Panics if `shards` is zero, exceeds `n`, or `n` exceeds the `u32`
    /// index range.
    ///
    /// # RNG stream
    ///
    /// Derives `shards` private streams from `seed`: shard 0 gets the
    /// engine-convention stream (`seed_from(seed)` — so `shards = 1`
    /// reproduces the dense engine bit-for-bit), shard `s ≥ 1` gets stream
    /// `SHARD_STREAM_SALT + s`. Each round, shard `s` consumes one uniform
    /// destination draw per ball it releases, in column order.
    pub fn new(config: Config, seed: u64, shards: usize) -> Self {
        let n = config.n();
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shards <= n,
            "shard count {shards} exceeds the bin count {n}"
        );
        // Bin indices are u32 throughout the workspace; a larger n would
        // silently truncate destination draws in release builds.
        assert!(
            n <= u32::MAX as usize + 1,
            "bin count {n} exceeds the u32 index range"
        );
        let router = Router::of(shards);
        let balls = config.total_balls();
        let mut shard_vec: Vec<Shard> = (0..shards)
            .map(|s| Shard {
                loads: vec![0u32; (n - s).div_ceil(shards)],
                nonempty: 0,
                rng: shard_rng(seed, s),
                dests: Vec::new(),
            })
            .collect();
        for (b, &l) in config.loads().iter().enumerate() {
            if l > 0 {
                // rbb-lint: allow(lossy-cast, reason = "b < n, and n fits the u32 index range (asserted above)")
                let (s, idx) = router.route(b as u32);
                shard_vec[s].loads[idx as usize] = l;
                shard_vec[s].nonempty += 1;
            }
        }
        Self {
            n,
            shard_count: shards,
            router,
            shards: shard_vec,
            outboxes: vec![vec![Vec::new(); shards]; shards],
            round: 0,
            balls,
            sampler: UniformSampler::new(n as u64),
            dense: OnceCell::new(),
            weights: WeightLayer::default(),
        }
    }

    /// Creates a weighted, capacity-observing sharded process.
    /// [`Weights::Unit`] (or an explicit all-ones vector) builds no overlay,
    /// so the unit configuration is the same engine as [`Self::new`]. At
    /// `shards = 1` the weighted trajectory — and every weighted metric —
    /// is bit-identical to [`LoadProcess::with_weights`]; at `shards > 1`
    /// it is law-equal, exactly as in the unit regime.
    ///
    /// [`LoadProcess::with_weights`]: crate::process::LoadProcess::with_weights
    pub fn with_weights(
        config: Config,
        seed: u64,
        shards: usize,
        weights: Weights,
        capacities: Capacities,
    ) -> Self {
        let layer = WeightLayer::new(weights, capacities, config.n(), occupied(config.loads()));
        let mut p = Self::new(config, seed, shards);
        p.weights = layer;
        p
    }

    /// Convenience constructor: `n` balls into `n` bins, one per bin.
    pub fn legitimate_start(n: usize, seed: u64, shards: usize) -> Self {
        Self::new(Config::one_per_bin(n), seed, shards)
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

    /// The fixed shard count this process was built with.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Advances one round: per-shard branchless scans and batched Lemire
    /// draws, run through the thread pool once the columns are large enough
    /// to amortize it. Bit-identical at any thread count: the sequential and
    /// parallel schedules run the same per-shard phases.
    ///
    /// On a weighted process each shard's departing columns are listed in
    /// column order before the round and paired with that shard's draws in
    /// draw order after it — the canonical transport order, which at
    /// `shards = 1` is exactly the dense scan.
    ///
    /// # RNG stream
    ///
    /// Each shard consumes one uniform draw per ball it releases, from its
    /// own stream — see [`Self::new`]. The scheduling choice never touches
    /// an RNG.
    pub fn step_batched(&mut self) -> usize {
        if let Some(srcs) = self.weights.sources() {
            srcs.extend(occupied_columns(&self.shards, self.router).map(|(b, _)| b));
        }
        let departures = if self.shard_count == 1 || self.n < PAR_MIN_N {
            self.round_sequential()
        } else {
            self.round_parallel()
        };
        self.weights
            .transport(self.shards.iter().flat_map(|s| s.dests.iter().copied()));
        debug_assert!(self
            .weights
            .check(occupied_columns(&self.shards, self.router))
            .is_ok());
        departures
    }

    /// Both phases in shard-index order on the calling thread.
    fn round_sequential(&mut self) -> usize {
        let sampler = self.sampler;
        let router = self.router;
        let mut departures = 0usize;
        for (shard, row) in self.shards.iter_mut().zip(self.outboxes.iter_mut()) {
            departures += depart_and_throw(shard, row, &sampler, router);
        }
        for (t, shard) in self.shards.iter_mut().enumerate() {
            apply_inbound(shard, &self.outboxes, t);
        }
        self.finish_round(departures)
    }

    /// Both phases through the thread pool, one task per shard, with a
    /// barrier between them. Each task locks only its own shard's state
    /// (the mutexes exist to satisfy the `Fn` closure bound; they are
    /// uncontended by construction), so the result is identical to
    /// [`round_sequential`](Self::round_sequential) at any worker count.
    fn round_parallel(&mut self) -> usize {
        let sampler = self.sampler;
        let router = self.router;
        let shard_count = self.shard_count;
        let work: Vec<Mutex<(Shard, OutRow)>> = std::mem::take(&mut self.shards)
            .into_iter()
            .zip(std::mem::take(&mut self.outboxes))
            .map(Mutex::new)
            .collect();
        let departures: usize = (0..shard_count)
            .into_par_iter()
            .map(|s| {
                // rbb-lint: allow(panic, unordered-merge, reason = "commutes: task index = shard index, so each task locks only its own uncontended shard and no cross-task state merges; poisoning would mean a sibling panicked, which rayon re-raises anyway")
                let mut guard = work[s].lock().expect("shard mutex poisoned");
                let (shard, row) = &mut *guard;
                // rbb-lint: allow(rng-in-par, reason = "shard.rng is the per-shard stream pre-salted with SHARD_STREAM_SALT at construction; tasks never share a stream")
                depart_and_throw(shard, row, &sampler, router)
            })
            .collect::<Vec<usize>>()
            .into_iter()
            .sum();
        let (shards, rows): (Vec<Shard>, Vec<OutRow>) = work
            .into_iter()
            // rbb-lint: allow(panic, reason = "all tasks have joined; a panicked task would have re-raised before this point")
            .map(|m| m.into_inner().expect("shard mutex poisoned"))
            .unzip();
        let cells: Vec<Mutex<Shard>> = shards.into_iter().map(Mutex::new).collect();
        let _: Vec<()> = (0..shard_count)
            .into_par_iter()
            .map(|t| {
                // rbb-lint: allow(panic, unordered-merge, reason = "commutes: task index = shard index, so each task locks only its own uncontended shard and no cross-task state merges; poisoning would mean a sibling panicked, which rayon re-raises anyway")
                let mut shard = cells[t].lock().expect("shard mutex poisoned");
                apply_inbound(&mut shard, &rows, t);
            })
            .collect();
        self.shards = cells
            .into_iter()
            // rbb-lint: allow(panic, reason = "all tasks have joined; a panicked task would have re-raised before this point")
            .map(|m| m.into_inner().expect("shard mutex poisoned"))
            .collect();
        self.outboxes = rows;
        self.finish_round(departures)
    }

    /// Closes a round: bumps the counter, invalidates the dense cache, and
    /// (in debug builds) re-checks mass conservation and the incremental
    /// non-empty counters.
    fn finish_round(&mut self, departures: usize) -> usize {
        self.round += 1;
        self.dense.take();
        debug_assert_eq!(
            self.shards
                .iter()
                .flat_map(|s| s.loads.iter())
                .map(|&l| l as u64)
                .sum::<u64>(),
            self.balls,
            "mass violated"
        );
        debug_assert!(self
            .shards
            .iter()
            .all(|s| s.nonempty == s.loads.iter().filter(|&&l| l > 0).count()));
        departures
    }

    /// Captures the complete resumable state: the de-strided loads in
    /// canonical (bin-sorted) order and every shard's raw RNG stream state,
    /// in shard order. Outboxes and draw scratch are round-scoped and carry
    /// no state across rounds, so they are not captured.
    pub fn snapshot_state(&self) -> SnapshotState {
        let mut entries: Vec<(u32, u32)> = occupied_columns(&self.shards, self.router).collect();
        entries.sort_unstable();
        let (version, weighted) = self.weights.section();
        SnapshotState {
            version,
            engine: ENGINE_SHARDED.to_string(),
            n: self.n,
            shards: self.shard_count,
            round: self.round,
            balls: self.balls,
            entries,
            rng_states: self.shards.iter().map(|s| s.rng.state()).collect(),
            weighted,
        }
    }

    /// Rebuilds a sharded process from a snapshot (validated first); the
    /// restored process resumes the snapshotted trajectory bit-identically
    /// at the snapshot's shard count.
    pub fn from_snapshot(state: &SnapshotState) -> Result<Self, SnapshotError> {
        state.expect_engine(ENGINE_SHARDED)?;
        // The seed only feeds the freshly derived streams, which the loop
        // below overwrites with the captured states.
        let mut p = Self::new(Config::from_loads(state.dense_loads()), 0, state.shards);
        for (shard, &captured) in p.shards.iter_mut().zip(&state.rng_states) {
            // rbb-lint: allow(rng-construct, reason = "restoring serialized stream states captured from a live engine snapshot, not seeding new streams")
            shard.rng = Xoshiro256pp::from_state(captured);
        }
        p.round = state.round;
        p.weights = WeightLayer::from_section(state.weighted.as_ref())?;
        Ok(p)
    }
}

/// The RNG stream of shard `s` — see the module docs.
fn shard_rng(seed: u64, s: usize) -> Xoshiro256pp {
    if s == 0 {
        // rbb-lint: allow(rng-construct, reason = "shard 0 is the engine-convention stream, so shards = 1 is bit-identical to the dense engine; core cannot depend on rbb_sim::seed")
        Xoshiro256pp::seed_from(seed)
    } else {
        // rbb-lint: allow(rng-construct, reason = "per-shard streams are derived from the scenario seed at the documented reserved salts; core cannot depend on rbb_sim::seed")
        Xoshiro256pp::stream(seed, SHARD_STREAM_SALT + s as u64)
    }
}

impl Engine for ShardedLoadProcess {
    /// Forwards to the one round body, [`ShardedLoadProcess::step_batched`].
    #[inline]
    fn step(&mut self) -> usize {
        ShardedLoadProcess::step_batched(self)
    }

    #[inline]
    fn step_batched(&mut self) -> usize {
        ShardedLoadProcess::step_batched(self)
    }

    #[inline]
    fn round(&self) -> u64 {
        self.round
    }

    /// Materializes (and caches) the dense snapshot — `O(n)`, so per-round
    /// drivers use the cheap accessors below instead.
    fn config(&self) -> &Config {
        self.dense.get_or_init(|| {
            let mut loads = vec![0u32; self.n];
            for (s, shard) in self.shards.iter().enumerate() {
                for (idx, &l) in shard.loads.iter().enumerate() {
                    loads[self.router.unroute(s, idx)] = l;
                }
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
        self.shards
            .iter()
            .flat_map(|s| s.loads.iter())
            .copied()
            .max()
            .unwrap_or(0)
    }

    #[inline]
    fn empty_bins(&self) -> usize {
        self.n - self.nonempty_bins()
    }

    /// `O(S)`: the per-shard non-empty counters are maintained
    /// incrementally.
    #[inline]
    fn nonempty_bins(&self) -> usize {
        self.shards.iter().map(|s| s.nonempty).sum()
    }

    #[inline]
    fn bin_load(&self, bin: usize) -> u32 {
        debug_assert!(bin < self.n);
        // rbb-lint: allow(lossy-cast, reason = "bin < n, and n fits the u32 index range (asserted at construction)")
        let (s, idx) = self.router.route(bin as u32);
        self.shards[s].loads[idx as usize]
    }

    fn supports_faults(&self) -> bool {
        true
    }

    /// Placement-based fault: rebuilds the columns from `placement[ball] =
    /// bin`. Consumes no engine randomness, exactly like the dense engine's
    /// fault path, so post-fault trajectories stay law-equal (and, at
    /// `shards = 1`, bit-identical).
    fn apply_fault(&mut self, placement: &[usize]) {
        assert_eq!(
            placement.len() as u64,
            self.balls,
            "adversary must conserve balls"
        );
        for shard in self.shards.iter_mut() {
            shard.loads.fill(0);
            shard.nonempty = 0;
        }
        for &bin in placement {
            assert!(bin < self.n, "bin {bin} out of range 0..{}", self.n);
            // rbb-lint: allow(lossy-cast, reason = "bin < n, and n fits the u32 index range (asserted at construction)")
            let (s, idx) = self.router.route(bin as u32);
            let shard = &mut self.shards[s];
            let slot = &mut shard.loads[idx as usize];
            shard.nonempty += (*slot == 0) as usize;
            *slot += 1;
        }
        self.dense.take();
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

impl Incremental for ShardedLoadProcess {
    /// One uniform destination draw from **shard 0's** stream (the
    /// engine-convention stream, so at `shards = 1` this is bit-compatible
    /// with the dense engine's `place`).
    fn place(&mut self, weight: u32) -> usize {
        let (n, rng) = (self.n, &mut self.shards[0].rng);
        // rbb-lint: allow(lossy-cast, reason = "draws are < n, and n fits the u32 index range (asserted at construction)")
        let draw = || rng.uniform_usize(n) as u32;
        let b = self.weights.place(self.balls, weight, draw);
        let (s, idx) = self.router.route(b);
        let shard = &mut self.shards[s];
        let slot = &mut shard.loads[idx as usize];
        shard.nonempty += (*slot == 0) as usize;
        *slot += 1;
        self.balls += 1;
        self.dense.take();
        b as usize
    }

    fn depart(&mut self, bin: usize) -> bool {
        if bin >= self.n {
            return false;
        }
        // rbb-lint: allow(lossy-cast, reason = "bin < n, and n fits the u32 index range (asserted at construction)")
        let b = bin as u32;
        let (s, idx) = self.router.route(b);
        let shard = &mut self.shards[s];
        let slot = &mut shard.loads[idx as usize];
        if *slot == 0 {
            return false;
        }
        *slot -= 1;
        shard.nonempty -= (*slot == 0) as usize;
        self.balls -= 1;
        self.weights.depart(b);
        self.dense.take();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::LoadProcess;
    use crate::snapshot::SNAPSHOT_VERSION_WEIGHTED;

    /// Steps a dense/sharded pair in lockstep, asserting full agreement —
    /// only meaningful at `shards = 1` (the bit-identity case).
    fn assert_twins(mut dense: LoadProcess, mut sharded: ShardedLoadProcess, rounds: u64) {
        for r in 0..rounds {
            let (a, b) = if r % 3 == 0 {
                (dense.step(), sharded.step())
            } else {
                (Engine::step_batched(&mut dense), sharded.step_batched())
            };
            assert_eq!(a, b, "departure count diverged at round {r}");
            assert_eq!(Engine::max_load(&dense), Engine::max_load(&sharded));
            assert_eq!(Engine::empty_bins(&dense), Engine::empty_bins(&sharded));
            assert_eq!(dense.config(), Engine::config(&sharded), "round {r}");
        }
        assert_eq!(dense.round(), Engine::round(&sharded));
    }

    #[test]
    fn one_shard_is_bit_identical_to_dense_from_any_start() {
        for (n, m) in [(64usize, 64u32), (100, 7), (33, 200), (2, 1)] {
            let config = Config::all_in_one(n, m);
            assert_twins(
                LoadProcess::new(config.clone(), Xoshiro256pp::seed_from(9)),
                ShardedLoadProcess::new(config, 9, 1),
                120,
            );
        }
    }

    #[test]
    fn one_shard_legitimate_start_matches_dense() {
        assert_twins(
            LoadProcess::legitimate_start(128, 5),
            ShardedLoadProcess::legitimate_start(128, 5, 1),
            100,
        );
    }

    #[test]
    fn parallel_round_matches_sequential_round() {
        // The mutex-and-barrier parallel body must produce exactly the
        // sequential body's state, shard count and start regardless.
        for shards in [2usize, 4, 7] {
            let mut seq = ShardedLoadProcess::new(Config::all_in_one(257, 300), 3, shards);
            let mut par = seq.clone();
            for r in 0..120 {
                let a = seq.round_sequential();
                let b = par.round_parallel();
                assert_eq!(a, b, "shards={shards} round {r}");
                assert_eq!(
                    Engine::config(&seq),
                    Engine::config(&par),
                    "shards={shards} round {r}"
                );
            }
        }
    }

    #[test]
    fn fixed_shard_count_is_reproducible() {
        for shards in [1usize, 2, 4, 7] {
            let mut a = ShardedLoadProcess::legitimate_start(128, 42, shards);
            let mut b = ShardedLoadProcess::legitimate_start(128, 42, shards);
            a.run_silent(150);
            b.run_silent(150);
            assert_eq!(Engine::config(&a), Engine::config(&b), "shards={shards}");
        }
    }

    #[test]
    fn different_shard_counts_differ_per_seed_but_conserve_mass() {
        let mut one = ShardedLoadProcess::legitimate_start(256, 7, 1);
        let mut four = ShardedLoadProcess::legitimate_start(256, 7, 4);
        one.run_silent(60);
        four.run_silent(60);
        // Equal in law, different draw-for-draw: the trajectories diverge.
        assert_ne!(Engine::config(&one), Engine::config(&four));
        assert_eq!(one.balls(), 256);
        assert_eq!(four.balls(), 256);
        assert_eq!(Engine::config(&four).total_balls(), 256);
    }

    #[test]
    fn departures_equal_previous_nonempty_count() {
        let mut p = ShardedLoadProcess::new(Config::all_in_one(64, 40), 11, 4);
        for _ in 0..100 {
            let before = Engine::nonempty_bins(&p);
            let moved = p.step_batched();
            assert_eq!(moved, before);
        }
    }

    #[test]
    fn cheap_accessors_match_dense_view() {
        for shards in [2usize, 5] {
            let mut p = ShardedLoadProcess::new(Config::all_in_one(100, 70), 13, shards);
            p.run_silent(50);
            let dense = Engine::config(&p).clone();
            assert_eq!(Engine::max_load(&p), dense.max_load());
            assert_eq!(Engine::empty_bins(&p), dense.empty_bins());
            assert_eq!(Engine::nonempty_bins(&p), dense.nonempty_bins());
            for b in 0..100 {
                assert_eq!(Engine::bin_load(&p, b), dense.loads()[b]);
            }
        }
    }

    #[test]
    fn dense_cache_invalidates_on_step() {
        let mut p = ShardedLoadProcess::legitimate_start(32, 3, 2);
        let before = Engine::config(&p).clone();
        p.step();
        let after = Engine::config(&p);
        assert_ne!(&before, after, "stale dense snapshot served after a step");
        assert_eq!(after.total_balls(), 32);
    }

    #[test]
    fn apply_fault_matches_dense_fault_path_at_one_shard() {
        let mut dense = LoadProcess::legitimate_start(32, 21);
        let mut sharded = ShardedLoadProcess::legitimate_start(32, 21, 1);
        for _ in 0..40 {
            dense.step();
            sharded.step();
        }
        let placement: Vec<usize> = (0..32).map(|i| i % 5).collect();
        Engine::apply_fault(&mut dense, &placement);
        Engine::apply_fault(&mut sharded, &placement);
        assert_eq!(dense.config(), Engine::config(&sharded));
        assert_twins(dense, sharded, 60);
    }

    #[test]
    fn apply_fault_rebuilds_counters_at_any_shard_count() {
        let mut p = ShardedLoadProcess::legitimate_start(60, 17, 7);
        p.run_silent(30);
        let placement: Vec<usize> = (0..60).map(|i| (i * 3) % 10).collect();
        Engine::apply_fault(&mut p, &placement);
        assert_eq!(Engine::nonempty_bins(&p), 10);
        assert_eq!(Engine::config(&p).total_balls(), 60);
        // Post-fault rounds keep the counters consistent (debug asserts
        // recount them).
        p.run_silent(30);
        assert_eq!(p.balls(), 60);
    }

    #[test]
    #[should_panic(expected = "conserve")]
    fn apply_fault_rejects_mass_change() {
        let mut p = ShardedLoadProcess::legitimate_start(8, 1, 2);
        Engine::apply_fault(&mut p, &[0; 9]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedLoadProcess::legitimate_start(8, 1, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the bin count")]
    fn more_shards_than_bins_rejected() {
        let _ = ShardedLoadProcess::legitimate_start(4, 1, 5);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically_at_any_shard_count() {
        for shards in [1usize, 3, 4] {
            let mut p = ShardedLoadProcess::new(Config::all_in_one(96, 120), 27, shards);
            p.run_silent(30);
            let snap = Engine::snapshot(&p).expect("sharded engine snapshots");
            assert_eq!(snap.rng_states.len(), shards);
            assert!(
                snap.entries.windows(2).all(|w| w[0].0 < w[1].0),
                "entries must be in canonical bin order"
            );
            let mut q = ShardedLoadProcess::from_snapshot(&snap).unwrap();
            assert_eq!(Engine::round(&q), 30);
            for _ in 0..50 {
                // Mixing the paths is fine: they are bit-identical.
                p.step();
                q.step_batched();
            }
            assert_eq!(Engine::config(&p), Engine::config(&q), "shards={shards}");
            assert_eq!(Engine::snapshot(&p), Engine::snapshot(&q));
        }
    }

    #[test]
    fn place_and_depart_maintain_shard_counters() {
        let mut p = ShardedLoadProcess::legitimate_start(60, 19, 7);
        assert!(Engine::incremental(&mut p).is_some());
        let b = Incremental::place(&mut p, 1);
        assert!(b < 60);
        assert_eq!(p.balls(), 61);
        assert_eq!(Engine::bin_load(&p, b), 2);
        assert!(Incremental::depart(&mut p, b));
        assert!(Incremental::depart(&mut p, b));
        assert!(!Incremental::depart(&mut p, b), "bin drained");
        assert!(!Incremental::depart(&mut p, 60), "out of range is a no-op");
        assert_eq!(p.balls(), 59);
        assert_eq!(Engine::nonempty_bins(&p), 59);
        // Debug builds recount the incremental counters every round.
        p.run_silent(20);
        assert_eq!(p.balls(), 59);
    }

    #[test]
    fn one_shard_place_matches_dense_place() {
        let mut dense = LoadProcess::legitimate_start(64, 51);
        let mut sharded = ShardedLoadProcess::legitimate_start(64, 51, 1);
        for _ in 0..30 {
            assert_eq!(
                Incremental::place(&mut dense, 1),
                Incremental::place(&mut sharded, 1)
            );
        }
        assert_twins(dense, sharded, 40);
    }

    #[test]
    fn router_is_a_bijection() {
        for shards in [1usize, 2, 3, 4, 7, 8, 13] {
            let router = Router::of(shards);
            let n = 100usize;
            let mut seen = vec![false; n];
            for b in 0..n as u32 {
                let (s, idx) = router.route(b);
                assert!(s < shards);
                let back = router.unroute(s, idx as usize);
                assert_eq!(back, b as usize);
                assert!(!seen[back]);
                seen[back] = true;
            }
            assert!(seen.iter().all(|&v| v));
        }
    }

    #[test]
    fn shards_equal_to_bins_is_supported() {
        let mut p = ShardedLoadProcess::legitimate_start(8, 5, 8);
        p.run_silent(50);
        assert_eq!(p.balls(), 8);
        assert_eq!(Engine::config(&p).total_balls(), 8);
    }

    #[test]
    fn engine_run_family_works() {
        let mut p = ShardedLoadProcess::legitimate_start(64, 11, 4);
        let hit = p.run_until(10_000, |c| c.max_load() >= 3);
        assert!(hit.is_some());
    }

    #[test]
    fn m_not_equal_n_supported() {
        for m in [7u32, 300] {
            let mut p = ShardedLoadProcess::new(Config::all_in_one(100, m), 14, 4);
            p.run_silent(100);
            assert_eq!(p.balls(), m as u64);
        }
    }

    #[test]
    fn one_shard_weighted_is_bit_identical_to_weighted_dense() {
        // The tentpole invariant at the sharded layer: at shards = 1 the
        // weighted sharded engine matches the weighted dense engine in
        // trajectory, RNG stream, and every weighted metric.
        let n = 96;
        let weights = Weights::zipf(n as u64, 1.0, 40);
        let caps = Capacities::Uniform(50);
        let mut dense = LoadProcess::with_weights(
            Config::one_per_bin(n),
            Xoshiro256pp::seed_from(81),
            weights.clone(),
            caps.clone(),
        );
        let mut sharded =
            ShardedLoadProcess::with_weights(Config::one_per_bin(n), 81, 1, weights, caps);
        assert!(Engine::weighted(&sharded));
        for r in 0..160 {
            let a = dense.step_batched();
            let b = sharded.step_batched();
            assert_eq!(a, b, "departure count diverged at round {r}");
            assert_eq!(
                Engine::weighted_max_load(&dense),
                Engine::weighted_max_load(&sharded),
                "weighted max load diverged at round {r}"
            );
            assert_eq!(
                Engine::capacity_violations(&dense),
                Engine::capacity_violations(&sharded),
                "violation count diverged at round {r}"
            );
            assert_eq!(dense.config(), Engine::config(&sharded), "round {r}");
        }
        assert_eq!(Engine::total_weight(&dense), Engine::total_weight(&sharded));
        let a = Engine::snapshot(&dense).unwrap();
        let b = Engine::snapshot(&sharded).unwrap();
        assert_eq!(a.weighted, b.weighted, "identical weighted sections");
        assert_eq!(a.entries, b.entries);
    }

    #[test]
    fn weighted_multi_shard_conserves_weight_and_is_reproducible() {
        let make = || {
            ShardedLoadProcess::with_weights(
                Config::one_per_bin(128),
                82,
                4,
                Weights::zipf(128, 1.0, 30),
                Capacities::Uniform(40),
            )
        };
        let mut a = make();
        let mut b = make();
        let total = Engine::total_weight(&a);
        for _ in 0..120 {
            // step and step_batched share the weighted round body.
            a.step();
            b.step_batched();
            assert_eq!(Engine::total_weight(&a), total);
        }
        assert_eq!(Engine::config(&a), Engine::config(&b));
        assert_eq!(Engine::weighted_max_load(&a), Engine::weighted_max_load(&b));
        assert!(Engine::weighted_max_load(&a) >= u64::from(Engine::max_load(&a)));
    }

    #[test]
    fn weighted_snapshot_round_trips_at_any_shard_count() {
        for shards in [1usize, 3, 4] {
            let mut p = ShardedLoadProcess::with_weights(
                Config::one_per_bin(60),
                83,
                shards,
                Weights::zipf(60, 1.0, 20),
                Capacities::Uniform(25),
            );
            p.run_silent(21);
            let snap = Engine::snapshot(&p).expect("sharded engine snapshots");
            assert_eq!(snap.version, SNAPSHOT_VERSION_WEIGHTED);
            let mut q = ShardedLoadProcess::from_snapshot(&snap).unwrap();
            assert_eq!(Engine::total_weight(&q), Engine::total_weight(&p));
            assert_eq!(Engine::capacities(&q), &Capacities::Uniform(25));
            for _ in 0..40 {
                p.step_batched();
                q.step_batched();
            }
            assert_eq!(Engine::config(&p), Engine::config(&q), "shards={shards}");
            assert_eq!(Engine::snapshot(&p), Engine::snapshot(&q));
        }
    }

    #[test]
    fn unit_weights_build_the_same_sharded_engine() {
        let mut plain = ShardedLoadProcess::legitimate_start(64, 84, 4);
        let mut unit = ShardedLoadProcess::with_weights(
            Config::one_per_bin(64),
            84,
            4,
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
        assert_eq!(Engine::snapshot(&plain), Engine::snapshot(&unit));
    }

    #[test]
    fn weighted_place_draws_from_shard_zero() {
        let mut p = ShardedLoadProcess::with_weights(
            Config::one_per_bin(32),
            85,
            2,
            Weights::zipf(32, 1.0, 20),
            Capacities::Unbounded,
        );
        let total = Engine::total_weight(&p);
        let b = Incremental::place(&mut p, 9);
        assert_eq!(Engine::total_weight(&p), total + 9);
        assert!(Engine::weighted_bin_load(&p, b) >= 9);
        assert!(Incremental::depart(&mut p, b));
        assert_eq!(p.balls(), 32);
        p.run_silent(10);
        assert_eq!(p.balls(), 32);
    }

    #[test]
    fn shard_streams_are_decorrelated() {
        let mut r0 = shard_rng(99, 0);
        let mut r1 = shard_rng(99, 1);
        let mut r2 = shard_rng(99, 2);
        let same01 = (0..64).filter(|_| r0.next_u64() == r1.next_u64()).count();
        let same12 = (0..64).filter(|_| r1.next_u64() == r2.next_u64()).count();
        assert_eq!(same01 + same12, 0);
    }
}
