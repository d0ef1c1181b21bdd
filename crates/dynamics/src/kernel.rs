//! Monomorphized hot-path kernels.
//!
//! A single E1-scale run performs `3·n·T` neighbour draws, so the per-update
//! inner loop *is* the system.  The generic engine path pays two virtual
//! calls per sample (`dyn Protocol::update`, `dyn RngCore`), a per-sample
//! degree reload and a byte-wide read of `ξ_t(w)`.  This module removes all
//! of that for the built-in protocols:
//!
//! * [`PackedSnapshot`] — the previous round's configuration as a `u64`
//!   bitset: reading `ξ_t(w)` touches one bit instead of one byte, and blue
//!   counts are a popcount scan;
//! * **batched RNG** — neighbour indices come from whole `u64` draws mapped
//!   onto `[0, deg)` with Lemire's multiply-shift reduction
//!   (`sample_index`), one draw per sample, no rejection loop, with the
//!   degree/row lookup hoisted out of the k-sample loop;
//! * **static dispatch** — [`ProtocolKind`] names the built-in protocols and
//!   `dispatch_chunk_topology` selects a fully monomorphized chunk kernel
//!   per (protocol kind, topology type) pair, so the protocol update, the
//!   topology's neighbour sampling and the RNG inline into one tight loop.
//!   Custom protocols keep working through the object-safe [`Protocol`]
//!   registry API: a protocol whose [`Protocol::kind`] returns `None` falls
//!   back to the generic `dyn` path.
//!
//! The kernels are generic over [`bo3_graph::Topology`], so the same code
//! drives materialised CSR graphs and the implicit (procedural) topologies
//! of `bo3_graph::topology` — a million-vertex complete graph or implicit
//! `G(n, p)` runs without a single byte of adjacency.  The engine reads the
//! topology's [`bo3_graph::Shape`] once per chunk and calls the entry point
//! for that family: `dispatch_chunk_csr` (the software-pipelined batched
//! path over raw CSR arrays) for a materialised graph, the draw-ahead
//! `try_dispatch_chunk_lane` for a hash-defined family, and
//! `dispatch_chunk_topology` over the concrete family otherwise.  The
//! complete graph is no special case: a materialised `K_n` reports the
//! [`bo3_graph::Complete`] shape, whose arithmetic neighbour synthesis (and
//! popcount local majority, which asks for [`Shape::Complete`]) it then
//! runs.
//!
//! Each work unit also ends with its sampler totals (`SamplerWork`),
//! which the engine adds to the observer's meter once per unit.  The
//! closed-form and CSR kernels draw one `next_u64` per sample, so their
//! totals are derived, not counted; the lane reports its own counters; the
//! scalar sampler over a hash-defined or opaque topology runs on a
//! `CountingRng`.
//!
//! # Determinism contract
//!
//! Two properties, pinned by two suites:
//!
//! **1. Draw-for-draw `dyn` compatibility.** Handed the *same* RNG, a kernel
//! update of vertex `v` consumes exactly the same raw stream and produces
//! exactly the same opinion as `Protocol::update` for the corresponding
//! built-in protocol:
//!
//! * every neighbour sample consumes one `next_u64` and reduces it with the
//!   same multiply-shift map as the vendored `gen_range(0..deg)`, and
//! * tie coins consume one `next_u32` exactly like `rng.gen::<bool>()`,
//!
//! in the same order.  Consequently the caller-RNG entry points
//! ([`crate::engine::Engine::run`] / `step_synchronous`) return
//! bit-identical results whether a protocol takes the kernel path or is
//! forced onto the `dyn` path — the kernel-equivalence suite pins this on
//! complete, Erdős–Rényi and bipartite graphs.
//!
//! **2. Sequential == parallel on the seeded path.**  The seeded steppers
//! derive one RNG per `(master_seed, round, chunk)` work unit, so the
//! output is bit-for-bit identical at any thread count — the determinism
//! regression suite pins this at 1/2/8 threads.  The kernel path derives
//! [`kernel_chunk_rng`] (xoshiro256++, a few cycles per draw) and the `dyn`
//! fallback keeps [`crate::parallel::chunk_rng`] (ChaCha8) over the same
//! stream-id mixing; each path is internally deterministic, sequential and
//! parallel always agree *within* a path, and which path runs is a pure
//! function of [`Protocol::kind`].  (The seeded kernel stream deliberately
//! differs from the seeded `dyn` stream: hoisting ChaCha out of the
//! per-sample loop is most of the kernel speedup.  Seeded results therefore
//! changed exactly once, when the kernels landed, for built-in protocols.)
//!
//! Any change to the per-sample draw order breaks both suites; change the
//! kernels and the `dyn` helpers ([`crate::protocol`]) together.

use rand::RngCore;

use bo3_graph::topology::lemire_index;
use bo3_graph::{CsrGraph, CsrTopology, NeighbourLane, PairHashSpec, Shape, Topology, VertexId};

use crate::opinion::Opinion;
use crate::protocol::{resolve_majority, Protocol, TieRule, UpdateContext};

/// A bit-packed immutable view of one round's configuration `ξ_t`.
///
/// Vertex `v` is blue iff bit `v % 64` of word `v / 64` is set.  The packed
/// form is 8× denser than `[Opinion]`, so snapshot reads stay cache-resident
/// far longer, and [`PackedSnapshot::blue_count`] is a popcount scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSnapshot {
    words: Vec<u64>,
    len: usize,
}

impl PackedSnapshot {
    /// An all-red snapshot of `n` vertices.
    pub fn all_red(n: usize) -> Self {
        PackedSnapshot {
            words: vec![0u64; n.div_ceil(64)],
            len: n,
        }
    }

    /// Packs an opinion slice.
    pub fn from_opinions(opinions: &[Opinion]) -> Self {
        let mut snap = PackedSnapshot {
            words: Vec::new(),
            len: 0,
        };
        snap.repack_from(opinions);
        snap
    }

    /// Repacks in place from an opinion slice, reusing the allocation.
    pub fn repack_from(&mut self, opinions: &[Opinion]) {
        self.len = opinions.len();
        self.words.clear();
        self.words.reserve(opinions.len().div_ceil(64));
        for chunk in opinions.chunks(64) {
            let mut word = 0u64;
            for (bit, o) in chunk.iter().enumerate() {
                word |= (o.is_blue() as u64) << bit;
            }
            self.words.push(word);
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when vertex `v` is blue.
    #[inline(always)]
    pub fn is_blue(&self, v: usize) -> bool {
        debug_assert!(v < self.len);
        (self.words[v >> 6] >> (v & 63)) & 1 == 1
    }

    /// The opinion of vertex `v`.
    #[inline(always)]
    pub fn get(&self, v: usize) -> Opinion {
        if self.is_blue(v) {
            Opinion::Blue
        } else {
            Opinion::Red
        }
    }

    /// Sets the opinion of vertex `v`.
    #[inline]
    pub fn set(&mut self, v: usize, opinion: Opinion) {
        debug_assert!(v < self.len);
        let mask = 1u64 << (v & 63);
        match opinion {
            Opinion::Blue => self.words[v >> 6] |= mask,
            Opinion::Red => self.words[v >> 6] &= !mask,
        }
    }

    /// Number of blue vertices — a popcount scan over the packed words.
    pub fn blue_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of blue vertices (`0.0` on the empty snapshot).
    pub fn blue_fraction(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.blue_count() as f64 / self.len as f64
        }
    }
}

/// Names a built-in protocol the kernel path can monomorphize.
///
/// Returned by [`Protocol::kind`]; protocols that return `None` (custom
/// registry entries) run through the generic `dyn` path instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Best-of-1: copy one random neighbour.
    Voter,
    /// Best-of-2 with the given tie rule.
    BestOfTwo(TieRule),
    /// Best-of-3 — the paper's protocol.
    BestOfThree,
    /// Best-of-k samples with the given tie rule.
    BestOfK {
        /// Sample size.
        k: usize,
        /// How even-`k` ties are resolved.
        tie_rule: TieRule,
    },
    /// Deterministic full-neighbourhood majority with the given tie rule.
    LocalMajority(TieRule),
}

/// Wraps any protocol so it reports no [`ProtocolKind`], forcing the engines
/// onto the generic `dyn` fallback path.
///
/// This exists for the kernel-equivalence suite and the `e13` throughput
/// bench, which compare the two paths on the same protocol; it is not useful
/// in production code.
#[derive(Debug, Clone, Copy)]
pub struct DynOnly<P>(pub P);

impl<P: Protocol> Protocol for DynOnly<P> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn sample_size(&self) -> usize {
        self.0.sample_size()
    }

    fn update(&self, ctx: &UpdateContext<'_>, rng: &mut dyn RngCore) -> Opinion {
        self.0.update(ctx, rng)
    }

    fn kind(&self) -> Option<ProtocolKind> {
        None
    }
}

/// The kernel path's per-work-unit generator: xoshiro256++.
///
/// The seeded kernels draw one `u64` per neighbour sample, so generator
/// throughput is directly on the critical path; xoshiro256++ produces a
/// `u64` in a handful of cycles (versus a few dozen for the `dyn` path's
/// buffered ChaCha8) while passing the statistical test batteries that
/// matter for Monte-Carlo work.  Streams are derived per
/// `(master_seed, round, chunk)` work unit by [`kernel_chunk_rng`], exactly
/// mirroring the `dyn` path's [`crate::parallel::chunk_rng`] derivation, so
/// the sequential-equals-parallel contract is preserved.
#[derive(Debug, Clone)]
pub struct KernelRng {
    s: [u64; 4],
}

impl KernelRng {
    /// Expands a 64-bit stream id into the 256-bit state through SplitMix64
    /// (the seeding recommended by the xoshiro authors).
    pub fn from_stream_id(id: u64) -> Self {
        let mut sm = id;
        let mut s = [0u64; 4];
        for slot in &mut s {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *slot = z ^ (z >> 31);
        }
        KernelRng { s }
    }
}

impl RngCore for KernelRng {
    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    #[inline(always)]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            let len = chunk.len();
            chunk.copy_from_slice(&bytes[..len]);
        }
    }
}

/// Derives the kernel-path RNG for one `(seed, round, chunk)` work unit.
///
/// Same stream-id mixing as [`crate::parallel::chunk_rng`], different
/// generator — see [`KernelRng`].  Public for the same reason `chunk_rng`
/// is: external code reproducing seeded kernel runs draw-for-draw.
pub fn kernel_chunk_rng(master_seed: u64, round: u64, chunk: u64) -> KernelRng {
    KernelRng::from_stream_id(crate::parallel::stream_id(master_seed, round, chunk))
}

/// One work unit's sampler totals (a synchronous chunk or an asynchronous
/// round), which the engine adds to the observer's meter once per unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SamplerWork {
    /// Candidate tries: `next_u64` draws, or lane candidates consumed.
    pub(crate) tries: u64,
    /// Accepted draws: samples per update × updates that sampled.
    pub(crate) accepts: u64,
    /// Candidates pre-drawn into a lane (0 off the lane).
    pub(crate) drawn: u64,
}

impl SamplerWork {
    /// `updates` updates of `kind` on a route that draws one `next_u64`
    /// per sample (the closed forms and CSR): `tries = accepts`.
    pub(crate) fn exact(kind: ProtocolKind, updates: usize) -> Self {
        let accepts = (samples(kind) * updates) as u64;
        SamplerWork {
            tries: accepts,
            accepts,
            drawn: 0,
        }
    }

    /// The totals of `unit` — a work unit of `kind` returning how many
    /// vertices updated — run on `rng` with its `next_u64` draws counted.
    pub(crate) fn counted<R: RngCore + ?Sized>(
        kind: ProtocolKind,
        rng: &mut R,
        unit: impl FnOnce(&mut CountingRng<'_, R>) -> usize,
    ) -> Self {
        let mut rng = CountingRng {
            inner: rng,
            draws: 0,
        };
        let updates = unit(&mut rng);
        SamplerWork {
            tries: rng.draws,
            ..Self::exact(kind, updates)
        }
    }
}

/// A work unit's RNG stream counting its `next_u64` draws: the scalar
/// sampler's tries on the routes that may reject.  Tie coins are `next_u32`
/// draws and are not counted.  Every call forwards, so counting never
/// changes what the unit draws.
pub(crate) struct CountingRng<'r, R: ?Sized> {
    inner: &'r mut R,
    draws: u64,
}

impl<R: RngCore + ?Sized> RngCore for CountingRng<'_, R> {
    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }

    #[inline(always)]
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
}

/// Neighbour samples one update of `kind` draws (0 for local majority,
/// which reads its whole row).
pub(crate) fn samples(kind: ProtocolKind) -> usize {
    match kind {
        ProtocolKind::Voter => 1,
        ProtocolKind::BestOfTwo(_) => 2,
        ProtocolKind::BestOfThree => 3,
        ProtocolKind::BestOfK { k, .. } => k,
        ProtocolKind::LocalMajority(_) => 0,
    }
}

/// Maps one `u64` draw onto `[0, n)` with Lemire's multiply-shift reduction.
///
/// This is bit-identical to the vendored `rng.gen_range(0..n)` (which uses
/// the same fixed-point multiply without a rejection step), which is what
/// keeps the kernel path and the `dyn` path on the same RNG stream.  The
/// shared definition lives in `bo3_graph::topology` so the implicit
/// topologies reduce draws identically.
#[inline(always)]
pub(crate) fn sample_index(draw: u64, n: usize) -> usize {
    lemire_index(draw, n)
}

/// A sampling rule whose RNG consumption is exactly `k` draws per vertex —
/// no data-dependent tie coin — so the sample draws can be hoisted away from
/// the neighbour-row reads without reordering the stream.
///
/// That reordering freedom is the key throughput lever on dense graphs: the
/// row reads are independent cache misses, and issuing a whole batch of them
/// back to back lets the core overlap their latency instead of serialising
/// draw → read → draw → read per sample (see [`update_chunk_batched`]).
/// Protocols that may draw a tie coin *between* one vertex's samples and the
/// next vertex's (the `TieRule::Random` variants with even `k`) cannot be
/// phase-split without changing the stream; they stay on the per-vertex
/// [`KernelCore`] loop.
trait BatchCore: Copy {
    /// Samples drawn per vertex.
    fn samples(&self) -> usize;

    /// Pure decision from the blue-sample count (no RNG by construction).
    fn decide(&self, blues: usize, current: Opinion) -> Opinion;
}

/// The pure half of [`resolve_majority`]: strict majorities plus the
/// keep-own tie.  Callers guarantee the random-coin tie is unreachable
/// (odd `k`, or `TieRule::KeepOwn`).
#[inline(always)]
pub(crate) fn decide_pure(blues: usize, k: usize, current: Opinion) -> Opinion {
    let reds = k - blues;
    match blues.cmp(&reds) {
        std::cmp::Ordering::Greater => Opinion::Blue,
        std::cmp::Ordering::Less => Opinion::Red,
        std::cmp::Ordering::Equal => current,
    }
}

#[derive(Clone, Copy)]
struct VoterKernel;

impl BatchCore for VoterKernel {
    #[inline(always)]
    fn samples(&self) -> usize {
        1
    }

    #[inline(always)]
    fn decide(&self, blues: usize, _current: Opinion) -> Opinion {
        if blues == 1 {
            Opinion::Blue
        } else {
            Opinion::Red
        }
    }
}

#[derive(Clone, Copy)]
struct BestOfThreeKernel;

impl BatchCore for BestOfThreeKernel {
    #[inline(always)]
    fn samples(&self) -> usize {
        3
    }

    #[inline(always)]
    fn decide(&self, blues: usize, _current: Opinion) -> Opinion {
        if blues >= 2 {
            Opinion::Blue
        } else {
            Opinion::Red
        }
    }
}

/// Best-of-k whenever the tie coin is unreachable (odd `k` or keep-own).
/// Covers Best-of-2 (keep own) as `k = 2`.
#[derive(Clone, Copy)]
struct BestOfKPureKernel {
    k: usize,
}

impl BatchCore for BestOfKPureKernel {
    #[inline(always)]
    fn samples(&self) -> usize {
        self.k
    }

    #[inline(always)]
    fn decide(&self, blues: usize, current: Opinion) -> Opinion {
        decide_pure(blues, self.k, current)
    }
}

/// Fixed-draw-count protocols on an arbitrary topology: `k` samples per
/// vertex through [`Topology::sample_neighbour`], a packed-bit lookup each,
/// then the pure majority decision.  For the closed-form topologies
/// (implicit complete, bipartite, multipartite) the sample inlines to a
/// couple of arithmetic ops and one L1-resident snapshot read — no adjacency
/// exists to miss on.  Vertices are processed strictly in order so the RNG
/// stream matches the `dyn` path on materialised graphs.
fn update_chunk_sampled<C: BatchCore, T: Topology, R: RngCore + ?Sized>(
    core: C,
    topo: &T,
    snap: &PackedSnapshot,
    start: usize,
    out: &mut [Opinion],
    rng: &mut R,
) {
    let k = core.samples();
    for (i, slot) in out.iter_mut().enumerate() {
        let v = start + i;
        let mut blues = 0usize;
        for _ in 0..k {
            blues += snap.is_blue(topo.sample_neighbour(v, rng)) as usize;
        }
        *slot = core.decide(blues, snap.get(v));
    }
}

/// Best-of-k with a reachable random tie coin (even `k`, `TieRule::Random`)
/// on an arbitrary topology: the coin draw is interleaved between one
/// vertex's samples and the next vertex's, so this kernel runs strictly in
/// vertex order and cannot be phase-split.  Covers Best-of-2 (random tie) as
/// `k = 2`.
fn update_chunk_coin_sampled<T: Topology, R: RngCore + ?Sized>(
    k: usize,
    topo: &T,
    snap: &PackedSnapshot,
    start: usize,
    out: &mut [Opinion],
    rng: &mut R,
) {
    for (i, slot) in out.iter_mut().enumerate() {
        let v = start + i;
        let mut blues = 0usize;
        for _ in 0..k {
            blues += snap.is_blue(topo.sample_neighbour(v, rng)) as usize;
        }
        *slot = resolve_majority(blues, k, snap.get(v), TieRule::Random, rng);
    }
}

/// The coin kernel specialised to materialised CSR arrays: the neighbour
/// row is hoisted out of the k-sample loop (one offsets read per vertex,
/// not per draw), with draws and coin in exactly the sampled path's order.
fn update_chunk_coin_csr<R: RngCore + ?Sized>(
    k: usize,
    offsets: &[usize],
    neighbours: &[VertexId],
    snap: &PackedSnapshot,
    start: usize,
    out: &mut [Opinion],
    rng: &mut R,
) {
    for (i, slot) in out.iter_mut().enumerate() {
        let v = start + i;
        let row = &neighbours[offsets[v]..offsets[v + 1]];
        let mut blues = 0usize;
        for _ in 0..k {
            blues += snap.is_blue(row[sample_index(rng.next_u64(), row.len())]) as usize;
        }
        *slot = resolve_majority(blues, k, snap.get(v), TieRule::Random, rng);
    }
}

/// Deterministic full-neighbourhood majority on an arbitrary topology.
///
/// When the topology is the complete graph ([`Shape::Complete`]) every
/// vertex sees all vertices but itself, so its blue-neighbour count is
/// one popcount of the snapshot (hoisted out of the loop) minus its own bit
/// — `O(n/64 + chunk)` instead of the `Θ(n · chunk)` neighbourhood scan.
/// Counts equal the scan's, so ties (and any tie coins) land identically.
/// Other topologies walk their neighbourhood via
/// [`Topology::for_each_neighbour`] — the same row scan as before on CSR,
/// and an inherently `Θ(n)`-per-vertex edge-test sweep on hash-defined
/// implicit topologies and opaque wrappers.
fn update_chunk_local_majority<T: Topology, R: RngCore + ?Sized>(
    tie_rule: TieRule,
    topo: &T,
    snap: &PackedSnapshot,
    start: usize,
    out: &mut [Opinion],
    rng: &mut R,
) {
    if matches!(topo.shape(), Shape::Complete(_)) {
        let total_blues = snap.blue_count();
        let deg = snap.len() - 1;
        for (i, slot) in out.iter_mut().enumerate() {
            let v = start + i;
            let blues = total_blues - snap.is_blue(v) as usize;
            *slot = resolve_majority(blues, deg, snap.get(v), tie_rule, rng);
        }
        return;
    }
    for (i, slot) in out.iter_mut().enumerate() {
        let v = start + i;
        let mut blues = 0usize;
        let mut deg = 0usize;
        topo.for_each_neighbour(v, |w| {
            blues += snap.is_blue(w) as usize;
            deg += 1;
        });
        *slot = resolve_majority(blues, deg, snap.get(v), tie_rule, rng);
    }
}

/// Counts blue among `k` uniform with-replacement neighbour samples of `v`,
/// read from the (possibly live) snapshot — one `next_u64` per sample,
/// reduced exactly like the `dyn` path's `gen_range`.
#[inline(always)]
fn count_sampled_blues<T: Topology, R: RngCore + ?Sized>(
    topo: &T,
    snap: &PackedSnapshot,
    v: usize,
    k: usize,
    rng: &mut R,
) -> usize {
    let mut blues = 0usize;
    for _ in 0..k {
        blues += snap.is_blue(topo.sample_neighbour(v, rng)) as usize;
    }
    blues
}

/// One **asynchronous** (live-state) update of vertex `v` under `kind`.
///
/// This is the per-vertex core of the asynchronous schedule on any
/// [`Topology`]: neighbour samples and the full-neighbourhood counts read
/// `live` — the *current*, partially updated round state — instead of a
/// frozen snapshot.  `live_blues` is the caller-maintained blue count of
/// `live`, which turns the complete-topology local majority into one
/// subtraction instead of a `Θ(n)` row walk (counts equal the walk's, so tie
/// coins land identically).
///
/// RNG consumption matches `Protocol::update` draw-for-draw — one `u64` per
/// neighbour sample, one `u32` per reachable tie coin, in the same order —
/// so an asynchronous round through this kernel is bit-identical to the
/// `dyn` loop on a materialised graph (the engine's async equivalence test
/// pins this).
pub(crate) fn update_vertex_live<T: Topology, R: RngCore + ?Sized>(
    kind: ProtocolKind,
    topo: &T,
    live: &PackedSnapshot,
    live_blues: usize,
    v: usize,
    rng: &mut R,
) -> Opinion {
    match kind {
        ProtocolKind::Voter => {
            if count_sampled_blues(topo, live, v, 1, rng) == 1 {
                Opinion::Blue
            } else {
                Opinion::Red
            }
        }
        ProtocolKind::BestOfThree => {
            if count_sampled_blues(topo, live, v, 3, rng) >= 2 {
                Opinion::Blue
            } else {
                Opinion::Red
            }
        }
        ProtocolKind::BestOfTwo(tie_rule) => {
            let blues = count_sampled_blues(topo, live, v, 2, rng);
            resolve_majority(blues, 2, live.get(v), tie_rule, rng)
        }
        ProtocolKind::BestOfK { k, tie_rule } => {
            let blues = count_sampled_blues(topo, live, v, k, rng);
            resolve_majority(blues, k, live.get(v), tie_rule, rng)
        }
        ProtocolKind::LocalMajority(tie_rule) => {
            if matches!(topo.shape(), Shape::Complete(_)) {
                let blues = live_blues - live.is_blue(v) as usize;
                resolve_majority(blues, live.len() - 1, live.get(v), tie_rule, rng)
            } else {
                let mut blues = 0usize;
                let mut deg = 0usize;
                topo.for_each_neighbour(v, |w| {
                    blues += live.is_blue(w) as usize;
                    deg += 1;
                });
                resolve_majority(blues, deg, live.get(v), tie_rule, rng)
            }
        }
    }
}

/// Vertices per software-pipelined block of [`update_chunk_batched`].
///
/// Large enough that a block's neighbour-row gathers (`BATCH · k`
/// independent reads) saturate the core's outstanding-miss capacity, small
/// enough that the pick buffer stays in L1.
const BATCH: usize = 128;

/// The batched chunk kernel for fixed-draw-count sampling protocols.
///
/// Processes vertices in blocks of [`BATCH`], in three phases per block:
///
/// 1. **draw** — consume `k` RNG draws per vertex *in vertex order* (the
///    stream therefore matches the `dyn` path exactly) and turn them into
///    flat CSR arc positions via [`sample_index`], reading only the
///    sequentially-prefetchable offset array;
/// 2. **gather** — resolve every pick to a neighbour id in one tight loop of
///    independent reads, so the cache misses into the (potentially huge)
///    neighbour array overlap instead of serialising;
/// 3. **decide** — count blue bits in the packed snapshot (L1-resident) and
///    write the pure majority decision.
///
/// The phase split changes only the *order of memory reads*, never the RNG
/// stream, so results stay bit-identical to [`update_chunk_sampled`] and the
/// `dyn` fallback.  Takes the raw CSR arrays, since this path only exists
/// for topologies with materialised adjacency.
fn update_chunk_batched<C: BatchCore, R: RngCore + ?Sized>(
    core: C,
    offsets: &[usize],
    neighbours: &[VertexId],
    snap: &PackedSnapshot,
    start: usize,
    out: &mut [Opinion],
    rng: &mut R,
) {
    let k = core.samples();
    // One allocation per chunk (≤ 4096 vertices), reused across its blocks.
    let mut picks = vec![0usize; BATCH * k];
    let mut done = 0usize;
    while done < out.len() {
        let block = BATCH.min(out.len() - done);
        let first = start + done;
        // Phase 1: draws, in exactly the dyn path's order.
        let offset_window = &offsets[first..first + block + 1];
        for (i, vertex_picks) in picks[..block * k].chunks_exact_mut(k).enumerate() {
            let row_start = offset_window[i];
            let deg = offset_window[i + 1] - row_start;
            // A real (per-vertex, perfectly predicted) assert: the `dyn`
            // path fails loudly on an isolated vertex (`gen_range` on an
            // empty range), and a silent `sample_index(_, 0)` here would
            // gather a *different vertex's* neighbour instead.  Engines
            // rule isolated vertices out up front via `NeighbourSampler`.
            assert!(deg > 0, "isolated vertex {} in kernel path", first + i);
            for slot in vertex_picks {
                *slot = row_start + sample_index(rng.next_u64(), deg);
            }
        }
        // Phase 2: gather + packed-bit lookup.  Every iteration is
        // independent, so the neighbour-array misses overlap; the snapshot
        // read behind each gather is L1-resident.
        for p in &mut picks[..block * k] {
            *p = snap.is_blue(neighbours[*p]) as usize;
        }
        // Phase 3: pure decisions from the blue-sample counts.
        for (i, vertex_bits) in picks[..block * k].chunks_exact(k).enumerate() {
            let blues: usize = vertex_bits.iter().sum();
            out[done + i] = core.decide(blues, snap.get(first + i));
        }
        done += block;
    }
}

/// Fixed draws per vertex under `kind`, when the protocol's RNG
/// consumption is sample-draws only (no reachable tie coin): these are the
/// protocols the draw-ahead lane kernel may batch, because pre-drawing
/// can only commute with a stream that is pure `next_u64` samples.
/// `None` for coin protocols (interleaved `next_u32` tie draws) and the
/// sample-free local majority.
pub(crate) fn lane_samples(kind: ProtocolKind) -> Option<usize> {
    match kind {
        ProtocolKind::Voter => Some(1),
        ProtocolKind::BestOfThree => Some(3),
        ProtocolKind::BestOfTwo(TieRule::KeepOwn) => Some(2),
        ProtocolKind::BestOfK { k, tie_rule } if k % 2 == 1 || tie_rule == TieRule::KeepOwn => {
            Some(k)
        }
        _ => None,
    }
}

/// The draw-ahead chunk kernel for fixed-draw-count protocols on a
/// hash-defined topology: one [`NeighbourLane`] per chunk, refilled from
/// the chunk's scoped RNG, serving the same accepted neighbours (and try
/// counts) as [`update_chunk_sampled`] over the scalar sampler — see the
/// draw-ahead contract in `bo3_graph::topology`.  The caller owns the
/// decision that the chunk's RNG is scoped (dropped at chunk end), which
/// is what makes the lane's discarded pre-draw tail unobservable.
///
/// Returns the chunk's sampler totals: the same tries and accepts as the
/// scalar sampler on a [`CountingRng`], plus the candidates pre-drawn.
fn update_chunk_lane<C: BatchCore, R: RngCore + ?Sized>(
    core: C,
    spec: PairHashSpec,
    snap: &PackedSnapshot,
    start: usize,
    out: &mut [Opinion],
    rng: &mut R,
) -> SamplerWork {
    let k = core.samples();
    let mut lane = NeighbourLane::new(spec);
    for (i, slot) in out.iter_mut().enumerate() {
        let v = start + i;
        let mut blues = 0usize;
        for _ in 0..k {
            let (w, _) = lane.sample(v, rng);
            blues += snap.is_blue(w) as usize;
        }
        *slot = core.decide(blues, snap.get(v));
    }
    SamplerWork {
        tries: lane.consumed(),
        accepts: (out.len() * k) as u64,
        drawn: lane.drawn(),
    }
}

/// Routes one chunk of a hash-defined family (given by its [`PairHashSpec`])
/// through the draw-ahead lane kernel when the protocol draws a fixed
/// number of samples with no tie coin, returning the chunk's sampler
/// totals.  Returns `None` — caller falls back to
/// [`dispatch_chunk_topology`] — otherwise.  Only seeded steppers whose
/// chunk RNG is scoped may call this; see the draw-ahead contract.
pub(crate) fn try_dispatch_chunk_lane<R: RngCore + ?Sized>(
    kind: ProtocolKind,
    spec: PairHashSpec,
    snap: &PackedSnapshot,
    start: usize,
    out: &mut [Opinion],
    rng: &mut R,
) -> Option<SamplerWork> {
    Some(match kind {
        ProtocolKind::Voter => update_chunk_lane(VoterKernel, spec, snap, start, out, rng),
        ProtocolKind::BestOfThree => {
            update_chunk_lane(BestOfThreeKernel, spec, snap, start, out, rng)
        }
        ProtocolKind::BestOfTwo(TieRule::KeepOwn) => {
            update_chunk_lane(BestOfKPureKernel { k: 2 }, spec, snap, start, out, rng)
        }
        ProtocolKind::BestOfK { k, tie_rule } if k % 2 == 1 || tie_rule == TieRule::KeepOwn => {
            update_chunk_lane(BestOfKPureKernel { k }, spec, snap, start, out, rng)
        }
        _ => return None,
    })
}

/// Statically dispatches one chunk to the monomorphized sampled kernel for
/// `kind` on any [`Topology`] — every draw through
/// [`Topology::sample_neighbour`], so `T` should be the concrete family,
/// not a wrapper that re-dispatches per draw.
///
/// Fixed-draw-count protocols run [`update_chunk_sampled`]; protocols with
/// a reachable random tie coin (whose RNG consumption is data-dependent)
/// run strictly in vertex order through [`update_chunk_coin_sampled`]; the
/// full-neighbourhood local majority runs [`update_chunk_local_majority`],
/// which collapses to one snapshot popcount on complete topologies.
pub(crate) fn dispatch_chunk_topology<T: Topology, R: RngCore + ?Sized>(
    kind: ProtocolKind,
    topo: &T,
    snap: &PackedSnapshot,
    start: usize,
    out: &mut [Opinion],
    rng: &mut R,
) {
    match kind {
        ProtocolKind::Voter => update_chunk_sampled(VoterKernel, topo, snap, start, out, rng),
        ProtocolKind::BestOfThree => {
            update_chunk_sampled(BestOfThreeKernel, topo, snap, start, out, rng)
        }
        ProtocolKind::BestOfTwo(TieRule::KeepOwn) => {
            update_chunk_sampled(BestOfKPureKernel { k: 2 }, topo, snap, start, out, rng)
        }
        ProtocolKind::BestOfTwo(TieRule::Random) => {
            update_chunk_coin_sampled(2, topo, snap, start, out, rng)
        }
        ProtocolKind::BestOfK { k, tie_rule } if k % 2 == 1 || tie_rule == TieRule::KeepOwn => {
            update_chunk_sampled(BestOfKPureKernel { k }, topo, snap, start, out, rng)
        }
        ProtocolKind::BestOfK { k, .. } => {
            update_chunk_coin_sampled(k, topo, snap, start, out, rng)
        }
        ProtocolKind::LocalMajority(tie_rule) => {
            update_chunk_local_majority(tie_rule, topo, snap, start, out, rng)
        }
    }
}

/// [`dispatch_chunk_topology`] for a materialised graph's raw CSR arrays:
/// fixed-draw-count protocols take the software-pipelined
/// [`update_chunk_batched`] path (overlapping the adjacency cache misses)
/// and coin protocols the row-hoisted [`update_chunk_coin_csr`].  Both
/// consume the RNG exactly like the sampled kernels over [`CsrTopology`],
/// so which one runs never shows in the output.
pub(crate) fn dispatch_chunk_csr<R: RngCore + ?Sized>(
    kind: ProtocolKind,
    graph: &CsrGraph,
    snap: &PackedSnapshot,
    start: usize,
    out: &mut [Opinion],
    rng: &mut R,
) {
    let (offsets, neighbours) = graph.as_csr();
    match kind {
        ProtocolKind::Voter => {
            update_chunk_batched(VoterKernel, offsets, neighbours, snap, start, out, rng)
        }
        ProtocolKind::BestOfThree => update_chunk_batched(
            BestOfThreeKernel,
            offsets,
            neighbours,
            snap,
            start,
            out,
            rng,
        ),
        ProtocolKind::BestOfTwo(TieRule::KeepOwn) => update_chunk_batched(
            BestOfKPureKernel { k: 2 },
            offsets,
            neighbours,
            snap,
            start,
            out,
            rng,
        ),
        ProtocolKind::BestOfTwo(TieRule::Random) => {
            update_chunk_coin_csr(2, offsets, neighbours, snap, start, out, rng)
        }
        ProtocolKind::BestOfK { k, tie_rule } if k % 2 == 1 || tie_rule == TieRule::KeepOwn => {
            update_chunk_batched(
                BestOfKPureKernel { k },
                offsets,
                neighbours,
                snap,
                start,
                out,
                rng,
            )
        }
        ProtocolKind::BestOfK { k, .. } => {
            update_chunk_coin_csr(k, offsets, neighbours, snap, start, out, rng)
        }
        ProtocolKind::LocalMajority(tie_rule) => {
            update_chunk_local_majority(tie_rule, &CsrTopology::new(graph), snap, start, out, rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{BestOfK, BestOfThree, BestOfTwo, LocalMajority, Voter};
    use bo3_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn packed_snapshot_round_trips_opinions() {
        let opinions: Vec<Opinion> = (0..130)
            .map(|v| {
                if v % 3 == 0 {
                    Opinion::Blue
                } else {
                    Opinion::Red
                }
            })
            .collect();
        let snap = PackedSnapshot::from_opinions(&opinions);
        assert_eq!(snap.len(), 130);
        assert!(!snap.is_empty());
        for (v, &o) in opinions.iter().enumerate() {
            assert_eq!(snap.get(v), o, "vertex {v}");
        }
        let expected = opinions.iter().filter(|o| o.is_blue()).count();
        assert_eq!(snap.blue_count(), expected);
        let frac = expected as f64 / 130.0;
        assert!((snap.blue_fraction() - frac).abs() < 1e-12);
    }

    #[test]
    fn packed_snapshot_set_flips_single_bits() {
        let mut snap = PackedSnapshot::all_red(100);
        assert_eq!(snap.blue_count(), 0);
        snap.set(63, Opinion::Blue);
        snap.set(64, Opinion::Blue);
        assert!(snap.is_blue(63) && snap.is_blue(64));
        assert!(!snap.is_blue(62) && !snap.is_blue(65));
        assert_eq!(snap.blue_count(), 2);
        snap.set(63, Opinion::Red);
        assert_eq!(snap.blue_count(), 1);
        // Setting an already-correct bit is a no-op.
        snap.set(64, Opinion::Blue);
        assert_eq!(snap.blue_count(), 1);
    }

    #[test]
    fn repack_reuses_the_allocation_and_matches_from_opinions() {
        let a: Vec<Opinion> = (0..200).map(|_| Opinion::Blue).collect();
        let b: Vec<Opinion> = (0..70)
            .map(|v| {
                if v % 2 == 0 {
                    Opinion::Red
                } else {
                    Opinion::Blue
                }
            })
            .collect();
        let mut snap = PackedSnapshot::from_opinions(&a);
        snap.repack_from(&b);
        assert_eq!(snap, PackedSnapshot::from_opinions(&b));
        assert_eq!(snap.blue_count(), 35);
    }

    #[test]
    fn empty_snapshot_is_well_behaved() {
        let snap = PackedSnapshot::from_opinions(&[]);
        assert!(snap.is_empty());
        assert_eq!(snap.blue_count(), 0);
        assert_eq!(snap.blue_fraction(), 0.0);
    }

    #[test]
    fn sample_index_matches_gen_range() {
        // The kernel's Lemire reduction must stay bit-identical to the
        // vendored gen_range for every degree, or the kernel and dyn paths
        // drift onto different streams.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for n in [1usize, 2, 3, 7, 64, 1000, 4097] {
            for _ in 0..50 {
                let via_kernel = sample_index(a.next_u64(), n);
                let via_gen_range = b.gen_range(0..n);
                assert_eq!(via_kernel, via_gen_range, "n = {n}");
            }
        }
    }

    #[test]
    fn kernel_rng_streams_are_deterministic_and_distinct() {
        let draws = |mut rng: KernelRng| -> Vec<u64> { (0..8).map(|_| rng.next_u64()).collect() };
        let a = draws(kernel_chunk_rng(1, 2, 3));
        let b = draws(kernel_chunk_rng(1, 2, 3));
        assert_eq!(a, b, "same coordinates must give the same stream");
        for other in [
            kernel_chunk_rng(2, 2, 3),
            kernel_chunk_rng(1, 3, 3),
            kernel_chunk_rng(1, 2, 4),
        ] {
            assert_ne!(a, draws(other), "coordinates must separate streams");
        }
        // Rough uniformity: bounded indices cover a small range evenly.
        let mut rng = kernel_chunk_rng(7, 0, 0);
        let mut counts = [0usize; 10];
        let trials = 100_000;
        for _ in 0..trials {
            counts[sample_index(rng.next_u64(), 10)] += 1;
        }
        for &c in &counts {
            let expected = trials as f64 / 10.0;
            assert!(
                (c as f64 - expected).abs() < expected * 0.05,
                "bucket count {c} vs {expected}"
            );
        }
    }

    #[test]
    fn kernel_rng_fill_bytes_and_u32_are_consistent_with_u64() {
        let mut a = KernelRng::from_stream_id(5);
        let mut b = KernelRng::from_stream_id(5);
        assert_eq!(a.next_u32() as u64, b.next_u64() >> 32);
        let mut buf = [0u8; 12];
        a.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 12]);
    }

    #[test]
    fn builtin_protocols_report_their_kind() {
        assert_eq!(Voter::new().kind(), Some(ProtocolKind::Voter));
        assert_eq!(
            BestOfTwo::keep_own().kind(),
            Some(ProtocolKind::BestOfTwo(TieRule::KeepOwn))
        );
        assert_eq!(BestOfThree::new().kind(), Some(ProtocolKind::BestOfThree));
        assert_eq!(
            BestOfK::new(5, TieRule::Random).kind(),
            Some(ProtocolKind::BestOfK {
                k: 5,
                tie_rule: TieRule::Random
            })
        );
        assert_eq!(
            LocalMajority::keep_own().kind(),
            Some(ProtocolKind::LocalMajority(TieRule::KeepOwn))
        );
    }

    #[test]
    fn dyn_only_hides_the_kind_but_delegates_everything_else() {
        let wrapped = DynOnly(BestOfThree::new());
        assert_eq!(wrapped.kind(), None);
        assert_eq!(wrapped.name(), BestOfThree::new().name());
        assert_eq!(wrapped.sample_size(), 3);
    }

    /// The draw-ahead lane kernel must produce the same opinions as the
    /// scalar sampled kernel from the same starting RNG state — the chunk
    /// half of the batched sampler's bit-identity contract (the final RNG
    /// positions legitimately differ; the engine only calls the lane where
    /// the chunk RNG is dropped afterwards).
    #[test]
    fn lane_chunk_matches_scalar_chunk_on_hash_defined_topologies() {
        use bo3_graph::{ImplicitGnp, ImplicitSbm};
        let n = 300;
        let opinions: Vec<Opinion> = {
            let mut rng = StdRng::seed_from_u64(8);
            (0..n)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        Opinion::Blue
                    } else {
                        Opinion::Red
                    }
                })
                .collect()
        };
        let snap = PackedSnapshot::from_opinions(&opinions);
        let kinds = [
            ProtocolKind::Voter,
            ProtocolKind::BestOfThree,
            ProtocolKind::BestOfTwo(TieRule::KeepOwn),
            ProtocolKind::BestOfK {
                k: 5,
                tie_rule: TieRule::Random,
            },
            ProtocolKind::BestOfK {
                k: 6,
                tie_rule: TieRule::KeepOwn,
            },
        ];
        let gnp_specs: Vec<_> = [0.05, 0.3, 0.5, 0.9]
            .iter()
            .map(|&p| ImplicitGnp::new(n, p, 17).unwrap().pair_hash_spec())
            .collect();
        let sbm = ImplicitSbm::new(n, 4, 0.6, 0.15, 19).unwrap();
        let gnp_topos: Vec<_> = [0.05, 0.3, 0.5, 0.9]
            .iter()
            .map(|&p| ImplicitGnp::new(n, p, 17).unwrap())
            .collect();
        for kind in kinds {
            for i in 0..gnp_specs.len() {
                let spec = gnp_specs[i];
                let topo = &gnp_topos[i];
                let mut lane_out = vec![Opinion::Red; n];
                let mut lane_rng = StdRng::seed_from_u64(77);
                assert!(try_dispatch_chunk_lane(
                    kind,
                    spec,
                    &snap,
                    0,
                    &mut lane_out,
                    &mut lane_rng
                )
                .is_some());
                let mut scalar_out = vec![Opinion::Red; n];
                let mut scalar_rng = StdRng::seed_from_u64(77);
                update_chunk_sampled(
                    BestOfKPureKernel {
                        k: lane_samples(kind).unwrap(),
                    },
                    topo,
                    &snap,
                    0,
                    &mut scalar_out,
                    &mut scalar_rng,
                );
                assert_eq!(
                    lane_out,
                    scalar_out,
                    "{kind:?} diverged on {}",
                    topo.label()
                );
            }
            // SBM: compare through the full dispatch against the scalar
            // dispatch (same kernels, scalar sampler).
            let spec = sbm.pair_hash_spec();
            let mut lane_out = vec![Opinion::Red; n];
            let mut lane_rng = StdRng::seed_from_u64(78);
            assert!(
                try_dispatch_chunk_lane(kind, spec, &snap, 0, &mut lane_out, &mut lane_rng)
                    .is_some()
            );
            let mut scalar_out = vec![Opinion::Red; n];
            let mut scalar_rng = StdRng::seed_from_u64(78);
            dispatch_chunk_topology(kind, &sbm, &snap, 0, &mut scalar_out, &mut scalar_rng);
            assert_eq!(lane_out, scalar_out, "{kind:?} diverged on {}", sbm.label());
        }
        // Coin protocols and local majority must refuse the lane.
        let spec = gnp_specs[0];
        let mut out = vec![Opinion::Red; n];
        let mut rng = StdRng::seed_from_u64(1);
        for kind in [
            ProtocolKind::BestOfTwo(TieRule::Random),
            ProtocolKind::BestOfK {
                k: 4,
                tie_rule: TieRule::Random,
            },
            ProtocolKind::LocalMajority(TieRule::KeepOwn),
        ] {
            assert!(try_dispatch_chunk_lane(kind, spec, &snap, 0, &mut out, &mut rng).is_none());
        }
    }

    /// Lane totals must equal the scalar sampler's on a counting stream,
    /// plus a sane occupancy once recorded.
    #[test]
    fn lane_metering_matches_scalar_metering_totals() {
        use bo3_graph::ImplicitGnp;
        let n = 256;
        let kind = ProtocolKind::BestOfThree;
        let topo = ImplicitGnp::new(n, 0.3, 23).unwrap();
        let snap = PackedSnapshot::all_red(n);

        let mut lane_out = vec![Opinion::Red; n];
        let mut lane_rng = StdRng::seed_from_u64(5);
        let spec = topo.pair_hash_spec();
        let lane = try_dispatch_chunk_lane(kind, spec, &snap, 0, &mut lane_out, &mut lane_rng);
        let lane = lane.unwrap();

        let mut scalar_out = vec![Opinion::Red; n];
        let mut scalar_rng = StdRng::seed_from_u64(5);
        let scalar = SamplerWork::counted(kind, &mut scalar_rng, |rng| {
            dispatch_chunk_topology(kind, &topo, &snap, 0, &mut scalar_out, rng);
            n
        });

        assert_eq!(lane_out, scalar_out);
        assert_eq!(lane.tries, scalar.tries);
        assert_eq!(lane.accepts, scalar.accepts);
        assert_eq!(lane.accepts, 3 * n as u64);
        assert!(lane.tries > lane.accepts, "p = 0.3 must reject");
        // Only the lane pre-draws, and it consumes at most what it drew.
        assert!(lane.drawn >= lane.tries);
        assert_eq!(scalar.drawn, 0);
    }

    /// Every kernel must consume the same RNG stream and produce the same
    /// opinion as the corresponding `dyn` protocol update — the
    /// bit-compatibility half of the determinism contract.  Run on an
    /// Erdős–Rényi graph and on a complete graph, through every route a
    /// materialised graph can take: the batched/explicit-row CSR kernels,
    /// the sampled kernels over `CsrTopology`, and (for the complete graph)
    /// the synthesised-row kernels over `Complete`.
    #[test]
    fn kernels_match_dyn_updates_draw_for_draw() {
        let graphs = vec![
            generators::erdos_renyi_gnp(180, 0.2, &mut StdRng::seed_from_u64(1)).unwrap(),
            generators::complete(150),
        ];
        for g in &graphs {
            let sampler = bo3_graph::NeighbourSampler::new(g).unwrap();
            let opinions: Vec<Opinion> = {
                let mut rng = StdRng::seed_from_u64(2);
                (0..g.num_vertices())
                    .map(|_| {
                        if rng.gen_bool(0.45) {
                            Opinion::Blue
                        } else {
                            Opinion::Red
                        }
                    })
                    .collect()
            };
            let snap = PackedSnapshot::from_opinions(&opinions);
            let protocols: Vec<(ProtocolKind, Box<dyn Protocol>)> = vec![
                (ProtocolKind::Voter, Box::new(Voter::new())),
                (
                    ProtocolKind::BestOfTwo(TieRule::Random),
                    Box::new(BestOfTwo::new(TieRule::Random)),
                ),
                (
                    ProtocolKind::BestOfTwo(TieRule::KeepOwn),
                    Box::new(BestOfTwo::keep_own()),
                ),
                (ProtocolKind::BestOfThree, Box::new(BestOfThree::new())),
                (
                    ProtocolKind::BestOfK {
                        k: 6,
                        tie_rule: TieRule::KeepOwn,
                    },
                    Box::new(BestOfK::new(6, TieRule::KeepOwn)),
                ),
                (
                    ProtocolKind::BestOfK {
                        k: 4,
                        tie_rule: TieRule::Random,
                    },
                    Box::new(BestOfK::new(4, TieRule::Random)),
                ),
                (
                    ProtocolKind::LocalMajority(TieRule::Random),
                    Box::new(LocalMajority::new(TieRule::Random)),
                ),
            ];
            let n = g.num_vertices();
            let complete = g
                .is_complete()
                .then(|| bo3_graph::Complete::new(n).unwrap());
            for (kind, protocol) in &protocols {
                let mut dyn_out = Vec::with_capacity(n);
                let mut dyn_rng = StdRng::seed_from_u64(33);
                for v in g.vertices() {
                    let ctx = UpdateContext {
                        vertex: v,
                        current: opinions[v],
                        previous: &opinions,
                        sampler: &sampler,
                    };
                    dyn_out.push(protocol.update(&ctx, &mut dyn_rng));
                }
                let after_dyn = dyn_rng.next_u64();

                type Route<'a> = Box<dyn Fn(&mut [Opinion], &mut StdRng) + 'a>;
                let mut routes: Vec<(&str, Route<'_>)> = vec![
                    (
                        "csr",
                        Box::new(|out, rng| dispatch_chunk_csr(*kind, g, &snap, 0, out, rng)),
                    ),
                    (
                        "sampled CsrTopology",
                        Box::new(|out, rng| {
                            dispatch_chunk_topology(*kind, &CsrTopology::new(g), &snap, 0, out, rng)
                        }),
                    ),
                ];
                if let Some(k) = &complete {
                    routes.push((
                        "sampled Complete",
                        Box::new(|out, rng| dispatch_chunk_topology(*kind, k, &snap, 0, out, rng)),
                    ));
                }
                for (route, run) in &routes {
                    let mut kernel_out = vec![Opinion::Red; n];
                    let mut kernel_rng = StdRng::seed_from_u64(33);
                    run(&mut kernel_out, &mut kernel_rng);
                    assert_eq!(
                        kernel_out, dyn_out,
                        "{kind:?} via {route} diverged from dyn path"
                    );
                    // Both paths must have consumed the same amount of randomness.
                    assert_eq!(
                        kernel_rng.next_u64(),
                        after_dyn,
                        "{kind:?} via {route} consumed a different stream length"
                    );
                }
            }
        }
    }
}
