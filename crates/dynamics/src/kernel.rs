//! Monomorphized hot-path kernels: one per-vertex update, generic over the
//! update rule and the neighbour source, driven by two sweeps.
//!
//! A single E1-scale run performs `3·n·T` neighbour draws, so the per-update
//! inner loop *is* the system.  The generic engine path pays two virtual
//! calls per sample (`dyn Protocol::update`, `dyn RngCore`), a per-sample
//! degree reload and a byte-wide read of `ξ_t(w)`.  This module removes all
//! of that for the built-in protocols:
//!
//! * [`PackedSnapshot`] — the engine's run state, a `u64` bitset and the
//!   one definition of its layout: reading `ξ_t(w)` touches one bit
//!   instead of one byte, and blue counts are a popcount scan;
//! * **batched RNG** — neighbour indices come from whole `u64` draws mapped
//!   onto `[0, deg)` with Lemire's multiply-shift reduction (`lemire_index`,
//!   bit-identical to the vendored `gen_range`), one draw per sample, no
//!   rejection loop, with the degree/row lookup hoisted out of the k-sample
//!   loop;
//! * **static dispatch** — a [`ProtocolSpec`] names the built-in
//!   protocol.  The engine turns it into a rule type and the topology's
//!   [`bo3_graph::Shape`] into a neighbour source over the concrete family,
//!   so the rule, the neighbour sampling and the RNG inline into one tight
//!   loop.  A protocol whose [`Protocol::kind`] returns `None` ([`DynOnly`])
//!   falls back to the generic `dyn` path.
//!
//! # Rules, sources and sweeps
//!
//! Every kernel update of a vertex `v` is one function, `update`: read the
//! rule's samples (or, for local majority, `v`'s whole row) from a source,
//! then let the rule decide.  It is generic over two things.
//!
//! The **rule** (`UpdateRule`) is one type per family of [`ProtocolSpec`]s:
//! `Fixed<K>` for Voter (`K = 1`) and Best-of-3 (`K = 3`), whose sample
//! count is a compile-time constant; `Pure` for Best-of-2 keep-own and
//! every odd or keep-own Best-of-k; `Coin` for even `k` with a random tie;
//! `Local` for local majority.  `Fixed` and `Pure` are *pure*: they draw
//! their `k` samples and nothing else, so the samples may be pre-drawn.
//!
//! The **source** (`Source`) is where the reads come from:
//!
//! * `Sampler`, over the concrete family's own `sample_neighbour` and
//!   `for_each_neighbour`; on the complete graph local majority counts
//!   blues with one popcount instead of walking the row;
//! * the draw-ahead [`NeighbourLane`] over a hash-defined family, for pure
//!   rules on honest runs whose RNG is scoped to the work unit;
//! * the adversary over a sampler ([`crate::adversary`]).
//!
//! Two **sweeps** (`Sweep`) drive the update: `Chunk`, a synchronous chunk
//! reading the frozen snapshot, and `Order`, an asynchronous round reading
//! the live state in a shuffled order.  The one specialised loop is
//! `gather`, the phase-split CSR gather for pure rules over either sweep:
//! per block of vertices it draws every sample, then resolves every pick to
//! a neighbour id in one loop of independent reads, then decides.  On an
//! order sweep it decides vertex by vertex from the live bits, so a later
//! vertex of a block still reads an earlier one's new opinion.  The sweeps
//! and the gather are the kernels' only opinion writers: on a chunk they
//! store its words whole, through one helper (`write_bits`), and on an
//! order they flip bits of the live snapshot in place.  [`crate::engine`]
//! picks the rule, the source and the sweep once per work unit; every route
//! draws exactly what the sampler over the engine's own topology would, so
//! the route never shows.
//!
//! Each work unit also ends with its sampler totals (`SamplerWork`),
//! which the engine adds to the observer's meter once per unit.  The
//! closed-form and CSR routes draw one `next_u64` per sample, so their
//! totals are derived, not counted; the lane reports its own counters; the
//! sampler over a hash-defined or opaque topology runs on a `CountingRng`.
//!
//! # Determinism contract
//!
//! Two properties, pinned by two suites:
//!
//! **1. Draw-for-draw `dyn` compatibility.** Handed the *same* RNG, a kernel
//! update of vertex `v` consumes exactly the same raw stream and produces
//! exactly the same opinion as the spec's `Protocol::update`, its `dyn`
//! reference:
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
//! kernels and the `dyn` helpers ([`crate::protocol`]) together.  The
//! kernel-equivalence suite's fingerprint table additionally pins every
//! route's seeded and caller-RNG output to values recorded once.
//!
//! [`ProtocolSpec`]: crate::protocol::ProtocolSpec

use rand::RngCore;

use bo3_graph::topology::lemire_index;
use bo3_graph::{CsrGraph, NeighbourLane, Topology};

use crate::error::{DynamicsError, Result};
use crate::opinion::{blue_fraction, Opinion};
use crate::protocol::{resolve_majority, Protocol, TieRule, UpdateContext};

/// One configuration `ξ_t` as a bitset: the engine's run state.
///
/// Vertex `v` is blue iff bit `v % 64` of word `v / 64` is set; bits at and
/// past the vertex count are zero.  The packed form is 8× denser than
/// `[Opinion]`, so snapshot reads stay cache-resident far longer, and
/// [`PackedSnapshot::blue_count`] is a popcount scan.
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
        let mut snap = PackedSnapshot::all_red(0);
        snap.repack_from(opinions);
        snap
    }

    /// Repacks in place from an opinion slice, reusing the allocation.
    pub fn repack_from(&mut self, opinions: &[Opinion]) {
        self.len = opinions.len();
        self.words.clear();
        self.words.resize(self.len.div_ceil(64), 0);
        write_bits(self.len, 0, &mut self.words, |v| opinions[v].is_blue());
    }

    /// Takes the words of `n` vertices back (a checkpoint's), refusing a
    /// word count that does not fit `n` and any bit set at or past `n`.
    pub(crate) fn from_words(words: Vec<u64>, n: usize) -> Result<Self> {
        let past_n = |last: &u64| !n.is_multiple_of(64) && last >> (n % 64) != 0;
        let reason = if words.len() != n.div_ceil(64) {
            format!("{} opinion words cannot hold n = {n} vertices", words.len())
        } else if words.last().is_some_and(past_n) {
            format!("opinion bits are set beyond n = {n}")
        } else {
            return Ok(PackedSnapshot { words, len: n });
        };
        Err(DynamicsError::InvalidParameter { reason })
    }

    /// The packed words.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The packed words, for a writer that stores them whole.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Every vertex's opinion, in vertex order.
    pub(crate) fn opinions(&self) -> impl Iterator<Item = Opinion> + '_ {
        (0..self.len).map(|v| self.get(v))
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
        count_blue(&self.words)
    }

    /// Fraction of blue vertices (`0.0` on the empty snapshot).
    pub fn blue_fraction(&self) -> f64 {
        blue_fraction(self.blue_count(), self.len)
    }
}

/// Number of blue vertices among packed words (a popcount; bits past the
/// vertex count are zero).
pub(crate) fn count_blue(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Writes `out`, the words of vertices `start..` (`start` a multiple of
/// 64) of an `n`-vertex state, from `bit(v)`, called once per vertex in
/// order; returns how many vertices it wrote.  Each word is stored whole,
/// so bits at and past `n` stay zero.  The chunk sweep, the gather, the
/// `dyn` chunk and [`PackedSnapshot::repack_from`] write through it.
#[inline(always)]
pub(crate) fn write_bits(
    n: usize,
    start: usize,
    out: &mut [u64],
    mut bit: impl FnMut(usize) -> bool,
) -> usize {
    debug_assert_eq!(start % 64, 0, "a range starts on a word");
    let end = n.min(start + 64 * out.len());
    for (word, first) in out.iter_mut().zip((start..end).step_by(64)) {
        let mut acc = 0u64;
        for v in first..end.min(first + 64) {
            acc |= u64::from(bit(v)) << (v - first);
        }
        *word = acc;
    }
    end - start
}

/// The largest Best-of-k sample size anything runs: a valid `k` is in
/// `1..=MAX_BEST_OF_K`.  Experiment configs and the engine refuse any
/// other `k` with a typed error.  The largest `k` the experiments use is
/// 11; the cap bounds the CSR gather's pick buffer at 1 MiB.
pub const MAX_BEST_OF_K: usize = 1024;

/// Runs a protocol's `dyn` reference without its kernel: the wrapper
/// keeps [`Protocol::update`] and reports no [`Protocol::kind`], so the
/// engine takes the generic `dyn` path (which needs a materialised graph).
///
/// It is the only protocol without a kernel.  The kernel-equivalence
/// suite and the `e13` throughput bench wrap a spec in it to compare the
/// two paths on the same protocol; it is not useful in production code.
#[derive(Debug, Clone, Copy)]
pub struct DynOnly<P>(pub P);

impl<P: Protocol> Protocol for DynOnly<P> {
    fn update(&self, ctx: &UpdateContext<'_>, rng: &mut dyn RngCore) -> Opinion {
        self.0.update(ctx, rng)
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
    /// `updates` updates drawing `samples` samples each on a route that
    /// draws one `next_u64` per sample (the closed forms and CSR):
    /// `tries = accepts`.
    pub(crate) fn exact(samples: usize, updates: usize) -> Self {
        let accepts = (samples * updates) as u64;
        SamplerWork {
            tries: accepts,
            accepts,
            drawn: 0,
        }
    }

    /// A lane's totals over a unit that accepted `accepts` draws: its own
    /// counters.
    pub(crate) fn lane(lane: &NeighbourLane, accepts: usize) -> Self {
        SamplerWork {
            tries: lane.consumed(),
            accepts: accepts as u64,
            drawn: lane.drawn(),
        }
    }

    /// The totals of `unit` — a work unit drawing `samples` samples per
    /// update and returning how many vertices updated — run on `rng` with
    /// its `next_u64` draws counted.
    pub(crate) fn counted<R: RngCore + ?Sized>(
        samples: usize,
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
            ..Self::exact(samples, updates)
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

/// How one vertex turns its reads into its next opinion: one type per
/// family of protocol specs, so every rule monomorphizes.
pub(crate) trait UpdateRule: Copy {
    /// `true` when the rule draws its samples and nothing else (no tie
    /// coin, no row walk): only then may the lane or the gather pre-draw
    /// them without reordering the stream.
    const PURE: bool;

    /// `true` when the rule reads the vertex's whole row instead of
    /// sampling it (local majority).
    const READS_ROW: bool = false;

    /// Neighbour samples per update (0 when the rule reads its row).
    fn samples(&self) -> usize;

    /// How a tie between the blue and red reads resolves.
    fn tie_rule(&self) -> TieRule {
        TieRule::KeepOwn
    }

    /// The next opinion from `blues` blue reads out of `reads`: the
    /// majority, or on a tie the tie rule, whose coin (one `next_u32`)
    /// comes from `rng` exactly as on the `dyn` path.
    #[inline(always)]
    fn decide<R: RngCore + ?Sized>(
        &self,
        blues: usize,
        reads: usize,
        current: Opinion,
        rng: &mut R,
    ) -> Opinion {
        resolve_majority(blues, reads, current, self.tie_rule(), rng)
    }
}

/// Voter (`K = 1`) and Best-of-3 (`K = 3`): a pure rule whose odd sample
/// count is a compile-time constant, so the sample loop unrolls and the
/// decision is one compare.
#[derive(Clone, Copy)]
pub(crate) struct Fixed<const K: usize>;

impl<const K: usize> UpdateRule for Fixed<K> {
    const PURE: bool = true;

    #[inline(always)]
    fn samples(&self) -> usize {
        K
    }

    #[inline(always)]
    fn decide<R: RngCore + ?Sized>(
        &self,
        blues: usize,
        _: usize,
        _: Opinion,
        _: &mut R,
    ) -> Opinion {
        if 2 * blues > K {
            Opinion::Blue
        } else {
            Opinion::Red
        }
    }
}

/// Best-of-2 keep-own and every Best-of-k whose tie coin is unreachable
/// (odd `k`, or keep-own): a pure rule with a runtime `k`.
#[derive(Clone, Copy)]
pub(crate) struct Pure {
    pub(crate) k: usize,
}

impl UpdateRule for Pure {
    const PURE: bool = true;

    #[inline(always)]
    fn samples(&self) -> usize {
        self.k
    }
}

/// Even `k` with a random tie: the tie coin follows the vertex's samples
/// on the kernel stream, so these samples can never be pre-drawn.
#[derive(Clone, Copy)]
pub(crate) struct Coin {
    pub(crate) k: usize,
}

impl UpdateRule for Coin {
    const PURE: bool = false;

    #[inline(always)]
    fn samples(&self) -> usize {
        self.k
    }

    fn tie_rule(&self) -> TieRule {
        TieRule::Random
    }
}

/// Deterministic full-neighbourhood majority, by tie rule.
#[derive(Clone, Copy)]
pub(crate) struct Local(pub(crate) TieRule);

impl UpdateRule for Local {
    const PURE: bool = false;
    const READS_ROW: bool = true;

    #[inline(always)]
    fn samples(&self) -> usize {
        0
    }

    fn tie_rule(&self) -> TieRule {
        self.0
    }
}

/// Where one update's reads come from.
pub(crate) trait Source {
    /// `false` for a vertex that keeps its opinion and draws nothing (a
    /// zealot).
    #[inline(always)]
    fn updates(&self, _v: usize) -> bool {
        true
    }

    /// `true` when [`Source::row_blues`] answers from the state's blue
    /// count (the honest complete graph).  Only then does a synchronous
    /// chunk take its popcount: every other source walks rows, and a
    /// popcount per chunk would read `n²/2¹⁸` words per round.
    fn counts_blues(&self) -> bool {
        false
    }

    /// Blue reads among `k` uniform neighbour samples of `v`, drawn from
    /// `rng` in order.
    fn sampled_blues<R: RngCore + ?Sized>(
        &mut self,
        snap: &PackedSnapshot,
        v: usize,
        k: usize,
        rng: &mut R,
    ) -> usize;

    /// Blue reads and reads over `v`'s whole row; `blues` is the state's
    /// blue count when [`Source::counts_blues`], else 0.  Only samplers
    /// read rows: the lane never meets local majority.
    fn row_blues(&mut self, _: &PackedSnapshot, _: usize, _: usize) -> (usize, usize) {
        unreachable!("local majority reads rows, never the lane")
    }
}

/// The honest sampler over the concrete family.  The engine hands the
/// closed forms over by value, so their parameters live in the source and
/// stay in registers across a sweep.
pub(crate) struct Sampler<F> {
    pub(crate) family: F,
    /// The family is the complete graph, whose local majority counts blues
    /// with one popcount instead of an `n − 1` walk (same counts, so tie
    /// coins land identically).
    pub(crate) complete: bool,
}

impl<F: Topology> Source for Sampler<F> {
    fn counts_blues(&self) -> bool {
        self.complete
    }

    #[inline(always)]
    fn sampled_blues<R: RngCore + ?Sized>(
        &mut self,
        snap: &PackedSnapshot,
        v: usize,
        k: usize,
        rng: &mut R,
    ) -> usize {
        let mut blues = 0usize;
        for _ in 0..k {
            blues += snap.is_blue(self.family.sample_neighbour(v, rng)) as usize;
        }
        blues
    }

    #[inline]
    fn row_blues(&mut self, snap: &PackedSnapshot, blues: usize, v: usize) -> (usize, usize) {
        if self.complete {
            return (blues - snap.is_blue(v) as usize, snap.len() - 1);
        }
        let (mut blue_reads, mut reads) = (0usize, 0usize);
        self.family.for_each_neighbour(v, |w| {
            blue_reads += snap.is_blue(w) as usize;
            reads += 1;
        });
        (blue_reads, reads)
    }
}

/// The draw-ahead lane over a hash-defined family: the same accepted
/// neighbours and try counts as the scalar sampler (see the draw-ahead
/// contract in `bo3_graph::topology`), for pure rules only, on a stream
/// scoped to the work unit — the licence its discarded pre-draw tail needs.
impl Source for NeighbourLane {
    #[inline(always)]
    fn sampled_blues<R: RngCore + ?Sized>(
        &mut self,
        snap: &PackedSnapshot,
        v: usize,
        k: usize,
        rng: &mut R,
    ) -> usize {
        let mut blues = 0usize;
        for _ in 0..k {
            blues += snap.is_blue(self.sample(v, rng).0) as usize;
        }
        blues
    }
}

/// One kernel update of `v`: the rule's reads from `source` (its samples,
/// or its whole row), then its decision.  `blues` is the state's blue count
/// (read only by local majority).
#[inline(always)]
fn update<U: UpdateRule, S: Source, R: RngCore + ?Sized>(
    rule: U,
    source: &mut S,
    snap: &PackedSnapshot,
    blues: usize,
    v: usize,
    rng: &mut R,
) -> Opinion {
    let (blue_reads, reads) = if U::READS_ROW {
        source.row_blues(snap, blues, v)
    } else {
        let k = rule.samples();
        (source.sampled_blues(snap, v, k, rng), k)
    };
    rule.decide(blue_reads, reads, snap.get(v), rng)
}

/// A work unit's vertex loop: one of the two sweeps.
pub(crate) enum Sweep<'a> {
    /// A synchronous chunk from `start` (a multiple of 64) into `out`, its
    /// words: every vertex reads the frozen snapshot, in vertex order.
    Chunk {
        snap: &'a PackedSnapshot,
        start: usize,
        out: &'a mut [u64],
    },
    /// An asynchronous round in `order`: each update reads the live state —
    /// the *current*, partially updated round — and writes its bit back.
    /// The live blue count is kept exactly, so the complete graph's local
    /// majority is one subtraction per update.
    Order {
        order: &'a [usize],
        live: &'a mut PackedSnapshot,
    },
}

impl Sweep<'_> {
    /// Updates the unit's vertices under `rule`, reading from `source`;
    /// returns how many updated (zealots do not).  The unit owns `rng`
    /// (a stream scoped to it, or a caller's `&mut` RNG).
    pub(crate) fn run<U: UpdateRule, S: Source, R: RngCore>(
        &mut self,
        rule: U,
        source: &mut S,
        rng: R,
    ) -> usize {
        match self {
            Sweep::Chunk { snap, start, out } => sweep_chunk(rule, source, snap, *start, out, rng),
            Sweep::Order { order, live } => sweep_order(rule, source, order, live, rng),
        }
    }
}

/// The synchronous sweep's loop.  It takes the snapshot as a `noalias`
/// argument and owns the RNG, so the snapshot's words and a scoped stream's
/// state stay in registers (no store of the RNG state per vertex).
fn sweep_chunk<U: UpdateRule, S: Source, R: RngCore>(
    rule: U,
    source: &mut S,
    snap: &PackedSnapshot,
    start: usize,
    out: &mut [u64],
    mut rng: R,
) -> usize {
    // One popcount per chunk, and only for local majority on the source
    // that answers from it.
    let blues = if U::READS_ROW && source.counts_blues() {
        snap.blue_count()
    } else {
        0
    };
    let mut updated = 0usize;
    write_bits(snap.len(), start, out, |v| {
        if source.updates(v) {
            updated += 1;
            update(rule, source, snap, blues, v, &mut rng).is_blue()
        } else {
            snap.is_blue(v)
        }
    });
    updated
}

/// The asynchronous sweep's loop, its buffers `noalias` arguments and
/// its RNG owned, as in [`sweep_chunk`].
fn sweep_order<U: UpdateRule, S: Source, R: RngCore>(
    rule: U,
    source: &mut S,
    order: &[usize],
    live: &mut PackedSnapshot,
    mut rng: R,
) -> usize {
    let mut blues = live.blue_count();
    let mut updated = 0usize;
    for &v in order {
        if !source.updates(v) {
            continue;
        }
        updated += 1;
        let new = update(rule, source, live, blues, v, &mut rng);
        if live.get(v) != new {
            blues = if new.is_blue() { blues + 1 } else { blues - 1 };
            live.set(v, new);
        }
    }
    updated
}

/// Vertices per software-pipelined block of [`gather`].
///
/// Large enough that a block's neighbour-row gathers (`BATCH · k`
/// independent reads) saturate the core's outstanding-miss capacity, small
/// enough that the pick buffer stays in L1.
const BATCH: usize = 128;

/// The phase-split gather for pure rules on materialised CSR arrays, over
/// either sweep.
///
/// Walks the unit in blocks of [`BATCH`] vertices — a range of a
/// synchronous chunk, or a slice of an asynchronous round's order — in
/// three phases per block:
///
/// 1. **draw** — consume `k` RNG draws per vertex in the unit's order (so
///    the stream matches the sampler's and the `dyn` path's exactly) and
///    turn them into flat CSR arc positions via [`lemire_index`], reading
///    only the offset array;
/// 2. **gather** — resolve every pick to a neighbour id in one loop of
///    independent reads, so the cache misses into the (potentially huge)
///    neighbour array overlap instead of serialising;
/// 3. **decide** — count each vertex's blue neighbours and apply the pure
///    rule.  A chunk reads the frozen snapshot and stores the block's two
///    words whole.  An order sweep reads the live bits and writes each
///    vertex's bit before the next vertex of the block counts, so a later
///    vertex sees an earlier one's write, as on the sampler, which takes
///    one vertex at a time.
///
/// Neighbour ids do not depend on the state, so gathering them ahead of
/// the block's decisions changes only the order of memory reads, never
/// the RNG stream: results stay bit-identical to the sampler over the same
/// rows and to the `dyn` fallback.  Only the bit reads must wait for the
/// decisions before them.  A rule with a tie coin cannot be split this
/// way: its coin sits between one vertex's samples and the next vertex's.
/// Returns how many vertices it updated.
pub(crate) fn gather<U: UpdateRule, R: RngCore>(
    rule: U,
    graph: &CsrGraph,
    sweep: &mut Sweep<'_>,
    mut rng: R,
) -> usize {
    debug_assert!(U::PURE, "only pure rules may pre-draw");
    let k = rule.samples();
    // One allocation per unit, reused across its blocks.
    let mut picks = vec![0usize; BATCH * k];
    match sweep {
        Sweep::Chunk { snap, start, out } => {
            let mut done = 0usize;
            for block_words in out.chunks_mut(BATCH / 64) {
                let first = *start + done;
                let block = first..snap.len().min(first + BATCH);
                let ids = &mut picks[..block.len() * k];
                draw_and_gather(graph, block, ids, k, &mut rng);
                done += write_bits(snap.len(), first, block_words, |v| {
                    let blues = count(snap, &ids[(v - first) * k..][..k]);
                    rule.decide(blues, k, snap.get(v), &mut rng).is_blue()
                });
            }
            done
        }
        Sweep::Order { order, live } => {
            for block in order.chunks(BATCH) {
                let ids = &mut picks[..block.len() * k];
                draw_and_gather(graph, block.iter().copied(), ids, k, &mut rng);
                for (&v, ids) in block.iter().zip(ids.chunks_exact(k)) {
                    let new = rule.decide(count(live, ids), k, live.get(v), &mut rng);
                    live.set(v, new);
                }
            }
            order.len()
        }
    }
}

/// Phases 1 and 2 of [`gather`] for one block: leaves the neighbour ids
/// drawn for its `i`-th vertex in `ids[i * k..(i + 1) * k]`.
#[inline(always)]
fn draw_and_gather<R: RngCore>(
    graph: &CsrGraph,
    vertices: impl Iterator<Item = usize>,
    ids: &mut [usize],
    k: usize,
    rng: &mut R,
) {
    let (offsets, neighbours) = graph.as_csr();
    // Phase 1: draws, in exactly the sampler's order.
    for (v, vertex_picks) in vertices.zip(ids.chunks_exact_mut(k)) {
        let row_start = offsets[v];
        let deg = offsets[v + 1] - row_start;
        // A real (per-vertex, perfectly predicted) assert: the `dyn` path
        // fails loudly on an isolated vertex (`gen_range` on an empty
        // range), and a silent `lemire_index(_, 0)` here would gather a
        // *different vertex's* neighbour instead.  `Engine::new` rules
        // isolated vertices out up front (`CsrGraph::check_no_isolated_vertex`).
        assert!(deg > 0, "isolated vertex {v} in kernel path");
        for slot in vertex_picks {
            *slot = row_start + lemire_index(rng.next_u64(), deg);
        }
    }
    // Phase 2: every iteration is independent, so the neighbour-array
    // misses overlap.
    for id in ids.iter_mut() {
        *id = neighbours[*id] as usize;
    }
}

/// Blue vertices among `ids` in `state`.
#[inline(always)]
fn count(state: &PackedSnapshot, ids: &[usize]) -> usize {
    ids.iter().map(|&w| state.is_blue(w) as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolSpec;
    use bo3_graph::generators;
    use bo3_graph::PairHashSpec;
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
    fn write_bits_stores_whole_words_and_nothing_past_n() {
        // A range from vertex 64 of a 150-vertex state: two words, the
        // second holding 22 vertices, then zeros however stale the buffer.
        let mut out = [u64::MAX; 2];
        let mut seen = Vec::new();
        let written = write_bits(150, 64, &mut out, |v| {
            seen.push(v);
            v % 2 == 0
        });
        assert_eq!(written, 86);
        assert_eq!(seen, (64..150).collect::<Vec<_>>());
        assert_eq!(out[0], 0x5555_5555_5555_5555);
        assert_eq!(out[1], 0x5555_5555_5555_5555 & ((1 << 22) - 1));
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
                let via_kernel = lemire_index(a.next_u64(), n);
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
            counts[lemire_index(rng.next_u64(), 10)] += 1;
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
    fn dyn_only_hides_the_kind_but_delegates_everything_else() {
        let spec = ProtocolSpec::BestOfK {
            k: 4,
            tie_rule: TieRule::Random,
        };
        let wrapped = DynOnly(spec);
        assert_eq!(wrapped.kind(), None);
        let graph = generators::complete(40);
        let (opinions, snap) = random_snapshot(40, 0.5, 4);
        let (mut a, mut b) = (StdRng::seed_from_u64(6), StdRng::seed_from_u64(6));
        for (v, &current) in opinions.iter().enumerate() {
            let ctx = UpdateContext {
                vertex: v,
                current,
                previous: &snap,
                graph: &graph,
            };
            assert_eq!(wrapped.update(&ctx, &mut a), spec.update(&ctx, &mut b));
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// Binds `$rule` to the kernel rule `$kind` names, as the engine's
    /// work unit does, and evaluates `$body` with it.
    macro_rules! with_rule {
        ($kind:expr, |$rule:ident| $body:expr) => {
            match $kind {
                ProtocolSpec::Voter => {
                    let $rule = Fixed::<1>;
                    $body
                }
                ProtocolSpec::BestOfThree => {
                    let $rule = Fixed::<3>;
                    $body
                }
                ProtocolSpec::BestOfTwo {
                    tie_rule: TieRule::KeepOwn,
                } => {
                    let $rule = Pure { k: 2 };
                    $body
                }
                ProtocolSpec::BestOfTwo {
                    tie_rule: TieRule::Random,
                } => {
                    let $rule = Coin { k: 2 };
                    $body
                }
                ProtocolSpec::BestOfK { k, tie_rule }
                    if k % 2 == 1 || tie_rule == TieRule::KeepOwn =>
                {
                    let $rule = Pure { k };
                    $body
                }
                ProtocolSpec::BestOfK { k, .. } => {
                    let $rule = Coin { k };
                    $body
                }
                ProtocolSpec::LocalMajority { tie_rule } => {
                    let $rule = Local(tie_rule);
                    $body
                }
            }
        };
    }

    /// Whether the engine may hand `rule` the lane or the gather.
    fn pure<U: UpdateRule>(_: U) -> bool {
        U::PURE
    }

    #[test]
    fn builtin_protocols_report_their_kind() {
        // Through `&dyn Protocol`, as the engine reads it to pick a kernel,
        // every built-in variant names itself; the rule bound for it takes
        // the variant's sample size (none for the row-reading majority).
        let random = TieRule::Random;
        let table = [
            (ProtocolSpec::Voter, 1),
            (
                ProtocolSpec::BestOfTwo {
                    tie_rule: TieRule::KeepOwn,
                },
                2,
            ),
            (ProtocolSpec::BestOfTwo { tie_rule: random }, 2),
            (ProtocolSpec::BestOfThree, 3),
            (
                ProtocolSpec::BestOfK {
                    k: 5,
                    tie_rule: random,
                },
                5,
            ),
            (
                ProtocolSpec::BestOfK {
                    k: 4,
                    tie_rule: random,
                },
                4,
            ),
            (
                ProtocolSpec::LocalMajority {
                    tie_rule: TieRule::KeepOwn,
                },
                0,
            ),
            (ProtocolSpec::LocalMajority { tie_rule: random }, 0),
        ];
        for (spec, samples) in table {
            let protocol: &dyn Protocol = &spec;
            assert_eq!(protocol.kind(), Some(spec), "{spec:?}");
            assert_eq!(with_rule!(spec, |rule| rule.samples()), samples, "{spec:?}");
        }
    }

    /// One synchronous chunk over every vertex of `snap`, from `seed`:
    /// the output and the stream's next draw after it.
    fn chunk<U: UpdateRule>(
        rule: U,
        snap: &PackedSnapshot,
        seed: u64,
        source: impl FnOnce(&mut Sweep<'_>, U, &mut StdRng),
    ) -> (Vec<Opinion>, u64) {
        let mut out = vec![0u64; snap.len().div_ceil(64)];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut unit = Sweep::Chunk {
            snap,
            start: 0,
            out: &mut out,
        };
        source(&mut unit, rule, &mut rng);
        let next = PackedSnapshot::from_words(out, snap.len()).expect("no bit past n");
        (next.opinions().collect(), rng.next_u64())
    }

    fn random_snapshot(n: usize, blue: f64, seed: u64) -> (Vec<Opinion>, PackedSnapshot) {
        let mut rng = StdRng::seed_from_u64(seed);
        let opinions: Vec<Opinion> = (0..n)
            .map(|_| {
                if rng.gen_bool(blue) {
                    Opinion::Blue
                } else {
                    Opinion::Red
                }
            })
            .collect();
        let snap = PackedSnapshot::from_opinions(&opinions);
        (opinions, snap)
    }

    /// A chunk swept with the draw-ahead lane must produce the same
    /// opinions as the scalar sampler from the same starting RNG state —
    /// the chunk half of the batched sampler's bit-identity contract (the
    /// final RNG positions legitimately differ; the engine only takes the
    /// lane where the chunk RNG is dropped afterwards).  Only pure rules
    /// may take it.
    #[test]
    fn lane_chunk_matches_scalar_chunk_on_hash_defined_topologies() {
        use bo3_graph::{ImplicitGnp, ImplicitSbm};
        let n = 300;
        let (_, snap) = random_snapshot(n, 0.4, 8);
        fn assert_lane_matches_scalar<U: UpdateRule, F: Topology>(
            rule: U,
            family: &F,
            spec: PairHashSpec,
            snap: &PackedSnapshot,
        ) {
            let (lane, _) = chunk(rule, snap, 77, |unit, rule, rng| {
                unit.run(rule, &mut NeighbourLane::new(spec), rng);
            });
            let (scalar, _) = chunk(rule, snap, 77, |unit, rule, rng| {
                unit.run(
                    rule,
                    &mut Sampler {
                        family,
                        complete: false,
                    },
                    rng,
                );
            });
            assert_eq!(lane, scalar, "diverged on {}", family.label());
        }
        let gnps: Vec<_> = [0.05, 0.3, 0.5, 0.9]
            .iter()
            .map(|&p| ImplicitGnp::new(n, p, 17).unwrap())
            .collect();
        let sbm = ImplicitSbm::new(n, 4, 0.6, 0.15, 19).unwrap();
        for kind in [
            ProtocolSpec::Voter,
            ProtocolSpec::BestOfThree,
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::KeepOwn,
            },
            ProtocolSpec::BestOfK {
                k: 5,
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::BestOfK {
                k: 6,
                tie_rule: TieRule::KeepOwn,
            },
        ] {
            with_rule!(kind, |rule| {
                assert!(pure(rule), "{kind:?} must take the lane");
                for gnp in &gnps {
                    assert_lane_matches_scalar(rule, gnp, gnp.pair_hash_spec(), &snap);
                }
                assert_lane_matches_scalar(rule, &sbm, sbm.pair_hash_spec(), &snap);
            });
        }
        // Coin rules and local majority must never be offered the lane.
        for kind in [
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::BestOfK {
                k: 4,
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::LocalMajority {
                tie_rule: TieRule::KeepOwn,
            },
        ] {
            with_rule!(kind, |rule| assert!(!pure(rule), "{kind:?}"));
        }
    }

    /// Lane totals must equal the scalar sampler's on a counting stream,
    /// plus a sane occupancy once recorded.
    #[test]
    fn lane_metering_matches_scalar_metering_totals() {
        use bo3_graph::ImplicitGnp;
        let n = 256;
        let topo = ImplicitGnp::new(n, 0.3, 23).unwrap();
        let snap = PackedSnapshot::all_red(n);

        let mut lane_out = vec![0u64; n.div_ceil(64)];
        let mut lane_unit = Sweep::Chunk {
            snap: &snap,
            start: 0,
            out: &mut lane_out,
        };
        let mut lane = NeighbourLane::new(topo.pair_hash_spec());
        let updated = lane_unit.run(Fixed::<3>, &mut lane, &mut StdRng::seed_from_u64(5));
        let lane = SamplerWork::lane(&lane, 3 * updated);

        let mut scalar_out = vec![0u64; n.div_ceil(64)];
        let mut scalar_unit = Sweep::Chunk {
            snap: &snap,
            start: 0,
            out: &mut scalar_out,
        };
        let scalar = SamplerWork::counted(3, &mut StdRng::seed_from_u64(5), |rng| {
            scalar_unit.run(
                Fixed::<3>,
                &mut Sampler {
                    family: topo,
                    complete: false,
                },
                rng,
            )
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

    /// A synchronous chunk takes its popcount only for local majority on a
    /// source that answers from it — the sampler over the complete graph —
    /// so a materialised row walk never pays `n / 64` words per chunk.
    #[test]
    fn chunk_popcount_feeds_only_the_complete_sampler() {
        struct Probe {
            counts: bool,
            seen: Vec<usize>,
        }
        impl Source for Probe {
            fn counts_blues(&self) -> bool {
                self.counts
            }
            fn sampled_blues<R: RngCore + ?Sized>(
                &mut self,
                _: &PackedSnapshot,
                _: usize,
                _: usize,
                _: &mut R,
            ) -> usize {
                unreachable!("local majority reads rows")
            }
            fn row_blues(&mut self, _: &PackedSnapshot, blues: usize, _: usize) -> (usize, usize) {
                self.seen.push(blues);
                (0, 1)
            }
        }
        let (_, snap) = random_snapshot(200, 0.5, 3);
        assert!(snap.blue_count() > 0);
        for counts in [false, true] {
            let mut probe = Probe {
                counts,
                seen: Vec::new(),
            };
            chunk(Local(TieRule::KeepOwn), &snap, 1, |unit, rule, rng| {
                unit.run(rule, &mut probe, rng);
            });
            let expected = if counts { snap.blue_count() } else { 0 };
            assert_eq!(probe.seen, vec![expected; 200], "counts_blues = {counts}");
        }
        let graph = generators::complete(5);
        let complete = bo3_graph::Complete::new(5).unwrap();
        assert!(Sampler {
            family: complete,
            complete: true
        }
        .counts_blues());
        assert!(!Sampler {
            family: bo3_graph::CsrTopology::new(&graph),
            complete: false
        }
        .counts_blues());
    }

    /// Every route a chunk of a materialised graph can take, with the
    /// stream position after it: the gather (pure rules only), the sampler
    /// over `CsrTopology` (what the engine runs otherwise), and the sampler
    /// over the closed form the graph materialises, if any.
    fn chunk_routes<U: UpdateRule>(
        rule: U,
        graph: &CsrGraph,
        closed: Option<&bo3_graph::BuiltTopology>,
        snap: &PackedSnapshot,
    ) -> Vec<(&'static str, (Vec<Opinion>, u64))> {
        use bo3_graph::BuiltTopology;
        fn sampled<U: UpdateRule, F: Topology>(
            rule: U,
            family: F,
            complete: bool,
            snap: &PackedSnapshot,
        ) -> (Vec<Opinion>, u64) {
            chunk(rule, snap, 33, |unit, rule, rng| {
                unit.run(rule, &mut Sampler { family, complete }, rng);
            })
        }
        let mut routes = vec![(
            "sampled CsrTopology",
            sampled(rule, bo3_graph::CsrTopology::new(graph), false, snap),
        )];
        if U::PURE {
            routes.push((
                "gather",
                chunk(rule, snap, 33, |unit, rule, rng| {
                    gather(rule, graph, unit, rng);
                }),
            ));
        }
        match closed {
            Some(BuiltTopology::Complete(k)) => {
                routes.push(("sampled Complete", sampled(rule, *k, true, snap)))
            }
            Some(BuiltTopology::CompleteBipartite(k)) => {
                routes.push(("sampled CompleteBipartite", sampled(rule, *k, false, snap)))
            }
            _ => {}
        }
        routes
    }

    /// One order sweep of `order` over a copy of `snap`, from `seed`: the
    /// final opinions and the stream's next draw after it.
    fn order_sweep(
        snap: &PackedSnapshot,
        order: &[usize],
        seed: u64,
        unit: impl FnOnce(&mut Sweep<'_>, &mut StdRng),
    ) -> (Vec<Opinion>, u64) {
        let mut live = snap.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        unit(
            &mut Sweep::Order {
                order,
                live: &mut live,
            },
            &mut rng,
        );
        (live.opinions().collect(), rng.next_u64())
    }

    /// The gather over an order sweep must leave the same opinions and the
    /// same stream position as the order sweep over `CsrTopology`, which
    /// reads the live state one vertex at a time.  The order's length is
    /// not a multiple of `BATCH`, and the graph is dense enough that most
    /// vertices of a block have a neighbour decided earlier in it.
    #[test]
    fn order_gather_matches_the_sampled_order_sweep() {
        use rand::seq::SliceRandom;
        let n = 2 * BATCH + 44;
        let graph = generators::erdos_renyi_gnp(n, 0.2, &mut StdRng::seed_from_u64(4)).unwrap();
        let (_, snap) = random_snapshot(n, 0.45, 6);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut StdRng::seed_from_u64(5));
        for kind in [
            ProtocolSpec::Voter,
            ProtocolSpec::BestOfThree,
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::KeepOwn,
            },
            ProtocolSpec::BestOfK {
                k: 5,
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::BestOfK {
                k: 6,
                tie_rule: TieRule::KeepOwn,
            },
        ] {
            with_rule!(kind, |rule| {
                assert!(pure(rule), "{kind:?} must take the gather");
                let sampled = order_sweep(&snap, &order, 9, |sweep, rng| {
                    let family = bo3_graph::CsrTopology::new(&graph);
                    let updated = sweep.run(
                        rule,
                        &mut Sampler {
                            family,
                            complete: false,
                        },
                        rng,
                    );
                    assert_eq!(updated, n);
                });
                let gathered = order_sweep(&snap, &order, 9, |sweep, rng| {
                    assert_eq!(gather(rule, &graph, sweep, rng), n);
                });
                assert_ne!(sampled.0, snap.opinions().collect::<Vec<_>>());
                assert_eq!(gathered, sampled, "{kind:?}");
            });
        }
        // Coin rules and local majority must never be offered the gather.
        for kind in [
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::BestOfK {
                k: 4,
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::LocalMajority {
                tie_rule: TieRule::KeepOwn,
            },
        ] {
            with_rule!(kind, |rule| assert!(!pure(rule), "{kind:?}"));
        }
    }

    /// A later vertex of an order block reads an earlier one's new opinion:
    /// Voter on `K_2` in the order `[0, 1]` from (blue, red) copies red
    /// into 0, then 0's new red into 1, whatever the draws.  A gather that
    /// read the block's state before deciding it would end (red, blue).
    #[test]
    fn order_gather_reads_earlier_decisions_of_its_block() {
        let graph = generators::complete(2);
        let snap = PackedSnapshot::from_opinions(&[Opinion::Blue, Opinion::Red]);
        let (after, _) = order_sweep(&snap, &[0, 1], 0, |sweep, rng| {
            gather(Fixed::<1>, &graph, sweep, rng);
        });
        assert_eq!(after, [Opinion::Red, Opinion::Red]);
    }

    /// Every kernel route must consume the same RNG stream and produce the
    /// same opinion as the corresponding `dyn` protocol update — the
    /// bit-compatibility half of the determinism contract.  Run on an
    /// Erdős–Rényi graph, a complete graph and a complete bipartite graph,
    /// through every route a materialised graph's chunk can take: the
    /// gather for pure rules, the sampler over `CsrTopology`, and the
    /// sampler over the closed form it materialises (the popcount, for
    /// local majority on `Complete`).
    #[test]
    fn kernels_match_dyn_updates_draw_for_draw() {
        use bo3_graph::{BuiltTopology, CompleteBipartite};
        let bipartite = CompleteBipartite::new(70, 90).unwrap();
        let graphs = vec![
            (
                generators::erdos_renyi_gnp(180, 0.2, &mut StdRng::seed_from_u64(1)).unwrap(),
                None,
            ),
            (
                generators::complete(150),
                Some(BuiltTopology::Complete(
                    bo3_graph::Complete::new(150).unwrap(),
                )),
            ),
            (
                bo3_graph::topology::materialize(&bipartite).unwrap(),
                Some(BuiltTopology::CompleteBipartite(bipartite)),
            ),
        ];
        for (g, closed) in &graphs {
            let (opinions, snap) = random_snapshot(g.num_vertices(), 0.45, 2);
            let protocols = [
                ProtocolSpec::Voter,
                ProtocolSpec::BestOfTwo {
                    tie_rule: TieRule::Random,
                },
                ProtocolSpec::BestOfTwo {
                    tie_rule: TieRule::KeepOwn,
                },
                ProtocolSpec::BestOfThree,
                ProtocolSpec::BestOfK {
                    k: 6,
                    tie_rule: TieRule::KeepOwn,
                },
                ProtocolSpec::BestOfK {
                    k: 4,
                    tie_rule: TieRule::Random,
                },
                ProtocolSpec::LocalMajority {
                    tie_rule: TieRule::Random,
                },
            ];
            for kind in protocols {
                let mut dyn_out = Vec::with_capacity(g.num_vertices());
                let mut dyn_rng = StdRng::seed_from_u64(33);
                for v in g.vertices() {
                    let ctx = UpdateContext {
                        vertex: v,
                        current: opinions[v],
                        previous: &snap,
                        graph: g,
                    };
                    dyn_out.push(kind.update(&ctx, &mut dyn_rng));
                }
                let after_dyn = dyn_rng.next_u64();
                let routes = with_rule!(kind, |rule| chunk_routes(rule, g, closed.as_ref(), &snap));
                let pure = with_rule!(kind, |rule| pure(rule));
                assert_eq!(routes.len(), 1 + pure as usize + closed.is_some() as usize);
                for (route, (kernel_out, after_kernel)) in routes {
                    assert_eq!(
                        kernel_out, dyn_out,
                        "{kind:?} via {route} diverged from dyn path"
                    );
                    // Both paths must have consumed the same amount of randomness.
                    assert_eq!(
                        after_kernel, after_dyn,
                        "{kind:?} via {route} consumed a different stream length"
                    );
                }
            }
        }
    }
}
