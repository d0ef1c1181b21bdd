//! Implicit (procedural) graph topologies.
//!
//! The paper's regime is *dense* graphs — exactly where a materialised CSR
//! is most wasteful: `Θ(n²)` adjacency memory caps every experiment near
//! `n ≈ 10⁴–10⁵` while the dynamics only ever ask two questions of the
//! graph ("what is `deg(v)`?" and "give me a uniform random neighbour of
//! `v`").  [`Topology`] abstracts exactly those questions, so a graph can be
//! *procedural*: edges are defined by arithmetic or by a deterministic
//! pairwise hash and never stored.  A million-vertex complete graph is then
//! a few machine words instead of ~4 TB of adjacency.
//!
//! Implementations:
//!
//! * [`Complete`], [`CompleteBipartite`], [`CompleteMultipartite`] — closed
//!   form: neighbour rows are synthesised arithmetically, `O(1)` per sample;
//! * [`ImplicitGnp`] — Erdős–Rényi `G(n, p)` where the edge `{u, v}` exists
//!   iff `h(seed, u, v) < p·2⁶⁴` for a fixed 64-bit mixing hash; neighbour
//!   draws use rejection sampling, expected `1/p` tries, so `O(1)` in the
//!   dense regime the paper targets;
//! * [`ImplicitSbm`] — planted-partition stochastic block model over the
//!   same hash scheme with per-block-pair probabilities `p_in` / `p_out`;
//! * [`CsrTopology`] — adapter over a materialised [`CsrGraph`], so every
//!   existing graph flows through the same interface (and keeps its batched
//!   kernel fast path: its [`Shape`] is [`Shape::Csr`]).
//!
//! # Shapes: how the engine learns which family it runs on
//!
//! [`Topology::shape`] names the concrete family behind a topology as the
//! closed enum [`Shape`].  The dynamics engine reads it once per work unit
//! (a synchronous chunk, an asynchronous round) and hands the concrete
//! family to its kernels, so the `3·n` neighbour draws of a round run on
//! `Complete`, `ImplicitGnp`, … directly — never through a wrapper's
//! per-draw dispatch.  Wrappers answer by forwarding (`&T`,
//! [`crate::BuiltTopology`]) or with [`Shape::Opaque`] when they exist to
//! sample through themselves ([`ScalarSampled`]); an opaque topology runs
//! the generic kernels over the wrapper.  The shape also answers the two
//! questions full-neighbourhood protocols ask: a [`Shape::Complete`] graph
//! lets local majority count blues with one popcount, and a
//! [`Shape::Csr`] row costs only its stored edges, while every other
//! shape's rows cost `Θ(n)` to walk or enumerate.
//!
//! # Determinism contract
//!
//! Implicit topologies are *frozen* random graphs: the edge set is a pure
//! function of the constructor parameters (including the hash `seed`), so
//! two topologies built with the same parameters are the same graph — across
//! runs, threads and machines.  Neighbour sampling consumes the caller's RNG
//! in a defined way:
//!
//! * closed-form topologies ([`Complete`], [`CompleteBipartite`],
//!   [`CompleteMultipartite`]) and [`CsrTopology`] consume **exactly one
//!   `next_u64` per sample**, reduced with the same Lemire multiply-shift
//!   ([`lemire_index`]) as the dynamics kernels and the vendored
//!   `gen_range`, keeping them on the same stream as the materialised path;
//! * hash-defined topologies ([`ImplicitGnp`], [`ImplicitSbm`]) consume one
//!   `next_u64` per rejection-sampling *try* (expected `1/p` tries), which
//!   is still deterministic given the RNG — the draw count depends only on
//!   the frozen edge set and the stream, never on thread count or timing.
//!
//! The `bo3-dynamics` kernels are generic over this trait; their
//! sequential-equals-parallel guarantee derives per-chunk RNG streams
//! *outside* the topology, so both properties compose: a seeded run on any
//! topology is bit-identical at any thread count.
//!
//! # The draw-ahead (batched) sampling contract
//!
//! The hash-defined topologies additionally expose their frozen edge set as
//! a copyable [`PairHashSpec`] (via the inherent
//! [`ImplicitGnp::pair_hash_spec`] / [`ImplicitSbm::pair_hash_spec`]), which
//! the batched sampler in [`crate::lane`] evaluates eight candidates at a
//! time.  A [`crate::NeighbourLane`] over that spec **pre-draws** candidates
//! with sequential `next_u64` calls and consumes them strictly in draw order, so
//! every accepted neighbour and every per-draw try count is *bit-identical*
//! to the scalar rejection loop in `sample_neighbour` here — the only observable
//! difference is the RNG's final position, because a lane may hold
//! drawn-but-unconsumed tail values when it is dropped.  Two rules keep that
//! sound, and observers/checkpoints rely on both:
//!
//! * **consume-in-order** — a lane never reorders or skips draws; try `i`
//!   of a vertex's sample is always the `i`-th pre-drawn candidate;
//! * **discard-tail** — lanes are only used where the RNG stream is scoped
//!   to the work unit (the per-`(seed, round, chunk)` kernel streams and
//!   the per-round async stream) and dropped at its end, so the pre-drawn
//!   tail is never observed by later draws.  Entry points fed a caller's
//!   long-lived RNG keep the scalar sampler, whose final stream position is
//!   part of their contract.

use rand::RngCore;

use crate::csr::{CsrGraph, VertexId};
use crate::error::{GraphError, Result};
use crate::lane::{self, PairHashSpec};
use crate::oracle::{
    concentration_window, DegreeClass, DegreeOracle, DegreeWindow,
    DEGREE_ORACLE_FAILURE_PROBABILITY,
};

/// The concrete family behind a [`Topology`], as [`Topology::shape`]
/// reports it.
///
/// A closed enum, so a caller can match once and run monomorphized code on
/// the family itself instead of going through a wrapper on every call.
/// Each variant borrows the family (`Complete` is a copy: it is one word,
/// and [`CsrTopology`] synthesises it for a materialised complete graph).
/// The shape is all a topology says about itself: [`Topology::as_graph`]
/// and [`Topology::degree_oracle`] are read off it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape<'a> {
    /// The complete graph `K_n`, with the stored [`CsrGraph`] when it is
    /// materialised (`None` for the implicit [`Complete`]).
    Complete(Complete, Option<&'a CsrGraph>),
    /// The complete bipartite graph `K_{a,b}`.
    CompleteBipartite(&'a CompleteBipartite),
    /// The complete multipartite graph.
    CompleteMultipartite(&'a CompleteMultipartite),
    /// Implicit (frozen-hash) `G(n, p)`.
    ImplicitGnp(&'a ImplicitGnp),
    /// Implicit (frozen-hash) planted-partition SBM.
    ImplicitSbm(&'a ImplicitSbm),
    /// A materialised graph that is not complete: its raw CSR arrays.
    Csr(&'a CsrGraph),
    /// A wrapper that must be sampled through itself ([`ScalarSampled`]
    /// hides the batched sampler on purpose).  Nothing is known of its
    /// family: it counts as not complete, with rows that are not cheap.
    Opaque,
}

impl<'a> Shape<'a> {
    /// The shape of a materialised graph: [`Shape::Complete`], carrying the
    /// graph, when every vertex is adjacent to every other one,
    /// [`Shape::Csr`] otherwise.
    ///
    /// Rows are stored sorted, so the complete graph's row of `v` is
    /// `i + (i ≥ v)` entry for entry, and sampling `K_n` arithmetically
    /// draws exactly the neighbours the stored rows would give.
    pub(crate) fn of_graph(graph: &'a CsrGraph) -> Self {
        if graph.is_complete() {
            let n = graph.num_vertices();
            Shape::Complete(Complete { n }, Some(graph))
        } else {
            Shape::Csr(graph)
        }
    }
}

/// Gives up on rejection sampling after this many consecutive misses.
///
/// With edge probability `p`, the chance of `2²⁰` consecutive misses is
/// `(1-p)^(2²⁰)` — zero for every realistic dense parameterisation — so
/// tripping this cap means the vertex is (effectively) isolated and the
/// topology is outside its supported regime; panicking loudly beats looping
/// forever.
pub(crate) const MAX_REJECTIONS: usize = 1 << 20;

/// Maps one `u64` draw onto `[0, n)` with Lemire's multiply-shift reduction.
///
/// Bit-identical to the vendored `rng.gen_range(0..n)` (a fixed-point
/// multiply with no rejection step).  Every topology and every dynamics
/// kernel reduces draws through this single function, which is what keeps
/// the implicit and materialised paths on the same RNG stream.
#[inline(always)]
pub fn lemire_index(draw: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    ((draw as u128 * n as u128) >> 64) as usize
}

/// SplitMix64 finaliser: the avalanching mix shared by the stream-id
/// derivations in `bo3-dynamics` and the pairwise edge hash here.
#[inline(always)]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic pairwise edge hash: a 64-bit value for the unordered
/// pair `{u, v}` under `seed`, uniform and independent across pairs for the
/// purposes of Monte-Carlo work (two chained SplitMix64 finalisation
/// rounds).  Symmetric by construction (the pair is canonicalised).
#[inline(always)]
pub(crate) fn pair_hash(seed: u64, u: VertexId, v: VertexId) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    let lo = mix64(seed.wrapping_add((a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    mix64(lo ^ (b as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Converts an edge probability into the 65-bit threshold compared against
/// [`pair_hash`]: the edge exists iff `hash < p · 2⁶⁴` (so `p = 1` keeps
/// every edge and `p = 0` none).
#[inline]
fn probability_threshold(p: f64) -> u128 {
    debug_assert!((0.0..=1.0).contains(&p));
    ((p * (u64::MAX as f64 + 1.0)) as u128).min(1u128 << 64)
}

/// Materialises any topology's frozen edge set as a [`CsrGraph`] by scanning
/// all `Θ(n²)` pairs through [`Topology::has_edge`] — for tests and
/// small-`n` cross-checks only, so it is guarded by
/// [`crate::DENSE_ANALYSIS_VERTEX_LIMIT`].
pub fn materialize<T: Topology>(topo: &T) -> Result<CsrGraph> {
    let n = topo.n();
    if n > crate::DENSE_ANALYSIS_VERTEX_LIMIT {
        return Err(GraphError::TooLarge {
            n,
            limit: crate::DENSE_ANALYSIS_VERTEX_LIMIT,
            operation: "materializing an implicit topology",
        });
    }
    let mut builder = crate::builder::GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if topo.has_edge(u, v) {
                builder.push_edge(u, v)?;
            }
        }
    }
    builder.build()
}

/// A graph topology as seen by the voting dynamics: vertex count, degrees
/// and uniform neighbour sampling — nothing else.
///
/// Implementations may *synthesise* adjacency (see the module docs for the
/// catalogue and the determinism contract) or wrap a materialised
/// [`CsrGraph`] ([`CsrTopology`]).  The trait is deliberately not
/// object-safe (sampling is generic over the RNG); the dynamics kernels
/// monomorphize over it, so an implicit topology pays no dispatch cost.
///
/// # Routing
///
/// Where a kernel's neighbour reads come from is decided by one question,
/// [`Topology::shape`]: the engine matches on it once per work unit and
/// hands the concrete family to its one per-vertex update as the
/// neighbour source — the sampler over the family, the draw-ahead lane for
/// the hash families, or the adversary over the sampler — or, for
/// [`Shape::Csr`], to the phase-split gather.  `shape` has no default, so
/// a new wrapper has to say whether it forwards to what it wraps or is
/// [`Shape::Opaque`].  The shape also drives the local-majority popcount
/// shortcut and its size limit: past the dense-analysis limit local
/// majority runs only on [`Shape::Csr`] and on an honest
/// [`Shape::Complete`] (see the module docs).  The two questions the
/// engine asks outside the hot loop are answered from the shape too, by
/// provided methods no implementation overrides: [`Topology::as_graph`]
/// (the stored graph of [`Shape::Csr`] or of a materialised
/// [`Shape::Complete`]) and [`Topology::degree_oracle`] (the implicit
/// families' own oracles).
pub trait Topology: Sync {
    /// The concrete family behind this topology (see [`Shape`]).  Every
    /// route must sample exactly like [`Topology::sample_neighbour`] on
    /// `self` — a forwarding wrapper returns the wrapped topology's shape,
    /// one that must sample through itself returns [`Shape::Opaque`].
    fn shape(&self) -> Shape<'_>;

    /// Number of vertices (ids are always `0..n`).
    fn n(&self) -> usize;

    /// Degree of `v`.
    ///
    /// Closed-form topologies answer in `O(1)`; hash-defined topologies
    /// ([`ImplicitGnp`], [`ImplicitSbm`]) must *count* their frozen edge
    /// set, which is `Θ(n)` per call — fine for diagnostics, not for hot
    /// loops (the sampling kernels never call it).
    fn degree(&self, v: VertexId) -> usize;

    /// Whether the undirected edge `{u, v}` is present (`false` for `u == v`
    /// and out-of-range ids).
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool;

    /// Samples one uniform random neighbour of `v` (with replacement across
    /// calls), consuming `rng` as the module-level determinism contract
    /// describes.
    fn sample_neighbour<R: RngCore + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId;

    /// Calls `f` once per neighbour of `v`.
    ///
    /// Materialised and closed-form topologies iterate their row directly;
    /// hash-defined topologies scan all `n - 1` candidate endpoints, so a
    /// full-neighbourhood protocol (local majority) on them is `Θ(n)` per
    /// vertex by nature.
    fn for_each_neighbour<F: FnMut(VertexId)>(&self, v: VertexId, f: F);

    /// The materialised [`CsrGraph`] behind this topology, read off its
    /// [`Shape`]: the graph of [`Shape::Csr`] or of a materialised
    /// [`Shape::Complete`].  This is what lets a topology-generic engine
    /// serve the graph-only features (custom `dyn` protocols reading
    /// neighbour rows, realised degree sequences) without a separate
    /// materialised engine; implicit and opaque topologies return `None`.
    fn as_graph(&self) -> Option<&CsrGraph> {
        match self.shape() {
            Shape::Complete(_, graph) => graph,
            Shape::Csr(graph) => Some(graph),
            _ => None,
        }
    }

    /// The degree oracle, read off the [`Shape`]: what this topology knows
    /// about its degree sequence *without reading it* — exact contiguous
    /// degree classes for the closed-form families, a simultaneous
    /// concentration window (with documented failure probability) for the
    /// hash-defined ones.
    ///
    /// `None` means no oracle: materialised graphs (a stored `K_n`
    /// included) answer degree queries in `O(1)` directly, and an opaque
    /// topology tells nothing of its family.
    fn degree_oracle(&self) -> Option<DegreeOracle> {
        Some(match self.shape() {
            Shape::Complete(k, None) => DegreeOracle::Exact(k.degree_classes()),
            Shape::CompleteBipartite(f) => DegreeOracle::Exact(f.degree_classes()),
            Shape::CompleteMultipartite(f) => DegreeOracle::Exact(f.degree_classes()),
            Shape::ImplicitGnp(f) => DegreeOracle::Window(f.degree_window()),
            Shape::ImplicitSbm(f) => DegreeOracle::Window(f.degree_window()),
            Shape::Complete(_, Some(_)) | Shape::Csr(_) | Shape::Opaque => return None,
        })
    }

    /// Bytes of memory used to *represent* the topology (the quantity the
    /// scale experiment reports against the `Θ(n²)` a CSR would need).
    fn memory_bytes(&self) -> usize;

    /// Short human-readable label for reports and bench ids.
    fn label(&self) -> String;
}

/// Topologies are plain read-only data, so references delegate; this lets
/// simulators own or borrow a topology interchangeably.
impl<T: Topology + ?Sized> Topology for &T {
    fn shape(&self) -> Shape<'_> {
        (**self).shape()
    }

    fn n(&self) -> usize {
        (**self).n()
    }

    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        (**self).has_edge(u, v)
    }

    #[inline(always)]
    fn sample_neighbour<R: RngCore + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId {
        (**self).sample_neighbour(v, rng)
    }

    fn for_each_neighbour<F: FnMut(VertexId)>(&self, v: VertexId, f: F) {
        (**self).for_each_neighbour(v, f)
    }

    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    fn label(&self) -> String {
        (**self).label()
    }
}

/// The complete graph `K_n`, represented by `n` alone.
///
/// The neighbour row of `v` is the identity sequence with a gap at `v`
/// (`row[i] = i + (i ≥ v)`), so a sample is one draw plus one comparison —
/// the same arithmetic the dynamics kernels previously special-cased for
/// materialised complete graphs, now a first-class topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Complete {
    n: usize,
}

impl Complete {
    /// `K_n`; requires `n ≥ 2` so every vertex has a neighbour to sample.
    pub fn new(n: usize) -> Result<Self> {
        if n < 2 {
            return Err(GraphError::InvalidParameter {
                reason: format!("complete topology needs n >= 2 vertices, got {n}"),
            });
        }
        Ok(Complete { n })
    }

    /// The exact degree classes: every vertex has degree `n − 1`.
    pub(crate) fn degree_classes(&self) -> Vec<DegreeClass> {
        vec![DegreeClass {
            degree: self.n - 1,
            vertices: 0..self.n,
        }]
    }
}

impl Topology for Complete {
    fn shape(&self) -> Shape<'_> {
        Shape::Complete(*self, None)
    }

    fn n(&self) -> usize {
        self.n
    }

    fn degree(&self, v: VertexId) -> usize {
        debug_assert!(v < self.n);
        self.n - 1
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u != v && u < self.n && v < self.n
    }

    #[inline(always)]
    fn sample_neighbour<R: RngCore + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId {
        let idx = lemire_index(rng.next_u64(), self.n - 1);
        idx + usize::from(idx >= v)
    }

    fn for_each_neighbour<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        for w in (0..self.n).filter(|&w| w != v) {
            f(w);
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    fn label(&self) -> String {
        format!("implicit_complete(n={})", self.n)
    }
}

/// The complete bipartite graph `K_{a,b}`: vertices `0..a` on the left side,
/// `a..a+b` on the right, every cross pair adjacent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteBipartite {
    a: usize,
    b: usize,
}

impl CompleteBipartite {
    /// `K_{a,b}`; both sides must be non-empty, and `a + b` must fit
    /// `usize`.
    pub fn new(a: usize, b: usize) -> Result<Self> {
        if a == 0 || b == 0 || a.checked_add(b).is_none() {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "complete bipartite topology needs both sides non-empty and a + b \
                     within usize, got ({a}, {b})"
                ),
            });
        }
        Ok(CompleteBipartite { a, b })
    }

    /// The exact degree classes: the left side has degree `b`, the right
    /// side degree `a`.
    pub(crate) fn degree_classes(&self) -> Vec<DegreeClass> {
        vec![
            DegreeClass {
                degree: self.b,
                vertices: 0..self.a,
            },
            DegreeClass {
                degree: self.a,
                vertices: self.a..self.a + self.b,
            },
        ]
    }
}

impl Topology for CompleteBipartite {
    fn shape(&self) -> Shape<'_> {
        Shape::CompleteBipartite(self)
    }

    fn n(&self) -> usize {
        self.a + self.b
    }

    fn degree(&self, v: VertexId) -> usize {
        debug_assert!(v < self.n());
        if v < self.a {
            self.b
        } else {
            self.a
        }
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u < self.n() && v < self.n() && (u < self.a) != (v < self.a)
    }

    #[inline(always)]
    fn sample_neighbour<R: RngCore + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId {
        if v < self.a {
            self.a + lemire_index(rng.next_u64(), self.b)
        } else {
            lemire_index(rng.next_u64(), self.a)
        }
    }

    fn for_each_neighbour<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        let range = if v < self.a {
            self.a..self.n()
        } else {
            0..self.a
        };
        for w in range {
            f(w);
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    fn label(&self) -> String {
        format!("implicit_bipartite({},{})", self.a, self.b)
    }
}

/// The complete multipartite graph: vertices are grouped into blocks and
/// every pair in *different* blocks is adjacent.  `K_{a,b}` is the two-block
/// special case; the Turán graphs are the balanced ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteMultipartite {
    /// Block boundary prefix sums: block `i` holds ids `offsets[i]..offsets[i+1]`.
    offsets: Vec<usize>,
}

impl CompleteMultipartite {
    /// Builds the complete multipartite topology over the given block sizes.
    /// Requires at least two blocks, all non-empty, so no vertex is isolated,
    /// and a vertex count within `usize`.
    pub fn new(block_sizes: &[usize]) -> Result<Self> {
        if block_sizes.len() < 2 {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "complete multipartite topology needs >= 2 blocks, got {}",
                    block_sizes.len()
                ),
            });
        }
        let mut offsets = Vec::with_capacity(block_sizes.len() + 1);
        offsets.push(0usize);
        for (i, &s) in block_sizes.iter().enumerate() {
            let Some(end) = offsets[i].checked_add(s).filter(|_| s > 0) else {
                return Err(GraphError::InvalidParameter {
                    reason: format!("block {i} is empty or ends past usize::MAX vertices"),
                });
            };
            offsets.push(end);
        }
        Ok(CompleteMultipartite { offsets })
    }

    /// The block `(start, size)` containing vertex `v`.
    #[inline]
    fn block_of(&self, v: VertexId) -> (usize, usize) {
        debug_assert!(v < self.n());
        let i = self.offsets.partition_point(|&o| o <= v) - 1;
        (self.offsets[i], self.offsets[i + 1] - self.offsets[i])
    }

    /// The exact degree classes: one per block, of degree `n` minus the
    /// block's size.
    pub(crate) fn degree_classes(&self) -> Vec<DegreeClass> {
        let n = self.n();
        self.offsets
            .windows(2)
            .map(|w| DegreeClass {
                degree: n - (w[1] - w[0]),
                vertices: w[0]..w[1],
            })
            .collect()
    }
}

impl Topology for CompleteMultipartite {
    fn shape(&self) -> Shape<'_> {
        Shape::CompleteMultipartite(self)
    }

    fn n(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    fn degree(&self, v: VertexId) -> usize {
        let (_, size) = self.block_of(v);
        self.n() - size
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u >= self.n() || v >= self.n() || u == v {
            return false;
        }
        self.block_of(u).0 != self.block_of(v).0
    }

    #[inline(always)]
    fn sample_neighbour<R: RngCore + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId {
        let (start, size) = self.block_of(v);
        let idx = lemire_index(rng.next_u64(), self.n() - size);
        if idx < start {
            idx
        } else {
            idx + size
        }
    }

    fn for_each_neighbour<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        let (start, size) = self.block_of(v);
        for w in (0..start).chain(start + size..self.n()) {
            f(w);
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.offsets.len() * std::mem::size_of::<usize>()
    }

    fn label(&self) -> String {
        format!(
            "implicit_multipartite(blocks={},n={})",
            self.offsets.len() - 1,
            self.n()
        )
    }
}

/// Implicit Erdős–Rényi `G(n, p)`: the edge `{u, v}` exists iff the
/// deterministic pairwise hash of `(seed, u, v)` falls below `p·2⁶⁴`.
///
/// This is a *frozen* random graph — the same `(n, p, seed)` always names
/// the same edge set — represented in a few machine words.  Neighbour
/// sampling is rejection sampling over the `n - 1` candidate endpoints
/// (expected `1/p` tries, so `O(1)` in the paper's dense regime); degrees
/// are `Binomial(n-1, p)` exactly as in the materialised generator.
///
/// Intended for the dense regime (`p` bounded away from `0`): with tiny `p`
/// a vertex can be isolated, in which case sampling panics after
/// `2²⁰` rejections rather than spinning forever.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImplicitGnp {
    n: usize,
    p: f64,
    seed: u64,
    threshold: u128,
}

impl ImplicitGnp {
    /// Implicit `G(n, p)` frozen under `seed`; requires `n ≥ 2` and
    /// `p ∈ (0, 1]` (with `p = 0` every vertex would be isolated).
    pub fn new(n: usize, p: f64, seed: u64) -> Result<Self> {
        if n < 2 {
            return Err(GraphError::InvalidParameter {
                reason: format!("implicit G(n,p) needs n >= 2 vertices, got {n}"),
            });
        }
        if !(p > 0.0 && p <= 1.0) {
            return Err(GraphError::InvalidParameter {
                reason: format!("edge probability must lie in (0, 1], got {p}"),
            });
        }
        Ok(ImplicitGnp {
            n,
            p,
            seed,
            threshold: probability_threshold(p),
        })
    }

    /// The edge probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Expected degree `p·(n − 1)`.
    pub fn expected_degree(&self) -> f64 {
        self.p * (self.n - 1) as f64
    }

    /// Materialises the frozen edge set — see the free [`materialize`].
    pub fn materialize(&self) -> Result<CsrGraph> {
        materialize(self)
    }

    /// The copyable frozen edge-set description the batched sampler
    /// ([`crate::NeighbourLane`]) and the mask-based row walks evaluate.
    /// See the module-level draw-ahead contract for when a caller may
    /// batch over it.
    #[inline]
    pub fn pair_hash_spec(&self) -> PairHashSpec {
        PairHashSpec::gnp(self.n, self.p, self.seed, self.threshold)
    }

    /// The degree window: degrees are `Binomial(n − 1, p)`, of mean
    /// `p(n − 1)` and variance `p(1 − p)(n − 1)`.
    pub(crate) fn degree_window(&self) -> DegreeWindow {
        let trials = (self.n - 1) as f64;
        concentration_window(
            self.n,
            self.p * trials,
            self.p * (1.0 - self.p) * trials,
            DEGREE_ORACLE_FAILURE_PROBABILITY,
        )
    }
}

impl Topology for ImplicitGnp {
    fn shape(&self) -> Shape<'_> {
        Shape::ImplicitGnp(self)
    }

    fn n(&self) -> usize {
        self.n
    }

    fn degree(&self, v: VertexId) -> usize {
        debug_assert!(v < self.n);
        lane::row_degree(&self.pair_hash_spec(), v)
    }

    #[inline(always)]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u != v && u < self.n && v < self.n && (pair_hash(self.seed, u, v) as u128) < self.threshold
    }

    /// Rejection sampling: one `next_u64` per try, expected `1/p` tries.
    #[inline(always)]
    fn sample_neighbour<R: RngCore + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId {
        for _ in 0..MAX_REJECTIONS {
            let idx = lemire_index(rng.next_u64(), self.n - 1);
            let w = idx + usize::from(idx >= v);
            if (pair_hash(self.seed, v, w) as u128) < self.threshold {
                return w;
            }
        }
        self.pair_hash_spec().isolated_panic(v)
    }

    fn for_each_neighbour<F: FnMut(VertexId)>(&self, v: VertexId, f: F) {
        lane::row_for_each(&self.pair_hash_spec(), v, f)
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    fn label(&self) -> String {
        format!("implicit_gnp(n={},p={})", self.n, self.p)
    }
}

/// Implicit planted-partition stochastic block model: `blocks` equal blocks
/// of `n / blocks` vertices; the edge `{u, v}` exists iff the pairwise hash
/// falls below `p_in·2⁶⁴` (same block) or `p_out·2⁶⁴` (different blocks).
///
/// The same frozen-hash scheme as [`ImplicitGnp`], so an SBM phase-transition
/// sweep at `n = 10⁶` needs no adjacency at all.  Vertices are numbered
/// block by block (as in the materialised `planted_partition` generator), so
/// `PrefixBlue`-style initial conditions paint whole communities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImplicitSbm {
    n: usize,
    block_size: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
    threshold_in: u128,
    threshold_out: u128,
}

impl ImplicitSbm {
    /// Implicit planted partition frozen under `seed`.  Requires `n ≥ 2`,
    /// `blocks ≥ 1` dividing `n`, probabilities in `[0, 1]`, and a positive
    /// probability on at least one block-pair class that actually *exists*
    /// — with a single block only `p_in` reaches any pair, and with
    /// singleton blocks only `p_out` does — otherwise every vertex would be
    /// certainly isolated and sampling could never terminate.
    pub fn new(n: usize, blocks: usize, p_in: f64, p_out: f64, seed: u64) -> Result<Self> {
        if n < 2 {
            return Err(GraphError::InvalidParameter {
                reason: format!("implicit SBM needs n >= 2 vertices, got {n}"),
            });
        }
        if blocks == 0 || !n.is_multiple_of(blocks) {
            return Err(GraphError::InvalidParameter {
                reason: format!("blocks ({blocks}) must be positive and divide n ({n})"),
            });
        }
        for (name, p) in [("p_in", p_in), ("p_out", p_out)] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(GraphError::InvalidParameter {
                    reason: format!("{name} must lie in [0, 1], got {p}"),
                });
            }
        }
        let block_size = n / blocks;
        let within_reachable = block_size > 1 && p_in > 0.0;
        let across_reachable = blocks > 1 && p_out > 0.0;
        if !within_reachable && !across_reachable {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "no pair has positive edge probability ({blocks} blocks of {block_size}, \
                     p_in = {p_in}, p_out = {p_out}): every vertex would be isolated"
                ),
            });
        }
        Ok(ImplicitSbm {
            n,
            block_size: n / blocks,
            p_in,
            p_out,
            seed,
            threshold_in: probability_threshold(p_in),
            threshold_out: probability_threshold(p_out),
        })
    }

    /// The block index of vertex `v` (vertices are numbered block by block).
    #[inline]
    pub fn block_of(&self, v: VertexId) -> usize {
        debug_assert!(v < self.n);
        v / self.block_size
    }

    /// Expected degree `(s−1)·p_in + (n−s)·p_out` where `s` is the block size.
    pub fn expected_degree(&self) -> f64 {
        (self.block_size - 1) as f64 * self.p_in + (self.n - self.block_size) as f64 * self.p_out
    }

    /// Materialises the frozen edge set — see the free [`materialize`].
    pub fn materialize(&self) -> Result<CsrGraph> {
        materialize(self)
    }

    /// The copyable frozen edge-set description the batched sampler
    /// ([`crate::NeighbourLane`]) and the mask-based row walks evaluate.
    /// See the module-level draw-ahead contract for when a caller may
    /// batch over it.
    #[inline]
    pub fn pair_hash_spec(&self) -> PairHashSpec {
        PairHashSpec::sbm(
            self.n,
            self.block_size,
            self.p_in,
            self.p_out,
            self.seed,
            self.threshold_in,
            self.threshold_out,
        )
    }

    /// The degree window: every vertex's degree is the same independent
    /// sum `Binomial(s − 1, p_in) + Binomial(n − s, p_out)` (equal-size
    /// blocks), so one Bernstein window covers the whole sequence.
    pub(crate) fn degree_window(&self) -> DegreeWindow {
        let within = (self.block_size - 1) as f64;
        let across = (self.n - self.block_size) as f64;
        concentration_window(
            self.n,
            self.expected_degree(),
            within * self.p_in * (1.0 - self.p_in) + across * self.p_out * (1.0 - self.p_out),
            DEGREE_ORACLE_FAILURE_PROBABILITY,
        )
    }
}

impl Topology for ImplicitSbm {
    fn shape(&self) -> Shape<'_> {
        Shape::ImplicitSbm(self)
    }

    fn n(&self) -> usize {
        self.n
    }

    fn degree(&self, v: VertexId) -> usize {
        debug_assert!(v < self.n);
        lane::row_degree(&self.pair_hash_spec(), v)
    }

    #[inline(always)]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v || u >= self.n || v >= self.n {
            return false;
        }
        let threshold = if self.block_of(u) == self.block_of(v) {
            self.threshold_in
        } else {
            self.threshold_out
        };
        (pair_hash(self.seed, u, v) as u128) < threshold
    }

    /// Rejection sampling: one `next_u64` per try, as for [`ImplicitGnp`].
    #[inline(always)]
    fn sample_neighbour<R: RngCore + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId {
        for _ in 0..MAX_REJECTIONS {
            let idx = lemire_index(rng.next_u64(), self.n - 1);
            let w = idx + usize::from(idx >= v);
            if self.has_edge(v, w) {
                return w;
            }
        }
        self.pair_hash_spec().isolated_panic(v)
    }

    fn for_each_neighbour<F: FnMut(VertexId)>(&self, v: VertexId, f: F) {
        lane::row_for_each(&self.pair_hash_spec(), v, f)
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    fn label(&self) -> String {
        format!(
            "implicit_sbm(n={},blocks={},p_in={},p_out={})",
            self.n,
            self.n / self.block_size,
            self.p_in,
            self.p_out
        )
    }
}

/// Adapter presenting a materialised [`CsrGraph`] as a [`Topology`], so
/// every existing graph flows through the same interface.  Its shape is
/// [`Shape::Csr`], which hands the dynamics the raw CSR arrays for the
/// phase-split gather (pure sampling rules on honest units of either
/// schedule); every other route samples through this adapter.  A complete
/// graph reports [`Shape::Complete`] instead, whose rows the kernels
/// synthesise instead of reading; it carries the graph, so
/// [`Topology::as_graph`] answers alike for both.
#[derive(Debug, Clone, Copy)]
pub struct CsrTopology<'g> {
    graph: &'g CsrGraph,
}

impl<'g> CsrTopology<'g> {
    /// Wraps a materialised graph (no validation; sampling a neighbour of an
    /// isolated vertex panics in debug builds).
    pub fn new(graph: &'g CsrGraph) -> Self {
        CsrTopology { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }
}

impl Topology for CsrTopology<'_> {
    fn shape(&self) -> Shape<'_> {
        Shape::of_graph(self.graph)
    }

    fn n(&self) -> usize {
        self.graph.num_vertices()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.graph.degree(v)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.graph.has_edge(u, v)
    }

    #[inline(always)]
    fn sample_neighbour<R: RngCore + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId {
        let row = self.graph.neighbours(v);
        debug_assert!(!row.is_empty(), "isolated vertex {v} in CsrTopology");
        row[lemire_index(rng.next_u64(), row.len())] as VertexId
    }

    fn for_each_neighbour<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        for &w in self.graph.neighbours(v) {
            f(w as VertexId);
        }
    }

    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
    }

    fn label(&self) -> String {
        format!(
            "csr(n={},m={})",
            self.graph.num_vertices(),
            self.graph.num_edges()
        )
    }
}

/// A wrapper that hides the inner topology's family, forcing every engine
/// path back onto the strict scalar sampler: its shape is
/// [`Shape::Opaque`], so the engine samples through the wrapper and never
/// takes the batched lane (or the batched CSR kernel).
///
/// Because the batched lane consumes the RNG stream in scalar order, an
/// engine over `ScalarSampled<T>` must produce **bit-identical** dynamics
/// to the same engine over `T` — that equivalence is pinned by the
/// cross-crate `lane_sampler` tests, and the throughput gap between the
/// two is what the `e20_sampler` bench gates on (a self-relative floor
/// that holds on any machine, unlike absolute updates/s).
///
/// Being [`Shape::Opaque`], it also reports neither a graph
/// ([`Topology::as_graph`]) nor a degree oracle
/// ([`Topology::degree_oracle`]), whatever it wraps: custom `dyn`
/// protocols and degree-ranked starts need the bare topology, and an
/// engine over the wrapper cannot check a wrapped graph for isolated
/// vertices.
#[derive(Debug, Clone, Copy)]
pub struct ScalarSampled<T>(pub T);

impl<T: Topology> Topology for ScalarSampled<T> {
    /// Always [`Shape::Opaque`] — this is the whole point of the wrapper.
    fn shape(&self) -> Shape<'_> {
        Shape::Opaque
    }

    fn n(&self) -> usize {
        self.0.n()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.0.degree(v)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.0.has_edge(u, v)
    }

    #[inline(always)]
    fn sample_neighbour<R: RngCore + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId {
        self.0.sample_neighbour(v, rng)
    }

    fn for_each_neighbour<F: FnMut(VertexId)>(&self, v: VertexId, f: F) {
        self.0.for_each_neighbour(v, f)
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }

    fn label(&self) -> String {
        format!("scalar({})", self.0.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The free [`materialize`], unwrapped for test-sized topologies.
    fn materialize_via_has_edge<T: Topology>(topo: &T) -> CsrGraph {
        materialize(topo).unwrap()
    }

    /// Checks the three views every topology must keep consistent:
    /// `degree` == row length, `for_each_neighbour` visits exactly the
    /// `has_edge` row, and sampled neighbours lie in that row.
    fn check_consistency<T: Topology>(topo: &T, seed: u64) {
        let g = materialize_via_has_edge(topo);
        let mut rng = StdRng::seed_from_u64(seed);
        for v in 0..topo.n() {
            assert_eq!(topo.degree(v), g.degree(v), "degree of {v}");
            let mut row = Vec::new();
            topo.for_each_neighbour(v, |w| row.push(w as u32));
            row.sort_unstable();
            assert_eq!(row, g.neighbours(v), "row of {v}");
            if g.degree(v) > 0 {
                for _ in 0..8 {
                    let w = topo.sample_neighbour(v, &mut rng);
                    assert!(g.has_edge(v, w), "sampled non-neighbour {w} of {v}");
                }
            }
        }
    }

    #[test]
    fn constructors_validate_parameters() {
        assert!(Complete::new(1).is_err());
        assert!(CompleteBipartite::new(0, 4).is_err());
        assert!(CompleteMultipartite::new(&[5]).is_err());
        assert!(CompleteMultipartite::new(&[3, 0, 2]).is_err());
        // A vertex count past `usize` is refused, not wrapped to a small n.
        let half = 1usize << (usize::BITS - 1);
        for err in [
            CompleteBipartite::new(half, half + 6).unwrap_err(),
            CompleteBipartite::new(usize::MAX, 1).unwrap_err(),
            CompleteMultipartite::new(&[half, half, 4]).unwrap_err(),
            CompleteMultipartite::new(&[usize::MAX, 1]).unwrap_err(),
        ] {
            assert!(
                matches!(err, GraphError::InvalidParameter { .. }),
                "{err:?}"
            );
        }
        assert_eq!(
            CompleteBipartite::new(usize::MAX - 1, 1).unwrap().n(),
            usize::MAX
        );
        assert_eq!(
            CompleteMultipartite::new(&[half, half - 1]).unwrap().n(),
            usize::MAX
        );
        assert!(ImplicitGnp::new(1, 0.5, 0).is_err());
        assert!(ImplicitGnp::new(10, 0.0, 0).is_err());
        assert!(ImplicitGnp::new(10, 1.5, 0).is_err());
        assert!(ImplicitGnp::new(10, f64::NAN, 0).is_err());
        assert!(ImplicitSbm::new(10, 3, 0.5, 0.1, 0).is_err());
        assert!(ImplicitSbm::new(10, 2, 0.0, 0.0, 0).is_err());
        assert!(ImplicitSbm::new(10, 2, -0.1, 0.5, 0).is_err());
        // Certainly-empty block configurations: a single block reaches no
        // pair through p_out, singleton blocks none through p_in.
        assert!(ImplicitSbm::new(10, 1, 0.0, 0.5, 0).is_err());
        assert!(ImplicitSbm::new(10, 10, 0.5, 0.0, 0).is_err());
        // ...but the corresponding reachable configurations are fine.
        assert!(ImplicitSbm::new(10, 1, 0.5, 0.0, 0).is_ok());
        assert!(ImplicitSbm::new(10, 10, 0.0, 0.5, 0).is_ok());
    }

    #[test]
    fn only_hash_defined_topologies_report_expensive_rows() {
        // Rows are expensive exactly for the hash-defined and opaque
        // shapes; the implicit families' shapes are pinned below.  A
        // materialised graph has stored rows, complete or not.
        let k5 = generators::complete(5);
        let k5_shape = Shape::Complete(Complete::new(5).unwrap(), Some(&k5));
        assert_eq!(CsrTopology::new(&k5).shape(), k5_shape);
        let star = generators::star(5).unwrap();
        assert_eq!(CsrTopology::new(&star).shape(), Shape::Csr(&star));
    }

    #[test]
    fn complete_topology_matches_materialised_complete_graph() {
        let topo = Complete::new(9).unwrap();
        assert_eq!(topo.shape(), Shape::Complete(topo, None));
        assert_eq!(materialize_via_has_edge(&topo), generators::complete(9));
        check_consistency(&topo, 1);
    }

    #[test]
    fn complete_sampling_is_uniform_and_never_self() {
        let topo = Complete::new(11).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 50_000;
        let mut counts = [0usize; 11];
        for _ in 0..trials {
            counts[topo.sample_neighbour(4, &mut rng)] += 1;
        }
        assert_eq!(counts[4], 0, "a vertex must never sample itself");
        let expected = trials as f64 / 10.0;
        for (w, &c) in counts.iter().enumerate() {
            if w != 4 {
                assert!(
                    (c as f64 - expected).abs() < expected * 0.1,
                    "neighbour {w}: {c} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn bipartite_topology_matches_materialised_bipartite_graph() {
        let topo = CompleteBipartite::new(4, 7).unwrap();
        assert_eq!(
            materialize_via_has_edge(&topo),
            generators::complete_bipartite(4, 7).unwrap()
        );
        check_consistency(&topo, 3);
    }

    #[test]
    fn multipartite_topology_is_consistent_and_generalises_bipartite() {
        let topo = CompleteMultipartite::new(&[3, 4, 5]).unwrap();
        assert_eq!(topo.n(), 12);
        assert_eq!(topo.degree(0), 9);
        assert_eq!(topo.degree(5), 8);
        assert_eq!(topo.degree(11), 7);
        assert!(!topo.has_edge(0, 2), "same block");
        assert!(topo.has_edge(0, 3), "different blocks");
        check_consistency(&topo, 4);

        let two = CompleteMultipartite::new(&[4, 7]).unwrap();
        assert_eq!(
            materialize_via_has_edge(&two),
            materialize_via_has_edge(&CompleteBipartite::new(4, 7).unwrap())
        );
    }

    #[test]
    fn implicit_gnp_is_frozen_and_symmetric() {
        let a = ImplicitGnp::new(60, 0.4, 9).unwrap();
        let b = ImplicitGnp::new(60, 0.4, 9).unwrap();
        assert_eq!(a.materialize().unwrap(), b.materialize().unwrap());
        for u in 0..60 {
            for v in 0..60 {
                assert_eq!(a.has_edge(u, v), a.has_edge(v, u), "({u},{v})");
            }
            assert!(!a.has_edge(u, u));
        }
        // A different seed names a different graph (overwhelmingly likely).
        let c = ImplicitGnp::new(60, 0.4, 10).unwrap();
        assert_ne!(a.materialize().unwrap(), c.materialize().unwrap());
    }

    #[test]
    fn implicit_gnp_views_are_consistent() {
        check_consistency(&ImplicitGnp::new(70, 0.5, 11).unwrap(), 5);
    }

    #[test]
    fn implicit_gnp_edge_density_tracks_p() {
        for &p in &[0.2f64, 0.5, 0.8] {
            let topo = ImplicitGnp::new(200, p, 21).unwrap();
            let g = topo.materialize().unwrap();
            let pairs = (200 * 199 / 2) as f64;
            let expected = p * pairs;
            let sd = (pairs * p * (1.0 - p)).sqrt();
            let got = g.num_edges() as f64;
            assert!(
                (got - expected).abs() < 5.0 * sd + 1.0,
                "p={p}: {got} edges vs expected {expected} (sd {sd})"
            );
            assert!((topo.expected_degree() - p * 199.0).abs() < 1e-12);
        }
    }

    #[test]
    fn implicit_gnp_p_one_is_the_complete_graph() {
        let topo = ImplicitGnp::new(40, 1.0, 3).unwrap();
        assert_eq!(topo.materialize().unwrap(), generators::complete(40));
        assert_eq!(topo.degree(7), 39);
    }

    #[test]
    fn implicit_sbm_respects_block_structure() {
        let dense_in = ImplicitSbm::new(60, 3, 1.0, 0.0, 5).unwrap();
        let g = dense_in.materialize().unwrap();
        // p_in = 1, p_out = 0: three disjoint 20-cliques.
        assert_eq!(g.num_edges(), 3 * (20 * 19 / 2));
        assert!(g.has_edge(0, 1) && !g.has_edge(0, 20));
        assert_eq!(dense_in.block_of(19), 0);
        assert_eq!(dense_in.block_of(20), 1);

        check_consistency(&ImplicitSbm::new(48, 2, 0.7, 0.3, 6).unwrap(), 7);
    }

    #[test]
    fn implicit_sbm_densities_track_the_two_probabilities() {
        let topo = ImplicitSbm::new(200, 2, 0.6, 0.1, 8).unwrap();
        let g = topo.materialize().unwrap();
        let mut within = 0usize;
        let mut across = 0usize;
        for (u, v) in g.edges() {
            if topo.block_of(u) == topo.block_of(v) {
                within += 1;
            } else {
                across += 1;
            }
        }
        // Expected within ≈ 2·C(100,2)·0.6 = 5940, across ≈ 100·100·0.1 = 1000.
        assert!(
            within > 3 * across,
            "within={within}, across={across} should be strongly separated"
        );
        let expected = topo.expected_degree();
        assert!((expected - (99.0 * 0.6 + 100.0 * 0.1)).abs() < 1e-12);
    }

    #[test]
    fn csr_topology_delegates_to_the_graph() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = generators::erdos_renyi_gnp(80, 0.3, &mut rng).unwrap();
        let topo = CsrTopology::new(&g);
        assert_eq!(topo.n(), 80);
        assert_eq!(topo.shape(), Shape::Csr(&g));
        assert_eq!(topo.memory_bytes(), g.memory_bytes());
        check_consistency(&topo, 13);
    }

    #[test]
    fn every_family_reports_its_own_shape_and_wrappers_are_opaque() {
        let complete = Complete::new(6).unwrap();
        let bipartite = CompleteBipartite::new(2, 3).unwrap();
        let multipartite = CompleteMultipartite::new(&[2, 3]).unwrap();
        let gnp = ImplicitGnp::new(10, 0.5, 0).unwrap();
        let sbm = ImplicitSbm::new(10, 2, 0.5, 0.2, 0).unwrap();
        assert_eq!(complete.shape(), Shape::Complete(complete, None));
        assert_eq!(bipartite.shape(), Shape::CompleteBipartite(&bipartite));
        assert_eq!(
            multipartite.shape(),
            Shape::CompleteMultipartite(&multipartite)
        );
        assert_eq!(gnp.shape(), Shape::ImplicitGnp(&gnp));
        assert_eq!(sbm.shape(), Shape::ImplicitSbm(&sbm));
        // References forward; the scalar wrapper hides the family.
        assert_eq!((&&gnp).shape(), Shape::ImplicitGnp(&gnp));
        assert_eq!(ScalarSampled(gnp).shape(), Shape::Opaque);
        assert_eq!(ScalarSampled(complete).shape(), Shape::Opaque);
    }

    #[test]
    fn a_materialised_complete_graph_samples_like_the_complete_shape() {
        // Sorted rows make `i + (i >= v)` the stored row lookup, so the
        // synthesised family draws exactly the stored neighbours.
        let g = generators::complete(23);
        let topo = CsrTopology::new(&g);
        let Shape::Complete(k, _) = topo.shape() else {
            panic!("a complete CSR graph must report the complete shape");
        };
        assert_eq!(k, Complete::new(23).unwrap());
        let mut a = StdRng::seed_from_u64(16);
        let mut b = StdRng::seed_from_u64(16);
        for v in (0..23).cycle().take(200) {
            assert_eq!(
                topo.sample_neighbour(v, &mut a),
                k.sample_neighbour(v, &mut b)
            );
        }
    }

    #[test]
    fn csr_topology_sampling_matches_gen_range_stream() {
        // One Lemire-reduced u64 per sample — the same stream the kernels
        // and the vendored gen_range consume.
        use rand::Rng;
        let g = generators::complete(23);
        let topo = CsrTopology::new(&g);
        let mut a = StdRng::seed_from_u64(14);
        let mut b = StdRng::seed_from_u64(14);
        for v in 0..23 {
            let via_topo = topo.sample_neighbour(v, &mut a);
            let via_gen_range = g.neighbour_at(v, b.gen_range(0..g.degree(v)));
            assert_eq!(via_topo, via_gen_range);
        }
    }

    #[test]
    fn csr_sampling_returns_actual_neighbours() {
        let g = generators::cycle(10).unwrap();
        let topo = CsrTopology::new(&g);
        let mut rng = StdRng::seed_from_u64(7);
        for v in g.vertices() {
            for _ in 0..20 {
                let w = topo.sample_neighbour(v, &mut rng);
                assert!(g.has_edge(v, w), "{w} is not a neighbour of {v}");
            }
        }
    }

    #[test]
    fn csr_sampling_is_roughly_uniform_on_star_centre() {
        // Centre of a star has n-1 neighbours; check empirical frequencies.
        let g = generators::star(101).unwrap();
        let topo = CsrTopology::new(&g);
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 100_000;
        let mut counts = vec![0usize; 101];
        for _ in 0..trials {
            counts[topo.sample_neighbour(0, &mut rng)] += 1;
        }
        assert_eq!(counts[0], 0, "centre must never sample itself");
        let expected = trials as f64 / 100.0;
        for &c in &counts[1..] {
            assert!(
                (c as f64 - expected).abs() < expected * 0.25,
                "count {c} vs {expected}"
            );
        }
    }

    #[test]
    fn implicit_memory_is_constant_while_csr_grows() {
        let implicit = Complete::new(1_000_000).unwrap();
        assert!(implicit.memory_bytes() <= 64);
        let gnp = ImplicitGnp::new(1_000_000, 0.5, 0).unwrap();
        assert!(gnp.memory_bytes() <= 64);
        // One word per offset and 4 bytes per arc, past the struct header.
        let g = generators::complete(500);
        assert_eq!(
            CsrTopology::new(&g).memory_bytes(),
            std::mem::size_of::<CsrGraph>() + 501 * std::mem::size_of::<usize>() + 500 * 499 * 4
        );
    }

    #[test]
    fn materialize_refuses_huge_graphs() {
        let big = ImplicitGnp::new(crate::DENSE_ANALYSIS_VERTEX_LIMIT + 1, 0.5, 0).unwrap();
        assert!(matches!(
            big.materialize(),
            Err(GraphError::TooLarge { .. })
        ));
        let big_sbm =
            ImplicitSbm::new(crate::DENSE_ANALYSIS_VERTEX_LIMIT + 2, 2, 0.5, 0.1, 0).unwrap();
        assert!(matches!(
            big_sbm.materialize(),
            Err(GraphError::TooLarge { .. })
        ));
    }

    #[test]
    fn reference_delegation_preserves_behaviour() {
        let topo = Complete::new(10).unwrap();
        let by_ref: &Complete = &topo;
        assert_eq!(by_ref.n(), 10);
        assert_eq!(by_ref.degree(3), 9);
        assert_eq!(by_ref.shape(), topo.shape());
        assert_eq!(by_ref.label(), topo.label());
        let mut a = StdRng::seed_from_u64(15);
        let mut b = StdRng::seed_from_u64(15);
        for _ in 0..5 {
            assert_eq!(
                by_ref.sample_neighbour(2, &mut a),
                topo.sample_neighbour(2, &mut b)
            );
        }
    }

    /// The oracle ground truth: per-vertex degrees through the `Θ(n)` scan
    /// the oracle exists to replace.
    fn scanned_degrees<T: Topology>(topo: &T) -> Vec<usize> {
        (0..topo.n()).map(|v| topo.degree(v)).collect()
    }

    #[test]
    fn exact_oracles_match_the_degree_scan() {
        let complete = Complete::new(9).unwrap();
        let bipartite = CompleteBipartite::new(4, 7).unwrap();
        let multipartite = CompleteMultipartite::new(&[3, 4, 5]).unwrap();
        let check = |oracle: crate::oracle::DegreeOracle, degrees: Vec<usize>| {
            assert!(oracle.is_exact());
            assert_eq!(oracle.n(), degrees.len());
            for (v, &d) in degrees.iter().enumerate() {
                assert_eq!(oracle.degree_bounds(v), (d, d), "vertex {v}");
            }
            let mut sorted = degrees.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let k = (q * (sorted.len() - 1) as f64).floor() as usize;
                assert_eq!(oracle.quantile(q), (sorted[k], sorted[k]), "q={q}");
            }
        };
        check(
            complete.degree_oracle().unwrap(),
            scanned_degrees(&complete),
        );
        check(
            bipartite.degree_oracle().unwrap(),
            scanned_degrees(&bipartite),
        );
        check(
            multipartite.degree_oracle().unwrap(),
            scanned_degrees(&multipartite),
        );
    }

    #[test]
    fn exact_oracle_ranking_matches_a_stable_degree_sort() {
        let topo = CompleteMultipartite::new(&[3, 4, 5]).unwrap();
        let oracle = topo.degree_oracle().unwrap();
        let degrees = scanned_degrees(&topo);
        for highest in [true, false] {
            for count in [0usize, 1, 3, 7, 12] {
                let mut by_deg: Vec<usize> = (0..topo.n()).collect();
                if highest {
                    by_deg.sort_by_key(|&v| std::cmp::Reverse(degrees[v]));
                } else {
                    by_deg.sort_by_key(|&v| degrees[v]);
                }
                let mut expected: Vec<usize> = by_deg[..count].to_vec();
                expected.sort_unstable();
                let mut got: Vec<usize> = oracle
                    .ranked_vertices(count, highest)
                    .into_iter()
                    .flatten()
                    .collect();
                got.sort_unstable();
                assert_eq!(got, expected, "highest={highest} count={count}");
            }
        }
    }

    #[test]
    fn hash_defined_windows_contain_every_realised_degree() {
        let gnp = ImplicitGnp::new(400, 0.4, 7).unwrap();
        let sbm = ImplicitSbm::new(400, 4, 0.6, 0.2, 9).unwrap();
        let check = |oracle: crate::oracle::DegreeOracle, degrees: Vec<usize>| {
            let crate::oracle::DegreeOracle::Window(w) = &oracle else {
                panic!("hash-defined families must report a window oracle");
            };
            assert!(w.failure_probability <= DEGREE_ORACLE_FAILURE_PROBABILITY);
            for (v, &d) in degrees.iter().enumerate() {
                assert!(
                    (w.lo..=w.hi).contains(&d),
                    "vertex {v}: degree {d} outside window [{}, {}]",
                    w.lo,
                    w.hi
                );
            }
            // Ranked queries stay answerable: a canonical prefix.
            assert_eq!(oracle.ranked_vertices(10, true), vec![0..10]);
        };
        check(gnp.degree_oracle().unwrap(), scanned_degrees(&gnp));
        check(sbm.degree_oracle().unwrap(), scanned_degrees(&sbm));
    }

    #[test]
    fn csr_topology_has_a_graph_but_no_oracle() {
        let g = generators::complete(12);
        let topo = CsrTopology::new(&g);
        assert!(topo.degree_oracle().is_none());
        assert_eq!(topo.as_graph().unwrap(), &g);
        assert!(Complete::new(12).unwrap().as_graph().is_none());
        // Reference delegation covers the new hooks too.
        let implicit = Complete::new(12).unwrap();
        let by_ref: &Complete = &implicit;
        assert!(by_ref.as_graph().is_none());
        assert!(by_ref.degree_oracle().unwrap().is_exact());

        // Every wrapper answers both questions from its shape.  Generic
        // callers, so `&T` and `&&T` run their own impls rather than the
        // family's.
        fn graph_of<T: Topology>(topo: &T) -> Option<&CsrGraph> {
            topo.as_graph()
        }
        fn oracle_of<T: Topology>(topo: &T) -> Option<DegreeOracle> {
            topo.degree_oracle()
        }
        // References over an implicit family: no graph, the family's oracle.
        let gnp = ImplicitGnp::new(40, 0.5, 1).unwrap();
        let (gnp_ref, gnp_ref_ref) = (&gnp, &&gnp);
        let window = Some(DegreeOracle::Window(gnp.degree_window()));
        assert!(graph_of(&gnp_ref).is_none() && graph_of(&gnp_ref_ref).is_none());
        assert_eq!(oracle_of(&gnp_ref), window);
        assert_eq!(oracle_of(&gnp_ref_ref), window);
        let complete = Complete::new(12).unwrap();
        let (complete_ref, complete_ref_ref) = (&complete, &&complete);
        let exact = Some(DegreeOracle::Exact(complete.degree_classes()));
        assert!(graph_of(&complete_ref).is_none() && graph_of(&complete_ref_ref).is_none());
        assert_eq!(oracle_of(&complete_ref), exact);
        assert_eq!(oracle_of(&complete_ref_ref), exact);

        // A materialised K_n keeps its graph behind the complete shape, and
        // has no oracle, owned or borrowed.
        let built = crate::BuiltTopology::Materialised(generators::complete(12));
        let built_ref = &built;
        let g = graph_of(&built).expect("a materialised graph");
        assert_eq!(g, &generators::complete(12));
        assert_eq!(built.shape(), Shape::Complete(complete, Some(g)));
        assert_eq!(built_ref.shape(), built.shape());
        assert!(std::ptr::eq(graph_of(&built_ref).unwrap(), g));
        assert!(oracle_of(&built).is_none() && oracle_of(&built_ref).is_none());

        // The opaque wrapper reports neither, whatever it wraps.
        assert!(graph_of(&ScalarSampled(built_ref)).is_none());
        assert!(oracle_of(&ScalarSampled(built_ref)).is_none());
        assert!(graph_of(&ScalarSampled(CsrTopology::new(g))).is_none());
        assert!(graph_of(&ScalarSampled(complete)).is_none());
        assert!(oracle_of(&ScalarSampled(complete)).is_none());
        assert!(oracle_of(&ScalarSampled(gnp)).is_none());
    }

    #[test]
    fn labels_name_the_family_and_size() {
        assert!(Complete::new(5).unwrap().label().contains("n=5"));
        assert!(ImplicitGnp::new(9, 0.25, 0)
            .unwrap()
            .label()
            .contains("p=0.25"));
        assert!(ImplicitSbm::new(8, 2, 0.5, 0.1, 0)
            .unwrap()
            .label()
            .contains("blocks=2"));
    }
}
