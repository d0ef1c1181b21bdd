//! Batched (draw-ahead) rejection sampling for the hash-defined topologies.
//!
//! The scalar samplers in [`crate::topology`] interleave one RNG draw, one
//! `pair_hash` evaluation and one data-dependent branch per candidate —
//! at `p = 1/2` that branch mispredicts every other try, and the
//! draw → hash → branch chain serialises, which is why implicit `G(n, p)`
//! ran ~15x behind the complete-graph kernel.  This module batches the
//! same computation without changing a single accepted draw:
//!
//! * [`NeighbourLane`] pre-draws a lane of [`LANE_WIDTH`] candidate ids
//!   from the caller's RNG with sequential `next_u64` calls, evaluates the
//!   pairwise hash over [`EVAL_GROUP`]-wide groups at once (hand-unrolled
//!   straight-line array code — eight independent `imul` chains that
//!   pipeline on any target), and then *consumes* tries from the accept
//!   bitmask in scalar order with `trailing_zeros` — no per-candidate
//!   branch at all.
//! * [`PairHashSpec`] is the copyable description of a frozen-hash edge
//!   set (`G(n, p)` or the planted-partition SBM) the lane evaluates — the
//!   same seed, thresholds and block structure as the owning topology, so
//!   the accept predicate is bit-identical to the scalar `has_edge` test.
//!
//! # The draw-ahead RNG contract
//!
//! A lane consumes the underlying stream **in order**: candidate `i` of a
//! refill always comes from the `i`-th `next_u64` after the previous
//! refill, and accepted neighbours (with their per-draw try counts) are
//! exactly the scalar sampler's.  What changes is only the RNG's *final
//! position*: a lane may have pre-drawn tail values that no sample ever
//! consumed.  The lane is therefore only used where the RNG is scoped to
//! the work unit and dropped afterwards — the seeded synchronous kernels
//! (one stream per `(seed, round, chunk)`) and the seeded asynchronous
//! round (one stream per round).  Caller-RNG entry points keep the strict
//! scalar sampler, whose stream position is part of their contract.
//!
//! The same group-evaluation machinery drives the mask-based row iteration
//! (`row_for_each` / `row_degree`) used by `for_each_neighbour` and
//! `degree` on the hash-defined topologies: candidate ids are evaluated in
//! blocks into a 64-bit accept mask and non-edges are skipped with
//! `trailing_zeros`, one or two instructions per gap instead of a hash plus
//! a mispredicted branch each.  (A literal geometric skip — drawing gap
//! lengths from a generator, as the materialised `erdos_renyi` builder
//! does — would define a *different* edge set than the frozen hash, so the
//! mask walk is the strongest skip strategy that preserves the graph.)

use rand::RngCore;

use crate::topology::{lemire_index, mix64, pair_hash, MAX_REJECTIONS};

/// Candidates pre-drawn per lane refill.
pub const LANE_WIDTH: usize = 32;

/// Candidates whose accept bits are evaluated at once.  Groups are
/// evaluated lazily as the consumer advances, so switching vertices
/// mid-lane re-evaluates at most one partially consumed group.
pub const EVAL_GROUP: usize = 8;

const K1: u64 = 0x9E37_79B9_7F4A_7C15;
const K2: u64 = 0xD6E8_FEB8_6659_FD93;

/// Which frozen family a [`PairHashSpec`] came from — carried so the lane
/// can reproduce the owning topology's exact isolated-vertex panic.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    Gnp {
        p: f64,
    },
    Sbm {
        blocks: usize,
        p_in: f64,
        p_out: f64,
    },
}

/// A copyable description of a frozen-hash edge set: everything the lane
/// evaluator needs to decide `has_edge(v, w)` exactly as the owning
/// [`crate::ImplicitGnp`] / [`crate::ImplicitSbm`] does.
///
/// `G(n, p)` is the single-block special case (`block_size == n`), so one
/// evaluator covers both families: a candidate in `v`'s block compares
/// against the in-block threshold, everything else against the cross-block
/// one.  Thresholds are the 65-bit `p·2⁶⁴` values split into a `u64`
/// compare plus an accept-everything flag for `p = 1` (whose threshold,
/// `2⁶⁴` exactly, no `u64` can express).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairHashSpec {
    seed: u64,
    n: usize,
    block_size: usize,
    thr_in: u64,
    all_in: bool,
    thr_out: u64,
    all_out: bool,
    family: Family,
}

/// Splits a 65-bit `p·2⁶⁴` threshold into the `u64` compare value and the
/// accept-everything flag (`p = 1`).
fn split_threshold(threshold: u128) -> (u64, bool) {
    if threshold >= 1u128 << 64 {
        (0, true)
    } else {
        (threshold as u64, false)
    }
}

impl PairHashSpec {
    /// The spec of an implicit `G(n, p)` frozen under `seed`.
    pub(crate) fn gnp(n: usize, p: f64, seed: u64, threshold: u128) -> Self {
        let (thr, all) = split_threshold(threshold);
        PairHashSpec {
            seed,
            n,
            block_size: n,
            thr_in: thr,
            all_in: all,
            thr_out: thr,
            all_out: all,
            family: Family::Gnp { p },
        }
    }

    /// The spec of an implicit planted-partition SBM frozen under `seed`.
    #[allow(clippy::too_many_arguments)] // crate-private constructor mirroring the topology's fields
    pub(crate) fn sbm(
        n: usize,
        block_size: usize,
        p_in: f64,
        p_out: f64,
        seed: u64,
        threshold_in: u128,
        threshold_out: u128,
    ) -> Self {
        let (thr_in, all_in) = split_threshold(threshold_in);
        let (thr_out, all_out) = split_threshold(threshold_out);
        PairHashSpec {
            seed,
            n,
            block_size,
            thr_in,
            all_in,
            thr_out,
            all_out,
            family: Family::Sbm {
                blocks: n / block_size,
                p_in,
                p_out,
            },
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The half-open id range `[lo, hi)` of `v`'s block (`[0, n)` for
    /// `G(n, p)`), so the per-candidate block test is two comparisons.
    ///
    /// The single-block case skips the division: `block_bounds` runs once
    /// per vertex on the sampling hot path, and a 64-bit divide is ~30
    /// cycles the `G(n, p)` lane would pay for a constant answer.
    #[inline(always)]
    fn block_bounds(&self, v: usize) -> (u64, u64) {
        if self.block_size == self.n {
            (0, self.n as u64)
        } else {
            let lo = (v / self.block_size) * self.block_size;
            (lo as u64, (lo + self.block_size) as u64)
        }
    }

    /// The scalar accept predicate for candidate `w` of vertex `v` —
    /// bit-identical to the owning topology's `has_edge(v, w)` for valid
    /// `w != v`.
    #[inline(always)]
    fn accept_one(&self, v: usize, w: usize, blk_lo: u64, blk_hi: u64) -> bool {
        let wu = w as u64;
        let (thr, all) = if wu >= blk_lo && wu < blk_hi {
            (self.thr_in, self.all_in)
        } else {
            (self.thr_out, self.all_out)
        };
        all || pair_hash(self.seed, v, w) < thr
    }

    /// The owning topology's label (used by the shared isolated panic).
    fn label(&self) -> String {
        match self.family {
            Family::Gnp { p } => format!("implicit_gnp(n={},p={})", self.n, p),
            Family::Sbm {
                blocks,
                p_in,
                p_out,
            } => format!(
                "implicit_sbm(n={},blocks={},p_in={},p_out={})",
                self.n, blocks, p_in, p_out
            ),
        }
    }

    /// The single isolated-vertex failure both the scalar and the batched
    /// samplers raise after [`MAX_REJECTIONS`] consecutive misses — one
    /// source, so the two paths cannot drift apart.
    #[cold]
    pub(crate) fn isolated_panic(&self, v: usize) -> ! {
        match self.family {
            Family::Gnp { p } => panic!(
                "vertex {v} of {} appears isolated (p = {p}): implicit G(n,p) requires the dense \
                 regime",
                self.label()
            ),
            Family::Sbm { .. } => panic!(
                "vertex {v} of {} appears isolated: implicit SBM requires the dense regime",
                self.label()
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Group evaluation
// ---------------------------------------------------------------------------

/// Evaluates the accept bits of eight candidates of `v` at once:
/// hand-unrolled array passes with no data-dependent branch, so the whole
/// hash chain pipelines (and the multiply-free passes autovectorize) on any
/// target.
fn eval8(spec: &PairHashSpec, v: u64, blk_lo: u64, blk_hi: u64, w: &[u64; 8]) -> u8 {
    let mut h = [0u64; 8];
    for i in 0..8 {
        let a = w[i].min(v);
        h[i] = spec.seed.wrapping_add(a.wrapping_mul(K1));
    }
    for x in &mut h {
        *x = mix64(*x);
    }
    for i in 0..8 {
        let b = w[i].max(v);
        h[i] ^= b.wrapping_mul(K2);
    }
    for x in &mut h {
        *x = mix64(*x);
    }
    let mut bits = 0u8;
    for i in 0..8 {
        let in_block = w[i] >= blk_lo && w[i] < blk_hi;
        let accept = if in_block {
            spec.all_in || h[i] < spec.thr_in
        } else {
            spec.all_out || h[i] < spec.thr_out
        };
        bits |= (accept as u8) << i;
    }
    bits
}

// ---------------------------------------------------------------------------
// The draw-ahead lane
// ---------------------------------------------------------------------------

/// A draw-ahead rejection-sampling lane over one [`PairHashSpec`].
///
/// Pre-draws [`LANE_WIDTH`] candidate ids per refill, evaluates accept
/// bits in [`EVAL_GROUP`]-wide batches for the current vertex, and serves
/// `sample` calls by scanning the accept bitmask — consuming the RNG
/// stream in exactly the scalar sampler's order, so accepted neighbours
/// and per-draw try counts are bit-identical (see the module docs for the
/// tail-discard contract this rests on).
#[derive(Debug, Clone)]
pub struct NeighbourLane {
    spec: PairHashSpec,
    /// Lemire-reduced candidate indices in `[0, n-1)` — vertex-independent,
    /// computed once per refill.
    idx: [u64; LANE_WIDTH],
    /// Accept bits for lane positions `[cursor, eval_end)`, valid for
    /// `eval_v`.
    accept: u64,
    cursor: usize,
    eval_end: usize,
    eval_v: usize,
    blk_lo: u64,
    blk_hi: u64,
    drawn: u64,
    consumed: u64,
}

impl NeighbourLane {
    /// An empty lane over `spec`; the first `sample` call refills it.
    pub fn new(spec: PairHashSpec) -> Self {
        NeighbourLane {
            spec,
            idx: [0; LANE_WIDTH],
            accept: 0,
            cursor: LANE_WIDTH,
            eval_end: LANE_WIDTH,
            eval_v: usize::MAX,
            blk_lo: 0,
            blk_hi: 0,
            drawn: 0,
            consumed: 0,
        }
    }

    /// Total candidates pre-drawn from the RNG (a multiple of
    /// [`LANE_WIDTH`]).
    pub fn drawn(&self) -> u64 {
        self.drawn
    }

    /// Total candidates consumed as tries; `drawn − consumed` is the
    /// discarded tail plus whatever is still buffered.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    #[inline]
    fn refill<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        let range = self.spec.n - 1;
        for slot in &mut self.idx {
            *slot = lemire_index(rng.next_u64(), range) as u64;
        }
        self.cursor = 0;
        self.eval_end = 0;
        self.accept = 0;
        self.drawn += LANE_WIDTH as u64;
    }

    /// Extends the evaluated window by one group (starting at `cursor`).
    #[inline]
    fn eval_group(&mut self, v: usize) {
        let start = self.eval_end;
        let len = EVAL_GROUP.min(LANE_WIDTH - start);
        let vu = v as u64;
        let mut w = [0u64; EVAL_GROUP];
        for (i, slot) in w.iter_mut().enumerate().take(len) {
            let idx = self.idx[start + i];
            *slot = idx + u64::from(idx >= vu);
        }
        let bits = if len == EVAL_GROUP {
            eval8(&self.spec, vu, self.blk_lo, self.blk_hi, &w) as u64
        } else {
            let mut bits = 0u64;
            for (i, &wi) in w.iter().enumerate().take(len) {
                bits |= (self
                    .spec
                    .accept_one(v, wi as usize, self.blk_lo, self.blk_hi)
                    as u64)
                    << i;
            }
            bits
        };
        self.accept &= !(((1u64 << len) - 1) << start);
        self.accept |= bits << start;
        self.eval_end = start + len;
    }

    /// Samples one uniform random neighbour of `v`, returning the
    /// neighbour and the number of candidate tries it consumed — exactly
    /// the neighbour the owning topology's scalar `sample_neighbour`
    /// returns for the same stream, and the `next_u64` draws it takes.
    ///
    /// Panics with the owning topology's isolated-vertex message after
    /// `MAX_REJECTIONS` consecutive misses, at the same miss count as
    /// the scalar path.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&mut self, v: usize, rng: &mut R) -> (usize, u64) {
        if v != self.eval_v {
            self.eval_v = v;
            let (lo, hi) = self.spec.block_bounds(v);
            self.blk_lo = lo;
            self.blk_hi = hi;
            // Accept bits are vertex-dependent: discard the unconsumed
            // window (candidate *indices* stay valid — they are
            // vertex-independent by construction).
            self.eval_end = self.cursor;
        }
        let cap = MAX_REJECTIONS as u64;
        let mut tries = 0u64;
        loop {
            if self.cursor == LANE_WIDTH {
                self.refill(rng);
            }
            if self.eval_end == self.cursor {
                self.eval_group(self.eval_v);
            }
            let window = (self.accept & ((1u64 << self.eval_end) - 1)) >> self.cursor;
            if window != 0 {
                let gap = window.trailing_zeros() as u64;
                if tries + gap >= cap {
                    // The scalar loop would have hit its miss cap before
                    // ever drawing this accepted candidate.
                    self.spec.isolated_panic(v);
                }
                tries += gap + 1;
                let pos = self.cursor + gap as usize;
                self.cursor = pos + 1;
                self.consumed += gap + 1;
                let idx = self.idx[pos] as usize;
                return (idx + usize::from(idx >= v), tries);
            }
            let misses = (self.eval_end - self.cursor) as u64;
            tries += misses;
            self.consumed += misses;
            self.cursor = self.eval_end;
            if tries >= cap {
                self.spec.isolated_panic(v);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mask-based row iteration
// ---------------------------------------------------------------------------

/// Builds the 64-candidate accept mask for `w ∈ [base, base + count)`
/// (count ≤ 64), with the self bit cleared.
#[inline]
fn row_mask(
    spec: &PairHashSpec,
    v: usize,
    blk_lo: u64,
    blk_hi: u64,
    base: usize,
    count: usize,
) -> u64 {
    let vu = v as u64;
    let mut mask = 0u64;
    let mut off = 0usize;
    while off + EVAL_GROUP <= count {
        let mut w = [0u64; EVAL_GROUP];
        for (i, slot) in w.iter_mut().enumerate() {
            *slot = (base + off + i) as u64;
        }
        mask |= (eval8(spec, vu, blk_lo, blk_hi, &w) as u64) << off;
        off += EVAL_GROUP;
    }
    while off < count {
        mask |= (spec.accept_one(v, base + off, blk_lo, blk_hi) as u64) << off;
        off += 1;
    }
    if v >= base && v < base + count {
        mask &= !(1u64 << (v - base));
    }
    mask
}

/// Calls `f` for every neighbour of `v` in ascending id order — the
/// mask-walk row iteration behind `for_each_neighbour` on the hash-defined
/// topologies.  Visits exactly the scalar `has_edge` row.
pub(crate) fn row_for_each<F: FnMut(usize)>(spec: &PairHashSpec, v: usize, mut f: F) {
    let n = spec.n;
    let (blk_lo, blk_hi) = spec.block_bounds(v);
    let mut base = 0usize;
    while base < n {
        let count = 64.min(n - base);
        let mut mask = row_mask(spec, v, blk_lo, blk_hi, base, count);
        while mask != 0 {
            f(base + mask.trailing_zeros() as usize);
            mask &= mask - 1;
        }
        base += count;
    }
}

/// The degree of `v` — a popcount over the same masks [`row_for_each`]
/// walks.
pub(crate) fn row_degree(spec: &PairHashSpec, v: usize) -> usize {
    let n = spec.n;
    let (blk_lo, blk_hi) = spec.block_bounds(v);
    let mut degree = 0usize;
    let mut base = 0usize;
    while base < n {
        let count = 64.min(n - base);
        degree += row_mask(spec, v, blk_lo, blk_hi, base, count).count_ones() as usize;
        base += count;
    }
    degree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ImplicitGnp, ImplicitSbm, Topology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The vertex visit pattern the kernels produce: a few consecutive
    /// samples per vertex, vertices ascending, plus some revisits.
    fn visit_pattern(n: usize) -> Vec<usize> {
        let mut vs = Vec::new();
        for v in (0..n).step_by(3) {
            for _ in 0..3 {
                vs.push(v);
            }
        }
        vs.extend([0, n - 1, n / 2, n / 2, 1]);
        vs
    }

    /// A stream that counts its `next_u64` draws: the scalar sampler's
    /// tries.
    struct Counted(StdRng, u64);

    impl RngCore for Counted {
        fn next_u32(&mut self) -> u32 {
            self.0.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.0.fill_bytes(dest)
        }
    }

    fn assert_lane_matches_scalar<T: Topology>(topo: &T, spec: PairHashSpec, seed: u64) {
        let mut lane = NeighbourLane::new(spec);
        let mut lane_rng = StdRng::seed_from_u64(seed);
        let mut scalar_rng = Counted(StdRng::seed_from_u64(seed), 0);
        for v in visit_pattern(topo.n()) {
            let got = lane.sample(v, &mut lane_rng);
            let before = scalar_rng.1;
            let w = topo.sample_neighbour(v, &mut scalar_rng);
            assert_eq!(got, (w, scalar_rng.1 - before), "vertex {v} diverged");
        }
        assert!(lane.consumed() <= lane.drawn());
        assert_eq!(lane.drawn() % LANE_WIDTH as u64, 0);
    }

    #[test]
    fn lane_matches_scalar_sampler_on_gnp_across_densities() {
        for &p in &[0.05, 0.3, 0.5, 0.9, 1.0] {
            let topo = ImplicitGnp::new(97, p, 11).unwrap();
            assert_lane_matches_scalar(&topo, topo.pair_hash_spec(), 400 + (p * 10.0) as u64);
        }
    }

    #[test]
    fn lane_matches_scalar_sampler_on_sbm_across_densities() {
        for &(p_in, p_out) in &[(0.7, 0.05), (0.3, 0.3), (0.9, 0.5), (1.0, 0.2), (0.05, 0.9)] {
            let topo = ImplicitSbm::new(96, 4, p_in, p_out, 23).unwrap();
            assert_lane_matches_scalar(&topo, topo.pair_hash_spec(), 800 + (p_in * 10.0) as u64);
        }
    }

    #[test]
    fn row_masks_match_the_scalar_has_edge_row() {
        let gnp = ImplicitGnp::new(150, 0.4, 7).unwrap();
        let sbm = ImplicitSbm::new(150, 3, 0.6, 0.1, 9).unwrap();
        let gspec = gnp.pair_hash_spec();
        let sspec = sbm.pair_hash_spec();
        for v in [0usize, 1, 49, 50, 77, 149] {
            let mut got = Vec::new();
            row_for_each(&gspec, v, |w| got.push(w));
            let want: Vec<usize> = (0..150).filter(|&w| gnp.has_edge(v, w)).collect();
            assert_eq!(got, want, "gnp row of {v}");
            assert_eq!(row_degree(&gspec, v), want.len());

            let mut got = Vec::new();
            row_for_each(&sspec, v, |w| got.push(w));
            let want: Vec<usize> = (0..150).filter(|&w| sbm.has_edge(v, w)).collect();
            assert_eq!(got, want, "sbm row of {v}");
            assert_eq!(row_degree(&sspec, v), want.len());
        }
    }

    #[test]
    fn accept_all_threshold_accepts_every_candidate_in_one_try() {
        let topo = ImplicitGnp::new(64, 1.0, 3).unwrap();
        let mut lane = NeighbourLane::new(topo.pair_hash_spec());
        let mut rng = StdRng::seed_from_u64(1);
        for v in 0..64 {
            let (w, tries) = lane.sample(v, &mut rng);
            assert_ne!(w, v);
            assert!(w < 64);
            assert_eq!(tries, 1);
        }
    }

    #[test]
    #[should_panic(expected = "appears isolated")]
    fn lane_raises_the_isolated_panic_on_a_near_empty_gnp() {
        // p ≈ 0: the accept threshold is ~18 of 2⁶⁴, so every candidate
        // misses and the lane must trip the same rejection cap (and
        // message) as the scalar sampler.
        let topo = ImplicitGnp::new(8, 1e-18, 3).unwrap();
        let mut lane = NeighbourLane::new(topo.pair_hash_spec());
        let mut rng = StdRng::seed_from_u64(2);
        lane.sample(0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "appears isolated")]
    fn scalar_sampler_raises_the_same_isolated_panic() {
        let topo = ImplicitGnp::new(8, 1e-18, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        topo.sample_neighbour(0, &mut rng);
    }
}
