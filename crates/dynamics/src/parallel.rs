//! Multi-threaded stepping support: the chunk scheduler and the work-unit
//! RNG derivations behind [`crate::engine::Engine`]'s seeded rounds.
//!
//! The synchronous round is embarrassingly parallel: every vertex's new
//! opinion depends only on the previous round's snapshot.  The (crate
//! internal) `run_chunks` scheduler partitions the next state's packed
//! words into fixed-size chunks and processes chunks across a scoped thread
//! pool (crossbeam), each chunk writing its own disjoint words — no locks,
//! no atomics on the hot path.
//!
//! **Determinism.** Every chunk derives its own RNG from
//! `(master_seed, round, chunk_index)`, so results are bit-for-bit identical
//! regardless of how many worker threads run the chunks.  This is the
//! property the engine ablation (sequential vs. parallel stepping) checks:
//! an engine built with `Engine::on_graph(g)?.with_threads(k)` reproduces
//! the single-threaded run at every `k`.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use bo3_graph::CsrGraph;

use crate::kernel::{write_bits, PackedSnapshot};
use crate::protocol::{Protocol, UpdateContext};

/// Number of vertices per work unit. Fixed (rather than `n / threads`) so the
/// chunk→RNG mapping, and therefore the simulation output, does not depend on
/// the thread count.  A multiple of 64, so every chunk owns whole words of
/// the packed state.
pub const CHUNK_SIZE: usize = 4096;

/// A worker-thread request with `0` resolved to the number of available
/// CPUs — the one resolution [`crate::engine::Engine::with_threads`] and the
/// Monte-Carlo driver's worker split share.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Runs `op(chunk, first vertex, words)` once per [`CHUNK_SIZE`] chunk of
/// the next state's `words` across `threads` scoped workers, never more
/// than there are chunks.  Chunks are statically assigned round-robin to
/// workers before spawning, so each worker owns disjoint words (lock-free)
/// and the chunk → RNG mapping stays independent of the thread count.
/// Every seeded synchronous round — kernel or `dyn` — goes through it, so
/// no two steppers can drift in chunk scheduling.
pub(crate) fn run_chunks(
    threads: usize,
    words: &mut [u64],
    op: &(dyn Fn(u64, usize, &mut [u64]) + Sync),
) {
    let chunks = words.chunks_mut(CHUNK_SIZE / 64).enumerate();
    let workers = threads.min(chunks.len()).max(1);
    if workers == 1 {
        // Sequential fast path: same chunk → RNG mapping, no thread spawn.
        for (chunk, out) in chunks {
            op(chunk as u64, chunk * CHUNK_SIZE, out);
        }
        return;
    }
    let mut per_thread: Vec<Vec<(usize, &mut [u64])>> = (0..workers).map(|_| Vec::new()).collect();
    for (chunk, out) in chunks {
        per_thread[chunk % workers].push((chunk, out));
    }

    crossbeam::thread::scope(|scope| {
        for bucket in per_thread {
            scope.spawn(move |_| {
                for (chunk, out) in bucket {
                    op(chunk as u64, chunk * CHUNK_SIZE, out);
                }
            });
        }
    })
    .expect("worker thread panicked");
}

/// Applies `protocol` to the vertices from `start` whose next state is
/// `out` (their words), reading the previous-round snapshot `prev` and the
/// rows of `graph`, and consuming `rng` once per vertex in order.
///
/// Shared by the engine's caller-RNG and seeded `dyn` rounds, so their
/// per-vertex update sequence — and therefore the bit-identical
/// determinism contract — cannot diverge.
pub(crate) fn update_chunk(
    protocol: &dyn Protocol,
    graph: &CsrGraph,
    prev: &PackedSnapshot,
    start: usize,
    out: &mut [u64],
    rng: &mut dyn RngCore,
) {
    write_bits(prev.len(), start, out, |v| {
        let ctx = UpdateContext {
            vertex: v,
            current: prev.get(v),
            previous: prev,
            graph,
        };
        protocol.update(&ctx, rng).is_blue()
    });
}

/// SplitMix-style mixing of the three work-unit coordinates into a 64-bit
/// stream id, shared by the `dyn`-path [`chunk_rng`] and the kernel-path
/// [`crate::kernel::kernel_chunk_rng`].
pub(crate) fn stream_id(master_seed: u64, round: u64, chunk: u64) -> u64 {
    let mut z = master_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(round.wrapping_add(1)))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(chunk.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the `dyn`-path RNG for one `(seed, round, chunk)` work unit.
///
/// Public so callers can reproduce a seeded `dyn`-fallback round's
/// randomness ([`crate::engine::Engine::run_seeded`]) bit-for-bit.  The
/// kernel path uses the cheaper [`crate::kernel::kernel_chunk_rng`] over the
/// same stream-id derivation.
pub fn chunk_rng(master_seed: u64, round: u64, chunk: u64) -> impl RngCore {
    // ChaCha8 for the actual stream (cheap, high quality, seekable).
    ChaCha8Rng::seed_from_u64(stream_id(master_seed, round, chunk))
}

/// Derives a per-replica RNG for Monte-Carlo runs; exposed so the sequential
/// and parallel Monte-Carlo drivers agree on the seeding scheme.
pub fn replica_rng(master_seed: u64, replica: u64) -> StdRng {
    let mut z = master_seed ^ 0xD6E8_FEB8_6659_FD93u64.wrapping_mul(replica.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::init::InitialCondition;
    use crate::opinion::Configuration;
    use crate::protocol::BestOfThree;
    use bo3_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_graphs() {
        let empty = bo3_graph::GraphBuilder::new(0).build().unwrap();
        assert!(Engine::on_graph(&empty).is_err());
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let g = generators::complete(10);
        let engine = Engine::on_graph(&g).unwrap().with_threads(0);
        assert!(engine.threads() >= 1);
        assert_eq!(resolve_threads(0), engine.threads());
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn parallel_run_reaches_red_consensus() {
        let g = generators::complete(600);
        let engine = Engine::on_graph(&g)
            .unwrap()
            .with_threads(4)
            .with_trace(true);
        let mut rng = StdRng::seed_from_u64(0);
        let init = InitialCondition::BernoulliWithBias { delta: 0.12 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = engine.run_seeded(&BestOfThree::new(), init, 99).unwrap();
        assert!(res.red_won());
        assert!(res.rounds <= 40);
        assert_eq!(res.trace.unwrap().len(), res.rounds + 1);
    }

    #[test]
    fn result_is_independent_of_thread_count() {
        let g = generators::complete(700);
        let mut rng = StdRng::seed_from_u64(1);
        let init = InitialCondition::BernoulliWithBias { delta: 0.08 }
            .sample(&g, &mut rng)
            .unwrap();

        let run_with = |threads: usize| {
            Engine::on_graph(&g)
                .unwrap()
                .with_threads(threads)
                .with_trace(true)
                .run_seeded(&BestOfThree::new(), init.clone(), 1234)
                .unwrap()
        };
        let one = run_with(1);
        let four = run_with(4);
        let eight = run_with(8);
        assert_eq!(one, four);
        assert_eq!(four, eight);
    }

    #[test]
    fn different_master_seeds_give_different_runs() {
        let g = generators::complete(500);
        let mut rng = StdRng::seed_from_u64(2);
        let init = InitialCondition::ExactCount { blue: 200 }
            .sample(&g, &mut rng)
            .unwrap();
        let engine = Engine::on_graph(&g)
            .unwrap()
            .with_threads(4)
            .with_trace(true);
        let a = engine
            .run_seeded(&BestOfThree::new(), init.clone(), 7)
            .unwrap();
        let b = engine.run_seeded(&BestOfThree::new(), init, 8).unwrap();
        assert!(a.trace != b.trace || a.rounds != b.rounds);
    }

    #[test]
    fn single_step_matches_configuration_size() {
        let g = generators::complete(100);
        let engine = Engine::on_graph(&g).unwrap().with_threads(2);
        let mut rng = StdRng::seed_from_u64(3);
        let init = InitialCondition::ExactCount { blue: 40 }
            .sample(&g, &mut rng)
            .unwrap();
        let mut next = Vec::new();
        engine.step_seeded(&BestOfThree::new(), &init, &mut next, 5, 0);
        assert_eq!(next.len(), 100);
    }

    #[test]
    fn replica_rngs_are_distinct() {
        let mut a = replica_rng(1, 0);
        let mut b = replica_rng(1, 1);
        let va: Vec<u32> = (0..4).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..4).map(|_| b.next_u32()).collect();
        assert_ne!(va, vb);
        // Same coordinates → same stream.
        let mut c = replica_rng(1, 0);
        let vc: Vec<u32> = (0..4).map(|_| c.next_u32()).collect();
        assert_eq!(va, vc);
    }

    #[test]
    fn an_unbounded_thread_request_runs_each_chunk_once() {
        // Two chunks start at most two workers, however many are asked for.
        let mut words = vec![0u64; 2 * CHUNK_SIZE / 64];
        let runs = std::sync::Mutex::new(Vec::new());
        run_chunks(usize::MAX, &mut words, &|chunk, start, out| {
            out.fill(chunk + 1);
            runs.lock().unwrap().push((chunk, start, out.len()));
        });
        let mut runs = runs.into_inner().unwrap();
        runs.sort_unstable();
        assert_eq!(runs, [(0, 0, 64), (1, CHUNK_SIZE, 64)]);
        assert!(words[..64].iter().all(|&w| w == 1) && words[64..].iter().all(|&w| w == 2));
    }

    #[test]
    fn mismatched_initial_configuration_is_rejected() {
        let g = generators::complete(10);
        let engine = Engine::on_graph(&g).unwrap().with_threads(2);
        let bad = Configuration::all_red(4);
        assert!(engine.run_seeded(&BestOfThree::new(), bad, 0).is_err());
    }
}
