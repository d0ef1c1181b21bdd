//! A transparent metering wrapper over any [`Topology`].
//!
//! [`MeteredTopology`] forwards every trait method to the wrapped topology
//! unchanged and additionally records rejection-sampling effort (tries and
//! accepted draws) into a [`SamplerMeter`].  The wrapper consumes **no**
//! randomness of its own: sampling goes through
//! [`Topology::sample_neighbour_tries`], whose contract guarantees the RNG
//! stream is identical to the unmetered [`Topology::sample_neighbour`]
//! path, so bit-identity of metered runs is structural, not accidental.
//!
//! The wrapper's [`Shape`] is [`Shape::Opaque`]: it exists to sample
//! through itself, so nothing may route around it.  The dynamics engine
//! resolves the family first and wraps the concrete family, never the other
//! way round.  The other hooks (`as_graph`, `is_all_but_self`,
//! `cheap_rows`, `degree_oracle`) forward unchanged.

use bo3_obs::SamplerMeter;
use rand::RngCore;

use crate::csr::{CsrGraph, VertexId};
use crate::oracle::DegreeOracle;
use crate::topology::{Shape, Topology};

/// A [`Topology`] wrapper that counts sampler tries/accepts into a
/// [`SamplerMeter`] without perturbing the wrapped topology's RNG stream.
#[derive(Clone, Copy)]
pub struct MeteredTopology<'a, T: Topology> {
    inner: &'a T,
    meter: &'a SamplerMeter,
}

impl<'a, T: Topology> MeteredTopology<'a, T> {
    /// Wraps `inner`, recording every neighbour draw into `meter`.
    pub fn new(inner: &'a T, meter: &'a SamplerMeter) -> Self {
        MeteredTopology { inner, meter }
    }

    /// The wrapped topology.
    pub fn inner(&self) -> &'a T {
        self.inner
    }

    /// The meter draws are recorded into.
    pub fn meter(&self) -> &'a SamplerMeter {
        self.meter
    }
}

impl<T: Topology> Topology for MeteredTopology<'_, T> {
    /// Always [`Shape::Opaque`]: routing around the wrapper would skip the
    /// meter.
    fn shape(&self) -> Shape<'_> {
        Shape::Opaque
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.inner.degree(v)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.inner.has_edge(u, v)
    }

    #[inline(always)]
    fn sample_neighbour<R: RngCore + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId {
        let (w, tries) = self.inner.sample_neighbour_tries(v, rng);
        self.meter.record(tries);
        w
    }

    #[inline(always)]
    fn sample_neighbour_tries<R: RngCore + ?Sized>(
        &self,
        v: VertexId,
        rng: &mut R,
    ) -> (VertexId, u64) {
        let (w, tries) = self.inner.sample_neighbour_tries(v, rng);
        self.meter.record(tries);
        (w, tries)
    }

    // `sample_neighbours_into` deliberately uses the trait default (a loop
    // over `sample_neighbour`): no concrete topology overrides it, so the
    // default consumes the RNG identically to the wrapped topology *and*
    // meters every draw.

    fn for_each_neighbour<F: FnMut(VertexId)>(&self, v: VertexId, f: F) {
        self.inner.for_each_neighbour(v, f)
    }

    fn as_graph(&self) -> Option<&CsrGraph> {
        self.inner.as_graph()
    }

    fn degree_oracle(&self) -> Option<DegreeOracle> {
        self.inner.degree_oracle()
    }

    fn is_all_but_self(&self) -> bool {
        self.inner.is_all_but_self()
    }

    fn cheap_rows(&self) -> bool {
        self.inner.cheap_rows()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Complete, ImplicitGnp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn metered_draws_match_unmetered_draws_bit_for_bit() {
        let topo = ImplicitGnp::new(257, 0.05, 0xFEED).unwrap();
        let meter = SamplerMeter::new();
        let metered = MeteredTopology::new(&topo, &meter);

        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        for v in 0..topo.n() {
            for _ in 0..4 {
                let plain = topo.sample_neighbour(v, &mut rng_a);
                let seen = metered.sample_neighbour(v, &mut rng_b);
                assert_eq!(plain, seen);
            }
        }
        // Identical RNG positions after the sweep.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        assert_eq!(meter.accepts(), 4 * topo.n() as u64);
        assert!(meter.tries() >= meter.accepts());
    }

    #[test]
    fn closed_form_topologies_meter_one_try_per_draw() {
        let topo = Complete::new(64).unwrap();
        let meter = SamplerMeter::new();
        let metered = MeteredTopology::new(&topo, &meter);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            metered.sample_neighbour(3, &mut rng);
        }
        assert_eq!(meter.tries(), 10);
        assert_eq!(meter.accepts(), 10);
        assert_eq!(meter.tries_per_draw(), Some(1.0));
    }

    #[test]
    fn rejection_sampling_reports_more_tries_than_accepts() {
        let topo = ImplicitGnp::new(513, 0.02, 0xBEEF).unwrap();
        let meter = SamplerMeter::new();
        let metered = MeteredTopology::new(&topo, &meter);
        let mut rng = StdRng::seed_from_u64(11);
        let mut out = [0usize; 8];
        metered.sample_neighbours_into(1, &mut out, &mut rng);
        assert_eq!(meter.accepts(), 8);
        // p = 0.02 needs ~50 tries per accepted draw; anything > accepts
        // proves the counting loop is live without pinning an exact value.
        assert!(meter.tries() > meter.accepts());
        let rate = meter.tries_per_draw().unwrap();
        assert!(rate > 1.0);
    }

    #[test]
    fn routing_surfaces_forward_to_the_wrapped_topology() {
        let topo = Complete::new(16).unwrap();
        let meter = SamplerMeter::new();
        let metered = MeteredTopology::new(&topo, &meter);
        assert_eq!(metered.n(), topo.n());
        assert_eq!(metered.degree(0), topo.degree(0));
        assert_eq!(metered.is_all_but_self(), topo.is_all_but_self());
        assert_eq!(metered.cheap_rows(), topo.cheap_rows());
        assert_eq!(metered.label(), topo.label());
        assert_eq!(metered.memory_bytes(), topo.memory_bytes());
        assert!(metered.as_graph().is_none());
        assert_eq!(metered.shape(), Shape::Opaque);
        assert!(metered.has_edge(0, 1));
        assert!(!metered.has_edge(2, 2));
    }
}
