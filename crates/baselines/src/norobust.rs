//! The "no robustness" baseline: the simple secret-sharing scheme of
//! Section 3 of the paper, with PRG share compression but no SNIP.
//!
//! Privacy holds (any `s − 1` shares are uniform), but a single malicious
//! client can add an arbitrary vector to the aggregate — the attack that
//! motivates SNIPs. The gap between this scheme and full Prio is the
//! "price of robustness" reported in Figure 4 and Table 9.

use prio_crypto::prg::{expand_share, Prg, Seed};
use prio_field::FieldElement;

/// One server's share of a submission: a seed or the explicit residual.
#[derive(Clone, Debug)]
pub enum NoRobustShare<F: FieldElement> {
    /// PRG-compressed share.
    Seed(Seed),
    /// Explicit residual vector.
    Explicit(Vec<F>),
}

impl<F: FieldElement> NoRobustShare<F> {
    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            NoRobustShare::Seed(_) => prio_crypto::prg::SEED_LEN + 1,
            NoRobustShare::Explicit(v) => v.len() * F::ENCODED_LEN + 1,
        }
    }
}

/// A no-robustness client submission: one share per server.
#[derive(Clone, Debug)]
pub struct NoRobustSubmission<F: FieldElement> {
    /// Per-server shares.
    pub shares: Vec<NoRobustShare<F>>,
    /// PRG expansion label.
    pub label: u64,
}

/// Splits `encoding` into `s` compressed shares.
pub fn client_submission<F: FieldElement, R: rand::Rng + ?Sized>(
    encoding: &[F],
    num_servers: usize,
    label: u64,
    rng: &mut R,
) -> NoRobustSubmission<F> {
    assert!(num_servers >= 2);
    let mut residual = encoding.to_vec();
    let mut shares = Vec::with_capacity(num_servers);
    for _ in 0..num_servers - 1 {
        let seed = Seed::random(rng);
        Prg::new(&seed, label).subtract_from(&mut residual);
        shares.push(NoRobustShare::Seed(seed));
    }
    shares.push(NoRobustShare::Explicit(residual));
    NoRobustSubmission { shares, label }
}

/// One aggregation server of the no-robustness cluster.
pub struct NoRobustServer<F: FieldElement> {
    accumulator: Vec<F>,
    processed: u64,
}

impl<F: FieldElement> NoRobustServer<F> {
    /// Creates a server accumulating vectors of length `len`.
    pub fn new(len: usize) -> Self {
        NoRobustServer {
            accumulator: vec![F::zero(); len],
            processed: 0,
        }
    }

    /// Expands (if necessary) and accumulates this server's share.
    pub fn process(&mut self, share: &NoRobustShare<F>, label: u64) {
        let expanded;
        let v: &[F] = match share {
            NoRobustShare::Seed(seed) => {
                expanded = expand_share::<F>(seed, label, self.accumulator.len());
                &expanded
            }
            NoRobustShare::Explicit(v) => v,
        };
        assert_eq!(v.len(), self.accumulator.len(), "share length");
        for (acc, &x) in self.accumulator.iter_mut().zip(v) {
            *acc += x;
        }
        self.processed += 1;
    }

    /// This server's accumulator.
    pub fn accumulator(&self) -> &[F] {
        &self.accumulator
    }
}

/// Convenience cluster running all `s` servers in-process.
pub struct NoRobustCluster<F: FieldElement> {
    servers: Vec<NoRobustServer<F>>,
}

impl<F: FieldElement> NoRobustCluster<F> {
    /// Creates `s` servers for length-`len` encodings.
    pub fn new(num_servers: usize, len: usize) -> Self {
        NoRobustCluster {
            servers: (0..num_servers).map(|_| NoRobustServer::new(len)).collect(),
        }
    }

    /// Processes a submission at every server.
    pub fn process(&mut self, sub: &NoRobustSubmission<F>) {
        assert_eq!(sub.shares.len(), self.servers.len());
        for (server, share) in self.servers.iter_mut().zip(&sub.shares) {
            server.process(share, sub.label);
        }
    }

    /// Publishes and sums all accumulators.
    pub fn aggregate(&self) -> Vec<F> {
        let len = self.servers[0].accumulator().len();
        let mut sigma = vec![F::zero(); len];
        for server in &self.servers {
            for (acc, &v) in sigma.iter_mut().zip(server.accumulator()) {
                *acc += v;
            }
        }
        sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_field::Field64;
    use rand::SeedableRng;

    #[test]
    fn aggregates_correctly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut cluster = NoRobustCluster::<Field64>::new(3, 4);
        let a = [1u64, 2, 3, 4].map(Field64::from_u64);
        let b = [10u64, 20, 30, 40].map(Field64::from_u64);
        cluster.process(&client_submission(&a, 3, 0, &mut rng));
        cluster.process(&client_submission(&b, 3, 1, &mut rng));
        assert_eq!(cluster.aggregate(), [11u64, 22, 33, 44].map(Field64::from_u64));
    }

    #[test]
    fn individual_shares_hide_the_value() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let x = [Field64::from_u64(1)];
        let sub = client_submission(&x, 2, 0, &mut rng);
        // The explicit residual is x minus a PRG expansion — with
        // overwhelming probability it does not equal x.
        let NoRobustShare::Explicit(res) = &sub.shares[1] else {
            panic!("expected explicit residual");
        };
        assert_ne!(res[0], x[0]);
    }

    #[test]
    fn no_robustness_demonstrated() {
        // A malicious client injects a huge value and nothing stops it —
        // the attack Prio's SNIPs exist to prevent.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut cluster = NoRobustCluster::<Field64>::new(2, 1);
        cluster.process(&client_submission(&[Field64::from_u64(1)], 2, 0, &mut rng));
        let poison = [Field64::from_u64(1_000_000)];
        cluster.process(&client_submission(&poison, 2, 1, &mut rng));
        assert_eq!(cluster.aggregate()[0], Field64::from_u64(1_000_001));
    }
}
