//! What a correct run must produce.
//!
//! Decisions: submission `j` of the pool is accepted iff the canonical
//! tamper rule did not select it. Aggregate: one serial `Cluster` pass over
//! the pool gives each pool batch's contribution to σ; the expected σ of a
//! run is those contributions scaled, in the field, by how often each batch
//! was replayed.

use crate::workload::Workload;
use prio_afe::Afe;
use prio_core::{ClientSubmission, Cluster};
use prio_field::FieldElement;
use prio_snip::VerifyMode;

pub struct Oracle<F: FieldElement> {
    /// Expected decisions, one vector per pool batch.
    pub decisions: Vec<Vec<bool>>,
    /// σ contribution of one replay of each pool batch.
    sigma: Vec<Vec<F>>,
    /// Submissions (of the pool) on which the `Cluster` reference itself
    /// disagreed with the tamper rule. Not zero means the oracle is broken
    /// or the protocol is: either way the run fails.
    pub reference_mismatches: u64,
}

impl<F: FieldElement> Oracle<F> {
    /// `is_tampered(j)` is the rule the pool was generated under
    /// (`prio_proc::spec::is_tampered(j, 50)`); it is a parameter so a test
    /// can flip it and watch the run fail.
    pub fn build<A>(
        afe: A,
        w: &Workload,
        pool: &[ClientSubmission<F>],
        is_tampered: impl Fn(usize) -> bool,
    ) -> Oracle<F>
    where
        A: Afe<F> + Clone + Sync,
    {
        let mut cluster = Cluster::new(afe, w.servers, VerifyMode::FixedPoint);
        let mut decisions = Vec::new();
        let mut sigma = Vec::new();
        let mut reference_mismatches = 0;
        let mut before = cluster.aggregate();
        for (b, batch) in pool.chunks(w.batch).enumerate() {
            let expected: Vec<bool> = (0..batch.len())
                .map(|k| !is_tampered(b * w.batch + k))
                .collect();
            let reference = cluster.process_batch(batch);
            reference_mismatches += mismatches(&reference, &expected);
            let after = cluster.aggregate();
            sigma.push(after.iter().zip(&before).map(|(&a, &b)| a - b).collect());
            before = after;
            decisions.push(expected);
        }
        Oracle {
            decisions,
            sigma,
            reference_mismatches,
        }
    }

    /// Expected published σ after pool batch `b` was run `replays[b]` times,
    /// in the `u64`-clamped form `DeploymentReport`/`ProcReport` carry.
    pub fn expected_sigma(&self, replays: &[u64]) -> Vec<u64> {
        let len = self.sigma.first().map_or(0, Vec::len);
        let mut total = vec![F::zero(); len];
        for (contribution, &count) in self.sigma.iter().zip(replays) {
            let k = F::from_u64(count);
            for (t, &c) in total.iter_mut().zip(contribution) {
                *t += c * k;
            }
        }
        clamp_to_u64(&total)
    }
}

/// Field elements in the `u64`-clamped form the program's reports use.
pub fn clamp_to_u64<F: FieldElement>(values: &[F]) -> Vec<u64> {
    values
        .iter()
        .map(|v| v.try_to_u128().map_or(u64::MAX, |x| x as u64))
        .collect()
}

/// Positions where two decision vectors differ, counting a length
/// difference as that many wrong decisions.
pub fn mismatches(got: &[bool], expected: &[bool]) -> u64 {
    let differing = got.iter().zip(expected).filter(|(a, b)| a != b).count();
    (differing + got.len().abs_diff(expected.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatch_counting() {
        assert_eq!(mismatches(&[true, false, true], &[true, false, true]), 0);
        assert_eq!(mismatches(&[true, true, true], &[true, false, true]), 1);
        assert_eq!(mismatches(&[true], &[true, false, true]), 2);
    }
}
