//! Deterministic, seeded fault injection for the virtual cluster.
//!
//! A [`FaultPlan`] describes one adversarial network: sampled message
//! jitter, duplicated deliveries, adversarial any-source queue ordering,
//! straggler ranks with slowed compute, and degraded links with inflated
//! latency/bandwidth cost. Every random choice is drawn from xorshift
//! streams derived from the single `seed`, so any failure observed under a
//! plan reproduces exactly from `{plan, seed}` — test failure messages
//! print the full plan for that reason.
//!
//! The inert plan ([`FaultPlan::default`]) injects nothing and samples
//! nothing; runs with it behave bit-for-bit like a fault-free cluster.

use serde::{Deserialize, Serialize};

/// Policy for choosing among matching queued messages in an any-source
/// receive. The simulator's faithful behavior is `EarliestArrival`; the
/// others are adversarial schedules for fault injection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reorder {
    /// Earliest virtual arrival first (the faithful MPI-like default).
    #[default]
    EarliestArrival,
    /// Seeded uniformly random pick among matches (the old `chaos_seed`
    /// behavior).
    Random,
    /// Most recently queued match first — a LIFO schedule.
    NewestQueued,
    /// Maximum virtual arrival time first — the exact inverse of the
    /// faithful order.
    LatestArrival,
}

/// A complete description of the faults injected into one cluster run.
///
/// The default value is inert: no jitter, no duplicates, faithful
/// ordering, no stragglers, no degraded links. `ClusterOptions::default()`
/// therefore preserves fault-free behavior exactly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Root seed for every sampled decision (jitter, duplication, random
    /// reorder). Per-rank streams are derived from it deterministically.
    pub seed: u64,
    /// Any-source queue ordering policy.
    pub reorder: Reorder,
    /// Maximum extra in-flight delay added to each message, in seconds;
    /// the actual delay is sampled uniformly from `[0, jitter_max)`.
    pub jitter_max: f64,
    /// Probability in `[0, 1]` that a message is delivered twice; the
    /// duplicate arrives after the original with fresh jitter.
    pub duplicate_prob: f64,
    /// World ranks whose `compute` calls are slowed by `straggler_factor`.
    pub straggler_ranks: Vec<usize>,
    /// Compute-time multiplier for straggler ranks (≥ 1 slows them down).
    pub straggler_factor: f64,
    /// World ranks whose links (either endpoint) are degraded.
    pub degraded_ranks: Vec<usize>,
    /// Wire-time multiplier on degraded links (β degradation).
    pub degrade_wire_mult: f64,
    /// Extra latency in seconds on degraded links (α degradation).
    pub degrade_extra_latency: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            reorder: Reorder::EarliestArrival,
            jitter_max: 0.0,
            duplicate_prob: 0.0,
            straggler_ranks: Vec::new(),
            straggler_factor: 1.0,
            degraded_ranks: Vec::new(),
            degrade_wire_mult: 1.0,
            degrade_extra_latency: 0.0,
        }
    }
}

/// Names of the built-in fault profiles, in sweep order.
pub const PROFILE_NAMES: &[&str] = &[
    "clean",
    "jitter",
    "duplicates",
    "reorder",
    "straggler",
    "degraded-link",
    "all",
];

impl FaultPlan {
    /// True when this plan injects nothing — the cluster behaves exactly
    /// as if no fault subsystem existed.
    pub fn is_inert(&self) -> bool {
        self.reorder == Reorder::EarliestArrival
            && self.jitter_max == 0.0
            && self.duplicate_prob == 0.0
            && (self.straggler_ranks.is_empty() || self.straggler_factor == 1.0)
            && (self.degraded_ranks.is_empty()
                || (self.degrade_wire_mult == 1.0 && self.degrade_extra_latency == 0.0))
    }

    /// The legacy `chaos_seed` behavior: random any-source ordering only.
    pub fn random_reorder(seed: u64) -> Self {
        FaultPlan {
            seed,
            reorder: Reorder::Random,
            ..FaultPlan::default()
        }
    }

    /// A named fault profile (see [`PROFILE_NAMES`]), parameterized by the
    /// run seed and the world size (used to pick victim ranks). Returns
    /// `None` for unknown names.
    pub fn from_profile(name: &str, seed: u64, nranks: usize) -> Option<Self> {
        let victim = (seed as usize) % nranks.max(1);
        let base = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        Some(match name {
            "clean" => base,
            "jitter" => FaultPlan {
                jitter_max: 20e-6,
                ..base
            },
            "duplicates" => FaultPlan {
                duplicate_prob: 0.3,
                jitter_max: 2e-6,
                ..base
            },
            "reorder" => FaultPlan {
                reorder: match seed % 3 {
                    0 => Reorder::NewestQueued,
                    1 => Reorder::LatestArrival,
                    _ => Reorder::Random,
                },
                ..base
            },
            "straggler" => FaultPlan {
                straggler_ranks: vec![victim],
                straggler_factor: 8.0,
                ..base
            },
            "degraded-link" => FaultPlan {
                degraded_ranks: vec![victim],
                degrade_wire_mult: 20.0,
                degrade_extra_latency: 20e-6,
                ..base
            },
            "all" => FaultPlan {
                reorder: Reorder::LatestArrival,
                jitter_max: 20e-6,
                duplicate_prob: 0.3,
                straggler_ranks: vec![victim],
                straggler_factor: 8.0,
                degraded_ranks: vec![nranks.max(1) - 1 - victim.min(nranks.max(1) - 1)],
                degrade_wire_mult: 10.0,
                degrade_extra_latency: 10e-6,
                ..base
            },
            _ => return None,
        })
    }

    /// True when the link between world ranks `a` and `b` is degraded
    /// (either endpoint listed).
    pub fn link_degraded(&self, a: usize, b: usize) -> bool {
        self.degraded_ranks.contains(&a) || self.degraded_ranks.contains(&b)
    }

    /// Compute-time multiplier for world rank `r`.
    pub fn compute_mult(&self, r: usize) -> f64 {
        if self.straggler_ranks.contains(&r) {
            self.straggler_factor
        } else {
            1.0
        }
    }

    /// Initial xorshift state for world rank `r`'s fault stream; 0 means
    /// the rank samples nothing (inert plan).
    pub fn rank_stream(&self, r: usize) -> u64 {
        if self.is_inert() {
            return 0;
        }
        // splitmix64 over (seed, rank) — decorrelates adjacent ranks.
        let z = self
            .seed
            .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(r as u64 + 1));
        mix64(z) | 1
    }
}

/// The splitmix64 output function: a bijective scramble of `z`.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        assert!(FaultPlan::default().is_inert());
        assert_eq!(FaultPlan::default().rank_stream(3), 0);
        assert_eq!(FaultPlan::default().compute_mult(0), 1.0);
        assert!(!FaultPlan::default().link_degraded(0, 1));
    }

    #[test]
    fn profiles_resolve_and_unknown_is_none() {
        for name in PROFILE_NAMES {
            let p = FaultPlan::from_profile(name, 7, 8).expect("known profile");
            if *name == "clean" {
                assert!(p.is_inert(), "clean profile must be inert");
            } else {
                assert!(!p.is_inert(), "profile {name} must inject something");
            }
        }
        assert!(FaultPlan::from_profile("nope", 7, 8).is_none());
    }

    #[test]
    fn rank_streams_are_deterministic_and_distinct() {
        let p = FaultPlan::from_profile("jitter", 42, 4).unwrap();
        assert_eq!(p.rank_stream(2), p.rank_stream(2));
        assert_ne!(p.rank_stream(1), p.rank_stream(2));
        assert_ne!(p.rank_stream(0), 0);
    }

    #[test]
    fn plan_serde_roundtrip() {
        let p = FaultPlan::from_profile("all", 1234, 16).unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
