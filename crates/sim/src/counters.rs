//! Simulator work counters.
//!
//! The paper justifies sub-clock gating by *accounting*: how much of a
//! cycle does evaluation actually use? These counters give the serving
//! stack the same visibility into the engine itself — how many events a
//! run applied, how many gate evaluations it triggered, how often the
//! time-wheel advanced its base and how many far-future events spilled
//! into the overflow heap.
//!
//! Each [`Simulator`](crate::Simulator) keeps plain per-run tallies (the
//! engine is single-threaded per instance, so counting is free) exposed
//! as a [`SimCounters`] snapshot. At the end of every
//! [`run_until`](crate::Simulator::run_until) call the delta since the
//! last flush is added to process-wide relaxed atomics, so parallel
//! sweep fan-outs aggregate exactly like a serial run — the per-thread
//! tallies [`merge`](SimCounters::merge) associatively into the same
//! totals regardless of scheduling. The process totals feed the
//! `/metrics` families `scpg_sim_events_total`,
//! `scpg_sim_gate_evals_total`, `scpg_sim_wheel_advance_total` and
//! `scpg_sim_wheel_overflow_total`.

use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot of one simulation run's work (or a merge of several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Events applied (post inertial filtering). The engine never queues
    /// an event to the value a net with nothing in flight already holds,
    /// so this is smaller than `ReferenceSimulator`'s count of the same
    /// run; activity and gate evaluations are identical.
    pub events: u64,
    /// Combinational gate evaluations.
    pub gate_evals: u64,
    /// Time-wheel base advances (slot claims).
    pub wheel_advances: u64,
    /// Events promoted to the far-future overflow heap.
    pub wheel_overflows: u64,
}

impl SimCounters {
    /// Component-wise sum. Associative and commutative, so per-thread
    /// counters from a parallel fan-out merge to the same total in any
    /// order — the same contract `Activity::merge` gives waveforms.
    #[must_use]
    pub fn merge(self, other: SimCounters) -> SimCounters {
        SimCounters {
            events: self.events + other.events,
            gate_evals: self.gate_evals + other.gate_evals,
            wheel_advances: self.wheel_advances + other.wheel_advances,
            wheel_overflows: self.wheel_overflows + other.wheel_overflows,
        }
    }

    /// Component-wise saturating difference (`self` later, `other`
    /// earlier): the work done between two snapshots.
    #[must_use]
    pub fn delta_since(self, other: SimCounters) -> SimCounters {
        SimCounters {
            events: self.events.saturating_sub(other.events),
            gate_evals: self.gate_evals.saturating_sub(other.gate_evals),
            wheel_advances: self.wheel_advances.saturating_sub(other.wheel_advances),
            wheel_overflows: self.wheel_overflows.saturating_sub(other.wheel_overflows),
        }
    }
}

/// A snapshot of bit-parallel engine work (or a merge of several runs).
/// Feeds the `/metrics` families
/// `scpg_sim_bitpar_words_evaluated_total`, `scpg_sim_bitpar_lanes_total`
/// and `scpg_sim_bitpar_cone_skips_total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitparCounters {
    /// Word-wide cell evaluations (one covers up to 64 lanes).
    pub words_evaluated: u64,
    /// Stimulus lanes simulated across all runs.
    pub lanes: u64,
    /// Quiescent cones skipped instead of re-evaluated.
    pub cone_skips: u64,
}

impl BitparCounters {
    /// Component-wise sum; associative and commutative like
    /// [`SimCounters::merge`].
    #[must_use]
    pub fn merge(self, other: BitparCounters) -> BitparCounters {
        BitparCounters {
            words_evaluated: self.words_evaluated + other.words_evaluated,
            lanes: self.lanes + other.lanes,
            cone_skips: self.cone_skips + other.cone_skips,
        }
    }

    /// Component-wise saturating difference between two snapshots.
    #[must_use]
    pub fn delta_since(self, other: BitparCounters) -> BitparCounters {
        BitparCounters {
            words_evaluated: self.words_evaluated.saturating_sub(other.words_evaluated),
            lanes: self.lanes.saturating_sub(other.lanes),
            cone_skips: self.cone_skips.saturating_sub(other.cone_skips),
        }
    }
}

static EVENTS: AtomicU64 = AtomicU64::new(0);
static GATE_EVALS: AtomicU64 = AtomicU64::new(0);
static WHEEL_ADVANCES: AtomicU64 = AtomicU64::new(0);
static WHEEL_OVERFLOWS: AtomicU64 = AtomicU64::new(0);

/// Adds a per-run delta to the process-wide totals. One batched add per
/// `run_until` call, not per event — the hot loop never touches shared
/// cache lines.
pub(crate) fn flush(delta: SimCounters) {
    if delta.events != 0 {
        EVENTS.fetch_add(delta.events, Ordering::Relaxed);
    }
    if delta.gate_evals != 0 {
        GATE_EVALS.fetch_add(delta.gate_evals, Ordering::Relaxed);
    }
    if delta.wheel_advances != 0 {
        WHEEL_ADVANCES.fetch_add(delta.wheel_advances, Ordering::Relaxed);
    }
    if delta.wheel_overflows != 0 {
        WHEEL_OVERFLOWS.fetch_add(delta.wheel_overflows, Ordering::Relaxed);
    }
}

/// Process-wide total of events applied across every simulator run.
pub fn events_total() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

/// Process-wide total of combinational gate evaluations.
pub fn gate_evals_total() -> u64 {
    GATE_EVALS.load(Ordering::Relaxed)
}

/// Process-wide total of time-wheel base advances.
pub fn wheel_advance_total() -> u64 {
    WHEEL_ADVANCES.load(Ordering::Relaxed)
}

/// Process-wide total of events promoted to the overflow heap.
pub fn wheel_overflow_total() -> u64 {
    WHEEL_OVERFLOWS.load(Ordering::Relaxed)
}

/// A snapshot of the process-wide totals, for before/after deltas
/// around a unit of work.
pub fn totals() -> SimCounters {
    SimCounters {
        events: events_total(),
        gate_evals: gate_evals_total(),
        wheel_advances: wheel_advance_total(),
        wheel_overflows: wheel_overflow_total(),
    }
}

static BITPAR_WORDS: AtomicU64 = AtomicU64::new(0);
static BITPAR_LANES: AtomicU64 = AtomicU64::new(0);
static BITPAR_CONE_SKIPS: AtomicU64 = AtomicU64::new(0);

/// Adds a bit-parallel run's tallies to the process-wide totals (one
/// batched add per run).
pub(crate) fn flush_bitpar(delta: BitparCounters) {
    if delta.words_evaluated != 0 {
        BITPAR_WORDS.fetch_add(delta.words_evaluated, Ordering::Relaxed);
    }
    if delta.lanes != 0 {
        BITPAR_LANES.fetch_add(delta.lanes, Ordering::Relaxed);
    }
    if delta.cone_skips != 0 {
        BITPAR_CONE_SKIPS.fetch_add(delta.cone_skips, Ordering::Relaxed);
    }
}

/// Process-wide total of bit-parallel word evaluations.
pub fn bitpar_words_evaluated_total() -> u64 {
    BITPAR_WORDS.load(Ordering::Relaxed)
}

/// Process-wide total of bit-parallel stimulus lanes simulated.
pub fn bitpar_lanes_total() -> u64 {
    BITPAR_LANES.load(Ordering::Relaxed)
}

/// Process-wide total of quiescent cones skipped by the bit-parallel
/// engine.
pub fn bitpar_cone_skips_total() -> u64 {
    BITPAR_CONE_SKIPS.load(Ordering::Relaxed)
}

/// A snapshot of the process-wide bit-parallel totals.
pub fn bitpar_totals() -> BitparCounters {
    BitparCounters {
        words_evaluated: bitpar_words_evaluated_total(),
        lanes: bitpar_lanes_total(),
        cone_skips: bitpar_cone_skips_total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_associative_and_commutative() {
        let a = SimCounters {
            events: 1,
            gate_evals: 2,
            wheel_advances: 3,
            wheel_overflows: 4,
        };
        let b = SimCounters {
            events: 10,
            gate_evals: 20,
            wheel_advances: 30,
            wheel_overflows: 40,
        };
        let c = SimCounters {
            events: 100,
            gate_evals: 200,
            wheel_advances: 300,
            wheel_overflows: 400,
        };
        assert_eq!(a.merge(b), b.merge(a));
        assert_eq!(a.merge(b).merge(c), a.merge(b.merge(c)));
        assert_eq!(a.merge(SimCounters::default()), a);
        assert_eq!(a.merge(b).delta_since(a), b);
    }
}
