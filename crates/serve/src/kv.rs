//! Per-replica KV-cache occupancy accounting.
//!
//! The budget is derived per stage ([`crate::cost::PhaseCost`]): every
//! resident request holds `context_tokens × kv_per_token_bytes` on each
//! of its stages, and since the per-token cost is a per-stage constant,
//! the binding constraint collapses to one number — the minimum over
//! stages of `kv_budget / kv_per_token_bytes`, in context tokens.
//! Admission reserves a request's *worst-case* context (prompt plus
//! every output token) up front, vLLM-preemption-free style: a request
//! admitted once can always finish, so the simulator never needs an
//! eviction model and stays trivially deterministic.

/// Reserved-token KV occupancy for one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvTracker {
    /// Context tokens the replica's KV budget can hold.
    pub capacity_tokens: usize,
    /// Currently reserved context tokens.
    pub resident_tokens: usize,
    /// High-water mark of `resident_tokens`.
    pub peak_tokens: usize,
}

impl KvTracker {
    /// An empty tracker over `capacity_tokens`.
    pub fn new(capacity_tokens: usize) -> Self {
        KvTracker {
            capacity_tokens,
            resident_tokens: 0,
            peak_tokens: 0,
        }
    }

    /// Can a request reserving `context_tokens` be admitted now?
    pub fn fits(&self, context_tokens: usize) -> bool {
        self.resident_tokens + context_tokens <= self.capacity_tokens
    }

    /// Reserve a request's full context. Call only after
    /// [`KvTracker::fits`]; saturates rather than panics if violated.
    pub fn admit(&mut self, context_tokens: usize) {
        self.resident_tokens = self.resident_tokens.saturating_add(context_tokens);
        self.peak_tokens = self.peak_tokens.max(self.resident_tokens);
    }

    /// Release a completed request's reservation.
    pub fn release(&mut self, context_tokens: usize) {
        self.resident_tokens = self.resident_tokens.saturating_sub(context_tokens);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_accounting_tracks_peak() {
        let mut kv = KvTracker::new(100);
        assert!(kv.fits(60));
        kv.admit(60);
        assert!(!kv.fits(50));
        assert!(kv.fits(40));
        kv.admit(40);
        assert_eq!(kv.resident_tokens, 100);
        kv.release(60);
        assert_eq!(kv.resident_tokens, 40);
        // Peak survives the release.
        assert_eq!(kv.peak_tokens, 100);
    }
}
