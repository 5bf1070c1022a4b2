//! Request-scoped trace propagation.
//!
//! A [`TraceContext`] names one logical operation (a serve request, a
//! compile, a tune batch) with a `trace_id`, plus the id of the span that
//! created the current hop. Every span a traced operation emits — queue
//! admission, batch execution, retries, degradations, farm lease spans on a
//! remote tracker — carries the same `trace_id`, so a Chrome/Perfetto
//! export (or a grep over the JSON) reassembles the full story of one
//! request across threads, lanes, and TCP hops.
//!
//! Ids are **deterministic**: they are derived from a caller-supplied
//! sequence number (the request counter, an artifact fingerprint) through a
//! SplitMix64 finalizer — no RNG, no clock. Two runs over the same request
//! stream produce byte-identical trace ids, which keeps chaos tests and the
//! zero-noise bit-identity guarantees intact.
//!
//! The wire form ([`TraceContext::encode`] / [`TraceContext::parse`]) is
//! `"{trace_id:016x}-{span_id:016x}"` — compact, greppable, and carried as
//! an optional string field in the farm's JSON frames so old peers ignore
//! it.

use crate::hash::splitmix64;

/// Identity of one traced operation: the trace it belongs to and the span
/// that produced the current hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Shared by every span of the operation, across threads and processes.
    pub trace_id: u64,
    /// The emitting hop; children derive theirs via [`TraceContext::child`].
    pub span_id: u64,
}

impl TraceContext {
    /// Deterministic root context for sequence number `seq` (a request
    /// counter, an artifact fingerprint, a batch id). Ids are never zero.
    pub fn from_seed(seq: u64) -> Self {
        let trace_id = splitmix64(seq).max(1);
        TraceContext {
            trace_id,
            span_id: splitmix64(trace_id).max(1),
        }
    }

    /// A child hop: same trace, new span id derived from this span and the
    /// child's index (lease index, retry attempt, worker id).
    pub fn child(&self, index: u64) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            span_id: splitmix64(self.span_id ^ splitmix64(index)).max(1),
        }
    }

    /// Wire form: `"{trace_id:016x}-{span_id:016x}"`.
    pub fn encode(&self) -> String {
        format!("{:016x}-{:016x}", self.trace_id, self.span_id)
    }

    /// Parse the wire form; `None` on anything malformed (an old or foreign
    /// peer's value must never take the receiver down).
    pub fn parse(s: &str) -> Option<Self> {
        let (t, sp) = s.split_once('-')?;
        if t.len() != 16 || sp.len() != 16 {
            return None;
        }
        let trace_id = u64::from_str_radix(t, 16).ok()?;
        let span_id = u64::from_str_radix(sp, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext { trace_id, span_id })
    }

    /// The trace id as the hex string spans and exports carry.
    pub fn trace_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    /// The span id as a hex string.
    pub fn span_hex(&self) -> String {
        format!("{:016x}", self.span_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_deterministic_and_distinct() {
        assert_eq!(TraceContext::from_seed(7), TraceContext::from_seed(7));
        assert_ne!(
            TraceContext::from_seed(7).trace_id,
            TraceContext::from_seed(8).trace_id
        );
        // seeds 0 and 1 must not degenerate to zero ids
        for seq in 0..4 {
            let ctx = TraceContext::from_seed(seq);
            assert_ne!(ctx.trace_id, 0);
            assert_ne!(ctx.span_id, 0);
        }
    }

    #[test]
    fn children_share_the_trace_id_but_not_the_span_id() {
        let root = TraceContext::from_seed(42);
        let a = root.child(0);
        let b = root.child(1);
        assert_eq!(a.trace_id, root.trace_id);
        assert_eq!(b.trace_id, root.trace_id);
        assert_ne!(a.span_id, root.span_id);
        assert_ne!(a.span_id, b.span_id);
        assert_eq!(root.child(1), root.child(1), "derivation is pure");
    }

    #[test]
    fn wire_form_round_trips() {
        let ctx = TraceContext::from_seed(123456789);
        let encoded = ctx.encode();
        assert_eq!(encoded.len(), 33);
        assert_eq!(TraceContext::parse(&encoded), Some(ctx));
    }

    #[test]
    fn malformed_wire_forms_parse_to_none() {
        for bad in [
            "",
            "zzz",
            "0123456789abcdef",
            "0123456789abcdef-",
            "0123456789abcdef-0123456789abcde",  // short span half
            "0123456789abcdeg-0123456789abcdef", // non-hex
            "0000000000000000-0123456789abcdef", // zero trace id
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
    }
}
