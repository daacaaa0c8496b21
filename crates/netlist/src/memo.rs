//! Sub-stage memoization hook: the storage-agnostic interface engine crates
//! expose so a persistent store can cache results *below* stage granularity.
//!
//! The flow layer's stage cache memoizes whole stage executions; the
//! sub-stage hook lets a kernel inside a stage — the routing of a decomposed
//! connection list — replay from a prior run even when the stage-level key
//! misses (for example after a config edit that leaves the kernel's own
//! input untouched). The engine crate (`eda-route`) takes an optional
//! `&dyn SubstageMemo` and looks up `(kind, key)` pairs; the flow layer
//! implements the trait over its embedded store.
//!
//! Contract: a payload stored under `(kind, key)` must be a pure function of
//! the key's preimage, and a `load` hit must replay bit-identically to the
//! recompute it stands in for. `load` returning `None` means miss, evicted,
//! or unreadable — the caller always recomputes; a memo failure must never
//! fail the kernel.
//!
//! Granularity rule: an entry must replace work that costs more than a store
//! round trip; per-item entries do not. One entry per route qualifies; one
//! per net (measured: slower than the Prim scan it replaced even on a full
//! hit) does not, and neither did one per AIG optimization pass (measured:
//! `1_synthesis` took as long with it as without).

/// A key-value memo for kernel-level (sub-stage) results. Implementations
/// must tolerate concurrent use from one thread at a time per kernel; the
/// engine crates only call it from the orchestrating thread, never from
/// parallel workers.
pub trait SubstageMemo {
    /// Returns the payload stored under `(kind, key)`, or `None` on a miss
    /// (including evicted or unreadable entries — the caller recomputes).
    fn load(&self, kind: &str, key: u64) -> Option<String>;

    /// Stores `payload` under `(kind, key)`. Failures are absorbed by the
    /// implementation; storing never fails the kernel.
    fn store(&self, kind: &str, key: u64, payload: &str);
}

/// FNV-1a over `bytes`: the shared 64-bit content hash every sub-stage key
/// derives from (same constants as the flow layer's content addresses).
pub fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h = Fnv1a::new();
    bytes.for_each(|b| h.byte(b));
    h.finish()
}

/// [`fnv1a`] as an incremental hasher, and as a [`std::fmt::Write`] sink so
/// a serializer can be hashed as it streams by instead of being collected
/// into a `String` first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of the empty input.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        s.bytes().for_each(|b| self.byte(b));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashMap;

    struct MapMemo(RefCell<HashMap<(String, u64), String>>);

    impl SubstageMemo for MapMemo {
        fn load(&self, kind: &str, key: u64) -> Option<String> {
            self.0.borrow().get(&(kind.to_string(), key)).cloned()
        }
        fn store(&self, kind: &str, key: u64, payload: &str) {
            self.0.borrow_mut().insert((kind.to_string(), key), payload.to_string());
        }
    }

    #[test]
    fn memo_roundtrips_and_misses_cleanly() {
        let memo = MapMemo(RefCell::new(HashMap::new()));
        assert_eq!(memo.load("aig", 7), None);
        memo.store("aig", 7, "payload");
        assert_eq!(memo.load("aig", 7).as_deref(), Some("payload"));
        assert_eq!(memo.load("route", 7), None, "kinds are separate namespaces");
    }

    #[test]
    fn fnv_is_the_reference_vector() {
        // FNV-1a("a") from the published test vectors.
        assert_eq!(fnv1a("a".bytes()), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a("ab".bytes()), fnv1a("ba".bytes()));
    }

    #[test]
    fn streamed_hash_equals_the_one_shot_hash() {
        use std::fmt::Write;
        let mut h = Fnv1a::new();
        writeln!(h, "n a {} {}", 12, 345).unwrap();
        h.write_str("end\n").unwrap();
        assert_eq!(h.finish(), fnv1a("n a 12 345\nend\n".bytes()));
        assert_eq!(Fnv1a::new().finish(), fnv1a(std::iter::empty()));
    }
}
