//! The FNV-1a content hash the flow's cache keys and part digests, the
//! design digest and the QoR fingerprint derive from: one-shot over bytes,
//! or streamed as a [`std::fmt::Write`] sink.

/// FNV-1a over `bytes`: the shared 64-bit content hash.
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
