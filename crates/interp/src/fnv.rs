//! Word-wise FNV-1a: the second hash, independent of the keying one, that
//! verifies hits of the level-set schedule cache in `engine::wavefront`,
//! and the hash of `tuner::input_signature`.

pub(crate) struct Fnv1a(pub(crate) u64);

impl Fnv1a {
    pub(crate) fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn eat(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0100_0000_01b3);
    }

    /// Word-wise, not byte-wise: an index array arrives as one slice —
    /// multi-megabyte on a generation miss, when the schedule cache hashes
    /// the arrays the program never writes — and this pass must stay
    /// cheaper than the SipHash one beside it.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.eat(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.eat(u64::from_le_bytes(tail));
        }
    }
}
