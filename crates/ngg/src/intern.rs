//! Gram interning shared by the graph builders and the frozen graph.
//!
//! Grams live back to back in one `String` arena, numbered in order of
//! first insertion, and are found through an open-addressed table of
//! ids. Hashing uses [`GramHasher`], a fixed-key multiply-rotate hash,
//! in place of the standard library's keyed SipHash: every text position
//! hashes one gram of a few bytes. A fixed key gives up SipHash's
//! defence against inputs crafted to collide, so the serving fast path,
//! which builds graphs from pages never seen before, caps its input at
//! 4,096 chars; training texts come from the labelled corpus.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc-hash's mixing step: odd, with well-spread bits.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// A fixed-key multiply-rotate hasher: each 8-byte word is added to the
/// state and multiplied, and `finish` rotates the well-mixed high bits
/// down to where table indexing reads them.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct GramHasher(u64);

impl Hasher for GramHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(buf));
        }
        // The tail's length goes in its free top byte, so texts that
        // differ only by trailing NULs still hash apart.
        let tail = words.remainder();
        let mut buf = [0u8; 8];
        buf[..tail.len()].copy_from_slice(tail);
        buf[7] = tail.len() as u8;
        self.write_u64(u64::from_le_bytes(buf));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `BuildHasher` for maps keyed by packed edge ids.
pub(crate) type GramHashState = BuildHasherDefault<GramHasher>;

/// Marks an empty slot; also the one id [`GramTable::intern`] never issues.
const VACANT: u32 = u32::MAX;

/// Interned grams with dense `u32` ids in first-insertion order.
#[derive(Debug, Clone, Default)]
pub(crate) struct GramTable {
    /// Every gram's text, back to back in id order.
    text: String,
    /// Gram `id` ends at `ends[id]` in `text` and starts where gram
    /// `id - 1` ends (at 0 for the first gram).
    ends: Vec<usize>,
    /// Ids placed by hash with linear probing, [`VACANT`] where empty.
    /// Empty or a power of two in length, and at most half full.
    slots: Vec<u32>,
}

impl GramTable {
    /// An empty table whose slots hold `grams` ids without growing.
    pub(crate) fn with_capacity(grams: usize) -> Self {
        GramTable {
            slots: vec![VACANT; (2 * grams).next_power_of_two().max(16)],
            ..GramTable::default()
        }
    }

    /// Number of interned grams.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The gram with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub(crate) fn gram(&self, id: u32) -> &str {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.text[start..self.ends[id]]
    }

    /// The id of `gram`, if interned.
    pub(crate) fn get(&self, gram: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let id = self.slots[self.probe(gram)];
        (id != VACANT).then_some(id)
    }

    /// Interns `gram`, returning its id.
    pub(crate) fn intern(&mut self, gram: &str) -> u32 {
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let slot = self.probe(gram);
        if self.slots[slot] != VACANT {
            return self.slots[slot];
        }
        assert!(self.len() < VACANT as usize, "n-gram id space exhausted");
        let id = self.len() as u32;
        self.text.push_str(gram);
        self.ends.push(self.text.len());
        self.slots[slot] = id;
        id
    }

    /// Releases the arena's spare capacity once no more grams will come.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// The slot holding `gram`, or the vacant slot where it belongs.
    /// `slots` must be non-empty and hold a vacant slot.
    fn probe(&self, gram: &str) -> usize {
        let mut hasher = GramHasher::default();
        hasher.write(gram.as_bytes());
        let mask = self.slots.len() - 1;
        let mut slot = hasher.finish() as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == VACANT || self.gram(id) == gram {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the slot table and re-places every id.
    fn grow(&mut self) {
        self.slots = vec![VACANT; (2 * self.slots.len()).max(16)];
        for id in 0..self.len() as u32 {
            let slot = self.probe(self.gram(id));
            self.slots[slot] = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_first_insertion() {
        let mut t = GramTable::default();
        assert_eq!(t.intern("phar"), 0);
        assert_eq!(t.intern("harm"), 1);
        assert_eq!(t.intern("phar"), 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.gram(1), "harm");
        assert_eq!(t.get("harm"), Some(1));
        assert_eq!(t.get("arma"), None);
        assert_eq!(GramTable::default().get("phar"), None);
    }

    #[test]
    fn survives_growth_with_multibyte_and_empty_grams() {
        let mut t = GramTable::default();
        let grams: Vec<String> = (0..1000).map(|i| format!("é{i}\0")).collect();
        t.intern("");
        for g in &grams {
            t.intern(g);
        }
        assert_eq!(t.len(), 1001);
        assert_eq!(t.get(""), Some(0));
        for (i, g) in grams.iter().enumerate() {
            assert_eq!(t.get(g), Some(i as u32 + 1));
            assert_eq!(t.gram(i as u32 + 1), g);
        }
        assert_eq!(t.get("é1"), None, "a trailing NUL is part of the gram");
    }
}
