//! Gram interning shared by the graph builders and the frozen graph.
//!
//! Grams live back to back in one `String` arena, numbered in order of
//! first insertion, and are found through an open-addressed table of
//! ids. A gram of at most 7 bytes (every gram of the paper's rank-4
//! graphs over ASCII text) is also kept as one packed word, its bytes in
//! the low bytes and its length in the top byte, and a probe compares
//! that word alone. Hashing uses [`GramHasher`], a fixed-key
//! multiply-rotate hash, in place of the standard library's keyed
//! SipHash: every text position hashes one gram of a few bytes, and a
//! gram of at most 7 bytes hashes as its packed word. A fixed key gives
//! up SipHash's defence against inputs crafted to collide, so the
//! serving fast path, which builds graphs from pages never seen before,
//! caps its input at 4,096 chars; training texts come from the labelled
//! corpus.

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

/// The most bytes a gram's packed word holds.
pub(crate) const WORD_BYTES: usize = 7;

/// The packed word of a gram of more than [`WORD_BYTES`] bytes: its top
/// byte, `0xff`, is no packed gram's length.
const LONG: u64 = u64::MAX;

/// The packed word of `gram`: its bytes in the low bytes and its length
/// in the top byte, or [`LONG`] when it has more than [`WORD_BYTES`]
/// bytes. A packed word is the one word [`GramHasher`] hashes such a
/// gram as.
fn pack(gram: &str) -> u64 {
    let bytes = gram.as_bytes();
    if bytes.len() > WORD_BYTES {
        return LONG;
    }
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    buf[7] = bytes.len() as u8;
    u64::from_le_bytes(buf)
}

/// The packed words of the `rank`-byte grams of `bytes`, gram `k` being
/// `bytes[k..k + rank]`. `rank` must be in `1..=WORD_BYTES`.
pub(crate) fn packed_words(bytes: &[u8], rank: usize) -> impl Iterator<Item = u64> + '_ {
    debug_assert!((1..=WORD_BYTES).contains(&rank));
    let shift = 8 * (rank as u32 - 1);
    let tag = (rank as u64) << 56;
    // `window` holds the latest `rank` bytes, the oldest lowest.
    let mut window = 0u64;
    bytes.iter().enumerate().filter_map(move |(i, &b)| {
        window = window >> 8 | u64::from(b) << shift;
        (i + 1 >= rank).then_some(window | tag)
    })
}

/// Interned grams with dense `u32` ids in first-insertion order.
///
/// A probe for a gram of at most [`WORD_BYTES`] bytes compares its
/// packed word and reads neither `ends` nor the arena; a longer gram is
/// compared through the arena.
#[derive(Debug, Clone, Default)]
pub(crate) struct GramTable {
    /// Every gram's text, back to back in id order.
    text: String,
    /// Gram `id` ends at `ends[id]` in `text` and starts where gram
    /// `id - 1` ends (at 0 for the first gram).
    ends: Vec<usize>,
    /// Every gram's packed word, in id order.
    words: Vec<u64>,
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
        let word = pack(gram);
        self.lookup(word, (word == LONG).then_some(gram))
    }

    /// The id here of `other`'s gram `id`, if interned.
    ///
    /// # Panics
    /// Panics if `id` is out of `other`'s range.
    pub(crate) fn find(&self, other: &GramTable, id: u32) -> Option<u32> {
        let word = other.words[id as usize];
        self.lookup(word, (word == LONG).then(|| other.gram(id)))
    }

    /// Interns `gram`, returning its id.
    pub(crate) fn intern(&mut self, gram: &str) -> u32 {
        self.intern_word(pack(gram), gram)
    }

    /// Interns `other`'s gram `id`, returning its id here.
    ///
    /// # Panics
    /// Panics if `id` is out of `other`'s range.
    pub(crate) fn intern_from(&mut self, other: &GramTable, id: u32) -> u32 {
        self.intern_word(other.words[id as usize], other.gram(id))
    }

    /// Interns `gram`, whose packed word is `word`, returning its id.
    pub(crate) fn intern_word(&mut self, word: u64, gram: &str) -> u32 {
        debug_assert_eq!(word, pack(gram));
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let slot = self.probe(word, (word == LONG).then_some(gram));
        if self.slots[slot] != VACANT {
            return self.slots[slot];
        }
        assert!(self.len() < VACANT as usize, "n-gram id space exhausted");
        let id = self.len() as u32;
        self.text.push_str(gram);
        self.ends.push(self.text.len());
        self.words.push(word);
        self.slots[slot] = id;
        id
    }

    /// Releases the arena's spare capacity once no more grams will come.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.words.shrink_to_fit();
    }

    /// The id of the gram with packed word `word` and, when that is
    /// [`LONG`], text `long`.
    fn lookup(&self, word: u64, long: Option<&str>) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let id = self.slots[self.probe(word, long)];
        (id != VACANT).then_some(id)
    }

    /// The slot holding the gram with packed word `word` (and text
    /// `long` when the word is [`LONG`]), or the vacant slot where it
    /// belongs. `slots` must be non-empty and hold a vacant slot.
    fn probe(&self, word: u64, long: Option<&str>) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = hash(word, long) as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == VACANT
                || self.words[id as usize] == word && long.map_or(true, |g| self.gram(id) == g)
            {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the slot table and re-places every id.
    fn grow(&mut self) {
        self.slots = vec![VACANT; (2 * self.slots.len()).max(16)];
        for id in 0..self.len() as u32 {
            let word = self.words[id as usize];
            let slot = self.probe(word, (word == LONG).then(|| self.gram(id)));
            self.slots[slot] = id;
        }
    }
}

/// [`GramHasher`]'s hash of the gram with packed word `word`, or of the
/// text `long` when the word is [`LONG`].
fn hash(word: u64, long: Option<&str>) -> u64 {
    let mut hasher = GramHasher::default();
    match long {
        Some(gram) => hasher.write(gram.as_bytes()),
        None => hasher.write_u64(word),
    }
    hasher.finish()
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

    #[test]
    fn short_grams_hash_as_their_packed_word() {
        for gram in ["", "a", "phar", "é\0", "abcdefg", "abcdefgh", "naïveté"] {
            let mut bytes = GramHasher::default();
            bytes.write(gram.as_bytes());
            let word = pack(gram);
            assert_eq!(word == LONG, gram.len() > WORD_BYTES, "{gram}");
            let long = (word == LONG).then_some(gram);
            assert_eq!(hash(word, long), bytes.finish(), "{gram}");
        }
    }

    #[test]
    fn packed_words_slide_over_the_bytes() {
        let text = "no prescription";
        for rank in 1..=WORD_BYTES {
            let words: Vec<u64> = packed_words(text.as_bytes(), rank).collect();
            let want: Vec<u64> = (0..=text.len() - rank)
                .map(|k| pack(&text[k..k + rank]))
                .collect();
            assert_eq!(words, want, "rank {rank}");
        }
        assert_eq!(packed_words(b"abc", 4).count(), 0);
    }

    #[test]
    fn long_grams_compare_through_the_arena() {
        let mut t = GramTable::default();
        assert_eq!(t.intern("prescription"), 0);
        assert_eq!(t.intern("prescriptions"), 1);
        assert_eq!(t.intern("pres"), 2);
        assert_eq!(t.get("prescription"), Some(0));
        assert_eq!(t.get("prescriptio"), None);
        let mut u = GramTable::default();
        assert_eq!(u.intern_from(&t, 2), 0);
        assert_eq!(u.intern_from(&t, 1), 1);
        assert_eq!(u.find(&t, 1), Some(1));
        assert_eq!(u.find(&t, 0), None);
        assert_eq!(u.gram(1), "prescriptions");
    }
}
