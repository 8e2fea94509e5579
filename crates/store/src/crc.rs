//! CRC-32 (IEEE 802.3), the checksum both on-disk formats carry.
//!
//! The standard reflected CRC (polynomial `0xEDB88320`, initial value
//! and final XOR `!0`), computed *slicing-by-16*: sixteen 256-entry
//! tables, built at first use, where table `k` holds the register
//! after byte `n` followed by `k` zero bytes. One XOR of sixteen lookups
//! then advances the register over a whole 16-byte block, and the
//! remainder goes a byte at a time through table 0 — the classic
//! byte-at-a-time algorithm. Both give the same value for every input
//! (the test module keeps a bit-at-a-time reference and checks every
//! length and alignment against it), so every snapshot and WAL byte on
//! disk is unchanged. Slicing-by-16 reads about 5× faster than
//! byte-at-a-time on a 4 KiB fork snapshot and on a 190 KiB trained one
//! (`BENCH_store.json`, `rehydrate`); on a 2-vCPU Xeon VM it also
//! measured ahead of slicing-by-8 (2.3 against 3.2 µs for 4 KiB).
//!
//! Torn-write detection — a record or snapshot whose payload bytes were
//! only partially flushed — is the whole job; cryptographic integrity is
//! explicitly *not* (the store trusts its own disk, not its writers'
//! atomicity).

use std::sync::OnceLock;

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes consumed per table step, and the number of tables.
const SLICES: usize = 16;

/// `tables()[k][n]`: the register after feeding byte `n` into a zero
/// register, then `k` zero bytes — `8 × (k + 1)` steps of the
/// bit-at-a-time definition. Built at first use.
fn tables() -> &'static [[u32; 256]; SLICES] {
    static TABLES: OnceLock<[[u32; 256]; SLICES]> = OnceLock::new();
    TABLES.get_or_init(|| {
        std::array::from_fn(|k| {
            std::array::from_fn(|n| {
                (0..8 * (k + 1)).fold(
                    n as u32,
                    |c, _| {
                        if c & 1 != 0 {
                            (c >> 1) ^ POLY
                        } else {
                            c >> 1
                        }
                    },
                )
            })
        })
    })
}

/// One table's entry for byte `b`.
#[inline(always)]
fn entry(table: &[u32; 256], b: u8) -> u32 {
    // lint:allow(panic-free-server-paths, reason = "a u8 index is below the table length 256")
    table[usize::from(b)]
}

/// The CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let tables = tables();
    let mut c = !0u32;
    let (blocks, tail) = bytes.as_chunks::<SLICES>();
    for block in blocks {
        let mut x = *block;
        for (b, r) in x.iter_mut().zip(c.to_le_bytes()) {
            *b ^= r;
        }
        // Byte i of the block is followed by SLICES - 1 - i more.
        c = x
            .iter()
            .zip(tables.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ entry(table, b));
    }
    for &b in tail {
        c = (c >> 8) ^ entry(&tables[0], c as u8 ^ b);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32/IEEE: the definition, with no table.
    fn reference(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
        }
        !c
    }

    /// A deterministic pseudo-random buffer (xorshift64).
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn every_length_and_alignment_matches_the_bitwise_reference() {
        let buf = noise(64 + 8, 0x9E37_79B9_7F4A_7C15);
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), reference(bytes), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn a_mebibyte_matches_the_bitwise_reference() {
        let buf = noise(1 << 20, 0xD1B5_4A32_D192_ED03);
        assert_eq!(crc32(&buf), reference(&buf));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let want = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), want, "byte {i} bit {bit}");
            }
        }
    }
}
