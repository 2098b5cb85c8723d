//! Fixed-size page format and the CRC32 it is sealed with.
//!
//! ```text
//! page := crc:u32 len:u32 page_no:u32 payload[PAGE_CAPACITY]
//! ```
//!
//! All fields little-endian. `crc` covers **every byte after itself** —
//! `len`, `page_no`, the used payload *and* the padding — so a single-bit
//! flip anywhere in the 8 KiB page is detected, not just flips inside the
//! region `len` claims to use. `page_no` sits inside the checksummed
//! region so a misdirected write (a valid page landing at the wrong
//! offset) is also caught.

use super::StoreError;

/// Size of one page on disk and in a buffer-pool frame.
pub const PAGE_SIZE: usize = 8192;

/// Bytes of header preceding the payload: crc(4) + len(4) + page_no(4).
pub const PAGE_HEADER: usize = 12;

/// Usable payload bytes per page.
pub const PAGE_CAPACITY: usize = PAGE_SIZE - PAGE_HEADER;

/// IEEE CRC-32 (the zlib/PNG polynomial), std-only.
///
/// Slicing-by-16 (Kounavis & Berry, ISCC 2005): sixteen bytes per step
/// through sixteen 256-entry tables, then a byte-at-a-time tail. It
/// computes the plain byte loop's bits (the tests hold that loop as an
/// oracle), so no on-disk format depends on the kernel.
///
/// Called from two places only (CI checks it): this page format, and
/// [`super::framed`] for every other durable file — the service WAL and
/// snapshot included.
pub fn crc32(bytes: &[u8]) -> u32 {
    // `static`, not `const`: debug builds copy a `const` array per use.
    static T: [[u32; 256]; 16] = crc32_tables();
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let b: &[u8; 16] = b.try_into().expect("16-byte block");
        let x = (crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
        let t = |k: usize, byte: u8| T[k][byte as usize];
        crc = t(15, x[0])
            ^ t(14, x[1])
            ^ t(13, x[2])
            ^ t(12, x[3])
            ^ t(11, b[4])
            ^ t(10, b[5])
            ^ t(9, b[6])
            ^ t(8, b[7])
            ^ t(7, b[8])
            ^ t(6, b[9])
            ^ t(5, b[10])
            ^ t(4, b[11])
            ^ t(3, b[12])
            ^ t(2, b[13])
            ^ t(1, b[14])
            ^ t(0, b[15]);
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// `T[0]` is the classic byte table; `T[k][i]` is the CRC register after
/// byte `i` is followed by `k` zero bytes, so one step folds sixteen
/// bytes with one lookup each.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Sets the used-payload length field of a page buffer.
pub fn set_len(buf: &mut [u8], len: u32) {
    debug_assert!(len as usize <= PAGE_CAPACITY);
    buf[4..8].copy_from_slice(&len.to_le_bytes());
}

/// Reads the used-payload length field of a page buffer.
pub fn get_len(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf[4..8].try_into().expect("page header"))
}

/// The used payload slice of a sealed (or verified) page buffer.
pub fn payload(buf: &[u8]) -> &[u8] {
    let len = get_len(buf) as usize;
    &buf[PAGE_HEADER..PAGE_HEADER + len]
}

/// The full mutable payload region of a page buffer.
pub fn payload_mut(buf: &mut [u8]) -> &mut [u8] {
    &mut buf[PAGE_HEADER..]
}

/// Seals a page for writing: stamps `page_no` and checksums everything
/// after the crc field. `len` must already be set (see [`set_len`]).
pub fn seal(buf: &mut [u8], page_no: u32) {
    debug_assert_eq!(buf.len(), PAGE_SIZE);
    buf[8..12].copy_from_slice(&page_no.to_le_bytes());
    let crc = crc32(&buf[4..]);
    buf[0..4].copy_from_slice(&crc.to_le_bytes());
}

/// Verifies a page read from disk: checksum must match and the stamped
/// page number must equal the offset it was read from. Returns the used
/// payload length.
pub fn verify(buf: &[u8], expect_page_no: u32) -> Result<u32, StoreError> {
    debug_assert_eq!(buf.len(), PAGE_SIZE);
    let stored = u32::from_le_bytes(buf[0..4].try_into().expect("page header"));
    let computed = crc32(&buf[4..]);
    if stored != computed {
        return Err(StoreError::CorruptPage {
            page_no: expect_page_no,
            detail: format!("checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"),
        });
    }
    let page_no = u32::from_le_bytes(buf[8..12].try_into().expect("page header"));
    if page_no != expect_page_no {
        return Err(StoreError::CorruptPage {
            page_no: expect_page_no,
            detail: format!("misdirected write: page stamped {page_no}"),
        });
    }
    let len = get_len(buf);
    if len as usize > PAGE_CAPACITY {
        return Err(StoreError::CorruptPage {
            page_no: expect_page_no,
            detail: format!("length {len} exceeds page capacity"),
        });
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the slicing kernel replaced: the oracle
    /// its bits are held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        static T: [[u32; 256]; 16] = crc32_tables();
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    fn xorshift_bytes(n: usize, mut seed: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect()
    }

    #[test]
    fn crc32_is_bit_identical_to_the_byte_loop() {
        // Every length 0..=4096 at every start offset 0..16, so each
        // block/tail split and alignment is covered.
        let buf = xorshift_bytes(16 + 4096, 0x0C2C_32AB);
        for start in 0..16 {
            for len in 0..=4096 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        // The span a page's checksum covers.
        let page = xorshift_bytes(PAGE_SIZE, 0xFEED_BEEF);
        assert_eq!(crc32(&page[4..]), crc32_bytewise(&page[4..]));
        assert_eq!(page[4..].len(), 8188);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    fn sealed_page(page_no: u32, payload_bytes: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[PAGE_HEADER..PAGE_HEADER + payload_bytes.len()].copy_from_slice(payload_bytes);
        set_len(&mut buf, payload_bytes.len() as u32);
        seal(&mut buf, page_no);
        buf
    }

    #[test]
    fn seal_verify_round_trip() {
        let buf = sealed_page(7, b"hello pages");
        assert_eq!(verify(&buf, 7).unwrap(), 11);
        assert_eq!(payload(&buf), b"hello pages");
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let clean = sealed_page(3, b"payload bytes under test");
        for byte in 0..PAGE_SIZE {
            // Sample bits exhaustively over the header + payload region and
            // sparsely over padding (the full sweep lives in the fault gate).
            let bits: &[u8] = if byte < 64 {
                &[0, 1, 2, 3, 4, 5, 6, 7]
            } else {
                &[byte as u8 % 8]
            };
            for &bit in bits {
                let mut flipped = clean.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    verify(&flipped, 3).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn misdirected_page_is_rejected() {
        let buf = sealed_page(5, b"x");
        let err = verify(&buf, 6).unwrap_err();
        assert!(matches!(err, StoreError::CorruptPage { .. }));
        assert!(err.to_string().contains("misdirected"));
    }

    #[test]
    fn oversized_len_is_rejected_even_with_valid_crc() {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[4..8].copy_from_slice(&((PAGE_CAPACITY + 1) as u32).to_le_bytes());
        seal(&mut buf, 0);
        assert!(matches!(
            verify(&buf, 0),
            Err(StoreError::CorruptPage { .. })
        ));
    }
}
