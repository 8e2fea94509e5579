//! The shared byte-level primitives both file formats are built from.
//!
//! Same discipline as `smartpick_wire::codec`: writing is infallible
//! appends to a `Vec<u8>`; reading goes through a bounds-checked
//! [`Reader`] that can never panic, over-read, or allocate unboundedly
//! (every count is sanity-checked against the bytes actually remaining
//! before a `Vec` is sized from it). All integers are big-endian;
//! floats travel as raw IEEE-754 bits so round-trips are bit-exact.

use crate::error::StoreError;

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `bool` as one byte, `0` or `1`.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Appends a big-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends an `f64` as its raw bits (bit-exact round-trip, NaN included).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a `u32`-count-prefixed `f64` slice.
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_f64(out, v);
    }
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// A bounds-checked forward reader over a byte slice. Total: every
/// method returns [`StoreError::Corrupt`] instead of panicking on any
/// input.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading `bytes` from the front.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Rejects trailing bytes: a payload that decodes "successfully"
    /// without consuming everything was mis-framed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if any bytes remain.
    pub fn finish(&self) -> Result<(), StoreError> {
        if self.pos != self.bytes.len() {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after the payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        match self.bytes.get(self.pos..self.pos.saturating_add(n)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(StoreError::Corrupt(format!(
                "truncated: wanted {n} bytes, {} left",
                self.remaining()
            ))),
        }
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool` written by [`put_bool`]; `what` names the field in
    /// the error.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation or a byte other than `0`/`1`.
    pub fn bool(&mut self, what: &str) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::Corrupt(format!("bad {what} flag {other}"))),
        }
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation.
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` stored as a big-endian `u64` (sizes and indices
    /// are 64-bit on disk whatever the host); `what` names the field in
    /// the error.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation or a value this host's
    /// `usize` cannot hold.
    pub fn usize(&mut self, what: &str) -> Result<usize, StoreError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| StoreError::Corrupt(format!("{what} {v} exceeds usize")))
    }

    /// Reads an `f64` from its raw bits.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StoreError::Corrupt(format!("non-UTF-8 string: {e}")))
    }

    /// Reads a count that claims `per_item` bytes per element, rejecting
    /// counts beyond what the remaining bytes could possibly hold — the
    /// allocation bound every `Vec`-building loop checks first.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation or an impossible count.
    pub fn count(&mut self, per_item: usize) -> Result<usize, StoreError> {
        let n = self.u32()? as usize;
        let cap = self.remaining() / per_item.max(1);
        if n > cap {
            return Err(StoreError::Corrupt(format!(
                "count {n} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a `u32`-count-prefixed `f64` vector.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on truncation or an impossible count.
    pub fn f64s(&mut self) -> Result<Vec<f64>, StoreError> {
        let n = self.count(8)?;
        let mut vs = Vec::with_capacity(n);
        for _ in 0..n {
            vs.push(self.f64()?);
        }
        Ok(vs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exact() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        put_f64(&mut out, f64::NAN);
        put_str(&mut out, "tenant-α");
        put_f64s(&mut out, &[1.5, f64::INFINITY, 1e-300]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "tenant-α");
        let vs = r.f64s().unwrap();
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[0], 1.5);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_lying_counts_are_rejected_not_panicked() {
        let mut out = Vec::new();
        put_str(&mut out, "hello");
        // Truncate at every offset: each must fail cleanly.
        for cut in 0..out.len() {
            let mut r = Reader::new(&out[..cut]);
            assert!(r.str().is_err(), "cut at {cut}");
        }
        // A count claiming more items than bytes remain is a lie.
        let mut lie = Vec::new();
        put_u32(&mut lie, u32::MAX);
        assert!(Reader::new(&lie).f64s().is_err());
        // Trailing bytes are rejected.
        let mut extra = Vec::new();
        put_u8(&mut extra, 1);
        put_u8(&mut extra, 2);
        let mut r = Reader::new(&extra);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn non_utf8_strings_are_rejected() {
        let mut out = Vec::new();
        put_u32(&mut out, 2);
        out.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Reader::new(&out).str().is_err());
    }
}
