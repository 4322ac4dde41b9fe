//! Minimal JSON writer used by the built-in sinks.
//!
//! The trace and metrics exporters stream their (small, fixed) shapes —
//! the trace-event records and the flat metrics map — directly into a
//! byte buffer instead of building a `serde_json` tree first: traces can
//! hold hundreds of thousands of events, the writer cannot fail, and the
//! output stays byte-stable across serde versions. Every string written
//! is copied from a `&str` and everything else written is ASCII, so a
//! finished document is UTF-8; [`into_string`] checks that once.
//!
//! Both writers take a fast path for the common case and print exactly
//! what the general path prints: a string with nothing to escape is
//! pushed whole, and an integral number below 2^53 in magnitude is
//! printed as an integer (the digits `Display` prints for it).

use std::io::Write as _;

/// Whether `s` holds a byte that [`write_str`] must escape. Every such
/// byte is ASCII, so a byte scan never splits a multi-byte character.
fn needs_escape(s: &str) -> bool {
    s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20)
}

/// Append `s` as a JSON string literal (quoted, escaped).
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    if needs_escape(s) {
        write_escaped(out, s);
    } else {
        out.extend_from_slice(s.as_bytes());
    }
    out.push(b'"');
}

/// Escape `s` byte by byte: the bytes of a multi-byte character are all
/// 0x80 and above, so they are copied unchanged.
fn write_escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x0c => out.extend_from_slice(b"\\f"),
            b if b < 0x20 => {
                out.extend_from_slice(b"\\u00");
                out.extend_from_slice(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]]);
            }
            b => out.push(b),
        }
    }
}

/// Append `v` in decimal.
pub(crate) fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Magnitudes below this are integers exactly when `fract() == 0`, and
/// convert to `u64` without rounding.
const EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Append `v` as a JSON number. `Display` for `f64` prints the shortest
/// decimal that round-trips, which is always a valid JSON number;
/// non-finite values become `null` (matching `serde_json`).
pub(crate) fn write_f64(out: &mut Vec<u8>, v: f64) {
    if v.abs() < EXACT_INT && v.fract() == 0.0 {
        if v.is_sign_negative() {
            out.push(b'-');
        }
        write_u64(out, v.abs() as u64);
    } else if v.is_finite() {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{v}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// A finished document as text: the one UTF-8 check of its bytes.
pub(crate) fn into_string(bytes: Vec<u8>) -> Result<String, crate::ObsError> {
    String::from_utf8(bytes)
        .map_err(|e| crate::ObsError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))
}

/// One memo slot: an `f64`'s bits and the digits written for it (`len`
/// 0 marks an empty slot; every written number has at least one digit).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    bits: u64,
    len: u8,
    digits: [u8; 23],
}

/// A [`JsonBuf`]'s number memo has `2^MEMO_BITS` slots.
const MEMO_BITS: u32 = 6;

/// A [`JsonBuf`]'s first capacity: a power of two, so that doubling keeps
/// every capacity one, and the LM trace's 519 KB of records fit in
/// 512 KiB. Grown from its first record (56 bytes), the buffer ends at
/// 896 KiB instead; with the exported copy beside it, a process that
/// writes trace after trace then frees about as much as glibc's threshold
/// for returning the heap top to the OS, and whether each trace re-faults
/// its pages (about 0.9 ms of the LM run) depends on the heap's layout.
const FIRST_CAPACITY: usize = 4096;

/// A JSON text being written, with a memo of the fractional numbers
/// written into it.
///
/// Traces repeat values: one timestamp on every bank's counter of a
/// step, one duration on every hop of a slot. The memo is a small
/// direct-mapped table from an `f64`'s bits to the digits [`write_f64`]
/// printed for it, so a repeated value copies its digits instead of
/// running the shortest-round-trip search again. The text is exactly
/// what [`write_f64`] would write.
#[derive(Debug)]
pub(crate) struct JsonBuf {
    pub(crate) bytes: Vec<u8>,
    memo: [Slot; 1 << MEMO_BITS],
}

impl Default for JsonBuf {
    fn default() -> Self {
        Self { bytes: Vec::with_capacity(FIRST_CAPACITY), memo: [Slot::default(); 1 << MEMO_BITS] }
    }
}

impl JsonBuf {
    /// Append a fixed fragment of JSON text.
    pub(crate) fn push(&mut self, fragment: &[u8]) {
        self.bytes.extend_from_slice(fragment);
    }

    /// Append `s` as [`write_str`] does.
    pub(crate) fn write_str(&mut self, s: &str) {
        write_str(&mut self.bytes, s);
    }

    /// Append `v` as [`write_u64`] does.
    pub(crate) fn write_u64(&mut self, v: u64) {
        write_u64(&mut self.bytes, v);
    }

    /// Append `v` as [`write_f64`] does.
    pub(crate) fn write_f64(&mut self, v: f64) {
        let integral = v.abs() < EXACT_INT && v.fract() == 0.0;
        if integral || !v.is_finite() {
            return write_f64(&mut self.bytes, v);
        }
        let bits = v.to_bits();
        // Fibonacci hashing: the top bits of the product index the table.
        let at = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize;
        let slot = &mut self.memo[at];
        let len = usize::from(slot.len);
        if len > 0 && slot.bits == bits {
            self.bytes.extend_from_slice(&slot.digits[..len]);
            return;
        }
        let start = self.bytes.len();
        write_f64(&mut self.bytes, v);
        let digits = &self.bytes[start..];
        if digits.len() <= slot.digits.len() {
            slot.digits[..digits.len()].copy_from_slice(digits);
            slot.bits = bits;
            slot.len = digits.len() as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(bytes: Vec<u8>) -> String {
        into_string(bytes).expect("the writers write UTF-8")
    }

    fn str_of(s: &str) -> String {
        let mut out = Vec::new();
        write_str(&mut out, s);
        text(out)
    }

    fn num_of(v: f64) -> String {
        let mut out = Vec::new();
        write_f64(&mut out, v);
        text(out)
    }

    /// The general path: every byte through the escape table.
    fn escaped_of(s: &str) -> String {
        let mut out = b"\"".to_vec();
        write_escaped(&mut out, s);
        out.push(b'"');
        text(out)
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(str_of("plain"), r#""plain""#);
        assert_eq!(str_of("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(str_of("a\nb\tc"), r#""a\nb\tc""#);
        assert_eq!(str_of("\u{01}"), "\"\\u0001\"");
        assert_eq!(str_of("\u{1f}"), "\"\\u001f\"");
        assert_eq!(str_of("µs ✓"), "\"µs ✓\"");
    }

    #[test]
    fn numbers_round_trip_and_nonfinite_is_null() {
        assert_eq!(num_of(0.0), "0");
        assert_eq!(num_of(1.5), "1.5");
        assert_eq!(num_of(-0.25), "-0.25");
        assert_eq!(num_of(f64::NAN), "null");
        assert_eq!(num_of(f64::INFINITY), "null");
        let v: f64 = 1234.000244140625; // exact in binary; must round-trip
        assert_eq!(num_of(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn integral_fast_path_prints_what_display_prints() {
        let two_53 = EXACT_INT;
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            7.0,
            1000.0,
            two_53 - 1.0,
            -(two_53 - 1.0),
            two_53,
            two_53 + 2.0,
            -two_53,
            1e21,
            -1e21,
            1e300,
            f64::MAX,
        ] {
            assert_eq!(num_of(v), format!("{v}"), "{v:e}");
        }
        assert_eq!(num_of(-0.0), "-0");
        assert_eq!(num_of(two_53 - 1.0), "9007199254740991");
        assert_eq!(num_of(1e21), "1000000000000000000000");
    }

    #[test]
    fn memo_writes_what_write_f64_writes() {
        let mut buf = JsonBuf::default();
        let mut expected = Vec::new();
        let values = [0.1, 0.1, 1.0 / 3.0, -2.5e-7, 1e-300, 6023.497267605634, f64::NAN, -0.0];
        // Every value twice over, and enough distinct values to evict.
        let evicting = (0..200).map(|i| f64::from(i) / 7.0);
        for v in values.into_iter().chain(values).chain(evicting.clone()).chain(evicting) {
            buf.write_f64(v);
            buf.push(b",");
            write_f64(&mut expected, v);
            expected.push(b',');
        }
        assert_eq!(buf.bytes, expected);
    }

    #[test]
    fn integers_print_in_decimal() {
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(text(out), v.to_string());
        }
    }

    #[test]
    fn clean_string_fast_path_prints_what_the_escape_path_prints() {
        for s in [
            "",
            "plain",
            "hop 3->4",
            "µs ✓ 日本",
            "quote\"inside",
            "back\\slash",
            "\n\r\t\u{08}\u{0c}",
            "\u{01}\u{1f} ctl",
            "mixé\u{7f}",
            "日\u{1}本\"",
        ] {
            assert_eq!(str_of(s), escaped_of(s), "{s:?}");
        }
        assert!(!needs_escape("µs ✓ \u{7f}"));
        assert!(needs_escape("a\u{1f}"));
    }

    #[test]
    fn invalid_utf8_is_an_error_not_a_panic() {
        assert!(into_string(vec![b'"', 0xff, b'"']).is_err());
        assert_eq!(text(b"[]".to_vec()), "[]");
    }
}
