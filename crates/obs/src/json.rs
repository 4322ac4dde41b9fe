//! Minimal JSON writer used by the built-in sinks.
//!
//! The trace and metrics exporters stream their (small, fixed) shapes —
//! the trace-event records and the flat metrics map — directly into a
//! `String` instead of building a `serde_json` tree first: traces can hold
//! hundreds of thousands of events, the writer cannot fail, and the
//! output stays byte-stable across serde versions.
//!
//! Both writers take a fast path for the common case and print exactly
//! what the general path prints: a string with nothing to escape is
//! pushed whole, and an integral number below 2^53 in magnitude is
//! printed as an integer (the digits `Display` prints for it).

/// Whether `s` holds a byte that [`write_str`] must escape. Every such
/// byte is ASCII, so a byte scan never splits a multi-byte character.
fn needs_escape(s: &str) -> bool {
    s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20)
}

/// Append `s` as a JSON string literal (quoted, escaped).
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    if needs_escape(s) {
        write_escaped(out, s);
    } else {
        out.push_str(s);
    }
    out.push('"');
}

fn write_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append `v` in decimal.
pub(crate) fn write_u64(out: &mut String, mut v: u64) {
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
    // Only ASCII digits were written.
    out.push_str(std::str::from_utf8(&digits[at..]).unwrap_or_default());
}

/// Magnitudes below this are integers exactly when `fract() == 0`, and
/// convert to `u64` without rounding.
const EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Append `v` as a JSON number. `Display` for `f64` prints the shortest
/// decimal that round-trips, which is always a valid JSON number;
/// non-finite values become `null` (matching `serde_json`).
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if v.abs() < EXACT_INT && v.fract() == 0.0 {
        if v.is_sign_negative() {
            out.push('-');
        }
        write_u64(out, v.abs() as u64);
    } else if v.is_finite() {
        use std::fmt::Write;
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
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
    pub(crate) text: String,
    memo: Vec<Slot>,
}

impl Default for JsonBuf {
    fn default() -> Self {
        Self { text: String::new(), memo: vec![Slot::default(); 1 << MEMO_BITS] }
    }
}

impl JsonBuf {
    /// Append `v` as [`write_f64`] does.
    pub(crate) fn write_f64(&mut self, v: f64) {
        let integral = v.abs() < EXACT_INT && v.fract() == 0.0;
        if integral || !v.is_finite() {
            return write_f64(&mut self.text, v);
        }
        let bits = v.to_bits();
        // Fibonacci hashing: the top bits of the product index the table.
        let at = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize;
        let slot = &mut self.memo[at];
        let len = usize::from(slot.len);
        if len > 0 && slot.bits == bits {
            // The slot holds ASCII digits copied from a written number.
            self.text.push_str(std::str::from_utf8(&slot.digits[..len]).unwrap_or_default());
            return;
        }
        let start = self.text.len();
        write_f64(&mut self.text, v);
        let digits = &self.text.as_bytes()[start..];
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

    fn str_of(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    fn num_of(v: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, v);
        out
    }

    /// The general path: every character through the escape table.
    fn escaped_of(s: &str) -> String {
        let mut out = String::from("\"");
        write_escaped(&mut out, s);
        out.push('"');
        out
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(str_of("plain"), r#""plain""#);
        assert_eq!(str_of("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(str_of("a\nb\tc"), r#""a\nb\tc""#);
        assert_eq!(str_of("\u{01}"), "\"\\u0001\"");
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
        let mut expected = String::new();
        let values = [0.1, 0.1, 1.0 / 3.0, -2.5e-7, 1e-300, 6023.497267605634, f64::NAN, -0.0];
        // Every value twice over, and enough distinct values to evict.
        let evicting = (0..200).map(|i| f64::from(i) / 7.0);
        for v in values.into_iter().chain(values).chain(evicting.clone()).chain(evicting) {
            buf.write_f64(v);
            buf.text.push(',');
            write_f64(&mut expected, v);
            expected.push(',');
        }
        assert_eq!(buf.text, expected);
    }

    #[test]
    fn integers_print_in_decimal() {
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string());
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
        ] {
            assert_eq!(str_of(s), escaped_of(s), "{s:?}");
        }
        assert!(!needs_escape("µs ✓ \u{7f}"));
        assert!(needs_escape("a\u{1f}"));
    }
}
