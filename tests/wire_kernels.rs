//! The byte kernels under every hop, against bytewise references.
//!
//! The `serde_json` stand-in finds string runs a `u64` word at a time
//! (the reader stops at `"` and `\`, the escaper also below 0x20), and
//! `hash::to_hex` / `from_hex` go by table into buffers sized up front.
//! Each is held here to a plain byte-at-a-time version of itself: the
//! escaper to a reference escaper, the reader to the string it was
//! given, and the hex pair to the per-byte code it replaced, errors
//! included. `tests/json_wire_bytes.rs` pins the recorded bytes; this
//! file sweeps the positions a word-wise scan can get wrong: every
//! length up to 40 at every alignment, each stop byte at each position,
//! and stop bytes next to bytes a borrow could mistake for them.

use fpga_framework::flow::hash::{from_hex, to_hex};
use fpga_framework::netlist::mix::{xorshift64, XORSHIFT_STAR};
use serde_json::{from_str_value, Value};

/// What the escaper must print, one byte at a time.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print(s: &str) -> String {
    Value::String(s.to_string()).to_string()
}

/// `s` prints as the reference says and reads back as itself.
fn check_string(s: &str) {
    let printed = print(s);
    assert_eq!(printed, reference_escape(s), "escaping {s:?}");
    assert_eq!(from_str_value(&printed).unwrap(), Value::String(s.into()));
}

/// Every byte the escaper stops at, and the characters a word-wise scan
/// could confuse with them: neighbours of `"` and `\`, the edges of the
/// control range, DEL, and non-ASCII of every UTF-8 width (U+0080 holds
/// the byte 0x80).
fn alphabet() -> Vec<char> {
    let mut a: Vec<char> = (0u8..0x20).map(char::from).collect();
    a.extend(['"', '\\', ' ', '!', '#', '[', ']', 'a', '\u{7f}', '\u{80}']);
    a.extend(['é', '€', '😀']);
    a
}

#[test]
fn every_stop_byte_at_every_position_and_alignment() {
    let filler = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    for len in 0..=40 {
        for offset in 0..8 {
            // A run with no stop byte, starting at each offset mod 8.
            let plain = &filler[offset..offset + len];
            check_string(plain);
            for at in 0..len {
                for &c in &alphabet() {
                    let mut s: String = plain[..at].into();
                    s.push(c);
                    s.push_str(&plain[at + 1..]);
                    check_string(&s);
                }
            }
        }
    }
}

#[test]
fn stop_bytes_beside_each_other_and_their_lookalikes() {
    let a = alphabet();
    for &x in &a {
        for &y in &a {
            for lead in 0..8 {
                let s = format!("{}{x}{y}tail_of_run", "-".repeat(lead));
                check_string(&s);
            }
        }
    }
}

#[test]
fn random_strings_print_and_read_back_as_the_reference() {
    let a = alphabet();
    let mut state = 0x5eed_u64;
    let mut next = move || xorshift64(&mut state).wrapping_mul(XORSHIFT_STAR);
    for _ in 0..4000 {
        let len = (next() % 72) as usize;
        let s: String = (0..len)
            .map(|_| match next() % 4 {
                0 => a[(next() % a.len() as u64) as usize],
                _ => char::from(b'a' + (next() % 26) as u8),
            })
            .collect();
        check_string(&s);
    }
}

#[test]
fn the_reader_takes_raw_runs_as_they_are() {
    // Raw control characters and non-ASCII inside a string are accepted
    // and kept; only `"` and `\` end a run.
    for len in 0..=40 {
        for offset in 0..8 {
            let s: String = (0..len)
                .map(|i| ['x', '\u{1}', '\u{1f}', 'é', '\u{7f}', ' ', '€'][(i + offset) % 7])
                .collect();
            let v = from_str_value(&format!("{}\"{s}\"", " ".repeat(offset))).unwrap();
            assert_eq!(v.as_str(), Some(s.as_str()));
        }
    }
    let err = from_str_value("\"abcdefghijklmnop")
        .unwrap_err()
        .to_string();
    assert_eq!(err, "unterminated string at byte 17");
}

/// The encoder `to_hex` replaced: two pushes per byte.
fn reference_to_hex(bytes: &[u8]) -> String {
    let digits = b"0123456789abcdef";
    let mut s = String::new();
    for b in bytes {
        s.push(digits[usize::from(b >> 4)] as char);
        s.push(digits[usize::from(b & 0xf)] as char);
    }
    s
}

/// The decoder `from_hex` replaced: one pair at a time, stopping at the
/// first bad one.
fn reference_from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".to_string());
    }
    let digit = |b: u8| (b as char).to_digit(16);
    let mut out = Vec::new();
    for (i, pair) in s.as_bytes().chunks(2).enumerate() {
        match (digit(pair[0]), digit(pair[1])) {
            (Some(hi), Some(lo)) => out.push((hi << 4 | lo) as u8),
            _ => return Err(format!("bad hex at {}", 2 * i)),
        }
    }
    Ok(out)
}

#[test]
fn hex_by_table_equals_hex_by_byte() {
    let all: Vec<u8> = (0..=255).collect();
    assert_eq!(to_hex(&all), reference_to_hex(&all));
    assert_eq!(from_hex(&to_hex(&all)).unwrap(), all);
    let upper = to_hex(&all).to_ascii_uppercase();
    assert_eq!(from_hex(&upper), reference_from_hex(&upper));
    let mut state = 0x4e78_u64;
    for len in 0..300 {
        let bytes: Vec<u8> = (0..len).map(|_| xorshift64(&mut state) as u8).collect();
        let hex = to_hex(&bytes);
        assert_eq!(hex, reference_to_hex(&bytes));
        assert_eq!(from_hex(&hex).unwrap(), bytes);
    }
}

#[test]
fn from_hex_reports_the_first_bad_pair_as_before() {
    let bad = ['g', 'G', '+', '-', ' ', '\0', 'x', 'é', '/', ':', '@', '`'];
    for len in 0..=24 {
        let good: String = "0123456789abcdefABCDEF0a1b".chars().take(len).collect();
        assert_eq!(from_hex(&good), reference_from_hex(&good), "{good:?}");
        for at in 0..len {
            for &c in &bad {
                let mut s: String = good.chars().take(at).collect();
                s.push(c);
                s.extend(good.chars().skip(at + 1));
                assert_eq!(from_hex(&s), reference_from_hex(&s), "{s:?}");
            }
        }
    }
    // Two bad pairs: the first one's offset is reported.
    assert_eq!(from_hex("00zz11gg").unwrap_err(), "bad hex at 2");
    assert_eq!(from_hex("abc").unwrap_err(), "odd-length hex");
}
