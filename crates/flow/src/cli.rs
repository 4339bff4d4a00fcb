//! Minimal shared command-line plumbing for the tool binaries. The tools
//! follow the paper's conventions: positional input file, `-o` output,
//! long flags for options, helpful usage text on error.

use std::collections::HashMap;

/// Parsed command line: positionals plus `--key value` / `-o value` pairs
/// and bare `--flags`.
#[derive(Debug, Default)]
pub struct Args {
    pub positionals: Vec<String>,
    pub options: HashMap<String, String>,
    pub flags: Vec<String>,
}

/// Options that take a value (everything else with a dash is a flag).
pub fn parse_args(valued: &[&str]) -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
            if valued.contains(&name) {
                let v = it.next().unwrap_or_default();
                args.options.insert(name.to_string(), v);
            } else {
                args.flags.push(name.to_string());
            }
        } else {
            args.positionals.push(a);
        }
    }
    args
}

/// Read the input file (first positional) or exit with usage.
pub fn input_or_usage(args: &Args, usage: &str) -> String {
    let Some(path) = args.positionals.first() else {
        eprintln!("usage: {usage}");
        std::process::exit(2);
    };
    match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read '{path}': {e}");
            std::process::exit(1);
        }
    }
}

/// Write to `-o <path>`, or stdout when absent.
pub fn write_output(args: &Args, content: &str) {
    match args.options.get("o") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("error: cannot write '{path}': {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{content}"),
    }
}

/// Write binary output to `-o <path>` (mandatory for binary formats).
pub fn write_binary_output(args: &Args, content: &[u8], default_name: &str) {
    let path = args
        .options
        .get("o")
        .cloned()
        .unwrap_or_else(|| default_name.to_string());
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("error: cannot write '{path}': {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path} ({} bytes)", content.len());
}

/// Exit printing a tool error.
pub fn die(tool: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("{tool}: error: {err}");
    std::process::exit(1);
}

/// Shared `--version` handling: when the flag is present, print the
/// tool's name with the toolset version ([`crate::FLOW_VERSION`], the
/// same string folded into stage-cache keys) and exit.
pub fn handle_version(tool: &str, args: &Args) {
    if args.flags.iter().any(|f| f == "version" || f == "V") {
        println!("{tool} {}", crate::FLOW_VERSION);
        std::process::exit(0);
    }
}

/// Parse a human duration into milliseconds. Accepts a bare number
/// (milliseconds) or a number with an `ms`/`s`/`m`/`h` suffix:
/// `"250"` = `"250ms"`, `"30s"` = 30 000, `"5m"`, `"1h"`. Fractions are
/// allowed with suffixes (`"1.5s"` = 1500). Both `flowd` and `flowc` use
/// this for every deadline/timeout flag, so the two binaries accept the
/// same spellings.
pub fn parse_duration_ms(text: &str) -> Result<u64, String> {
    let text = text.trim();
    let (number, scale) = if let Some(n) = text.strip_suffix("ms") {
        (n, 1.0)
    } else if let Some(n) = text.strip_suffix('s') {
        (n, 1e3)
    } else if let Some(n) = text.strip_suffix('m') {
        (n, 60e3)
    } else if let Some(n) = text.strip_suffix('h') {
        (n, 3600e3)
    } else {
        (text, 1.0)
    };
    let value: f64 = number
        .trim()
        .parse()
        .map_err(|_| format!("bad duration '{text}' (try 250ms, 30s, 5m, 1h)"))?;
    if !value.is_finite() || value < 0.0 || value > u64::MAX as f64 / 3600e3 {
        return Err(format!("duration '{text}' out of range"));
    }
    Ok((value * scale).round() as u64)
}

/// Parse a human size into bytes. Accepts a bare number (bytes) or a
/// number with a `k`/`m`/`g` (or `kb`/`mb`/`gb`) suffix, powers of 1024:
/// `"512"`, `"64k"`, `"8m"`, `"2gb"`. Shared by `flowd` and `flowc` for
/// every size flag.
pub fn parse_size_bytes(text: &str) -> Result<u64, String> {
    let lower = text.trim().to_ascii_lowercase();
    let stripped = lower.strip_suffix('b').unwrap_or(&lower);
    let (number, scale) = if let Some(n) = stripped.strip_suffix('k') {
        (n, 1u64 << 10)
    } else if let Some(n) = stripped.strip_suffix('m') {
        (n, 1u64 << 20)
    } else if let Some(n) = stripped.strip_suffix('g') {
        (n, 1u64 << 30)
    } else {
        (stripped, 1u64)
    };
    let value: f64 = number
        .trim()
        .parse()
        .map_err(|_| format!("bad size '{text}' (try 512, 64k, 8m, 2g)"))?;
    if !value.is_finite() || value < 0.0 || value * scale as f64 > u64::MAX as f64 {
        return Err(format!("size '{text}' out of range"));
    }
    Ok((value * scale as f64).round() as u64)
}

/// `--flag N`: a plain number option, or exit with `tool`'s error.
fn opt_number<T: std::str::FromStr>(args: &Args, tool: &str, flag: &str) -> Option<T> {
    args.options.get(flag).map(|raw| match raw.parse() {
        Ok(n) => n,
        Err(_) => die(tool, format!("bad --{flag} '{raw}'")),
    })
}

/// `--flag N`: an integer [`opt_number`].
pub fn opt_u64(args: &Args, tool: &str, flag: &str) -> Option<u64> {
    opt_number(args, tool, flag)
}

/// `--flag X`: a floating-point [`opt_number`].
pub fn opt_f64(args: &Args, tool: &str, flag: &str) -> Option<f64> {
    opt_number(args, tool, flag)
}

/// `--flag DUR`: a [`parse_duration_ms`] option, in milliseconds.
pub fn opt_duration_ms(args: &Args, tool: &str, flag: &str) -> Option<u64> {
    args.options.get(flag).map(|raw| {
        parse_duration_ms(raw).unwrap_or_else(|e| die(tool, format!("bad --{flag}: {e}")))
    })
}

/// `--flag SIZE`: a [`parse_size_bytes`] option, in bytes.
pub fn opt_size_bytes(args: &Args, tool: &str, flag: &str) -> Option<u64> {
    args.options.get(flag).map(|raw| {
        parse_size_bytes(raw).unwrap_or_else(|e| die(tool, format!("bad --{flag}: {e}")))
    })
}

/// `opt` ([`opt_u64`], [`opt_duration_ms`] or [`opt_size_bytes`]) for a
/// flag whose zero means nothing: `--flag 0` exits with `tool`'s error.
pub fn nonzero(
    opt: fn(&Args, &str, &str) -> Option<u64>,
    args: &Args,
    tool: &str,
    flag: &str,
) -> Option<u64> {
    let value = opt(args, tool, flag)?;
    if value == 0 {
        die(tool, format!("bad --{flag} '0'"));
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_accept_bare_ms_and_suffixes() {
        assert_eq!(parse_duration_ms("250"), Ok(250));
        assert_eq!(parse_duration_ms("250ms"), Ok(250));
        assert_eq!(parse_duration_ms("30s"), Ok(30_000));
        assert_eq!(parse_duration_ms("1.5s"), Ok(1_500));
        assert_eq!(parse_duration_ms("5m"), Ok(300_000));
        assert_eq!(parse_duration_ms("1h"), Ok(3_600_000));
        assert_eq!(parse_duration_ms(" 10s "), Ok(10_000));
        assert!(parse_duration_ms("fast").is_err());
        assert!(parse_duration_ms("-3s").is_err());
        assert!(parse_duration_ms("").is_err());
    }

    #[test]
    fn sizes_accept_bare_bytes_and_binary_suffixes() {
        assert_eq!(parse_size_bytes("512"), Ok(512));
        assert_eq!(parse_size_bytes("64k"), Ok(64 * 1024));
        assert_eq!(parse_size_bytes("64kb"), Ok(64 * 1024));
        assert_eq!(parse_size_bytes("8m"), Ok(8 * 1024 * 1024));
        assert_eq!(parse_size_bytes("2G"), Ok(2 * 1024 * 1024 * 1024));
        assert_eq!(parse_size_bytes("1.5k"), Ok(1536));
        assert!(parse_size_bytes("big").is_err());
        assert!(parse_size_bytes("-1m").is_err());
    }
}
