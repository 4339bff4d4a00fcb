//! Shared command-line plumbing for the tool binaries. The tools follow
//! the paper's conventions: positional input file, `-o` output, long
//! flags for options.
//!
//! Each binary declares one table of its options, and [`parse_args`] is
//! the one reader of argv. It answers `--help` from the table and
//! `--version` with the toolset version. It refuses, with exit 2 and the
//! usage on stderr, a name the table does not hold, an option given
//! without its value and a positional past the most the binary reads,
//! and the `opt_*` readers refuse a value that does not parse. So an
//! argument that nothing reads cannot pass unnoticed.

use std::process::exit;

/// One option: its name (given as `--name` or `-name`), the placeholder
/// of its value (`None` for a bare flag), and its help line.
pub type Opt = (&'static str, Option<&'static str>, &'static str);

/// What every binary answers without a table entry.
const BUILTIN: &[Opt] = &[
    ("help", None, "print this help and exit (also -h)"),
    ("version", None, "print the toolset version (also -V)"),
];

/// A command line read against a binary's table: positionals plus the
/// options given, in order.
#[derive(Debug)]
pub struct Args {
    pub positionals: Vec<String>,
    usage: &'static str,
    opts: &'static [Opt],
    given: Vec<(&'static str, Option<String>)>,
}

/// Reads argv against `opts`, taking at most `positionals` positional
/// arguments. `usage` is the usage line, the tool's name first (further
/// forms on lines of their own); `footer` is the prose `--help` prints
/// after the options.
pub fn parse_args(
    usage: &'static str,
    opts: &'static [Opt],
    positionals: usize,
    footer: &str,
) -> Args {
    let mut args = Args {
        positionals: Vec::new(),
        usage,
        opts,
        given: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) else {
            args.positionals.push(a);
            continue;
        };
        match name {
            "help" | "h" => {
                print!("{}", help(usage, opts, footer));
                exit(0);
            }
            "version" | "V" => {
                println!("{} {}", args.tool(), crate::FLOW_VERSION);
                exit(0);
            }
            _ => {}
        }
        let Some(&(name, value, _)) = opts.iter().find(|o| o.0 == name) else {
            args.refuse(format!("unknown option '{a}'"));
        };
        let value = value.map(|v| {
            let missing = || args.refuse(format!("{a} needs a value ({v})"));
            argv.next().unwrap_or_else(missing)
        });
        args.given.push((name, value));
    }
    if let Some(extra) = args.positionals.get(positionals) {
        args.refuse(format!("unexpected argument '{extra}'"));
    }
    args
}

/// An option as it is typed: `-o` for a one-letter name, else `--name`.
pub fn flag_label(name: &str) -> String {
    let dash = if name.len() == 1 { "-" } else { "--" };
    format!("{dash}{name}")
}

/// The `--help` text: usage, one row per option, then `footer`.
fn help(usage: &str, opts: &[Opt], footer: &str) -> String {
    let label = |&(name, value, _): &Opt| {
        let flag = flag_label(name);
        value.map_or(flag.clone(), |v| format!("{flag} {v}"))
    };
    let rows = || opts.iter().chain(BUILTIN);
    let width = rows().map(|o| label(o).len()).max().unwrap_or(0);
    let mut out = format!("usage: {usage}\n\noptions:\n");
    for o in rows() {
        out += &format!("  {:<width$}  {}\n", label(o), o.2);
    }
    if !footer.is_empty() {
        out += &format!("\n{footer}\n");
    }
    out
}

impl Args {
    /// The binary's name: the usage line's first word.
    fn tool(&self) -> &'static str {
        self.usage
            .split_once(' ')
            .map_or(self.usage, |(tool, _)| tool)
    }

    /// Each time `name` was given, with its value. Asking for a name the
    /// table does not hold is a bug in the binary.
    fn given(&self, name: &str) -> impl Iterator<Item = &Option<String>> {
        let Some(&(name, ..)) = self.opts.iter().find(|o| o.0 == name) else {
            panic!("{} has no --{name}", self.tool());
        };
        self.given.iter().filter(move |g| g.0 == name).map(|g| &g.1)
    }

    /// The name of each option given, in order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.given.iter().map(|g| g.0)
    }

    /// The bare flag `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.given(name).next().is_some()
    }

    /// The last value given for `--name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.all(name).last()
    }

    /// Every value given for `--name`, in order.
    pub fn all(&self, name: &str) -> impl Iterator<Item = &str> {
        self.given(name).filter_map(Option::as_deref)
    }

    /// Exits 2 with `msg` and the usage: the command line is wrong.
    pub fn refuse(&self, msg: impl std::fmt::Display) -> ! {
        let tool = self.tool();
        eprintln!("{tool}: error: {msg}");
        eprintln!("usage: {}\n       (see {tool} --help)", self.usage);
        exit(2);
    }
}

/// Read the input file (first positional), or refuse without one.
pub fn input_or_usage(args: &Args) -> String {
    let Some(path) = args.positionals.first() else {
        args.refuse("no input file");
    };
    match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read '{path}': {e}");
            exit(1);
        }
    }
}

/// Write to `-o <path>`, or stdout when absent.
pub fn write_output(args: &Args, content: &str) {
    match args.get("o") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("error: cannot write '{path}': {e}");
                exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{content}"),
    }
}

/// Write binary output to `-o <path>` (mandatory for binary formats).
pub fn write_binary_output(args: &Args, content: &[u8], default_name: &str) {
    let path = args.get("o").unwrap_or(default_name);
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("error: cannot write '{path}': {e}");
        exit(1);
    }
    eprintln!("wrote {path} ({} bytes)", content.len());
}

/// Exit printing a tool error.
pub fn die(tool: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("{tool}: error: {err}");
    exit(1);
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

/// `--flag N`: a plain number option; a value that does not parse is refused.
fn opt_number<T: std::str::FromStr>(args: &Args, flag: &str) -> Option<T> {
    let bad = |raw: &str| args.refuse(format!("bad --{flag} '{raw}'"));
    args.get(flag)
        .map(|raw| raw.parse().unwrap_or_else(|_| bad(raw)))
}

/// `--flag N`: an integer [`opt_number`].
pub fn opt_u64(args: &Args, flag: &str) -> Option<u64> {
    opt_number(args, flag)
}

/// `--flag X`: a floating-point [`opt_number`].
pub fn opt_f64(args: &Args, flag: &str) -> Option<f64> {
    opt_number(args, flag)
}

/// `--flag DUR`: a [`parse_duration_ms`] option, in milliseconds.
pub fn opt_duration_ms(args: &Args, flag: &str) -> Option<u64> {
    let bad = |e: String| args.refuse(format!("bad --{flag}: {e}"));
    args.get(flag)
        .map(|raw| parse_duration_ms(raw).unwrap_or_else(bad))
}

/// `--flag SIZE`: a [`parse_size_bytes`] option, in bytes.
pub fn opt_size_bytes(args: &Args, flag: &str) -> Option<u64> {
    let bad = |e: String| args.refuse(format!("bad --{flag}: {e}"));
    args.get(flag)
        .map(|raw| parse_size_bytes(raw).unwrap_or_else(bad))
}

/// `opt` ([`opt_u64`], [`opt_duration_ms`] or [`opt_size_bytes`]) for a
/// flag whose zero means nothing: `--flag 0` is refused.
pub fn nonzero(opt: fn(&Args, &str) -> Option<u64>, args: &Args, flag: &str) -> Option<u64> {
    let value = opt(args, flag)?;
    if value == 0 {
        args.refuse(format!("bad --{flag} '0'"));
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
