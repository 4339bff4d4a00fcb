//! The contract every binary's flag table keeps (`fpga_flow::cli`):
//! `--version` prints `<tool> <FLOW_VERSION>`, `--help` lists exactly
//! the table, and an unknown name, a valued option without its value or
//! a positional past the most the binary reads exits 2 with the usage on
//! stderr. Each package's tests include this
//! file by path, since a test can start only its own package's binaries.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `exe args`; a binary still running after 5 s (a daemon that
/// started serving) is killed and fails the test.
pub fn run(exe: &str, args: &[&str]) -> Output {
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    let deadline = Instant::now() + Duration::from_secs(5);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let out = child.wait_with_output().expect("killed child's output");
            let stderr = String::from_utf8_lossy(&out.stderr);
            panic!("{exe} {args:?} still running after 5 s: {stderr}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("child output")
}

/// `exe args` exits 2 with `why` and the usage on stderr; the stderr.
pub fn refused(exe: &str, args: &[&str], why: &str) -> String {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(stderr.contains(why), "{exe} {args:?}: {stderr}");
    assert!(stderr.contains("usage: "), "{exe} {args:?}: {stderr}");
    stderr
}

/// `exe` keeps the contract; it reads at most `positionals` positional
/// arguments, and `rows` are its table's entries as `--help` labels them
/// (`--name VALUE`, `-o FILE`, `--flag`), in table order.
pub fn assert_table(exe: &str, tool: &str, positionals: usize, rows: &[&str]) {
    let version = run(exe, &["--version"]);
    assert_eq!(version.status.code(), Some(0), "{tool} --version");
    let want = format!("{tool} {}\n", fpga_flow::FLOW_VERSION);
    assert_eq!(String::from_utf8_lossy(&version.stdout), want);

    let help = run(exe, &["--help"]);
    assert_eq!(help.status.code(), Some(0), "{tool} --help");
    let text = String::from_utf8_lossy(&help.stdout);
    let options = text.lines().skip_while(|l| *l != "options:").skip(1);
    let options = options.take_while(|l| !l.is_empty());
    let listed: Vec<&str> = options
        .map(|l| l.trim_start().split("  ").next().unwrap_or_default())
        .collect();
    let builtin = ["--help", "--version"];
    assert_eq!(listed, [rows, &builtin].concat(), "{tool} --help:\n{text}");

    refused(exe, &["--no-such-flag"], "unknown option '--no-such-flag'");
    let extra = vec!["extra"; positionals + 1];
    refused(exe, &extra, "unexpected argument 'extra'");
    for flag in rows.iter().filter_map(|row| row.split_once(' ')) {
        refused(exe, &[flag.0], &format!("{} needs a value", flag.0));
    }
}
