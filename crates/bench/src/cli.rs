//! The one flag parser the workspace binaries share: a cursor over
//! `std::env::args` with typed getters. Every misuse prints a one-line
//! reason and the binary's usage text to stderr and exits 2; a `--flag`
//! given twice is always misuse.

use std::str::FromStr;

/// Print `usage` to stderr and exit 2.
pub fn exit_usage(usage: &str) -> ! {
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Cursor over the process arguments (program name skipped).
pub struct Cli {
    usage: &'static str,
    args: std::env::Args,
    seen: Vec<String>,
}

impl Cli {
    /// Start parsing; `usage` is printed on every usage error.
    pub fn from_env(usage: &'static str) -> Cli {
        let mut args = std::env::args();
        args.next();
        Cli {
            usage,
            args,
            seen: Vec::new(),
        }
    }

    /// Print `reason`, then the usage text, and exit 2.
    pub fn fail(&self, reason: &str) -> ! {
        eprintln!("{reason}");
        exit_usage(self.usage)
    }

    /// Fail on a flag the binary does not know.
    pub fn unknown(&self, flag: &str) -> ! {
        self.fail(&format!("unknown flag {flag}"))
    }

    /// The next argument, flag or positional; a repeated `--flag` fails.
    pub fn next_arg(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        if arg.starts_with("--") {
            if self.seen.contains(&arg) {
                self.fail(&format!("{arg} given twice"));
            }
            self.seen.push(arg.clone());
        }
        Some(arg)
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.args.next() {
            Some(value) => value,
            None => self.fail(&format!("{flag} needs a value")),
        }
    }

    /// The value following `flag`, parsed; `what` completes "`flag` needs …".
    pub fn parsed<T: FromStr>(&mut self, flag: &str, what: &str) -> T {
        match self.value(flag).parse() {
            Ok(value) => value,
            Err(_) => self.fail(&format!("{flag} needs {what}")),
        }
    }

    /// The value following `flag` as an integer greater than zero.
    pub fn positive<T: FromStr + PartialOrd + Default>(&mut self, flag: &str) -> T {
        let what = "a positive integer";
        let value: T = self.parsed(flag, what);
        if value <= T::default() {
            self.fail(&format!("{flag} needs {what}"));
        }
        value
    }
}
