//! A tiny dependency-free argument parser shared by the reproduction
//! binaries.

use std::collections::BTreeMap;

/// Parsed command line: flags (`--quick`) and key-value options
/// (`--ports 4`).
#[derive(Debug, Default, Clone)]
pub struct Cli {
    program: String,
    flags: Vec<String>,
    options: BTreeMap<String, String>,
}

impl Cli {
    /// Whether a bare flag was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// String option value.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Parses an option into any `FromStr` type, with a default.
    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.opt(name) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                eprintln!("{}: invalid value {raw:?} for --{name}", self.program);
                std::process::exit(2);
            }),
        }
    }

    /// Exits with status 2, naming option `name`, its value and `reason`:
    /// for values that parse but that the program cannot run.
    pub fn reject(&self, name: &str, reason: &str) -> ! {
        let raw = self.opt(name).unwrap_or_default();
        eprintln!(
            "{}: invalid value {raw:?} for --{name}: {reason}",
            self.program
        );
        std::process::exit(2);
    }

    /// Parses a comma-separated list option.
    pub fn opt_list<T: std::str::FromStr + Clone>(&self, name: &str, default: &[T]) -> Vec<T> {
        match self.opt(name) {
            None => default.to_vec(),
            Some(raw) => raw
                .split(',')
                .map(|s| {
                    s.trim().parse().unwrap_or_else(|_| {
                        eprintln!("{}: invalid element {s:?} in --{name}", self.program);
                        std::process::exit(2);
                    })
                })
                .collect(),
        }
    }
}

/// Parses `std::env::args`-style input. `--key value` becomes an option,
/// a lone `--flag` (followed by another `--…` or nothing) becomes a flag.
/// `--help` prints `usage` and exits.
pub fn parse_args(mut argv: impl Iterator<Item = String>, usage: &str) -> Cli {
    let program = argv.next().unwrap_or_else(|| "bench".into());
    let args: Vec<String> = argv.collect();
    let mut cli = Cli {
        program,
        ..Cli::default()
    };
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--help" || a == "-h" {
            println!("{usage}");
            std::process::exit(0);
        }
        let Some(name) = a.strip_prefix("--") else {
            eprintln!("unexpected argument {a:?}\n{usage}");
            std::process::exit(2);
        };
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            cli.options.insert(name.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            cli.flags.push(name.to_string());
            i += 1;
        }
    }
    cli
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Cli {
        parse_args(
            std::iter::once("prog".to_string()).chain(items.iter().map(ToString::to_string)),
            "usage",
        )
    }

    #[test]
    fn flags_and_options() {
        let cli = parse(&["--quick", "--ports", "8", "--rates", "0.1,0.2"]);
        assert!(cli.flag("quick"));
        assert!(!cli.flag("full"));
        assert_eq!(cli.opt("ports"), Some("8"));
        assert_eq!(cli.opt_parse("ports", 4u32), 8);
        assert_eq!(cli.opt_parse("samples", 10u32), 10);
        assert_eq!(cli.opt_list("rates", &[0.5f64]), vec![0.1, 0.2]);
        assert_eq!(cli.opt_list::<f64>("missing", &[0.5]), vec![0.5]);
    }

    #[test]
    fn trailing_flag() {
        let cli = parse(&["--ports", "4", "--full"]);
        assert!(cli.flag("full"));
        assert_eq!(cli.opt("ports"), Some("4"));
    }
}
