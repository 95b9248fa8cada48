//! Strict command-line parsing shared by the workspace binaries.
//!
//! Each binary declares every option it accepts — value options
//! (`--name VALUE`) and bare switches (`--name`) — and parses its
//! arguments once, up front. An undeclared token is an error that names
//! it, so a mistyped `--resume` stops the run instead of silently
//! restarting training from scratch.

/// The parsed command line of one binary.
#[derive(Debug, Default)]
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parses the process arguments (after the program name) against
    /// the declared value `options` and bare `switches`.
    ///
    /// # Errors
    ///
    /// See [`Args::parse_from`].
    pub fn parse(options: &[&str], switches: &[&str]) -> Result<Args, String> {
        Self::parse_from(std::env::args().skip(1), options, switches)
    }

    /// Parses `args` against the declared value `options` and bare
    /// `switches`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending token for an unknown flag,
    /// a stray positional argument, or a value option with no value.
    pub fn parse_from<I>(args: I, options: &[&str], switches: &[&str]) -> Result<Args, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut out = Args::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if options.contains(&a.as_str()) {
                let v = args.next().ok_or_else(|| format!("{a} expects a value"))?;
                out.values.push((a, v));
            } else if switches.contains(&a.as_str()) {
                out.switches.push(a);
            } else if a.starts_with('-') {
                return Err(format!("unknown flag '{a}'"));
            } else {
                return Err(format!("unexpected argument '{a}'"));
            }
        }
        Ok(out)
    }

    /// The value of option `name` (its first occurrence), parsed;
    /// `default` when the option is absent.
    ///
    /// # Errors
    ///
    /// A value that fails to parse is a hard error — the binaries exit
    /// nonzero instead of silently running with the default.
    pub fn arg<T>(&self, name: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        match self.values.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|e| format!("bad value '{v}' for {name}: {e}")),
        }
    }

    /// Whether the bare switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from(
            args.iter().map(|s| s.to_string()),
            &["--seed", "--scale"],
            &["--resume"],
        )
    }

    #[test]
    fn declared_options_and_switches_parse() {
        let a = parse(&["--seed", "7", "--resume"]).unwrap();
        assert_eq!(a.arg("--seed", 42u64), Ok(7));
        assert_eq!(a.arg("--scale", "paper".to_owned()), Ok("paper".to_owned()));
        assert!(a.flag("--resume"));
        assert!(!parse(&[]).unwrap().flag("--resume"));
    }

    #[test]
    fn undeclared_and_malformed_arguments_are_errors() {
        assert!(parse(&["--seed", "7", "--resum"])
            .unwrap_err()
            .contains("--resum"));
        assert!(parse(&["--seed"]).unwrap_err().contains("--seed"));
        assert!(parse(&["smoke"]).unwrap_err().contains("smoke"));
        let a = parse(&["--seed", "x"]).unwrap();
        assert!(a.arg("--seed", 0u64).unwrap_err().contains("--seed"));
    }
}
