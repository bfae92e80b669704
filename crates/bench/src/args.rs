//! The one command-line parser of the workspace: every `reach`
//! subcommand and every report binary declares its flags in a table,
//! and [`parse`] reads a command line against that table.
//!
//! A token that starts with `--` is a flag; any other token is a
//! positional argument, kept in order. A flag that takes a value takes
//! the next token verbatim, whatever it looks like. A flag the table
//! does not declare, a value-taking flag with no token after it, and a
//! second use of a flag that does not repeat are [`ArgError`]s that
//! name the flag and carry the command's usage line.

use std::fmt;
use std::str::FromStr;

/// One declared flag and its spelling, `--` included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// A flag without a value, given at most once.
    Switch(&'static str),
    /// A flag with a value, given at most once.
    Value(&'static str),
    /// A flag with a value that may be given any number of times.
    List(&'static str),
}

impl Flag {
    /// Its spelling, `--` included.
    pub fn name(self) -> &'static str {
        match self {
            Flag::Switch(name) | Flag::Value(name) | Flag::List(name) => name,
        }
    }
}

/// A command-line mistake: what is wrong, and the usage line of the
/// command it was made on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    /// What is wrong, naming the flag or argument.
    pub message: String,
    /// The command's usage line.
    pub usage: &'static str,
}

impl ArgError {
    /// The error and the usage line, as a command prints them.
    pub fn report(&self) -> String {
        format!("error: {}\nusage: {}", self.message, self.usage)
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ArgError {}

/// A command line read against its flag table. Reading a flag the
/// table does not declare panics: that is a bug in the command, not a
/// mistake in its input.
#[derive(Debug)]
pub struct Args<'a> {
    flags: &'a [Flag],
    usage: &'static str,
    /// The positional arguments, in order.
    pub positional: Vec<String>,
    /// Each flag given, with its value, in command-line order.
    given: Vec<(Flag, Option<String>)>,
}

/// Reads `argv` (the arguments after the command's name) against
/// `flags`; `usage` is the command's usage line, for the errors.
pub fn parse<'a>(
    argv: &[String],
    flags: &'a [Flag],
    usage: &'static str,
) -> Result<Args<'a>, ArgError> {
    let mut args = Args {
        flags,
        usage,
        positional: Vec::new(),
        given: Vec::new(),
    };
    let mut tokens = argv.iter();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            args.positional.push(token.clone());
            continue;
        }
        let Some(&flag) = flags.iter().find(|f| f.name() == token) else {
            return Err(args.error(format!("unknown flag {token:?}")));
        };
        if !matches!(flag, Flag::List(_)) && args.given.iter().any(|(f, _)| *f == flag) {
            return Err(args.error(format!("{token} given more than once")));
        }
        let value = match flag {
            Flag::Switch(_) => None,
            _ => match tokens.next() {
                Some(value) => Some(value.clone()),
                None => return Err(args.error(format!("{token} needs a value"))),
            },
        };
        args.given.push((flag, value));
    }
    Ok(args)
}

/// Parses this process's arguments against `flags` and hands them to
/// `read`, which turns them into what the program runs on. A report
/// binary takes no positional arguments. On a mistake, prints it with
/// the usage line and exits with status 1.
pub fn from_env<T>(
    flags: &[Flag],
    usage: &'static str,
    read: impl FnOnce(&Args) -> Result<T, ArgError>,
) -> T {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let read = parse(&argv, flags, usage).and_then(|args| match args.positional.first() {
        Some(extra) => Err(args.error(format!("unexpected argument {extra:?}"))),
        None => read(&args),
    });
    read.unwrap_or_else(|e| {
        eprintln!("{}", e.report());
        std::process::exit(1)
    })
}

impl Args<'_> {
    /// An argument error on this command line.
    pub fn error(&self, message: impl Into<String>) -> ArgError {
        ArgError {
            message: message.into(),
            usage: self.usage,
        }
    }

    /// Every use of flag `name`, with its value, in order.
    fn uses(&self, name: &str) -> impl Iterator<Item = Option<&str>> {
        let Some(&flag) = self.flags.iter().find(|f| f.name() == name) else {
            panic!("{name} is not a declared flag")
        };
        self.given
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|(_, value)| value.as_deref())
    }

    /// Whether flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.uses(name).next().is_some()
    }

    /// Every value given for `name`, in order.
    pub fn values(&self, name: &str) -> Vec<&str> {
        self.uses(name).flatten().collect()
    }

    /// The (first) value of `name`, if it was given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.uses(name).flatten().next()
    }

    /// The value of `name` parsed as a `T`, if it was given.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| self.error(format!("invalid {name} value {v:?}")))
            })
            .transpose()
    }

    /// The value of `name` parsed as a `T`, `default` if it was not
    /// given; a value below `min` is an error.
    pub fn get_at_least<T: FromStr + PartialOrd + fmt::Display>(
        &self,
        name: &str,
        default: T,
        min: T,
    ) -> Result<T, ArgError> {
        let value = self.get(name)?.unwrap_or(default);
        if value < min {
            return Err(self.error(format!("{name} must be at least {min}")));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::Switch("--all"),
        Flag::Value("--n"),
        Flag::List("--index"),
    ];
    const USAGE: &str = "demo <graph> [--all] [--n N] [--index NAME ...]";

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn values_and_positionals_come_back_in_order() {
        let args = parse(
            &argv(&[
                "g.el", "--index", "A", "--all", "3", "--index", "--n", "--n", "7",
            ]),
            FLAGS,
            USAGE,
        )
        .unwrap();
        assert_eq!(args.positional, ["g.el", "3"]);
        assert_eq!(args.values("--index"), ["A", "--n"]);
        assert!(args.has("--all"));
        assert_eq!(args.get::<usize>("--n").unwrap(), Some(7));
    }

    #[test]
    fn mistakes_name_the_flag_and_carry_the_usage() {
        for (tokens, message) in [
            (&["--bogus"][..], "unknown flag \"--bogus\""),
            (&["g", "--n"], "--n needs a value"),
            (&["--all", "--all"], "--all given more than once"),
            (&["--n", "1", "--n", "2"], "--n given more than once"),
            (&["-"], ""),
        ] {
            match parse(&argv(tokens), FLAGS, USAGE) {
                Err(e) => {
                    assert_eq!(e.message, message);
                    assert_eq!(e.usage, USAGE);
                    assert_eq!(e.report(), format!("error: {message}\nusage: {USAGE}"));
                }
                Ok(args) => assert!(message.is_empty(), "{tokens:?} parsed: {args:?}"),
            }
        }
        let args = parse(&argv(&["--n", "x"]), FLAGS, USAGE).unwrap();
        let e = args.get::<usize>("--n").unwrap_err();
        assert_eq!(e.message, "invalid --n value \"x\"");
        let args = parse(&argv(&["--n", "1"]), FLAGS, USAGE).unwrap();
        assert_eq!(args.get_at_least("--n", 5, 1), Ok(1));
        let e = args.get_at_least("--n", 5, 2).unwrap_err();
        assert_eq!(e.message, "--n must be at least 2");
    }

    #[test]
    #[should_panic(expected = "--seed is not a declared flag")]
    fn reading_an_undeclared_flag_is_a_bug() {
        parse(&[], FLAGS, USAGE).unwrap().value("--seed");
    }
}
