//! Seeded property test of the one command-line parser,
//! `reach_bench::args`, over the flag table of every `reach`
//! subcommand.
//!
//! Each case draws an argument vector from one table: declared flags
//! with arbitrary values (values that look like flags included),
//! repeats, undeclared `--x` flags, a flag missing its value at the
//! end, and junk positional tokens. A model of the rules, built while
//! drawing, says what the parser must return. The parser must never
//! panic, must return every declared value verbatim and in order, and
//! must reject the first undeclared flag by name. Each case runs from
//! its own seed, printed on failure.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_bench::args::{self, Flag};
use reach_cli::COMMANDS;

const CASES: u64 = 2_000;

/// Pieces of tokens: dashes, numbers, paths, constraints, whitespace,
/// non-ASCII, and declared flag names, so values can look like flags.
const PIECES: [&str; 14] = [
    "", "-", "--", "x", "0", "17", "-1", "g.el", "(0|1)*", "∪", " ", "é", "--index", "=BFL",
];

fn token(rng: &mut SmallRng) -> String {
    (0..rng.random_range(0..4))
        .map(|_| PIECES[rng.random_range(0..PIECES.len())])
        .collect()
}

/// A token the parser must take as positional: one not starting `--`.
fn positional(rng: &mut SmallRng) -> String {
    let t = token(rng);
    if t.starts_with("--") {
        format!("p{t}")
    } else {
        t
    }
}

/// A `--` token that names no flag of `flags`.
fn undeclared(rng: &mut SmallRng, flags: &[Flag]) -> String {
    loop {
        let t = format!("--{}", token(rng));
        if !flags.iter().any(|f| f.name() == t) {
            return t;
        }
    }
}

fn takes_value(f: Flag) -> bool {
    !matches!(f, Flag::Switch(_))
}

/// What the parser must return for a drawn command line.
#[derive(Default)]
struct Model {
    positional: Vec<String>,
    given: Vec<(Flag, Option<String>)>,
    error: Option<String>,
}

impl Model {
    fn fail(&mut self, message: String) {
        self.error.get_or_insert(message);
    }

    /// Records flag `f` (with `value`, `None` if it has none or it is
    /// missing at the end of the line), unless an error came first.
    fn flag(&mut self, f: Flag, value: Option<String>) {
        if self.error.is_some() {
            return;
        }
        if !matches!(f, Flag::List(_)) && self.given.iter().any(|(g, _)| *g == f) {
            self.fail(format!("{} given more than once", f.name()));
        } else if takes_value(f) && value.is_none() {
            self.fail(format!("{} needs a value", f.name()));
        } else {
            self.given.push((f, value));
        }
    }
}

/// Draws one command line for `flags` and the model's verdict on it.
fn draw(rng: &mut SmallRng, flags: &'static [Flag]) -> (Vec<String>, Model) {
    let mut argv = Vec::new();
    let mut model = Model::default();
    for _ in 0..rng.random_range(0..10) {
        match rng.random_range(0..6) {
            0 | 1 => {
                let t = positional(rng);
                argv.push(t.clone());
                if model.error.is_none() {
                    model.positional.push(t);
                }
            }
            2..=4 if !flags.is_empty() => {
                let f = flags[rng.random_range(0..flags.len())];
                argv.push(f.name().to_string());
                let value = takes_value(f).then(|| token(rng));
                argv.extend(value.clone());
                model.flag(f, value);
            }
            _ if rng.random_bool(0.3) => {
                let t = undeclared(rng, flags);
                argv.push(t.clone());
                if model.error.is_none() {
                    model.fail(format!("unknown flag {t:?}"));
                }
            }
            _ => {}
        }
    }
    if let Some(&f) = flags.iter().find(|&&f| takes_value(f)) {
        if rng.random_bool(0.1) {
            argv.push(f.name().to_string());
            model.flag(f, None);
        }
    }
    (argv, model)
}

#[test]
fn parser_matches_the_model_on_every_command_table() {
    for (i, command) in COMMANDS.iter().enumerate() {
        for case in 0..CASES {
            let seed = 0xA125_0000 + ((i as u64) << 16) + case;
            let mut rng = SmallRng::seed_from_u64(seed);
            let (argv, model) = draw(&mut rng, command.flags);
            let at = format!("{} case seed {seed:#x}: {argv:?}", command.name);
            match (
                args::parse(&argv, command.flags, command.usage),
                model.error,
            ) {
                (Err(e), Some(message)) => {
                    assert_eq!(e.message, message, "{at}");
                    assert_eq!(e.usage, command.usage, "{at}");
                }
                (Ok(parsed), None) => {
                    assert_eq!(parsed.positional, model.positional, "{at}");
                    for &f in command.flags {
                        let given = model.given.iter().filter(|(g, _)| *g == f);
                        let values: Vec<&str> =
                            given.clone().filter_map(|(_, v)| v.as_deref()).collect();
                        assert_eq!(parsed.values(f.name()), values, "{at}");
                        assert_eq!(parsed.has(f.name()), given.count() > 0, "{at}");
                    }
                }
                (Err(e), None) => panic!("{at}: unexpected error {e}"),
                (Ok(_), Some(message)) => panic!("{at}: accepted, expected {message:?}"),
            }
        }
    }
}
