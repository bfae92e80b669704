//! `reach` — the command-line front end of the reachability workspace.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    match reach_cli::run(&args, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", reach_cli::error_report(&e));
            ExitCode::FAILURE
        }
    }
}
