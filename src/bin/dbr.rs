//! `dbr` — de Bruijn network routing toolbox.
//!
//! See `dbr help` for usage; the command logic lives in
//! [`debruijn_suite::cli`] so it can be unit-tested.

use std::process::ExitCode;

use debruijn_suite::cli::{self, TRACE_USAGE, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("error: {msg}");
            // An unknown subcommand or a `dbr trace` mistake already ends
            // with its usage block.
            if !msg.ends_with(USAGE) && !msg.ends_with(TRACE_USAGE) {
                eprintln!("{USAGE}");
            }
            return ExitCode::FAILURE;
        }
    };
    match cli::run(&cmd) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
