//! `digs-cli` — run DiGS / Orchestra / WirelessHART networks, the flight
//! recorder, telemetry, the conformance gate, the paper's figures, fleets
//! and the `digsd` daemon from the command line. `digs-cli help` prints every command
//! and flag; both come from the one table in [`flags`], and each command
//! family's handlers live in the module named after it.

mod digsd;
mod figures;
mod flags;
mod fleet;
mod gate;
mod run;
mod telemetry;
mod trace;

use std::process::ExitCode;

fn main() -> ExitCode {
    for warning in flags::unread_env() {
        eprintln!("digs-cli: {warning}");
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|word| word == "help") {
        print!("{}", flags::usage(true));
        return ExitCode::SUCCESS;
    }
    match flags::parse(&argv).and_then(|args| (args.command.run)(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
