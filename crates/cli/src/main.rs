//! `mcloud` binary entry point. All logic lives in the library.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match mcloud_cli::run(&argv) {
        Ok(report) => {
            // `mcloud serve` writes its responses to the transport and
            // returns an empty report; don't print a stray blank line.
            if report.is_empty() {
                return ExitCode::SUCCESS;
            }
            let mut out = std::io::stdout().lock();
            let written = out
                .write_all(report.as_bytes())
                .and_then(|_| out.write_all(b"\n"))
                .and_then(|_| out.flush());
            match written {
                // A reader that stops early (`mcloud trace | head`) has
                // taken all the output it wants: a quiet, successful end.
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("error: writing output: {e}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
