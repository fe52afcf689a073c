//! Standard output of the command-line tools: every verb writes through
//! one writer, and a reader that went away (`thicket DIR perf | head`)
//! ends the run quietly instead of panicking in `println!`.

use std::fmt;
use std::io::{self, Write};
use std::process::ExitCode;

/// Why a run stopped before it finished.
pub enum Failure {
    /// Bad usage, or an error the run met, printed with the usage line.
    Error(String),
    /// Writing to standard output failed.
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Error(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Error(msg.to_string())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Output(e)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Error(msg) => f.write_str(msg),
            Failure::Output(e) => write!(f, "writing to stdout: {e}"),
        }
    }
}

/// Run `verb` with standard output as its writer and turn the outcome
/// into the exit status: 0 on success and when the reader of stdout
/// closed it early (nobody is left to read the rest), else 1 after
/// `tool: <error>` and `usage` on stderr.
pub fn run_to_stdout(
    tool: &str,
    usage: &str,
    verb: impl FnOnce(&mut io::Stdout) -> Result<(), Failure>,
) -> ExitCode {
    let mut out = io::stdout();
    match verb(&mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("{tool}: {failure}");
            eprintln!("{usage}");
            ExitCode::FAILURE
        }
    }
}
