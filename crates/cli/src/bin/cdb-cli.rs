//! The `cdb-cli` binary: an interactive REPL (or one-shot command) for a
//! running `cdb-serve`.
//!
//! ```text
//! cdb-cli [--addr HOST:PORT] [command...]
//! ```
//!
//! With no command it starts a REPL (`cdb>` prompt, one command per
//! line — see `help`). With a command it runs that once and exits with a
//! non-zero status on network errors (a missing or unparseable `--addr`
//! prints usage to stderr and exits 2), e.g.:
//!
//! ```text
//! cdb-cli --addr 127.0.0.1:8744 submit acme 10000 \
//!     "SELECT * FROM Researcher, University \
//!      WHERE Researcher.affiliation CROWDJOIN University.name"
//! ```

#![deny(missing_docs)]

use std::io::{BufRead, Write};

use cdb_cli::{parse_command, Flow, Session, HELP};

const USAGE: &str = "cdb-cli [--addr HOST:PORT] [command...]";

fn main() {
    let mut addr = std::net::SocketAddr::from(([127, 0, 0, 1], 8744));
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("usage: {USAGE}");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                print!("{USAGE}\n\n{HELP}");
                return;
            }
            _ => {
                rest.push(a);
                rest.extend(it);
                break;
            }
        }
    }
    let mut session = Session::new(addr);
    let stdout = std::io::stdout();

    // One-shot mode: the rest of argv is a single command.
    if !rest.is_empty() {
        let line = rest.join(" ");
        let cmd = match parse_command(&line) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        if let Err(e) = session.run(&cmd, &mut stdout.lock()) {
            eprintln!("error talking to {addr}: {e}");
            std::process::exit(1);
        }
        return;
    }

    // REPL mode.
    eprintln!("connected to {addr} — `help` lists commands, `quit` exits");
    let stdin = std::io::stdin();
    loop {
        eprint!("cdb> ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("stdin error: {e}");
                return;
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        let cmd = match parse_command(&line) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                continue;
            }
        };
        match session.run(&cmd, &mut stdout.lock()) {
            Ok(Flow::Continue) => {}
            Ok(Flow::Quit) => return,
            Err(e) => eprintln!("error talking to {addr}: {e}"),
        }
    }
}
