//! `milrd` — the retrieval daemon.
//!
//! ```text
//! milrd --snapshot DIR [--addr 127.0.0.1:7878] [--workers N]
//!       [--queue-depth N] [--read-timeout-ms N] [--handle-deadline-ms N]
//!       [--max-body BYTES] [--cache-capacity N] [--session-ttl-s N]
//!       [--session-capacity N] [--page K] [--policy POLICY]
//!       [--watch-snapshot] [--watch-interval-ms N]
//!       [--debug-endpoints] [--drain-on-stdin-eof]
//! ```
//!
//! Loads a snapshot directory (written by `milr preprocess`), binds,
//! prints one `milrd listening on ADDR ...` line to stdout (port `0`
//! resolves to the ephemeral port — test harnesses parse this line),
//! and serves until `POST /admin/shutdown` or, with
//! `--drain-on-stdin-eof`, until stdin closes. `POST /snapshot/reload`
//! (or `--watch-snapshot`, which polls `DIR/manifest.milr`) swaps in a
//! rewritten snapshot without dropping a single request.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use milr_serve::{ServeOptions, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  \
         milrd --snapshot DIR [--addr HOST:PORT] [--workers N]\n        \
         [--queue-depth N] [--read-timeout-ms N] [--handle-deadline-ms N]\n        \
         [--keepalive-burst N] [--keepalive-turn-ms N] [--priority-shed-fill F]\n        \
         [--max-body BYTES] [--cache-capacity N] [--session-ttl-s N]\n        \
         [--session-capacity N] [--page K] [--policy POLICY]\n        \
         [--backend gray-block|sbn] [--watch-snapshot] [--watch-interval-ms N]\n        \
         [--debug-endpoints] [--drain-on-stdin-eof]\n\n\
         POLICY: original | identical | alpha:A | constraint:B\n\
         --backend: refuse a snapshot preprocessed with any other feature backend"
    );
}

fn run(args: &[String]) -> Result<(), String> {
    let (server, banner) = Server::open(ServeOptions::from_flags(args)?)?;
    println!("{banner}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    if args.iter().any(|a| a == "--drain-on-stdin-eof") {
        // Detached on purpose: if shutdown arrives over HTTP instead,
        // this thread is still parked on stdin and process exit reaps it.
        let addr = server.local_addr();
        std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
            // Stdin closed: drain via the admin endpoint so the acceptor
            // unblocks exactly like an HTTP-initiated shutdown.
            let _ = milr_serve::client::request(
                addr,
                "POST",
                "/admin/shutdown",
                None,
                Duration::from_secs(2),
            );
        });
    }
    server.wait();
    println!("milrd drained");
    Ok(())
}
