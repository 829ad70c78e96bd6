//! A reader that stops early — `mcloud trace | head -c 100` — ends the
//! run quietly: no panic, no exit status 101, just a successful exit.

use std::io::{Read, Write};
use std::process::{Command, Stdio};

/// Spawns `mcloud args`, feeds it `stdin`, reads the first 100 bytes of
/// its stdout and closes the pipe; returns (exit status, stderr).
fn run_and_hang_up(args: &[&str], stdin: &[u8]) -> (std::process::ExitStatus, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mcloud"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mcloud");
    let mut input = child.stdin.take().expect("piped stdin");
    let stdin = stdin.to_vec();
    // A writer of its own, so a child blocked on its stdout cannot
    // deadlock against this thread; the child may stop reading once its
    // stdout is gone, so a failed write here is expected.
    let feeder = std::thread::spawn(move || {
        let _ = input.write_all(&stdin);
    });
    let mut out = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 100];
    out.read_exact(&mut head).expect("first 100 bytes");
    drop(out);
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut err)
        .expect("read stderr");
    let status = child.wait().expect("wait");
    feeder.join().expect("stdin feeder");
    (status, err)
}

#[test]
fn closing_stdout_early_is_a_quiet_successful_end() {
    // Each output is far larger than a pipe buffer, so the writer is
    // still writing when the read end closes.
    let query = r#"{"op": "simulate", "args": ["--degrees", "0.5", "--procs", "4"]}"#;
    let frame = format!("{}\n{query}", query.len());
    let session = frame.repeat(2_000);
    for (args, stdin) in [
        (&["generate", "--degrees", "4"][..], &b""[..]),
        (&["trace", "--degrees", "2"][..], &b""[..]),
        (&["serve"][..], session.as_bytes()),
    ] {
        let (status, stderr) = run_and_hang_up(args, stdin);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(status.code(), Some(101), "{args:?}: {stderr}");
        assert!(status.success(), "{args:?}: {status} {stderr}");
    }
}
