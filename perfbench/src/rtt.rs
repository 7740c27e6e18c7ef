//! Closed-loop client: one Unix-socket connection, one request in flight.
//! Each request is timed from just before it is written to just after its
//! response line has been read; the client spins while it waits.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Sends the non-blank lines of `log_path` in lockstep, in chunks: each
/// line read from stdin holds a count, the next that many requests are
/// sent, and `ok` is printed when they are answered. At the end of stdin
/// it sends `shutdown`, then writes the responses (one per line) to
/// `responses_path` and the round-trip times in nanoseconds (one per line)
/// to `samples_path`.
pub fn run(
    socket: &str,
    log_path: &str,
    responses_path: &str,
    samples_path: &str,
) -> Result<(), String> {
    let log = crate::reference::read(log_path)?;
    let mut lines = log.lines().filter(|l| !l.trim().is_empty());
    let stream = connect(socket)?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = std::io::BufWriter::new(stream);
    let mut responses = String::new();
    let mut samples = Vec::new();
    let mut response = String::new();
    let mut stdout = std::io::stdout();
    for command in std::io::stdin().lock().lines() {
        let command = command.map_err(|e| format!("stdin: {e}"))?;
        let count: usize = command
            .trim()
            .parse()
            .map_err(|e| format!("chunk size '{command}': {e}"))?;
        for line in lines.by_ref().take(count) {
            let t0 = Instant::now();
            writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .map_err(|e| format!("writing to the daemon: {e}"))?;
            response.clear();
            let got = spin_line(&mut reader, &mut response)
                .map_err(|e| format!("reading from the daemon: {e}"))?;
            samples.push(t0.elapsed().as_nanos());
            if got == 0 {
                return Err("the daemon closed the connection".into());
            }
            responses.push_str(&response);
        }
        writeln!(stdout, "ok")
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("stdout: {e}"))?;
    }
    writer
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .and_then(|()| writer.flush())
        .map_err(|e| format!("writing shutdown: {e}"))?;
    response.clear();
    spin_line(&mut reader, &mut response)
        .map_err(|e| format!("reading the shutdown reply: {e}"))?;
    std::fs::write(responses_path, responses).map_err(|e| format!("{responses_path}: {e}"))?;
    let text: String = samples.iter().map(|s| format!("{s}\n")).collect();
    std::fs::write(samples_path, text).map_err(|e| format!("{samples_path}: {e}"))
}

/// Connects, retrying while the daemon is still binding its socket.
fn connect(socket: &str) -> Result<UnixStream, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("connecting to {socket}: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Reads one response line from the nonblocking socket, spinning while no
/// bytes are ready: the client's CPU never sleeps, so a round trip holds the
/// daemon's work and wake-up but not the client's own wake-up, which on a
/// virtual machine swings with the host's load. Returns the line's length,
/// 0 at end of stream. Responses are ASCII, so a line split across reads
/// never splits a character.
fn spin_line(reader: &mut BufReader<UnixStream>, line: &mut String) -> std::io::Result<usize> {
    loop {
        match reader.read_line(line) {
            Ok(n) if n > 0 && !line.ends_with('\n') => continue,
            Ok(_) => return Ok(line.len()),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
            Err(e) => return Err(e),
        }
    }
}
