//! The server under test: a separate `bnb serve` process, spawned,
//! probed through its own `/status` endpoint, and drained through the
//! wire `SHUTDOWN` message.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use bnb_serve::protocol::{read_message, write_message, Message};
use bnb_serve::StatusSnapshot;

use crate::frames::{sources_deliver, Pool};

/// A running `bnb serve`. Dropping it kills and reaps the process, so no
/// server outlives the benchmark, whatever path it exits by.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Spawns `bnb serve` with `flags` and waits for its `listening on`
    /// line.
    pub fn spawn(bnb: &Path, flags: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(bnb)
            .arg("serve")
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bnb.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut proc = ServerProc {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        proc.stdout
            .read_line(&mut line)
            .map_err(|e| format!("cannot read server banner: {e}"))?;
        proc.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?
            .to_string();
        Ok(proc)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One `GET /status`, parsed.
    pub fn status(&self) -> Result<StatusSnapshot, String> {
        let fail = |e: &dyn std::fmt::Display| format!("GET /status failed: {e}");
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| fail(&e))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| fail(&e))?;
        stream
            .write_all(b"GET /status HTTP/1.1\r\nConnection: close\r\n\r\n")
            .map_err(|e| fail(&e))?;
        let mut response = Vec::new();
        stream.read_to_end(&mut response).map_err(|e| fail(&e))?;
        let body_at = response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| fail(&"no HTTP body"))?
            + 4;
        let body = std::str::from_utf8(&response[body_at..]).map_err(|e| fail(&e))?;
        serde_json::from_str(body).map_err(|e| fail(&e))
    }

    /// Drains the server through a wire `SHUTDOWN` and returns its
    /// session report (the JSON it prints on exit).
    pub fn shutdown(mut self) -> Result<String, String> {
        if let Ok(mut s) = TcpStream::connect(&self.addr) {
            let _ = write_message(
                &mut s,
                &Message::Shutdown {
                    tenant: 0,
                    request_id: 0,
                },
            );
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut report = String::new();
                    let _ = self.stdout.read_to_string(&mut report);
                    return if status.success() {
                        Ok(report)
                    } else {
                        Err(format!("server exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not drain within 20 s".into()),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Spawns a server and times it to its first verified frame: spawn,
/// banner, connect, one SUBMIT, one verified ROUTED.
pub fn spawn_timed(bnb: &Path, flags: &[String], pool: &Pool) -> Result<(ServerProc, f64), String> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(bnb, flags)?;
    let fail = |e: &dyn std::fmt::Display| format!("first frame failed: {e}");
    let mut stream = TcpStream::connect(&server.addr).map_err(|e| fail(&e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| fail(&e))?;
    stream.set_nodelay(true).map_err(|e| fail(&e))?;
    let dests = &pool.dests[0];
    write_message(
        &mut stream,
        &Message::Submit {
            tenant: 1,
            request_id: 1,
            dests: dests.clone(),
        },
    )
    .map_err(|e| fail(&e))?;
    match read_message(&mut stream).map_err(|e| fail(&e))? {
        Some(Message::Routed {
            request_id: 1,
            sources,
            ..
        }) if sources_deliver(dests, &sources) => {}
        other => return Err(fail(&format!("unexpected reply {other:?}"))),
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// Reads the unsigned integer field `key` from a flat JSON document.
pub fn json_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::json_u64;

    #[test]
    fn reads_flat_json_fields() {
        let doc = r#"{"frames_served":12,"retries_issued":0,"graceful":true}"#;
        assert_eq!(json_u64(doc, "frames_served"), Some(12));
        assert_eq!(json_u64(doc, "retries_issued"), Some(0));
        assert_eq!(json_u64(doc, "graceful"), None);
        assert_eq!(json_u64(doc, "missing"), None);
    }
}
