//! A `bnnkc serve` child process and the wire calls the benchmark makes
//! to it.

use crate::model::{Result, CHANNELS, IMAGE};
use bnnkc_serve::Client;
use kc_core::wire::{InferRequest, Request, Response};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Registry name the benchmark serves its model under.
pub const MODEL: &str = "m";

/// A running daemon. Dropping it kills the process if it is still up.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// `HOST:PORT` the daemon listens on.
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start `bnnkc serve` on an ephemeral local port with the container
    /// at `container` registered as [`MODEL`], and wait until it is
    /// registered.
    ///
    /// # Errors
    ///
    /// Fails if the process cannot start, or exits or stalls before the
    /// model is registered.
    pub fn spawn(bnnkc: &Path, container: &Path, seed: u64) -> Result<Daemon> {
        let mut child = Command::new(bnnkc)
            .arg("serve")
            .arg("--model")
            .arg(format!("{MODEL}={}", container.display()))
            .args(["--addr", "127.0.0.1:0", "--image", &IMAGE.to_string()])
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut out = BufReader::new(child.stdout.take().ok_or("daemon stdout")?);
        let mut addr = None;
        let mut line = String::new();
        let registered = loop {
            line.clear();
            if out.read_line(&mut line)? == 0 {
                break false;
            }
            if let Some(a) = line.trim().strip_prefix("bnnkc serve: listening on ") {
                addr = Some(a.to_string());
            }
            if line.starts_with(&format!("registered `{MODEL}`")) {
                break true;
            }
        };
        let Some(addr) = addr.filter(|_| registered) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("bnnkc serve exited before registering the model".into());
        };
        // Keep the pipe drained so the daemon never blocks on stdout.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        });
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// Connect a client.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn client(&self) -> Result<Client> {
        Ok(Client::connect(&self.addr)?)
    }

    /// Hot-swap the served model with the container at `path`, returning
    /// the new version.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a refused swap.
    pub fn swap(&self, client: &mut Client, path: &Path) -> Result<u32> {
        let req = Request::Swap {
            model: MODEL.to_string(),
            path: path.display().to_string(),
        };
        match client.call(&req)? {
            Response::Swapped { version } => Ok(version),
            other => Err(format!("swap refused: {other:?}").into()),
        }
    }

    /// Drain and stop the daemon, waiting for the process to exit.
    ///
    /// # Errors
    ///
    /// Fails if the daemon does not acknowledge or exits unsuccessfully.
    pub fn shutdown(mut self) -> Result<()> {
        let ack = self
            .client()
            .and_then(|mut c| Ok(c.call(&Request::Shutdown)?));
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break Some(status);
            }
            if Instant::now() >= deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if status.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        match (ack, status) {
            (Ok(Response::Closing), Some(s)) if s.success() => Ok(()),
            (ack, status) => Err(format!("daemon shutdown: ack {ack:?}, exit {status:?}").into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// Wire request for one input image.
pub fn infer_request(seq: u64, input: &bitnn::Tensor) -> Request {
    Request::Infer(InferRequest {
        model: MODEL.to_string(),
        seq,
        shape: [CHANNELS as u32, IMAGE as u32, IMAGE as u32],
        data: input.data().to_vec(),
    })
}
