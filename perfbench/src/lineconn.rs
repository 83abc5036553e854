//! A non-blocking line connection and a `ppoll(2)` wait, so one thread can
//! drive a pipelined open loop and a closed loop on two connections at
//! once and still timestamp each reply when it arrives.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until one of `conns` is readable (or writable, while it holds
/// unsent bytes), or until `timeout` passes. `ppoll` takes a nanosecond
/// timeout, so the wait does not round the generator's schedule to
/// milliseconds the way `poll(2)` would.
pub fn wait(conns: &[&LineConn], timeout: Duration) -> std::io::Result<()> {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: if c.wbuf.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout entries, `ts` outlives the call, and a null
    // sigmask is documented to leave the signal mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// A TCP connection in non-blocking mode with its own read and write
/// buffers; replies are split into lines.
pub struct LineConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
}

impl LineConn {
    /// Switches `stream` to non-blocking mode.
    pub fn new(stream: TcpStream) -> std::io::Result<LineConn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(LineConn {
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            rpos: 0,
            wbuf: Vec::with_capacity(1 << 16),
        })
    }

    /// Appends one line (without newline) to the send buffer.
    pub fn queue(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Sends as much of the send buffer as the socket takes now.
    pub fn flush(&mut self) -> std::io::Result<()> {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads everything the socket holds now. End of stream is an error:
    /// the server never closes a connection the benchmark still uses.
    pub fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete reply line, if one has arrived.
    pub fn next_line(&mut self) -> Option<String> {
        let end = self.rbuf[self.rpos..].iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.rbuf[self.rpos..self.rpos + end]).into_owned();
        self.rpos += end + 1;
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        }
        Some(line)
    }

    /// Blocking request/reply for set-up steps (`OPEN`, `QUERY`): sends
    /// `line` and waits for one reply line.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.queue(line);
        loop {
            self.flush()?;
            if let Some(reply) = self.next_line() {
                return Ok(reply);
            }
            wait(&[self], Duration::from_secs(1))?;
            self.fill()?;
        }
    }
}
