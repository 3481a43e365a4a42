//! A minimal blocking client for the framed protocol, used by the
//! load harness and the integration tests.

use crate::protocol::{read_frame, write_frame, Frame, ProtocolError, QueryRequest};
use std::io::Read;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};

/// One blocking connection to a query server.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self { stream })
    }

    /// Sends one request and blocks for the reply frame (a
    /// [`Frame::Response`] or [`Frame::Error`]).
    pub fn query(&mut self, req: &QueryRequest) -> Result<Frame, ProtocolError> {
        write_frame(&mut self.stream, &Frame::Request(req.clone()))
            .map_err(|e| ProtocolError::Io(e.kind()))?;
        read_frame(&mut self.stream)
    }

    /// Half-closes the connection and waits for the server to close its
    /// end. The server closes only once it has finished every request
    /// the connection sent, stage histograms included, so a metrics
    /// scrape taken after this returns counts all of them.
    pub fn close(mut self) -> std::io::Result<()> {
        self.stream.shutdown(Shutdown::Write)?;
        self.stream.read_to_end(&mut Vec::new()).map(drop)
    }
}
