//! A minimal blocking client for the serve protocol: connect to the
//! socket, write one request line, read one response line.

use oolong_engine::{json, Json};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// One client session over the daemon's Unix socket. Requests on a
/// session are answered in order; open several clients for parallelism.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects to a running server's socket.
    ///
    /// # Errors
    ///
    /// Returns the connect error if no server is listening there.
    pub fn connect(socket: impl AsRef<Path>) -> std::io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one raw request line and returns the raw response line.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the connection drops before a full
    /// response line arrives.
    pub fn request_raw(&mut self, line: &str) -> std::io::Result<String> {
        writeln!(self.writer, "{}", line.trim_end())?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }

    /// Sends one request line and parses the response as JSON.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on connection loss or an unparsable
    /// response (which would be a server bug).
    pub fn request(&mut self, line: &str) -> std::io::Result<Json> {
        let raw = self.request_raw(line)?;
        json::parse(&raw).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed response from server: {e}"),
            )
        })
    }
}

/// Convenience for scripted sessions: whether a parsed response reports
/// success.
pub fn response_ok(response: &Json) -> bool {
    matches!(response.get("ok"), Some(Json::Bool(true)))
}
