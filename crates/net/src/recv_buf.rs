//! A socket read buffer that reads in place.
//!
//! The reactor's connections, [`NetClient`](crate::NetClient) and the
//! cluster router's member links all read a byte stream into a buffer and
//! take whole frames off its front. [`RecvBuf`] is that buffer: each read is
//! one syscall of up to the caller's limit straight into the buffer's free
//! tail, so a 48 KiB reply is one read rather than a dozen 4 KiB ones and no
//! stack chunk is zeroed and copied per call.

use std::io::Read;

/// Most bytes one socket read asks for — and the most the reactor reads
/// from one connection per sweep, its fairness quantum: a whole 48 KiB
/// reply (a 2× upscale of a 3×64×64 image) and more in one syscall.
pub const READ_CHUNK: usize = 64 * 1024;

/// Bytes read from a stream and not yet consumed.
///
/// The free tail is zeroed only when the buffer grows, never per read, and
/// consumed bytes are dropped by moving an offset; the unconsumed bytes move
/// to the front only when the tail is too short for the next read. The
/// buffer holds at most the unconsumed bytes plus one read's limit.
#[derive(Debug, Default)]
pub struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl RecvBuf {
    /// An empty buffer; it allocates on the first read.
    pub fn new() -> RecvBuf {
        RecvBuf::default()
    }

    /// The unconsumed bytes, oldest first.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Number of unconsumed bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when every byte read has been consumed.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Drop the first `n` unconsumed bytes.
    ///
    /// # Panics
    ///
    /// When `n` exceeds [`RecvBuf::len`].
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "consumed {n} of {} bytes", self.len());
        self.start += n;
        if self.start == self.end {
            self.clear();
        }
    }

    /// Drop every unconsumed byte (the allocation is kept).
    pub fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// One `read` of at most `max` bytes, appended to the unconsumed bytes.
    /// `Ok(0)` means end of stream.
    ///
    /// # Errors
    ///
    /// Whatever the reader's `read` returns, `WouldBlock` and timeouts
    /// included; nothing is appended then.
    ///
    /// # Panics
    ///
    /// When `max` is 0: a zero-length read would look like end of stream.
    pub fn read_from(&mut self, reader: &mut impl Read, max: usize) -> std::io::Result<usize> {
        assert!(max > 0, "a read needs room for at least one byte");
        if self.buf.len() - self.end < max {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.buf.len() - self.end < max {
                self.buf.resize(self.end + max, 0);
            }
        }
        let n = reader.read(&mut self.buf[self.end..self.end + max])?;
        self.end += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_append_and_consume_drops_from_the_front() {
        let mut source: &[u8] = b"abcdefghij";
        let mut buf = RecvBuf::new();
        assert_eq!(buf.read_from(&mut source, 4).unwrap(), 4);
        assert_eq!(buf.read_from(&mut source, 3).unwrap(), 3);
        assert_eq!(buf.bytes(), b"abcdefg");
        buf.consume(5);
        assert_eq!(buf.bytes(), b"fg");
        // The tail is too short for 8 more: the two unconsumed bytes move
        // to the front and the buffer grows only by what the read needs.
        assert_eq!(buf.read_from(&mut source, 8).unwrap(), 3);
        assert_eq!(buf.bytes(), b"fghij");
        assert_eq!(buf.buf.len(), 2 + 8);
        assert_eq!(buf.read_from(&mut source, 8).unwrap(), 0, "end of stream");
        buf.consume(5);
        assert!(buf.is_empty());
        assert_eq!((buf.start, buf.end), (0, 0), "empty rewinds to the front");
    }

    #[test]
    fn a_failed_read_appends_nothing() {
        struct Blocked;
        impl Read for Blocked {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::WouldBlock.into())
            }
        }
        let mut buf = RecvBuf::new();
        let mut source: &[u8] = b"xy";
        buf.read_from(&mut source, 2).unwrap();
        assert!(buf.read_from(&mut Blocked, 16).is_err());
        assert_eq!(buf.bytes(), b"xy");
    }

    #[test]
    #[should_panic(expected = "consumed 3 of 2 bytes")]
    fn consuming_more_than_was_read_is_a_bug() {
        let mut source: &[u8] = b"xy";
        let mut buf = RecvBuf::new();
        buf.read_from(&mut source, 2).unwrap();
        buf.consume(3);
    }
}
