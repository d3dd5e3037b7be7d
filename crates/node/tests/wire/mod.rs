//! Blocking frame I/O for tests that play a peer by hand over a plain
//! `TcpStream`: a frame goes out as `encode_frame`'s bytes and comes in
//! with two exact reads (the length prefix, then the body).

use std::io::{self, Read, Write};

use bytes::BytesMut;
use p2ps_proto::{decode_frame, encode_frame, DecodeError, Message, MAX_FRAME_LEN};

/// Writes `msg` as one frame.
pub fn write_message(mut w: impl Write, msg: &Message) -> io::Result<()> {
    let mut frame = BytesMut::new();
    encode_frame(msg, &mut frame);
    w.write_all(&frame)
}

/// Reads exactly one frame; a clean end of stream before it is
/// `UnexpectedEof`.
pub fn read_message(mut r: impl Read) -> io::Result<Message> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(DecodeError::FrameTooLarge(len).into());
    }
    let mut frame = BytesMut::with_capacity(4 + len);
    frame.extend_from_slice(&prefix);
    frame.resize(4 + len, 0);
    r.read_exact(&mut frame[4..])?;
    Ok(decode_frame(&mut frame)?.expect("the frame is whole"))
}
