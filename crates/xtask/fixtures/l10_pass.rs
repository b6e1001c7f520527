//! L10 pass fixture: the serve closure propagates errors instead of
//! panicking; the only `unwrap` in the file is outside the closure.

// hot-path-root
pub fn handle_request(req: &[u8]) -> Result<u32, Error> {
    let v = decode(req)?;
    Ok(double(v))
}

fn decode(req: &[u8]) -> Result<u32, Error> {
    match req.first() {
        Some(b) => Ok(u32::from(*b)),
        None => Err(Error::Empty),
    }
}

fn double(v: u32) -> u32 {
    v.saturating_mul(2)
}

pub fn offline_tool(xs: &[u32]) -> u32 {
    xs.iter().copied().max().unwrap() // unreachable from the serve root
}
