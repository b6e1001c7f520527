//! L10 fail fixture: the serve root reaches an `unwrap`, a `panic!`, and
//! an `expect` two calls deep — each one a request-killing panic site.

// hot-path-root
pub fn handle_request(req: &[u8]) -> u32 {
    let v = decode(req);
    seal(v)
}

fn decode(req: &[u8]) -> u32 {
    let b = req.first().unwrap();
    if *b > 9 {
        panic!("bad header");
    }
    u32::from(*b)
}

fn seal(v: u32) -> u32 {
    checked(v).expect("must fit")
}

fn checked(v: u32) -> Option<u32> {
    v.checked_mul(2)
}

pub fn offline_tool(xs: &[u32]) -> u32 {
    xs.iter().copied().max().unwrap() // unreachable from the serve root
}
