//@ path: crates/serve/src/http.rs
// Fixture: serve-panic on a request-path file. unwrap/expect/panic-family
// are deny, and so is slice indexing (the serve-index rule); poison
// recovery and ?-propagation pass.

pub fn bad_unwrap(body: Option<&str>) -> &str {
    body.unwrap()
}

pub fn bad_expect(code: Result<u16, String>) -> u16 {
    code.expect("status")
}

pub fn bad_macro(route: &str) -> u16 {
    match route {
        "/health" => 200,
        _ => unreachable!("router covers every route"),
    }
}

pub fn bad_indexing(buf: &[u8]) -> u8 {
    buf[0]
}

pub fn fine_propagation(body: Option<&str>) -> Result<&str, String> {
    body.ok_or_else(|| "missing body".to_string())
}

pub fn fine_poison(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap_or_else(|p| p.into_inner())
}
