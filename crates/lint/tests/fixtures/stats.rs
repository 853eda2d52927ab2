//@ path: crates/demo/src/lib.rs
//! Golden input for `tspn-lint --stats`: only lines that carry code
//! tokens outside test extents count.

/// A doc comment is not code.
pub fn live(x: u32) -> u32 {
    // Neither is a line comment.

    let text = "a string literal
spanning two lines";
    x + text.len() as u32 /* a trailing block comment */
}

/* A block comment
   over two lines. */

#[cfg(test)]
mod tests {
    #[test]
    fn not_counted() {
        assert_eq!(super::live(1), 35);
    }
}

#[test]
fn also_not_counted() {}

pub const AFTER: u32 = 1;
