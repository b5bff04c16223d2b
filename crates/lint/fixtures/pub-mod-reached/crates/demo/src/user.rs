use crate::reached::answer;

/// Live code naming `reached` is what keeps it reached.
pub fn twice() -> u32 {
    2 * answer()
}

#[cfg(test)]
mod tests {
    // A unit test naming `orphan` does not reach it.
    use crate::orphan::unused;

    #[test]
    fn orphan_answers() {
        assert_eq!(unused(), 7);
    }
}
