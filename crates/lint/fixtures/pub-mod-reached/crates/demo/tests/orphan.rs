// An integration test naming `orphan` does not reach it either.
use demo::orphan::unused;

#[test]
fn orphan_answers() {
    assert_eq!(unused(), 7);
}
