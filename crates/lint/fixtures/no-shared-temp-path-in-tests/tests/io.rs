//! Fixture: an integration test writing to a fixed temp path.

#[test]
fn writes_a_fixture() {
    let path = std::env::temp_dir().join("fixture.hgr");
    let _ = path;
}
