/// Orphaned: only this file and test code name the module.
pub fn unused() -> u32 {
    orphan_helper()
}

fn orphan_helper() -> u32 {
    7
}
