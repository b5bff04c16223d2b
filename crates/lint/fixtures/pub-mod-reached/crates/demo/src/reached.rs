/// Reached: `user.rs` imports it.
pub fn answer() -> u32 {
    42
}
