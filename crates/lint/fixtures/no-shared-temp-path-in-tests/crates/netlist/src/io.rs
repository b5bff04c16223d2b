//! Fixture: a fixed temp path shared by concurrently running tests.

pub fn scratch_dir() -> std::path::PathBuf {
    // Not test code: a program may pick its own fixed path.
    std::env::temp_dir().join("app_scratch")
}

#[cfg(test)]
mod tests {
    #[test]
    fn shared_path() {
        let dir = std::env::temp_dir().join("shared_fixture");
        let _ = dir;
    }

    #[test]
    fn per_process_path() {
        let dir = std::env::temp_dir().join(format!("own_fixture_{}", std::process::id()));
        let _ = dir;
    }
}
