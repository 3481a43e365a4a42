// Fixture: `.lock().unwrap()` — the std-Mutex poisoning idiom (rule
// `lock-unwrap`). Fires only under the hot-path crates, which use
// parking_lot locks.

pub fn read(side: &SideTable) -> u32 {
    let guard = side.inner.lock().unwrap();
    *guard
}
