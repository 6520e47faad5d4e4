//go:build race

package sim

// raceEnabled mirrors the root test helper: allocation guards skip
// under race instrumentation.
const raceEnabled = true
