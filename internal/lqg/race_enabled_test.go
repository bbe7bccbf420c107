//go:build race

package lqg

// raceEnabled reports whether this test binary was built with the race
// detector (see instrumented).
const raceEnabled = true
