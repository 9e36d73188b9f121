//go:build race

package sim

// raceEnabled reports that this binary was built with -race, whose
// instrumentation allocates on its own and so voids allocation counts.
const raceEnabled = true
