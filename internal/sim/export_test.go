package sim

// ChainFixture is chainFixture for the package's external tests, and
// Timing binds its durations to a run's options.
var (
	ChainFixture = chainFixture
	Timing       = timing
)
