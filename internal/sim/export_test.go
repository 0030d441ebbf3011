package sim

// ChainFixture is chainFixture for the package's external tests.
var ChainFixture = chainFixture
