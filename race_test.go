//go:build race

package maya

func init() { raceEnabled = true }
