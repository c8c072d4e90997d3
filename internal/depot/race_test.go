//go:build race

package depot

func init() { raceEnabled = true }
